"""Coloured-noise generation schemes for stochastic two-level dynamics.

The package synthesises pairs of complex Gaussian noises with prescribed
auto- and cross-correlations, integrates the stochastically driven
two-level system they act on, and benchmarks the interchangeable
generation schemes against exact references.
"""

from .exceptions import (
    AsymmetryExceeded,
    ConfigError,
    DivisionByZeroSpectrum,
    GridMismatch,
    InsufficientSample,
    SingularPoint,
    SlnoiseError,
    ZeroComponent,
)
from .grids import FrequencyGrid, TimeGrid, flip_freq
from .kernels import (
    BathParams,
    CustomKernel,
    KernelTable,
    build_kernel_table,
    k_etaeta_freq,
    k_etanu_freq,
    kernel_time,
    spectral_density,
)
from .schemes import (
    ConstraintReport,
    FilterSet,
    FilterStructure,
    SchemeId,
    convex_c,
    expected_nu_power,
    expected_total_power,
    make_filters,
    mixed_filters,
    mixing_optimised,
    mixing_reduced,
    rescale_factor,
    verify_constraint,
    wiener_inverse,
)
from .noise import (
    CorrelationEstimate,
    NoisePair,
    Synthesizer,
    estimate_correlations,
    sample_white,
    synthesize,
    synthesize_batch,
    synthesize_from_white,
)
from .dynamics import (
    DIVERGENCE_THRESHOLD,
    LZ_FINITE_WINDOW,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QndModel,
    SystemModel,
    Trajectory,
    integrate_batch,
    integrate_blocks,
    integrate_trajectory,
    lz_asymptote,
    qnd_exact,
    qnd_kernel,
    qnd_sln_config,
    rho_to_state,
)
from .ensemble import (
    EnsembleStats,
    LambdaScan,
    RunConfig,
    run_coherence,
    run_ensemble,
    scan_lambda,
    seed_for,
)

__version__ = "0.1.0"
