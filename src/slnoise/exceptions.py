"""Exception types shared across the library."""


class SlnoiseError(Exception):
    """Base class for all slnoise errors."""


class SingularPoint(SlnoiseError):
    """A frequency coincides with the hard spectral cutoff, where the
    cross-correlation transform has a logarithmic divergence."""


class AsymmetryExceeded(SlnoiseError):
    """Numerically enforced kernel symmetry required a correction larger
    than the allowed tolerance (grid too coarse)."""


class DivisionByZeroSpectrum(SlnoiseError):
    """Bare spectral division requested on a spectrum with zero bins;
    a regularisation parameter gamma > 0 is required."""


class GridMismatch(SlnoiseError):
    """Filter set and time grid were built on different grids."""


class InsufficientSample(SlnoiseError):
    """Too few realizations for the requested statistic."""


class ConfigError(SlnoiseError, ValueError):
    """Invalid configuration: a refused value, config file or option.
    Also a ValueError."""


class ZeroComponent(ConfigError):
    """Rescaling requested for a scheme without cross-correlative
    components."""
