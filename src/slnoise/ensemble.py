"""Ensemble runs: trajectory averaging in units of work, and the lambda scan.

Realizations are independent; each gets its own counter-based RNG stream
derived from the master seed.  A run's realizations are cut into *units*
of BATCH_ROWS // 2 = 128 consecutive ones (the last may be shorter),
whatever the thread count.

One worker thread runs each unit, SYNTH_THREADS of them at once.  It
takes the unit's realizations in chunks of the synthesizer's
``chunk_rows`` (at most 16, fewer on long grids): draws and colours a
chunk (:meth:`~slnoise.noise.Synthesizer.colour`), integrates the
colouring's rows where they lie, views of its transform buffers, with
:func:`integrate_blocks` at every rescaling strength of the run, and
adds each block of states, column after column in realization order,
into the unit's per-step sums (:class:`_Sums`).  No copy of a chunk's
noise is made: RK4 gathers each block's half steps into a tile of a few
hundred kB.  Every per-chunk buffer, the colouring workspace, the factor
table and the RK4 state, block, tile and divergence rows, is allocated
once per worker per run, in the synthesizer's per-thread store
(:meth:`~slnoise.noise.Synthesizer.scratch`), and reused for every chunk
of every unit the worker takes; it is freed with the run.  The
draw, the FFTs, RK4 and the adds (``sln_sums``) release the interpreter
lock, so the units run on all cores.  The calling thread adds each unit's
sums into running sums of the same class, and its first divergences into
a histogram, in unit order, while the threads work the next units; every
ensemble, run_coherence's too, is reduced by that one loop
(:func:`_reduce`).  No noise array of more than a chunk exists.  A
realization's noise and trajectory depend only on its seed, never on the
thread, the chunk or the kernel that computed them, and every sum is
taken in one fixed order, so every statistic depends on the config
alone, independent of SYNTH_THREADS.  A sum of n values in order errs
by at most n - 1 roundings of the sum of their moduli (Higham, SIAM J.
Sci. Comput. 14, 783 (1993)): 127 within a unit, and one per unit in the
running sums.  The lambda scan stores and adds only the steps of the
final stats window, the only ones it reports: the steps before that
window are integrated and checked for divergence, but no state of them
is stored, and a trajectory that diverged in one counts as diverged from
the window's first step on.

Rescaled runs synthesize each realization's noise once, whatever the
number of rescaling strengths lambda: a chunk's colouring leaves its noise
without the cross-correlative pair, the unscaled pair and the
per-realization rescale factors of every strength.  RK4 integrates the
chunk at all strengths in one pass, as one array of strengths x
realizations columns, the factors applied block by block, each block's
noise gathered once for all of them; strengths are grouped so that a pass
has at most RK4_COLUMNS columns, which bounds its buffers whatever the
number of strengths.  Each block is added for every strength of the pass
at once, into accumulators kept per strength, so each point of
:func:`scan_lambda` equals a stand-alone :func:`run_ensemble` with that
lambda, bitwise; a single rescaled run is the one-strength case.

Before any noise is drawn, a run is charged its memory in two named parts
(:func:`~slnoise.noise.check_memory`), each term sized by the helper its
allocation uses: the grid (each thread's colouring workspace, charged at
numpy's, and RK4 pass, and the kernel table and filters) and the
strengths (the units in flight, the running sums and the statistics).

The trace variance and standard error are pooled over sliding windows of
time steps (default 100): every step inside a window is treated as a
sample alongside the realizations, which stabilises the estimate exactly
where single-step scatter would dominate.
"""

from __future__ import annotations

import collections
import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _native

# integrate_batch, sample_white and synthesize_from_white are not called
# here; perfbench/spans.py traces the layers through these names.
from .dynamics import (SystemModel, integrate_batch,  # noqa: F401
                       integrate_blocks, rk4_bytes)
from .dynamics import BATCH_ROWS, _probe as _rk4_probe
from .exceptions import ConfigError, SlnoiseError
from .grids import TimeGrid
from .kernels import BathParams, CustomKernel, KernelTable, build_kernel_table
from .noise import (TABLE_BYTES, Synthesizer, check_memory, chunk_rows,  # noqa: F401
                    grid_name, sample_white, synthesize_from_white,
                    workspace_bytes)
from .schemes import FilterSet, SchemeId, make_filters

__all__ = [
    "RunConfig",
    "EnsembleStats",
    "LambdaScan",
    "seed_for",
    "run_ensemble",
    "run_coherence",
    "scan_lambda",
]

# Threads that work the units of a run: one per core this process may use.
SYNTH_THREADS = len(os.sched_getaffinity(0))

# Columns (strengths x realizations) RK4 integrates in one pass of a
# rescaled chunk: wide enough that the cost per column-step has levelled
# off, small enough that the pass's buffers stay a few MB.
RK4_COLUMNS = 4096


def seed_for(master_seed: int, index: int,
             group: Tuple[int, ...] = ()) -> np.random.SeedSequence:
    """Independent, platform-stable stream seed for one realization.

    The optional group prefix puts whole sub-ensembles on disjoint streams;
    the points of :func:`scan_lambda` share theirs on purpose.
    """
    return np.random.SeedSequence(master_seed, spawn_key=(*group, index))


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one ensemble run."""

    scheme: SchemeId
    model: SystemModel
    grid: TimeGrid
    n_realizations: int
    master_seed: int
    bath: Optional[BathParams] = None
    kernel: Optional[CustomKernel] = None
    gamma: float = 0.01
    lam: Optional[float] = None
    stats_window: int = 100

    def __post_init__(self):
        if self.n_realizations < 2:
            raise ConfigError("n_realizations must be >= 2")
        if self.stats_window < 1:
            raise ConfigError("stats_window must be >= 1")
        if (self.bath is None) == (self.kernel is None):
            raise ConfigError("exactly one of bath or kernel must be given")
        if not 0 <= self.gamma < np.inf:
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma:g}")
        # a custom kernel's spectrum may have no zero bin to divide by
        if (self.gamma == 0 and self.scheme is SchemeId.CONSTRAINED
                and self.bath is not None):
            raise ConfigError(
                "gamma=0 is invalid for the constrained scheme: the hard cutoff "
                "makes the spectrum exactly zero on high-frequency bins, so the "
                "bare spectral division diverges; set gamma > 0")
        if self.master_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.master_seed}")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ConfigError(f"lambda must be positive and finite, got {self.lam:g}")

    def noise_grid(self) -> TimeGrid:
        """Noise is sampled at half the integration step for RK4 stages;
        refuses a t_max that rounds to other than 2 half steps a step."""
        ngrid = TimeGrid(self.grid.dt / 2.0, self.grid.t_max, self.grid.pad_factor)
        if ngrid.n_phys != 2 * self.grid.n_phys - 1:
            raise ConfigError(
                f"t_max = {self.grid.t_max:g} is not a whole number of steps "
                f"dt = {self.grid.dt:g}")
        return ngrid

    def kernel_table(self) -> KernelTable:
        source = self.bath if self.bath is not None else self.kernel
        return build_kernel_table(self.noise_grid().freq(), source)

    def filters(self) -> FilterSet:
        return make_filters(self.scheme, self.kernel_table(), self.gamma)


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time-step ensemble statistics of one run.

    var_tr/se_tr are pooled over the stats window containing each step;
    diverged counts how many trajectories have crossed the divergence
    threshold by each step (they remain in the averages).
    """

    t: np.ndarray
    mean_tr: np.ndarray
    abs_mean_tr: np.ndarray
    var_tr: np.ndarray
    se_tr: np.ndarray
    mean_sx: np.ndarray
    mean_sy: np.ndarray
    mean_sz: np.ndarray
    diverged: np.ndarray
    n_realizations: int
    stats_window: int


def _pooled_window_stats(sum_tr: np.ndarray, sum_abs2: np.ndarray,
                         nreal: int, window: int):
    """Windowed pooled variance/SE series from per-step accumulators, the
    steps on the last axis, one series for each index of the others, all
    of a window at once (inf or nan where diverged trajectories
    overflowed them)."""
    n_steps = sum_tr.shape[-1]
    var = np.empty(sum_abs2.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, window):
            sl = slice(start, min(start + window, n_steps))
            m = (sl.stop - sl.start) * nreal
            s1 = np.sum(sum_tr[..., sl], axis=-1)
            s2 = np.sum(sum_abs2[..., sl], axis=-1)
            # |s1|^2 as a float's ** 2 forms it, with libm's pow, which
            # differs from |s1|*|s1| in the last bit for about 1 value in
            # 1000 (the ** of an array squares)
            v = (s2 - np.float_power(np.abs(s1), 2.0) / m) / max(m - 1, 1)
            # max(v, 0.0), which keeps a nan and a -0.0
            var[..., sl] = np.where(v < 0.0, 0.0, v)[..., None]
    se = np.sqrt(var / nreal)
    return var, se


def _check_finite(*stats: np.ndarray) -> None:
    """Refuse statistics that are not finite although no trajectory
    diverged: the integration, not the physics, went wrong."""
    if not all(np.isfinite(s).all() for s in stats):
        raise SlnoiseError("the ensemble statistics are not finite although "
                           "no trajectory diverged")


def _points_per_pass(rows: int, n_points: int) -> int:
    """Strengths RK4 integrates in one pass of a chunk of ``rows``."""
    return min(max(RK4_COLUMNS // rows, 1), n_points)


class _Sums:
    """The sums over the columns of one unit, added column after column in
    order: of ``nq`` complex quantities, ``c`` (points, steps, nq), and of
    the squared modulus of the last one, formed as re*re + im*im, ``f``
    (points, steps), at each of ``n_points`` strengths and ``n_steps``
    steps.  ``native`` is the native pass ``sln_sums``, or None for numpy's
    in-order adds, the reference; both give the same bits.  A run's running
    sums, the units' sums added in unit order, are one too."""

    def __init__(self, n_points: int, n_steps: int, nq: int, native):
        self.native = native
        self.c = np.zeros((n_points, n_steps, nq), dtype=complex)
        self.f = np.zeros((n_points, n_steps))

    @staticmethod
    def nbytes(n_points: int, n_steps: int, nq: int = 4) -> int:
        """Bytes of the sums, of a unit or of a run."""
        return n_points * n_steps * (16 * nq + 8)

    def add(self, block: np.ndarray, rows: int, point: int, step: int) -> None:
        """Adds ``block``, (m, nq, points x rows) complex, as the unit's next
        ``rows`` columns at the strengths from ``point`` on (column l * rows
        + r of the block is column r at strength point + l) and the steps
        from ``step`` on."""
        m, nq, width = block.shape
        n_steps = self.c.shape[1]
        if self.native is not None and block.flags.c_contiguous:
            at = point * n_steps + step
            self.native(block.ctypes.data, m, nq, width, rows,
                        self.c.ctypes.data + 16 * nq * at,
                        self.f.ctypes.data + 8 * at, n_steps)
            return
        x = block.reshape(m, nq, width // rows, rows)
        points, steps = slice(point, point + width // rows), slice(step, step + m)
        c, f = self.c[points, steps], self.f[points, steps]
        for r in range(rows):
            column = x[..., r].transpose(2, 0, 1)
            c += column
            last = column[..., -1]
            f += last.real * last.real + last.imag * last.imag


def _nan_as_nan(a: np.ndarray) -> np.ndarray:
    """The bits of ``a``, every nan as numpy's default nan: which of two
    nans numpy's add returns depends on the lane of its compiled loop."""
    a = a.view(float).copy()
    a[np.isnan(a)] = np.nan
    return a.view(np.uint64)


def _sums_probe(native) -> bool:
    """Whether ``native`` gives the sums of numpy's in-order adds, bit for
    bit with a nan taken as nan, on 150 columns fed in chunks of 16 and 7
    at 8 strengths: +-0.0, +-inf and nan among random values in the first
    two steps; values of every magnitude in the next three, whose sums
    show the rounding of their largest terms, a fused multiply-add in the
    squared modulus among them; and of magnitudes 0.01 to 100 in the last
    three."""
    rng = np.random.default_rng(2020)
    width, nq, m, points = 150, 3, 8, 8
    shape = (m, nq, points, width)
    scale = 10.0 ** rng.uniform(-150, 150, shape)
    scale[5:] = 10.0 ** rng.uniform(-2, 2, scale[5:].shape)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    x.real[0, ..., ::7] = rng.choice(special, x[0, ..., ::7].shape)
    x.imag[0, ..., ::11] = rng.choice(special, x[0, ..., ::11].shape)
    x[1, ..., ::37] = rng.choice(special[2:4], x[1, ..., ::37].shape)
    x[1, 0] = -0.0
    sums = [_Sums(points + 1, m, nq, fn) for fn in (native, None)]
    cuts = sorted({*range(0, width, 23), *range(16, width, 23), width})
    for a, b in zip(cuts[:-1], cuts[1:]):
        block = np.ascontiguousarray(x[..., a:b]).reshape(m, nq, points * (b - a))
        with np.errstate(over="ignore", invalid="ignore"):
            for s in sums:
                s.add(block, b - a, 1, 0)
    a, b = sums
    return all(np.array_equal(_nan_as_nan(p), _nan_as_nan(q))
               for p, q in ((a.c, b.c), (a.f, b.f)))


# Bytes per strength and state step of a run's statistics: the histogram
# of first divergences, then the EnsembleStats built from the running sums
# (mean trace, its modulus, variance, SE, three spin means and diverged
# counts).
_POINT_STEP_BYTES = 8 + (16 + 8 + 8 + 8 + 3 * 16 + 8)


def _check_memory(ngrid: TimeGrid, batch_rows: int, n_points: int,
                  channels: int = 4, first: int = 0) -> None:
    # up to 2 * SYNTH_THREADS units are queued or running and one more is
    # being added up, each with its sums and first divergences; sums and
    # statistics cover the steps from ``first`` on
    n_steps = (ngrid.n_phys - 1) // 2
    rows = chunk_rows(ngrid.n, channels, batch_rows)
    kept = n_steps + 1 - first
    unit = (_Sums.nbytes(n_points, kept)
            + 8 * n_points * min(batch_rows, BATCH_ROWS // 2))
    thread = (workspace_bytes(rows, channels, ngrid.n)
              + rk4_bytes(rows, n_steps, _points_per_pass(rows, n_points)))
    check_memory({
        f"{grid_name(ngrid)} with {SYNTH_THREADS * rows} realizations at once":
            SYNTH_THREADS * thread + TABLE_BYTES * ngrid.n,
        f"the sums and statistics of {n_points} rescaling strengths":
            (2 * SYNTH_THREADS + 1) * unit + _Sums.nbytes(n_points, kept)
            + _POINT_STEP_BYTES * n_points * kept,
    })


def _synthesizer(cfg: RunConfig, lams=None, first: int = 0) -> Synthesizer:
    """The run's synthesizer, for the rescaling strengths ``lams`` (by
    default ``cfg.lam`` alone, if set), of a run that reduces the steps
    from ``first`` on.  Refuses what cannot run (a run too large for
    memory, rescaling without a cross-correlative pair) before any noise
    is drawn; the filters are built once."""
    if lams is None and cfg.lam is not None:
        lams = [cfg.lam]
    ngrid = cfg.noise_grid()
    rows = min(BATCH_ROWS, cfg.n_realizations)
    _check_memory(ngrid, rows, 1 if lams is None else len(lams),
                  2 if cfg.scheme is SchemeId.CONVEX else 4, first)
    synth = Synthesizer(cfg.filters(), ngrid, lams, rows=rows)
    # built and probed here, before any thread of the run needs them
    _native.kernel("sln_sums", _sums_probe)
    _native.kernel("sln_rk4", _rk4_probe)
    return synth


def _chunk_blocks(cfg: RunConfig, synth: Synthesizer, lo: int, hi: int,
                  first: int = 0):
    """The states of realizations lo .. hi-1 at the steps from ``first``
    on, chunk by chunk: each chunk of up to ``synth.chunk_rows``
    realizations is coloured and its rows, views of the calling thread's
    transform buffers, are integrated where they lie at every rescaling
    strength of ``synth`` (once if it has none), in passes of at most
    RK4_COLUMNS columns.  The colouring workspace, the factor table and
    the RK4 buffers are the thread's
    :meth:`~slnoise.noise.Synthesizer.scratch` arrays, allocated on its
    first chunk of the run and reused for every later one.  Yields
    ``(col, points, rows, start, states, new_div)`` for every
    :func:`integrate_blocks` block: the chunk's first realization is lo +
    col, it has ``rows``, and ``points`` is the slice of strengths of the
    pass, whose columns are those strengths' realizations,
    strength-major."""
    n = 1 if synth.lam is None else len(synth.lam)
    for a in range(lo, hi, synth.chunk_rows):
        rows = min(synth.chunk_rows, hi - a)
        eta, nu, pair = synth.colour([seed_for(cfg.master_seed, i)
                                      for i in range(a, a + rows)])
        group = _points_per_pass(rows, n)
        for p in range(0, n, group):
            points = slice(p, min(p + group, n))
            cross = None if pair is None else (*pair[:2], pair[2][points])
            for start, states, new_div in integrate_blocks(
                    cfg.model, eta, nu, synth.grid.dt, cross, first,
                    synth.scratch):
                yield a - lo, points, rows, start, states, new_div


def _unit(cfg: RunConfig, synth: Synthesizer, first: int, quantities, nq: int,
          lo: int, hi: int):
    """One unit, realizations lo .. hi-1, on the calling thread: the sums
    over its columns, in order, of the ``nq`` quantities that
    ``quantities(states, start)`` forms from each block, (m, nq, columns)
    complex, at the steps from ``first`` on, and of the squared modulus of
    the last one; and the step at which each column first diverged, or
    -1.  Returns (the :class:`_Sums`, first divergences (points, hi -
    lo))."""
    n_points = 1 if synth.lam is None else len(synth.lam)
    sums = _Sums(n_points, cfg.grid.n_phys - first, nq,
                 _native.kernel("sln_sums", _sums_probe))
    first_div = np.full((n_points, hi - lo), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for col, points, rows, start, states, new_div in _chunk_blocks(
                cfg, synth, lo, hi, first):
            # a column crosses the threshold in one block at most
            div = first_div[points, col:col + rows]
            np.maximum(div, new_div.reshape(div.shape), out=div)
            sums.add(quantities(states, start), rows, points.start, start - first)
    return sums, first_div


def _reduce(cfg: RunConfig, synth: Synthesizer, first: int, quantities, nq: int):
    """The units of the run, :func:`_unit` of ``quantities`` on
    SYNTH_THREADS threads, with up to two per thread queued ahead of the
    one awaited, added up in unit order: the running :class:`_Sums` of the
    steps from ``first`` on, and the histogram (points, steps) of first
    divergences, one before ``first`` counted at its first step."""
    n_points = 1 if synth.lam is None else len(synth.lam)
    n_steps = cfg.grid.n_phys - first
    total = _Sums(n_points, n_steps, nq, None)
    first_divs = np.zeros((n_points, n_steps), dtype=int)
    nreal, width = cfg.n_realizations, BATCH_ROWS // 2
    jobs = collections.deque()

    def add(job):
        sums, div = job.result()
        total.c += sums.c
        total.f += sums.f
        point, col = np.nonzero(div >= 0)
        np.add.at(first_divs, (point, np.maximum(div[point, col] - first, 0)), 1)

    with ThreadPoolExecutor(SYNTH_THREADS) as pool, \
            np.errstate(over="ignore", invalid="ignore"):
        try:
            for lo in range(0, nreal, width):
                jobs.append(pool.submit(_unit, cfg, synth, first, quantities, nq,
                                        lo, min(lo + width, nreal)))
                if len(jobs) > 2 * SYNTH_THREADS:
                    add(jobs.popleft())
            while jobs:
                add(jobs.popleft())
        finally:
            for job in jobs:
                job.cancel()
    return total, first_divs


def _ensembles(cfg: RunConfig, lams=None, first: int = 0):
    """One run of the units reduced to one EnsembleStats per rescaling
    strength of :func:`_synthesizer`, or to one unrescaled EnsembleStats,
    over the steps from ``first`` on, which must be the first step of a
    stats window (0, all steps, by default).  A trajectory that diverged
    before ``first`` counts as diverged from it on."""
    synth = _synthesizer(cfg, lams, first)
    # the quantities are the states (sx, sy, sz, tr) themselves
    sums, first_divs = _reduce(cfg, synth, first, lambda states, start: states, 4)
    nreal = cfg.n_realizations
    t = cfg.model.t0 + cfg.grid.dt * np.arange(first, cfg.grid.n_phys)
    var_tr, se_tr = _pooled_window_stats(sums.c[:, :, 3], sums.f, nreal,
                                         cfg.stats_window)
    runs = []
    for c, var, se, divs in zip(sums.c, var_tr, se_tr, first_divs):
        sum_tr = c[:, 3]
        if not divs.any():
            _check_finite(c, var, se)
        mean_tr = sum_tr / nreal
        runs.append(EnsembleStats(
            t=t,
            mean_tr=mean_tr,
            abs_mean_tr=np.abs(mean_tr),
            var_tr=var,
            se_tr=se,
            mean_sx=c[:, 0] / nreal,
            mean_sy=c[:, 1] / nreal,
            mean_sz=c[:, 2] / nreal,
            diverged=np.cumsum(divs),
            n_realizations=nreal,
            stats_window=cfg.stats_window,
        ))
    return runs


def run_ensemble(cfg: RunConfig) -> EnsembleStats:
    """Synthesize, integrate and average an ensemble of trajectories.

    Deterministic for a fixed config: per-realization seeds come from
    seed_for and the sums are taken in realization order, unit by unit.
    A rescaled run (``cfg.lam`` set) is the one-point case of
    :func:`scan_lambda`'s loop.
    """
    return _ensembles(cfg)[0]


def _rho01(states: np.ndarray) -> np.ndarray:
    """The off-diagonal element rho01 = (sx - i*sy)/2 of each state of a
    block."""
    return 0.5 * (states[:, 0] - 1j * states[:, 1])


def run_coherence(cfg: RunConfig):
    """Ensemble mean and standard error of the off-diagonal element
    rho01 = (sx - i*sy)/2 at every step.

    Used to compare the stochastic average against an exact dephasing
    solution; the SE here is per step (not windowed) since the coherence
    is smooth.  The variance is summed shifted by the first realization's
    rho01 at each step, which keeps it free of the cancellation of
    E|r|^2 - |E r|^2 where the realizations (nearly) agree, as at t = 0;
    the shift comes from realization 0 integrated alone before the units
    start.  Raises :class:`SlnoiseError` if any trajectory diverged, since
    the mean and SE are then not finite.
    """
    synth = _synthesizer(cfg)
    n_steps = cfg.grid.n_phys
    # realization 0 alone: a column's bits do not depend on the columns
    # integrated with it
    shift = np.empty(n_steps, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for *_, start, states, _ in _chunk_blocks(cfg, synth, 0, 1):
            shift[start:start + len(states)] = _rho01(states)[:, 0]

    def quantities(states, start):
        # rho01 and its difference from the shift
        r01 = _rho01(states)
        out = np.empty((len(states), 2, r01.shape[1]), dtype=complex)
        out[:, 0] = r01
        np.subtract(r01, shift[start:start + len(states), None], out=out[:, 1])
        return out

    sums, first_divs = _reduce(cfg, synth, 0, quantities, 2)
    nreal = cfg.n_realizations
    diverged = first_divs[0].sum()
    if diverged:
        first_div = np.flatnonzero(first_divs[0])[0]
        raise SlnoiseError(
            f"{diverged} of {nreal} trajectories diverged, the first at step "
            f"{first_div} (t = {cfg.model.t0 + cfg.grid.dt * first_div:g})")
    mean = sums.c[0, :, 0] / nreal
    var = (np.maximum(sums.f[0] - np.abs(sums.c[0, :, 1]) ** 2 / nreal, 0.0)
           / max(nreal - 1, 1))
    se = np.sqrt(var / nreal)
    _check_finite(mean, se)
    t = cfg.model.t0 + cfg.grid.dt * np.arange(n_steps)
    return t, mean, se


@dataclass(frozen=True)
class LambdaScan:
    """Final-window trace standard error per rescaling strength."""

    lambdas: np.ndarray
    se_final: np.ndarray
    best_lambda: float


def scan_lambda(cfg: RunConfig, lambdas: Sequence[float],
                runs_per_point: int) -> LambdaScan:
    """Standard error of the mean trace at the end of the run as a
    function of the rescaling strength lambda.

    Every grid point runs on the same realization streams (common random
    numbers), so repeated lambda values give identical results and the
    comparison between points is not blurred by independent sampling
    noise.  The reported figure of merit is the SE pooled over the final
    stats window, and only that window's steps are stored and reduced;
    the steps before it are integrated, and checked for divergence, but
    not stored.
    The filters are built once and each realization's noise is
    synthesized once.  RK4 runs once per chunk on that noise, for every
    point at once (in passes of at most RK4_COLUMNS columns), applying
    each point's rescale factors block by block.  Every point equals a
    stand-alone :func:`run_ensemble` with ``lam`` set to it, bitwise.
    A point whose trajectories diverged reads nan and is never the best
    lambda; if every point did, :class:`SlnoiseError` is raised.
    """
    if runs_per_point < 2:
        raise ConfigError(f"runs_per_point must be >= 2, got {runs_per_point}")
    lambdas = np.asarray(list(lambdas), dtype=float)
    if lambdas.size == 0 or not np.all((lambdas > 0) & (lambdas < np.inf)):
        raise ConfigError("lambdas must be positive, finite and non-empty")
    sub = dataclasses.replace(cfg, n_realizations=runs_per_point)
    # the first step of the final stats window, which se_tr[-1] pools
    first = (cfg.grid.n_phys - 1) // cfg.stats_window * cfg.stats_window
    runs = _ensembles(sub, lambdas, first)
    se_final = np.array([stats.se_tr[-1] for stats in runs])
    if not np.isfinite(se_final).any():
        raise SlnoiseError("the trajectories diverged at every lambda of the scan")
    best = float(lambdas[np.argmin(np.nan_to_num(se_final, nan=np.inf))])
    return LambdaScan(lambdas=lambdas, se_final=se_final, best_lambda=best)
