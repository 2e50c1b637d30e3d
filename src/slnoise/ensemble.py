"""Ensemble runs: batched trajectory averaging and the lambda scan.

Realizations are independent; each gets its own counter-based RNG stream
derived from the master seed.  Every run sums its batches of BATCH_ROWS
realizations in realization order, so its bits depend on its config alone.

One loop produces the noise of every ensemble run, batch by batch.  A
batch's noise is synthesized in chunks of the synthesizer's
``chunk_rows`` realizations (at most 16, fewer on long grids) spread
over SYNTH_THREADS threads: the normal draw (native, or numpy's Philox
fills) and the FFTs release the interpreter lock, so
the chunks run on all cores.  Each thread colours its chunks in one
workspace that it allocates once per run.  Each chunk writes its own
columns of the batch's time-major noise arrays, and a realization's noise
depends only on its seed, never on the thread that computed it, on its
chunk or on which draw ran.  RK4 integrates each block in
RK4_THREADS column slabs, on a pool of its own so that the slabs never
wait behind the synthesis chunks, and its native kernel releases the
interpreter lock; each slab writes its own columns of the block, whose
bits depend neither on the slab count nor on the kernel that ran
(:func:`integrate_blocks`).  Every reduction runs on the calling thread
in batch order, on the state blocks streamed by :func:`integrate_blocks`,
while the threads synthesize the next batch; only running sums are kept,
never the states of a whole batch.  Output is therefore bitwise
independent of SYNTH_THREADS.  The lambda scan reduces only the steps
of the final stats window, the only ones it reports: the blocks that end
before that window are integrated and checked for divergence, but never
reduced, and a trajectory that diverged in one counts as diverged from
the window's first step on.

Rescaled runs synthesize each realization's noise once, whatever the
number of rescaling strengths lambda: a batch keeps its noise without the
cross-correlative pair, the unscaled pair and the per-realization rescale
factors of every strength.  RK4 integrates the batch at all strengths in
one pass, as one array of strengths x realizations columns, the factors
applied block by block; strengths are grouped so that a pass has at most
RK4_COLUMNS columns, which bounds its buffers whatever the number of
strengths.  Each block is reduced for every strength of the pass at once,
into running sums kept per strength, in batch order, so each point of
:func:`scan_lambda` equals a stand-alone :func:`run_ensemble` with that
lambda, bitwise; a single rescaled run is the one-strength case.

The trace variance and standard error are pooled over sliding windows of
time steps (default 100): every step inside a window is treated as a
sample alongside the realizations, which stabilises the estimate exactly
where single-step scatter would dominate.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

# integrate_batch, sample_white and synthesize_from_white are not called
# here; perfbench/spans.py traces the layers through these names.
from .dynamics import (SystemModel, integrate_batch,  # noqa: F401
                       integrate_blocks, rk4_bytes)
from .dynamics import BATCH_ROWS, RK4_THREADS
from .exceptions import ConfigError, SlnoiseError
from .grids import TimeGrid
from .kernels import BathParams, CustomKernel, KernelTable, build_kernel_table
from .noise import (Synthesizer, check_memory, sample_white,  # noqa: F401
                    synthesize_from_white)
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

# Threads that synthesize noise chunks: one per core this process may use.
SYNTH_THREADS = RK4_THREADS

# Columns (strengths x realizations) RK4 integrates in one pass of a
# rescaled batch: wide enough that the cost per column-step has levelled
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
        """Noise is sampled at half the integration step for RK4 stages."""
        return TimeGrid(self.grid.dt / 2.0, self.grid.t_max,
                        self.grid.pad_factor)

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
    """Windowed pooled variance/SE series from per-step accumulators
    (inf or nan where diverged trajectories overflowed them)."""
    n_steps = sum_tr.shape[0]
    var = np.empty(n_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, window):
            sl = slice(start, min(start + window, n_steps))
            m = (sl.stop - sl.start) * nreal
            s1 = np.sum(sum_tr[sl])
            s2 = np.sum(sum_abs2[sl])
            v = (s2 - np.abs(s1) ** 2 / m) / max(m - 1, 1)
            var[sl] = max(v, 0.0)
    se = np.sqrt(var / nreal)
    return var, se


def _check_finite(*stats: np.ndarray) -> None:
    """Refuse statistics that are not finite although no trajectory
    diverged: the integration, not the physics, went wrong."""
    if not all(np.isfinite(s).all() for s in stats):
        raise SlnoiseError("the ensemble statistics are not finite although "
                           "no trajectory diverged")


def _points_per_pass(rows: int, n_points: int) -> int:
    """Strengths RK4 integrates in one pass of a batch of ``rows``."""
    return min(max(RK4_COLUMNS // rows, 1), n_points)


# Bytes per strength and state step that a run keeps to its end: the
# running sums of the trace, its |.|^2, the three spin components and the
# first divergences, then the EnsembleStats built from them (mean trace,
# its modulus, variance, SE, three spin means and diverged counts).
_POINT_STEP_BYTES = (16 + 8 + 3 * 16 + 8) + (16 + 8 + 8 + 8 + 3 * 16 + 8)


def _check_memory(ngrid: TimeGrid, batch_rows: int, n_points: int,
                  channels: int = 4) -> None:
    # the loop holds the noise of two unrescaled batches of two series at
    # once (the one being integrated and the next, synthesized meanwhile)
    # or of one rescaled batch of four series, each synthesis thread's
    # workspace, the buffers of one RK4 pass over up to RK4_COLUMNS
    # columns, and every strength's statistics
    n_steps = (ngrid.n_phys - 1) // 2
    rk4 = rk4_bytes(batch_rows, n_steps, _points_per_pass(batch_rows, n_points))
    stats = _POINT_STEP_BYTES * n_points * (n_steps + 1)
    check_memory(ngrid, batch_rows, SYNTH_THREADS, rk4 + stats, channels)


def _synthesizer(cfg: RunConfig, lams=None) -> Synthesizer:
    """The run's synthesizer, for the rescaling strengths ``lams`` (by
    default ``cfg.lam`` alone, if set).  Refuses what cannot run (batches
    too large for memory, rescaling without a cross-correlative pair)
    before any noise is drawn; the filters are built once."""
    if lams is None and cfg.lam is not None:
        lams = [cfg.lam]
    ngrid = cfg.noise_grid()
    rows = min(BATCH_ROWS, cfg.n_realizations)
    _check_memory(ngrid, rows, 1 if lams is None else len(lams),
                  2 if cfg.scheme is SchemeId.CONVEX else 4)
    return Synthesizer(cfg.filters(), ngrid, lams, rows=rows)


def _state_blocks(cfg: RunConfig, synth: Synthesizer, first: int = 0):
    """The noise-batch loop: synthesize each batch once, integrate it at
    every rescaling strength of ``synth`` (once if it has none) in passes
    of at most RK4_COLUMNS columns, and yield ``(points, start, states,
    new_div)`` for the steps from ``first`` on of every
    :func:`integrate_blocks` block, batch after batch.  ``points`` is the
    slice of strengths of the pass; the block's columns are those
    strengths' realizations, strength-major.  The blocks that end before
    ``first`` are integrated but never handed out, so nothing reads their
    states; a column's divergence in one of them is carried into the
    ``new_div`` of the pass's first block yielded.

    The threads synthesize the next unrescaled batch while the current one
    is integrated.  A rescaled batch holds four series instead of two, so
    it is synthesized only once the previous one is released."""
    nreal = cfg.n_realizations
    n_points = 0 if synth.lam is None else len(synth.lam)

    def submit(pool, start):
        stop = min(start + BATCH_ROWS, nreal)
        seeds = [seed_for(cfg.master_seed, i) for i in range(start, stop)]
        # eta, nu and, when rescaled, the unscaled pair eta0, nu0
        series = [np.empty((synth.n_phys, stop - start), dtype=complex)
                  for _ in range(4 if n_points else 2)]
        factors = np.empty((n_points, stop - start))
        jobs = []
        for a in range(0, stop - start, synth.chunk_rows):
            cols = slice(a, a + synth.chunk_rows)
            eta, nu, *pair = (s[:, cols] for s in series)
            cross = (*pair, factors[:, cols]) if n_points else None
            jobs.append(pool.submit(synth.fill, seeds[cols], eta, nu, cross))
        return series, factors, jobs

    with ThreadPoolExecutor(SYNTH_THREADS) as pool:
        batch = submit(pool, 0)
        for start in range(0, nreal, BATCH_ROWS):
            series, factors, jobs = batch
            for job in jobs:
                job.result()
            ahead = start + BATCH_ROWS < nreal
            batch = None
            if ahead and not n_points:
                batch = submit(pool, start + BATCH_ROWS)
            eta, nu, *pair = series
            n = n_points or 1
            group = _points_per_pass(eta.shape[1], n)
            for p in range(0, n, group):
                points = slice(p, min(p + group, n))
                cross = (*pair, factors[points]) if n_points else None
                carried = -1
                for step, states, new_div in integrate_blocks(
                        cfg.model, eta, nu, synth.grid.dt, cross):
                    # a column crosses the threshold in one block at most,
                    # so the maximum is the step at which it did
                    new_div = np.maximum(carried, new_div)
                    if step + len(states) <= first:
                        carried = new_div
                        continue
                    carried = -1
                    skip = max(first - step, 0)
                    yield points, step + skip, states[skip:], new_div
            del series, eta, nu, pair, cross
            if ahead and batch is None:
                batch = submit(pool, start + BATCH_ROWS)


def _ensembles(cfg: RunConfig, lams=None, first: int = 0):
    """One run of the noise-batch loop reduced to one EnsembleStats per
    rescaling strength of :func:`_synthesizer`, or to one unrescaled
    EnsembleStats, over the steps from ``first`` on, which must be the
    first step of a stats window (0, all steps, by default).  A trajectory
    that diverged before ``first`` counts as diverged from it on."""
    synth = _synthesizer(cfg, lams)
    n_points = 1 if synth.lam is None else len(synth.lam)
    n_steps = cfg.grid.n_phys - first
    sum_tr = np.zeros((n_points, n_steps), dtype=complex)
    sum_abs2 = np.zeros((n_points, n_steps))
    sum_s = np.zeros((n_points, 3, n_steps), dtype=complex)
    first_divs = np.zeros((n_points, n_steps), dtype=int)
    nreal = cfg.n_realizations
    with np.errstate(over="ignore", invalid="ignore"):
        for points, start, states, new_div in _state_blocks(cfg, synth, first):
            m, _, width = states.shape
            n = points.stop - points.start
            rows = width // n
            steps = slice(start - first, start - first + m)
            # (steps, strengths, realizations): each strength's row sums
            # are those of its own columns alone
            tr = states[:, 3].reshape(m, n, rows)
            sum_tr[points, steps] += tr.sum(axis=2).T
            sum_abs2[points, steps] += (np.abs(tr) ** 2).sum(axis=2).T
            sum_s[points, :, steps] += (
                states[:, :3].reshape(m, 3, n, rows).sum(axis=3).transpose(2, 1, 0))
            new_div = new_div.reshape(n, rows)
            point, col = np.nonzero(new_div >= 0)
            np.add.at(first_divs[points],
                      (point, np.maximum(new_div[point, col] - first, 0)), 1)
    t = cfg.model.t0 + cfg.grid.dt * np.arange(first, cfg.grid.n_phys)
    runs = []
    for p in range(n_points):
        var, se = _pooled_window_stats(sum_tr[p], sum_abs2[p], nreal,
                                       cfg.stats_window)
        if not first_divs[p].any():
            _check_finite(sum_tr[p], sum_s[p], var, se)
        mean_tr = sum_tr[p] / nreal
        runs.append(EnsembleStats(
            t=t,
            mean_tr=mean_tr,
            abs_mean_tr=np.abs(mean_tr),
            var_tr=var,
            se_tr=se,
            mean_sx=sum_s[p, 0] / nreal,
            mean_sy=sum_s[p, 1] / nreal,
            mean_sz=sum_s[p, 2] / nreal,
            diverged=np.cumsum(first_divs[p]),
            n_realizations=nreal,
            stats_window=cfg.stats_window,
        ))
    return runs


def run_ensemble(cfg: RunConfig) -> EnsembleStats:
    """Synthesize, integrate and average an ensemble of trajectories.

    Deterministic for a fixed config: per-realization seeds come from
    seed_for and reduction order follows the realization index.
    A rescaled run (``cfg.lam`` set) is the one-point case of
    :func:`scan_lambda`'s loop.
    """
    return _ensembles(cfg)[0]


def run_coherence(cfg: RunConfig):
    """Ensemble mean and standard error of the off-diagonal element
    rho01 = (sx - i*sy)/2 at every step.

    Used to compare the stochastic average against an exact dephasing
    solution; the SE here is per step (not windowed) since the coherence
    is smooth.  The variance is summed shifted by the first realization's
    rho01 at each step, which keeps it free of the cancellation of
    E|r|^2 - |E r|^2 where the realizations (nearly) agree, as at t = 0.
    Raises :class:`SlnoiseError` if any trajectory diverged, since the
    mean and SE are then not finite.
    """
    synth = _synthesizer(cfg)
    n_steps = cfg.grid.n_phys
    sum_r = np.zeros(n_steps, dtype=complex)
    shift = np.empty(n_steps, dtype=complex)
    sum_d = np.zeros(n_steps, dtype=complex)
    sum_d2 = np.zeros(n_steps)
    shifted = 0
    diverged, first_div = 0, n_steps
    nreal = cfg.n_realizations
    with np.errstate(over="ignore", invalid="ignore"):
        for _, start, states, new_div in _state_blocks(cfg, synth):
            steps = slice(start, start + len(states))
            r01 = 0.5 * (states[:, 0] - 1j * states[:, 1])
            if steps.stop > shifted:
                # the first batch: column 0 is realization 0
                shift[steps] = r01[:, 0]
                shifted = steps.stop
            sum_r[steps] += r01.sum(axis=1)
            d = r01 - shift[steps, None]
            sum_d[steps] += d.sum(axis=1)
            sum_d2[steps] += (np.abs(d) ** 2).sum(axis=1)
            hit = new_div[new_div >= 0]
            diverged += hit.size
            first_div = hit.min(initial=first_div)
    if diverged:
        raise SlnoiseError(
            f"{diverged} of {nreal} trajectories diverged, the first at step "
            f"{first_div} (t = {cfg.model.t0 + cfg.grid.dt * first_div:g})")
    mean = sum_r / nreal
    var = np.maximum(sum_d2 - np.abs(sum_d) ** 2 / nreal, 0.0) / max(nreal - 1, 1)
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
    stats window, and only that window's steps are reduced; the steps
    before it are integrated, and checked for divergence, but not summed.
    The filters are built once and each realization's noise is
    synthesized once.  RK4 runs once per batch on that noise, for every
    point at once (in passes of at most RK4_COLUMNS columns), applying
    each point's rescale factors block by block.  Every point equals a
    stand-alone :func:`run_ensemble` with ``lam`` set to it, bitwise.
    A point whose trajectories diverged reads nan and is never the best
    lambda; if every point did, :class:`SlnoiseError` is raised.
    """
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
