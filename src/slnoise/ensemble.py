"""Ensemble runs: batched trajectory averaging and the lambda scan.

Realizations are independent; each gets its own counter-based RNG stream
derived from the master seed, so results are reproducible regardless of
batching.  Statistics are accumulated in fixed realization order.

One loop produces the noise of every ensemble run, batch by batch
(``batch_size`` realizations).  A batch's noise is synthesized in chunks
of CHUNK_ROWS realizations spread over SYNTH_THREADS threads: the Philox
fills and the FFTs release the interpreter lock, so the chunks run on all
cores.  Each chunk writes its own columns of the batch's time-major noise
arrays, and a realization's noise depends only on its seed and its chunk,
never on the thread that computed it.  RK4 and every reduction run on the
calling thread in batch order, on the state blocks streamed by
:func:`integrate_blocks`, while the threads synthesize the next batch;
only running sums are kept, never the states of a whole batch.  Output is
therefore bitwise independent of SYNTH_THREADS.

Rescaled runs synthesize each realization's noise once, whatever the
number of rescaling strengths lambda: a batch keeps its noise without the
cross-correlative pair, the unscaled pair and the per-realization rescale
factors of every strength, and is integrated once per strength, the
factors applied block by block.  The running sums are kept per strength,
in batch order, so each point of :func:`scan_lambda` equals a stand-alone
:func:`run_ensemble` with that lambda, bitwise; a single rescaled run is
the one-strength case.

The trace variance and standard error are pooled over sliding windows of
time steps (default 100): every step inside a window is treated as a
sample alongside the realizations, which stabilises the estimate exactly
where single-step scatter would dominate.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

# integrate_batch, sample_white and synthesize_from_white are not called
# here; perfbench/spans.py traces the layers through these names.
from .dynamics import SystemModel, integrate_batch, integrate_blocks  # noqa: F401
from .grids import TimeGrid
from .kernels import BathParams, CustomKernel, KernelTable, build_kernel_table
from .noise import (CHUNK_ROWS, Synthesizer, check_memory,  # noqa: F401
                    sample_white, synthesize_from_white)
from .schemes import FilterSet, SchemeId, make_filters

__all__ = [
    "RunConfig",
    "EnsembleStats",
    "LambdaScan",
    "seed_for",
    "run_ensemble",
    "run_coherence",
    "windowed_stats",
    "scan_lambda",
]

# Threads that synthesize noise chunks: one per core this process may use.
SYNTH_THREADS = len(os.sched_getaffinity(0))


def seed_for(master_seed: int, index: int,
             group: Tuple[int, ...] = ()) -> np.random.SeedSequence:
    """Independent, platform-stable stream seed for one realization.

    The optional group prefix keeps whole sub-ensembles (e.g. the points
    of a parameter scan) on disjoint streams.
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
    seed_group: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.n_realizations < 2:
            raise ValueError("n_realizations must be >= 2")
        if self.stats_window < 1:
            raise ValueError("stats_window must be >= 1")
        if (self.bath is None) == (self.kernel is None):
            raise ValueError("exactly one of bath or kernel must be given")

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


def _window_slices(n_steps: int, window: int):
    for start in range(0, n_steps, window):
        yield slice(start, min(start + window, n_steps))


def _pooled_window_stats(sum_tr: np.ndarray, sum_abs2: np.ndarray,
                         nreal: int, window: int):
    """Windowed pooled variance/SE series from per-step accumulators."""
    n_steps = sum_tr.shape[0]
    var = np.empty(n_steps)
    for sl in _window_slices(n_steps, window):
        m = (sl.stop - sl.start) * nreal
        s1 = np.sum(sum_tr[sl])
        s2 = np.sum(sum_abs2[sl])
        v = (s2 - np.abs(s1) ** 2 / m) / max(m - 1, 1)
        var[sl] = max(v, 0.0)
    se = np.sqrt(var / nreal)
    return var, se


def windowed_stats(traces: np.ndarray, window: int):
    """Windowed pooled variance and SE of a (realizations, steps) trace
    array; every step in a window shares the pooled value."""
    traces = np.asarray(traces)
    if window > traces.shape[1]:
        raise ValueError("window exceeds series length")
    sum_tr = traces.sum(axis=0)
    sum_abs2 = (np.abs(traces) ** 2).sum(axis=0)
    return _pooled_window_stats(sum_tr, sum_abs2, traces.shape[0], window)


def _check_memory(ngrid: TimeGrid, batch_rows: int) -> None:
    # the loop holds the noise of two unrescaled batches of two series at
    # once (the one being integrated and the next, synthesized meanwhile)
    # or of one rescaled batch of four series
    check_memory(ngrid, 2 * batch_rows, SYNTH_THREADS)


def _synthesizer(cfg: RunConfig, batch_size: int, lams=None) -> Synthesizer:
    """The run's synthesizer, for the rescaling strengths ``lams`` (by
    default ``cfg.lam`` alone, if set).  Refuses what cannot run (batches
    too large for memory, rescaling without a cross-correlative pair)
    before any noise is drawn; the filters are built once."""
    if lams is None and cfg.lam is not None:
        lams = [cfg.lam]
    ngrid = cfg.noise_grid()
    _check_memory(ngrid, min(batch_size, cfg.n_realizations))
    return Synthesizer(cfg.filters(), ngrid, lams)


def _state_blocks(cfg: RunConfig, synth: Synthesizer, batch_size: int,
                  force_nu_zero: bool = False):
    """The noise-batch loop: synthesize each batch once, integrate it once
    per rescaling strength of ``synth`` (once if it has none) and yield
    ``(point, start, states, new_div)`` for every :func:`integrate_blocks`
    block, batch after batch; ``point`` indexes the strength.

    The threads synthesize the next unrescaled batch while the current one
    is integrated.  A rescaled batch holds four series instead of two, so
    it is synthesized only once the previous one is released."""
    nreal = cfg.n_realizations
    n_points = 0 if synth.lam is None else len(synth.lam)

    def submit(pool, start):
        stop = min(start + batch_size, nreal)
        seeds = [seed_for(cfg.master_seed, i, cfg.seed_group)
                 for i in range(start, stop)]
        # eta, nu and, when rescaled, the unscaled pair eta0, nu0
        series = [np.empty((synth.n_phys, stop - start), dtype=complex)
                  for _ in range(4 if n_points else 2)]
        factors = np.empty((n_points, stop - start))
        jobs = []
        for a in range(0, stop - start, CHUNK_ROWS):
            cols = slice(a, a + CHUNK_ROWS)
            eta, nu, *pair = (s[:, cols] for s in series)
            cross = (*pair, factors[:, cols]) if n_points else None
            jobs.append(pool.submit(synth.fill, seeds[cols], eta, nu, cross))
        return series, factors, jobs

    with ThreadPoolExecutor(SYNTH_THREADS) as pool:
        batch = submit(pool, 0)
        for start in range(0, nreal, batch_size):
            series, factors, jobs = batch
            for job in jobs:
                job.result()
            ahead = start + batch_size < nreal
            batch = None
            if ahead and not n_points:
                batch = submit(pool, start + batch_size)
            if force_nu_zero:
                for nu in series[1::2]:
                    nu[:] = 0.0
            eta, nu, *pair = series
            crosses = [(*pair, f) for f in factors] if n_points else [None]
            for point, cross in enumerate(crosses):
                for block in integrate_blocks(cfg.model, eta, nu,
                                              synth.grid.dt, cross):
                    yield (point, *block)
            del series, eta, nu, pair, crosses, cross
            if ahead and batch is None:
                batch = submit(pool, start + batch_size)


def _ensembles(cfg: RunConfig, batch_size: int, lams=None,
               force_nu_zero: bool = False):
    """One run of the noise-batch loop reduced to one EnsembleStats per
    rescaling strength of :func:`_synthesizer`, or to one unrescaled
    EnsembleStats."""
    synth = _synthesizer(cfg, batch_size, lams)
    n_points = 1 if synth.lam is None else len(synth.lam)
    n_steps = cfg.grid.n_phys
    sum_tr = np.zeros((n_points, n_steps), dtype=complex)
    sum_abs2 = np.zeros((n_points, n_steps))
    sum_s = np.zeros((n_points, 3, n_steps), dtype=complex)
    first_divs = np.zeros((n_points, n_steps), dtype=int)
    nreal = cfg.n_realizations
    with np.errstate(over="ignore", invalid="ignore"):
        for p, start, states, new_div in _state_blocks(cfg, synth, batch_size,
                                                       force_nu_zero):
            steps = slice(start, start + len(states))
            tr = states[:, 3]
            sum_tr[p, steps] += tr.sum(axis=1)
            sum_abs2[p, steps] += (np.abs(tr) ** 2).sum(axis=1)
            sum_s[p, :, steps] += states[:, :3].sum(axis=2).T
            np.add.at(first_divs[p], new_div[new_div >= 0], 1)
    t = cfg.model.t0 + cfg.grid.dt * np.arange(n_steps)
    runs = []
    for p in range(n_points):
        var, se = _pooled_window_stats(sum_tr[p], sum_abs2[p], nreal,
                                       cfg.stats_window)
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


def run_ensemble(cfg: RunConfig, batch_size: int = 256,
                 force_nu_zero: bool = False) -> EnsembleStats:
    """Synthesize, integrate and average an ensemble of trajectories.

    Deterministic for a fixed config: per-realization seeds come from
    seed_for and reduction order follows the realization index.
    force_nu_zero is a test hook that zeroes the trace-driving noise.
    A rescaled run (``cfg.lam`` set) is the one-point case of
    :func:`scan_lambda`'s loop.
    """
    return _ensembles(cfg, batch_size, force_nu_zero=force_nu_zero)[0]


def run_coherence(cfg: RunConfig, batch_size: int = 256):
    """Ensemble mean and standard error of the off-diagonal element
    rho01 = (sx - i*sy)/2 at every step.

    Used to compare the stochastic average against an exact dephasing
    solution; the SE here is per step (not windowed) since the coherence
    is smooth.  The variance is summed shifted by the first realization's
    rho01 at each step, which keeps it free of the cancellation of
    E|r|^2 - |E r|^2 where the realizations (nearly) agree, as at t = 0.
    """
    synth = _synthesizer(cfg, batch_size)
    n_steps = cfg.grid.n_phys
    sum_r = np.zeros(n_steps, dtype=complex)
    shift = np.empty(n_steps, dtype=complex)
    sum_d = np.zeros(n_steps, dtype=complex)
    sum_d2 = np.zeros(n_steps)
    shifted = 0
    nreal = cfg.n_realizations
    for _, start, states, _ in _state_blocks(cfg, synth, batch_size):
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
    mean = sum_r / nreal
    var = np.maximum(sum_d2 - np.abs(sum_d) ** 2 / nreal, 0.0) / max(nreal - 1, 1)
    se = np.sqrt(var / nreal)
    t = cfg.model.t0 + cfg.grid.dt * np.arange(n_steps)
    return t, mean, se


@dataclass(frozen=True)
class LambdaScan:
    """Final-window trace standard error per rescaling strength."""

    lambdas: np.ndarray
    se_final: np.ndarray
    best_lambda: float


def scan_lambda(cfg: RunConfig, lambdas: Sequence[float],
                runs_per_point: int, batch_size: int = 256) -> LambdaScan:
    """Standard error of the mean trace at the end of the run as a
    function of the rescaling strength lambda.

    Every grid point runs on the same realization streams (common random
    numbers), so repeated lambda values give identical results and the
    comparison between points is not blurred by independent sampling
    noise.  The reported figure of merit is the SE pooled over the final
    stats window.  The filters are built once and each realization's noise
    is synthesized once: RK4 runs once per point on that noise, applying
    the point's rescale factors block by block.  Every point equals a
    stand-alone :func:`run_ensemble` with ``lam`` set to it, bitwise.
    """
    lambdas = np.asarray(list(lambdas), dtype=float)
    if lambdas.size == 0 or np.any(lambdas <= 0):
        raise ValueError("lambdas must be positive and non-empty")
    sub = dataclasses.replace(cfg, n_realizations=runs_per_point)
    runs = _ensembles(sub, batch_size, lambdas)
    se_final = np.array([stats.se_tr[-1] for stats in runs])
    best = float(lambdas[int(np.argmin(se_final))])
    return LambdaScan(lambdas=lambdas, se_final=se_final, best_lambda=best)
