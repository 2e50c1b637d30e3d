"""Ensemble runs: trajectory averaging in units of work, and the lambda scan.

Realizations are independent; each gets its own counter-based RNG stream
derived from the master seed.  Every run sums its batches of BATCH_ROWS
realizations in realization order, so its bits depend on its config alone.

numpy sums the realizations of a batch pairwise: a sum splits at half its
count, rounded down to a multiple of 8, until a leaf of at most 128
doubles, which it adds in 8 accumulators.  A complex sum runs the same
over the interleaved real and imaginary parts.  A batch is cut into
*units* where numpy's complex and float trees over it both split, and
only there: a full batch of 256 into 128 + 128, one of 244 into 120 +
124, one of 250 (whose trees split at 124 and 120) not at all.  Units
are cut by the trees alone, never by the thread count.

One worker thread runs each unit, SYNTH_THREADS of them at once.  It
takes the unit's realizations in chunks of the synthesizer's
``chunk_rows`` (at most 16, fewer on long grids): draws and colours a
chunk into time-major buffers of its own, of the chunk's width only,
integrates it with :func:`integrate_blocks` at every rescaling strength
of the run, and adds each block of states, column after column, into the
unit's leaf accumulators (:class:`_Sums`), as numpy's pairwise sum would.
The draw, the FFTs, RK4 and the adds (``sln_sums``) release the
interpreter lock, so the units run on all cores.  The calling thread
adds the units' sums up the tree of their batch, and the batches into
the running sums in batch order, while the threads work the next batch's
units.  No noise array of a whole batch exists.  A realization's noise
and trajectory depend only on its seed, never on the thread, the chunk or
the kernel that computed them, and the adds follow numpy's tree, so every
statistic is bitwise the same as numpy's reduction of whole batches, and
independent of SYNTH_THREADS.  The lambda scan adds only the steps of the
final stats window, the only ones it reports: the blocks that end before
that window are integrated and checked for divergence, but not summed,
and a trajectory that diverged in one counts as diverged from the
window's first step on.

Rescaled runs synthesize each realization's noise once, whatever the
number of rescaling strengths lambda: a chunk keeps its noise without the
cross-correlative pair, the unscaled pair and the per-realization rescale
factors of every strength.  RK4 integrates the chunk at all strengths in
one pass, as one array of strengths x realizations columns, the factors
applied block by block; strengths are grouped so that a pass has at most
RK4_COLUMNS columns, which bounds its buffers whatever the number of
strengths.  Each block is added for every strength of the pass at once,
into accumulators kept per strength, so each point of :func:`scan_lambda`
equals a stand-alone :func:`run_ensemble` with that lambda, bitwise; a
single rescaled run is the one-strength case.

The trace variance and standard error are pooled over sliding windows of
time steps (default 100): every step inside a window is treated as a
sample alongside the realizations, which stabilises the estimate exactly
where single-step scatter would dominate.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import itertools
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
from .dynamics import BATCH_ROWS
from .exceptions import ConfigError, SlnoiseError
from .grids import TimeGrid
from .kernels import BathParams, CustomKernel, KernelTable, build_kernel_table
from .noise import (Synthesizer, check_memory, chunk_rows,  # noqa: F401
                    sample_white, synthesize_from_white)
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
    """Strengths RK4 integrates in one pass of a chunk of ``rows``."""
    return min(max(RK4_COLUMNS // rows, 1), n_points)


# numpy sums the contiguous values of np.add.reduce pairwise: more than
# 128 doubles split at half their count, rounded down to a multiple of 8,
# and a complex sum runs over the real and imaginary parts interleaved,
# so that it splits where a sum of twice as many doubles would.
def _float_split(n: int) -> Optional[int]:
    """Where numpy's sum of ``n`` doubles splits, or None at a leaf."""
    return None if n <= 128 else n // 2 - n // 2 % 8


def _complex_split(n: int) -> Optional[int]:
    """Where numpy's sum of ``n`` complex values splits, or None at a leaf."""
    return None if 2 * n <= 128 else (n - n % 8) // 2


def _unit_split(n: int) -> Optional[int]:
    """Where numpy's complex and float sums over ``n`` columns both split,
    if they split at the same column, or None: the columns are one unit."""
    cut = _float_split(n)
    return cut if cut is not None and cut == _complex_split(n) else None


def _leaves(n: int, split) -> list:
    """Widths of the leaves, in order, of the tree ``split`` cuts ``n``
    values into."""
    cut = split(n)
    return [n] if cut is None else _leaves(cut, split) + _leaves(n - cut, split)


def _pairwise(sums, n: int, split):
    """The sum of ``n`` values from the sums of the leaves of their tree,
    taken in order from the iterator ``sums``, each node the sum of its
    two halves, as numpy adds them."""
    cut = split(n)
    if cut is None:
        return next(sums)
    left = _pairwise(sums, cut, split)
    return left + _pairwise(sums, n - cut, split)


def _codes(n: int, split, group: int) -> np.ndarray:
    """The code of each of ``n`` columns in a tree whose leaves hold
    ``group`` accumulators (8 doubles, or 4 complex values): the slot it
    goes to shifted left by 5, the slot's place k in its leaf's
    accumulators shifted left by 2, bit 0 if the column is assigned there
    instead of added, and bit 1 if the leaf's accumulators are combined
    into its first once the column is in.  As numpy sums a leaf of
    ``group`` or more: its first ``group`` columns are assigned, the next
    whole groups added, then the accumulators combined and the rest added
    to the first; a smaller leaf is added up in the first.  Leaf i's
    accumulators are slots i .. i+group-1, and its sum ends in slot i: a
    leaf is summed up before the next one starts."""
    widths = np.array(_leaves(n, split), dtype=np.int64)
    leaf = np.repeat(np.arange(len(widths)), widths)
    width = widths[leaf]
    # each column's place in its leaf, and the columns of its whole groups
    j = np.arange(n) - (np.cumsum(widths) - widths)[leaf]
    body = np.where(width < group, 0, width - width % group)
    k = np.where(j < body, j % group, 0)
    assign = np.where(j < body, j < group, j == 0)
    return (leaf + k) << 5 | k << 2 | assign | (j == body - 1) << 1


def _sum_into(acc: np.ndarray, code: int, x: np.ndarray, group: int) -> None:
    """One column's values ``x`` into the accumulators ``acc`` as ``code``
    says (see :func:`_codes`)."""
    slot = code >> 5
    if code & 1:
        acc[..., slot] = x
    else:
        acc[..., slot] += x
    if code & 2:
        base = slot - (code >> 2 & 7)
        r = acc[..., base:base + group]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while r.shape[-1] > 1:
            r = r[..., 0::2] + r[..., 1::2]
        acc[..., base] = r[..., 0]


class _Sums:
    """numpy's pairwise sums over the columns of one unit, formed column by
    column: the sums of ``nq`` complex quantities, and of the squared
    modulus of the last one, at each of ``n_points`` strengths and
    ``n_steps`` steps.  It holds the accumulators of both trees (see
    :func:`_codes`), complex (points, steps, nq, leaves + 3) and float
    (points, steps, leaves + 7).  ``native`` is the native pass
    ``sln_sums``, or None for numpy's in-order adds, the reference; both
    give the same bits."""

    def __init__(self, width: int, n_points: int, n_steps: int, nq: int, native):
        self.width, self.native = width, native
        self.ccodes = _codes(width, _complex_split, 4)
        self.fcodes = _codes(width, _float_split, 8)
        leaves = len(_leaves(width, _complex_split)), len(_leaves(width, _float_split))
        self.cacc = np.zeros((n_points, n_steps, nq, leaves[0] + 3), dtype=complex)
        self.facc = np.zeros((n_points, n_steps, leaves[1] + 7))
        self._addresses = tuple(a.ctypes.data for a in (self.ccodes, self.fcodes,
                                                        self.cacc, self.facc))

    @staticmethod
    def nbytes(width: int, n_points: int, n_steps: int, nq: int = 4) -> int:
        """Bytes of the accumulators of a unit of ``width`` columns."""
        return n_points * n_steps * (16 * nq * (len(_leaves(width, _complex_split)) + 3)
                                     + 8 * (len(_leaves(width, _float_split)) + 7))

    def add(self, block: np.ndarray, rows: int, col: int, point: int,
            step: int) -> None:
        """Adds ``block``, (m, nq, points x rows) complex, as the unit's
        columns col .. col+rows-1 at the strengths from ``point`` on (column
        l * rows + r of the block is column r at strength point + l) and the
        steps from ``step`` on.  Columns are added in order."""
        m, nq, width = block.shape
        n_steps, cslots = self.cacc.shape[1], self.cacc.shape[-1]
        fslots = self.facc.shape[-1]
        if self.native is not None and block.flags.c_contiguous:
            ccodes, fcodes, cacc, facc = self._addresses
            at = point * n_steps + step
            self.native(block.ctypes.data, m, nq, width, rows, ccodes + 8 * col,
                        fcodes + 8 * col, cacc + 16 * at * nq * cslots, cslots,
                        facc + 8 * at * fslots, fslots, n_steps)
            return
        x = block.reshape(m, nq, width // rows, rows)
        abs2 = (np.abs(block[:, -1]) ** 2).reshape(m, width // rows, rows)
        points, steps = slice(point, point + width // rows), slice(step, step + m)
        cacc, facc = self.cacc[points, steps], self.facc[points, steps]
        for r in range(rows):
            _sum_into(cacc, self.ccodes[col + r], x[..., r].transpose(2, 0, 1), 4)
            _sum_into(facc, self.fcodes[col + r], abs2[..., r].T, 8)

    def result(self):
        """The unit's sums, once every column is in: (points, steps, nq)
        complex and (points, steps) float."""
        c = _pairwise(iter(np.moveaxis(self.cacc[..., :-3], -1, 0)), self.width,
                      _complex_split)
        f = _pairwise(iter(np.moveaxis(self.facc[..., :-7], -1, 0)), self.width,
                      _float_split)
        return np.ascontiguousarray(c), np.ascontiguousarray(f)


def _sums_probe(native) -> bool:
    """Whether ``native`` gives the accumulators of numpy's in-order adds,
    bit for bit, on a unit of 150 columns (leaves of 36 and 42 complex and
    72 and 78 doubles) fed in chunks of 16 and 7 columns at 2 strengths:
    random values of every magnitude, with +-0.0, +-inf and nan among
    them, and a value whose modulus np.abs and libm's hypot round apart."""
    rng = np.random.default_rng(2020)
    width, nq, m = 150, 3, 4
    x = (rng.standard_normal((m, nq, 2, width))
         * 10.0 ** rng.uniform(-300, 300, (m, nq, 2, width))
         + 1j * rng.standard_normal((m, nq, 2, width)))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 765406082731.0397])
    flat = x.reshape(-1)
    flat.real[::7] = rng.choice(special, flat[::7].size)
    flat.imag[::11] = rng.choice(special, flat[::11].size)
    flat[::5] = 765406082731.0397 + 643547611694.9894j
    sums = [_Sums(width, 3, m, nq, fn) for fn in (native, None)]
    cuts = sorted({*range(0, width, 23), *range(16, width, 23), width})
    for a, b in zip(cuts[:-1], cuts[1:]):
        block = np.ascontiguousarray(x[..., a:b]).reshape(m, nq, 2 * (b - a))
        with np.errstate(over="ignore", invalid="ignore"):
            for s in sums:
                s.add(block, b - a, a, 1, 0)
    a, b = sums
    return a.cacc.tobytes() == b.cacc.tobytes() and a.facc.tobytes() == b.facc.tobytes()


@functools.cache
def _native_sums():
    """The native pass of :class:`_Sums`, ``sln_sums`` of
    :func:`_native.library`, if it reproduces numpy's in-order adds bit for
    bit on :func:`_sums_probe`, or None when it cannot be built, loaded or
    matched; then numpy adds, silently."""
    lib = _native.library()
    if lib is None:
        return None
    sums = lib["sln_sums"]
    sums.argtypes = ([ctypes.c_void_p] + [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 3
                     + [ctypes.c_int64, ctypes.c_void_p] + [ctypes.c_int64] * 2)
    sums.restype = None
    return sums if _sums_probe(sums) else None


# Bytes per strength and state step that a run keeps to its end: the
# running sums of the trace, its |.|^2, the three spin components and the
# first divergences, then the EnsembleStats built from them (mean trace,
# its modulus, variance, SE, three spin means and diverged counts).
_POINT_STEP_BYTES = (16 + 8 + 3 * 16 + 8) + (16 + 8 + 8 + 8 + 3 * 16 + 8)
# Bytes per strength and step of a unit's sums: four complex, one float.
_UNIT_STEP_BYTES = 4 * 16 + 8


def _check_memory(ngrid: TimeGrid, batch_rows: int, n_points: int,
                  channels: int = 4) -> None:
    # each thread holds the noise of its chunk, its colouring workspace,
    # the buffers of one RK4 pass over up to RK4_COLUMNS columns and the
    # accumulators of its unit; the calling thread holds the sums of the
    # units of two batches (the one it adds up and the next) and every
    # strength's running sums and statistics
    n_steps = (ngrid.n_phys - 1) // 2
    rows = chunk_rows(ngrid.n, channels, batch_rows)
    units = _leaves(batch_rows, _unit_split)
    states = n_points * (n_steps + 1)
    worker = (rk4_bytes(rows, n_steps, _points_per_pass(rows, n_points))
              + _Sums.nbytes(max(units), n_points, n_steps + 1))
    held = 2 * (len(units) * _UNIT_STEP_BYTES * states + 8 * n_points * batch_rows)
    extra = SYNTH_THREADS * worker + held + _POINT_STEP_BYTES * states
    check_memory(ngrid, rows, SYNTH_THREADS, extra, channels)


def _synthesizer(cfg: RunConfig, lams=None) -> Synthesizer:
    """The run's synthesizer, for the rescaling strengths ``lams`` (by
    default ``cfg.lam`` alone, if set).  Refuses what cannot run (a grid
    too large for memory, rescaling without a cross-correlative pair)
    before any noise is drawn; the filters are built once."""
    if lams is None and cfg.lam is not None:
        lams = [cfg.lam]
    ngrid = cfg.noise_grid()
    rows = min(BATCH_ROWS, cfg.n_realizations)
    _check_memory(ngrid, rows, 1 if lams is None else len(lams),
                  2 if cfg.scheme is SchemeId.CONVEX else 4)
    synth = Synthesizer(cfg.filters(), ngrid, lams, rows=rows)
    # built and probed here, before any thread of the run needs it
    _native_sums()
    return synth


def _chunk_blocks(cfg: RunConfig, synth: Synthesizer, lo: int, hi: int):
    """The states of realizations lo .. hi-1, chunk by chunk: each chunk of
    up to ``synth.chunk_rows`` realizations is synthesized into time-major
    buffers of this call and integrated at every rescaling strength of
    ``synth`` (once if it has none), in passes of at most RK4_COLUMNS
    columns.  Yields ``(col, points, rows, start, states, new_div)`` for
    every :func:`integrate_blocks` block: the chunk's first realization is
    lo + col, it has ``rows``, and ``points`` is the slice of strengths of
    the pass, whose columns are those strengths' realizations,
    strength-major."""
    n_points = 0 if synth.lam is None else len(synth.lam)
    n_phys = synth.n_phys
    chunk = min(synth.chunk_rows, hi - lo)
    # eta, nu and, when rescaled, the unscaled pair eta0, nu0
    series = [np.empty(n_phys * chunk, dtype=complex)
              for _ in range(4 if n_points else 2)]
    table = np.empty(n_points * chunk)
    for a in range(lo, hi, chunk):
        rows = min(chunk, hi - a)
        eta, nu, *pair = (s[:n_phys * rows].reshape(n_phys, rows) for s in series)
        factors = table[:n_points * rows].reshape(n_points, rows)
        seeds = [seed_for(cfg.master_seed, i) for i in range(a, a + rows)]
        synth.fill(seeds, eta, nu, (*pair, factors) if n_points else None)
        n = n_points or 1
        group = _points_per_pass(rows, n)
        for p in range(0, n, group):
            points = slice(p, min(p + group, n))
            cross = (*pair, factors[points]) if n_points else None
            for start, states, new_div in integrate_blocks(
                    cfg.model, eta, nu, synth.grid.dt, cross):
                yield a - lo, points, rows, start, states, new_div


def _unit(cfg: RunConfig, synth: Synthesizer, first: int, quantities, nq: int,
          lo: int, hi: int):
    """One unit, realizations lo .. hi-1, on the calling thread: the sums
    over its columns of the ``nq`` quantities that ``quantities(states,
    start)`` forms from each block, (m, nq, columns) complex, at the steps
    from ``first`` on, and of the squared modulus of the last one; and the
    step at which each column first diverged, or -1.  Returns (complex
    sums (points, steps, nq), float sums (points, steps), first
    divergences (points, hi - lo))."""
    n_points = 1 if synth.lam is None else len(synth.lam)
    sums = _Sums(hi - lo, n_points, cfg.grid.n_phys - first, nq, _native_sums())
    first_div = np.full((n_points, hi - lo), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for col, points, rows, start, states, new_div in _chunk_blocks(
                cfg, synth, lo, hi):
            # a column crosses the threshold in one block at most
            div = first_div[points, col:col + rows]
            np.maximum(div, new_div.reshape(div.shape), out=div)
            skip = max(first - start, 0)
            if skip < len(states):
                sums.add(quantities(states[skip:], start + skip), rows, col,
                         points.start, start + skip - first)
    return (*sums.result(), first_div)


def _batch_sums(cfg: RunConfig, unit):
    """The units of every batch, ``unit(lo, hi)``, run on SYNTH_THREADS
    threads; yields each batch's sums in batch order: the units' sums
    added up numpy's tree over the batch, and their first divergences side
    by side.  The units of the next batch are queued while a batch is
    awaited, so that the threads do not wait for the calling one."""
    nreal = cfg.n_realizations

    def submit(pool, start):
        rows = min(BATCH_ROWS, nreal - start)
        cuts = list(itertools.accumulate([start] + _leaves(rows, _unit_split)))
        return rows, [pool.submit(unit, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]

    with ThreadPoolExecutor(SYNTH_THREADS) as pool:
        batch = submit(pool, 0)
        ahead = batch
        try:
            for start in range(0, nreal, BATCH_ROWS):
                rows, jobs = batch
                if start + BATCH_ROWS < nreal:
                    ahead = submit(pool, start + BATCH_ROWS)
                c, f, div = zip(*(job.result() for job in jobs))
                yield (_pairwise(iter(c), rows, _unit_split),
                       _pairwise(iter(f), rows, _unit_split),
                       np.concatenate(div, axis=1))
                batch = ahead
        finally:
            for job in batch[1] + ahead[1]:
                job.cancel()


def _ensembles(cfg: RunConfig, lams=None, first: int = 0):
    """One run of the units reduced to one EnsembleStats per rescaling
    strength of :func:`_synthesizer`, or to one unrescaled EnsembleStats,
    over the steps from ``first`` on, which must be the first step of a
    stats window (0, all steps, by default).  A trajectory that diverged
    before ``first`` counts as diverged from it on."""
    synth = _synthesizer(cfg, lams)
    n_points = 1 if synth.lam is None else len(synth.lam)
    n_steps = cfg.grid.n_phys - first
    sum_tr = np.zeros((n_points, n_steps), dtype=complex)
    sum_abs2 = np.zeros((n_points, n_steps))
    sum_s = np.zeros((n_points, 3, n_steps), dtype=complex)
    first_divs = np.zeros((n_points, n_steps), dtype=int)
    nreal = cfg.n_realizations
    # the quantities are the states (sx, sy, sz, tr) themselves
    unit = functools.partial(_unit, cfg, synth, first, lambda states, start: states, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        for sums, abs2, div in _batch_sums(cfg, unit):
            sum_tr += sums[:, :, 3]
            sum_abs2 += abs2
            sum_s += sums[:, :, :3].transpose(0, 2, 1)
            point, col = np.nonzero(div >= 0)
            np.add.at(first_divs, (point, np.maximum(div[point, col] - first, 0)), 1)
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
    seed_for and the sums follow numpy's pairwise tree over each batch.
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

    sum_r = np.zeros(n_steps, dtype=complex)
    sum_d = np.zeros(n_steps, dtype=complex)
    sum_d2 = np.zeros(n_steps)
    diverged, first_div = 0, n_steps
    nreal = cfg.n_realizations
    unit = functools.partial(_unit, cfg, synth, 0, quantities, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for sums, abs2, div in _batch_sums(cfg, unit):
            sum_r += sums[0, :, 0]
            sum_d += sums[0, :, 1]
            sum_d2 += abs2[0]
            hit = div[div >= 0]
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
    synthesized once.  RK4 runs once per chunk on that noise, for every
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
