"""Stochastic trajectory integration for a driven two-level system.

The density matrix is carried as the four complex components
(sx, sy, sz, tr) of rho = (tr*I + sx*sigma_x + sy*sigma_y + sz*sigma_z)/2
and evolves under

    dsx/dt = -[eps - 2*alpha*eta] sy
    dsy/dt = -delta*sz + [eps - 2*alpha*eta] sx
    dsz/dt =  delta*sy + i*alpha*nu*tr
    dtr/dt =  i*alpha*nu*sz

integrated with classical RK4.  The noise is pre-sampled on a half-step
grid so the midpoint stages use exact samples rather than interpolants
(the coloured noise is band-limited, hence smooth on the step scale).

One function, :func:`integrate_blocks`, integrates a batch of
trajectories.  It reads the noise as the colouring leaves it, row-major,
(trajectories, half steps), with rows that may be padded past the window
(the rows of an ensemble's colouring workspace), updates the four state
components of every trajectory in place, and hands the states out in
blocks of BLOCK_STEPS steps; callers reduce a block as soon as it is
written, so the states of a whole run are never held at once.  Each block
first gathers its half steps of every row into a small time-major tile,
so that every RK4 stage reads one contiguous row of it.  A caller that
reduces only the steps from some step on (the lambda scan's final stats
window) passes that step: every earlier step is integrated and checked
for divergence, but no state of it is stored.  A caller that integrates
many batches (an ensemble's worker thread) passes its own allocator of
scratch arrays, so that the state, the block, the tile and the divergence
rows are allocated once and reused for every batch.
:func:`integrate_batch` concatenates the blocks.

It has two kernels that give the same bits.  The numpy kernel, the
reference and the fallback, is a chain of ufunc calls over contiguous
rows of the tile and of the state, with the divergence check once per
block; it holds the interpreter lock between the calls, so it runs on one
core.  The native kernel (``sln_rk4`` in ``_native.c``) gathers the tile
and fuses the noise formation, the RK4 steps and the divergence check in
one C loop per column, with numpy's operations in numpy's order.  It is
compiled on first use into a cache outside the package and loaded by
:func:`slnoise._native.kernel`, the loader of every native kernel, which
hands it out only if :func:`_probe` finds it gives the numpy kernel's
bits on a small batch; it releases the interpreter lock, so several
threads may each integrate their own batch at once.  A column's bits
depend neither on the kernel that ran nor on the other columns integrated
with it.  Without a compiler, a writable cache or a bitwise match, the
numpy kernel runs, and the loader logs why at INFO on the ``slnoise``
logger.

A rescaled batch may be integrated at several rescaling strengths in one
pass: with a table of L factor rows, the kernel runs L x rows columns, the
batch's noise rescaled by each row of factors in turn.  The cost of a
column-step falls as the width grows (in the numpy kernel, fewer ufunc
calls per column), and each column's arithmetic is that of a stand-alone
run, so every column is bitwise the same.  A block gathers its tile once,
whatever the number of factor rows, and every factor row reads it.  The
wider the table, the fewer steps a block covers, so that it holds no more
column-steps than a one-row block of a full batch; callers cap the width.

The module also provides the exact solution of a pure-dephasing
(quantum-non-demolition) model with kernel K(t) = (1/2) e^{-2|t|+i t},
used as an oracle for the stochastic average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import _native
from .exceptions import ConfigError
from .kernels import CustomKernel

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SystemModel",
    "Trajectory",
    "rho_to_state",
    "integrate_trajectory",
    "integrate_batch",
    "integrate_blocks",
    "BLOCK_STEPS",
    "rk4_bytes",
    "lz_asymptote",
    "LZ_FINITE_WINDOW",
    "QndModel",
    "qnd_kernel",
    "qnd_exact",
    "qnd_sln_config",
    "DIVERGENCE_THRESHOLD",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

DIVERGENCE_THRESHOLD = 1e12
# A modulus that numpy's complex np.abs rounds to just above the threshold
# and libm's hypot to the threshold itself.
_AT_THRESHOLD = 765406082731.0397 + 643547611694.9894j

# Steps whose states are held at once by integrate_blocks; the divergence
# check and the ensemble sums run once per block.
BLOCK_STEPS = 128
# Realizations per batch of an ensemble run, twice those of a unit of its
# sums (slnoise.ensemble).  A block of a factor table is cut to
# BLOCK_STEPS x max(rows, BATCH_ROWS) column-steps, a full batch's.
BATCH_ROWS = 256


def _block_steps(rows: int, n_points: int, n_steps: int) -> int:
    """Steps per block of ``n_points`` x ``rows`` columns (at least one)."""
    steps = BLOCK_STEPS * max(rows, BATCH_ROWS) // (n_points * rows)
    return max(min(steps, BLOCK_STEPS, n_steps + 1), 1)


def rk4_bytes(rows: int, n_steps: int, n_points: int = 1) -> int:
    """Bytes :func:`integrate_blocks` holds at once for ``rows``
    trajectories over ``n_steps`` steps, with a table of ``n_points``
    factor rows, in the larger of its two kernels, the numpy one.  Per
    column: the state, the four stages, the stage sum, a scratch entry,
    the first divergences and the divergence bookkeeping of two blocks.
    Per column and block step: the block of states, the |state| array and
    mask of the divergence check, and the previous block's mask.  Per
    column and half step of a block: the two noise buffers.  Per
    trajectory and half step of a block: the tile of four noise series.
    And the drives on the half-step grid.  The native kernel holds the
    split state, the block, the tile and two divergence rows; its scratch
    is a few kB of stack per thread.  A caller that passes ``scratch``
    holds the block, the tile, the native kernel's state and divergence
    rows and the numpy kernel's noise buffers once for all its batches
    (an ensemble's worker thread, once per run), not once per batch."""
    steps = _block_steps(rows, n_points, n_steps)
    half_steps = min(2 * steps + 1, 2 * n_steps + 1)
    width = rows * n_points
    return (width * (16 * (6 * 4 + 1) + 40 + (64 + 37) * steps + 32 * half_steps)
            + 64 * rows * half_steps + 32 * (2 * n_steps + 1 + half_steps))


Drive = Union[float, Callable[[np.ndarray], np.ndarray]]


def rho_to_state(rho: np.ndarray) -> np.ndarray:
    """(sx, sy, sz, tr) components of a 2x2 matrix."""
    rho = np.asarray(rho, dtype=complex)
    sx = rho[0, 1] + rho[1, 0]
    sy = 1j * (rho[0, 1] - rho[1, 0])
    sz = rho[0, 0] - rho[1, 1]
    tr = rho[0, 0] + rho[1, 1]
    return np.array([sx, sy, sz, tr])


@dataclass(frozen=True)
class SystemModel:
    """Two-level system parameters; drives may be constants or callables
    of time (e.g. ``lambda t: kappa * t`` for a linear sweep)."""

    delta: Drive
    epsilon: Drive
    alpha: float
    rho0: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "t0", "delta", "epsilon"):
            value = getattr(self, name)
            if not callable(value) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value:g}")
        if not np.all(np.isfinite(self.rho0)):
            raise ConfigError("rho0 must have finite entries")


@dataclass(frozen=True)
class Trajectory:
    """State series on the integration grid; diverged trajectories are
    flagged but kept (the blow-up itself is data)."""

    t: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    tr: np.ndarray
    diverged: bool
    diverged_step: int  # first step index past threshold, or -1


def _eval_drive(drive: Drive, t: np.ndarray) -> np.ndarray:
    if callable(drive):
        return np.asarray(drive(t), dtype=float) * np.ones_like(t)
    return float(drive) * np.ones_like(t)


def _new(name: str, shape, dtype) -> np.ndarray:
    """A new array: the default ``scratch`` of :func:`integrate_blocks`."""
    return np.empty(shape, dtype)


def integrate_blocks(model: SystemModel, eta: np.ndarray, nu: np.ndarray,
                     dt_half: float, cross=None, first: int = 0,
                     scratch: Callable = _new):
    """RK4 integration of a batch of trajectories, streamed in blocks.

    ``eta``/``nu`` are row-major, shape (rows, 2*n_steps + 1): row r holds
    trajectory r's noise at every half step, as the colouring leaves it;
    they may be views of longer rows, such as those of the colouring's
    workspace, padded past the window.  Each block first gathers its half
    steps of every row, once, into a time-major tile, (half steps, rows)
    per series, so that each RK4 stage reads one contiguous row of it.
    The state is kept as four component rows (sx, sy, sz, tr) of shape
    (rows,) and updated in place.

    ``cross`` = (eta0, nu0, factor) adds a rescaled cross-correlative
    pair, laid out as eta and nu: the noise is eta + factor * eta0 and
    nu + nu0 / factor, with one factor per trajectory, shape (rows,), or a
    table of L factor rows, shape (L, rows).  A table integrates L x rows
    columns in one pass: column l * rows + r is trajectory r rescaled by
    factor[l, r].  The noise is formed one block at a time from the tile,
    by broadcasting over the table's rows, and rounded exactly as when
    formed in full beforehand, so every column equals a stand-alone run
    with its factor row, bitwise, and no copy of the noise is made per
    row.

    Yields ``(start, states, new_div)`` for consecutive blocks of up to
    BLOCK_STEPS steps, fewer for a wide table: a block holds at most
    BLOCK_STEPS x max(rows, BATCH_ROWS) column-steps whatever L is (but
    at least one step); the caller caps the width L x rows.
    ``states`` has shape (m, 4, width) and holds steps
    start .. start+m-1 (step 0 is the initial state); it is one buffer,
    overwritten by the next block, so consume it before advancing.
    ``new_div[c]`` is the step at which column c first crossed the
    divergence threshold if that happened in this block, else -1.

    Only the steps from ``first`` on are stored and yielded: the blocks
    keep their bounds, the steps before ``first`` are integrated and
    checked for divergence but stored nowhere, the block that holds
    ``first`` yields its steps from ``first`` on (``start`` is then
    ``first``), and its ``new_div`` names the crossings of every earlier
    step too.

    ``scratch(name, shape, dtype)`` allocates the block, the tile, the
    native kernel's state and divergence rows and the numpy kernel's noise
    buffers, each under its own name; a caller that integrates many
    batches passes one that hands the same memory out again (see
    :meth:`~slnoise.noise.Synthesizer.scratch`).  By default each is a new
    array.  :func:`rk4_bytes` counts the buffers.

    Two kernels compute the blocks on the calling thread, with the same
    bits.  The native one (``sln_rk4``, see :func:`_probe`) runs
    whenever it could be built, the noise is complex128 rows of
    contiguous samples, every series with the same row stride, and the
    factors are finite, non-zero and contiguous float64, one call per
    block outside the interpreter lock.  Otherwise the numpy kernel, the
    reference, runs.
    """
    rows, nh = eta.shape
    if nh % 2 == 0 or nh < 3:
        raise ValueError("half-step series must have odd length >= 3")
    n_steps = (nh - 1) // 2
    if not 0 <= first <= n_steps:
        raise ValueError(f"first stored step {first} is not in 0 .. {n_steps}")
    n_points = 1
    if cross is not None:
        eta0, nu0, factor = cross
        cross = eta0, nu0, np.reshape(factor, (-1, rows))
        n_points = len(cross[2])
    t_half = model.t0 + dt_half * np.arange(nh)
    run = _Run(rho_to_state(model.rho0), model.alpha, 2.0 * dt_half,
               _eval_drive(model.epsilon, t_half),
               _eval_drive(model.delta, t_half), eta, nu, cross,
               _block_steps(rows, n_points, n_steps), first, scratch)
    rk4 = _native.kernel("sln_rk4", _probe) if _native_fits(run) else None
    yield from _numpy_blocks(run) if rk4 is None else _native_blocks(run, rk4)


class _Run(NamedTuple):
    """One integration: the initial state, the coupling, the step, the
    drives at the half steps, the row-major noise, the block length, the
    first step stored and the allocator of the buffers."""

    y0: np.ndarray
    alpha: float
    h: float
    eps: np.ndarray
    delta: np.ndarray
    eta: np.ndarray
    nu: np.ndarray
    cross: Optional[tuple]
    block_steps: int
    first: int = 0
    scratch: Callable = _new

    def series(self) -> tuple:
        """The noise series: eta, nu and, if rescaled, eta0 and nu0."""
        return (self.eta, self.nu) + (self.cross[:2] if self.cross else ())

    def tile(self) -> np.ndarray:
        """The tile of a block's half steps, (series, half steps, rows)."""
        rows, nh = self.eta.shape
        return self.scratch("tile", (len(self.series()),
                                     min(2 * self.block_steps + 1, nh), rows),
                            complex)


def _numpy_blocks(run: _Run):
    """The numpy kernel of :func:`integrate_blocks`: each block's half
    steps copied from the rows into the tile, then a chain of ufunc calls
    over whole component rows, the divergence check once per block on the
    stored steps, and once per step before the first stored one."""
    y0, alpha, h, eps, delta, eta, nu, cross, block_steps, first, scratch = run
    rows, nh = eta.shape
    n_steps = (nh - 1) // 2
    factor = None if cross is None else cross[2]
    n_points = 1 if cross is None else len(factor)
    width = n_points * rows
    series, tile = run.series(), run.tile()

    y = np.empty((4, width), dtype=complex)
    y[:] = y0[:, None]
    k1, k2, k3, k4, ys = (np.empty_like(y) for _ in range(5))
    tmp = np.empty(width, dtype=complex)
    y_, k1_, k2_, k3_, k4_, ys_ = (tuple(a) for a in (y, k1, k2, k3, k4, ys))
    block = scratch("block", (block_steps, 4, width), complex)
    first_div = np.full(width, -1)
    # the noise terms of a block's half steps
    half_steps = (tile.shape[1], width)
    mw_buf, v_buf = (scratch(name, half_steps, complex) for name in ("mw", "v"))
    two_alpha, i_alpha = 2.0 * alpha, 1j * alpha

    # complex operands throughout: numpy multiplies a complex array by a
    # real scalar as by scalar + 0j anyway, and skips the cast this way
    half_h, full_h, two, sixth_h = (np.array(c, dtype=complex)
                                    for c in (0.5 * h, h, 2.0, h / 6.0))
    mul, add, sub = np.multiply, np.add, np.subtract

    def rhs(s, mw, v, md, out):
        # (-w sy, w sx - d sz, d sy + v tr, v sz) from -w and -d alone:
        # negating an operand and the operation together is exact
        sx, sy, sz, tr = s
        o0, o1, o2, o3 = out
        mul(mw, sy, o0)
        mul(md, sz, o1)
        sub(o1, mul(mw, sx, tmp), o1)
        mul(v, tr, o2)
        sub(o2, mul(md, sy, tmp), o2)
        mul(v, sz, o3)

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps + 1, block_steps):
            m = min(block_steps, n_steps + 1 - start)
            # minus the effective precession rate, the trace drive and
            # minus the tunnelling at the half steps 2(i-1) .. 2i of every
            # step i in the block
            lo = max(2 * start - 2, 0)
            hi = 2 * (start + m - 1) + 1
            for plane, x in zip(tile, series):
                plane[:hi - lo] = x[:, lo:hi].T
            eta_t, nu_t, *pair = (plane[:hi - lo] for plane in tile)
            mw, v = mw_buf[:hi - lo], v_buf[:hi - lo]
            if cross is None:
                mul(eta_t, two_alpha, mw)
                mul(nu_t, i_alpha, v)
            else:
                eta0_t, nu0_t = pair
                # (half steps, factor rows, trajectories) views
                mw3 = mw.reshape(hi - lo, n_points, rows)
                v3 = v.reshape(hi - lo, n_points, rows)
                mul(eta0_t[:, None], factor, mw3)
                add(mw3, eta_t[:, None], mw3)
                mul(mw, two_alpha, mw)
                np.divide(nu0_t[:, None], factor, v3)
                add(v3, nu_t[:, None], v3)
                mul(v, i_alpha, v)
            mw -= eps[lo:hi, None]
            md = -delta[lo:hi].astype(complex)
            # the block's first stored step; the steps before it are
            # checked one by one
            stored = max(start, first)
            for j in range(m):
                if start + j > 0:
                    k = 2 * (start + j - 1) - lo
                    mid = (mw[k + 1], v[k + 1], md[k + 1])
                    rhs(y_, mw[k], v[k], md[k], k1_)
                    add(y, mul(k1, half_h, ys), ys)
                    rhs(ys_, *mid, k2_)
                    add(y, mul(k2, half_h, ys), ys)
                    rhs(ys_, *mid, k3_)
                    add(y, mul(k3, full_h, ys), ys)
                    rhs(ys_, mw[k + 2], v[k + 2], md[k + 2], k4_)
                    # y + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right
                    add(k1, mul(k2, two, k2), k1)
                    add(k1, mul(k3, two, k3), k1)
                    add(k1, k4, k1)
                    add(y, mul(k1, sixth_h, k1), y)
                if start + j >= stored:
                    block[start + j - stored] = y
                elif start + j > 0:
                    bad = ~(np.abs(y) <= DIVERGENCE_THRESHOLD).all(axis=0)
                    hit = bad & (first_div < 0)
                    first_div[hit] = start + j
            if start + m <= first:
                continue
            states = block[:start + m - stored]
            # |component| <= threshold fails for inf and nan too
            bad = ~(np.abs(states) <= DIVERGENCE_THRESHOLD).all(axis=1)
            if stored == 0:
                bad[0] = False
            hit = bad.any(axis=0) & (first_div < 0)
            first_div[hit] = stored + bad.argmax(axis=0)[hit]
            # the first block yielded names every crossing so far
            new_div = first_div.copy() if start <= first else np.where(hit, first_div, -1)
            yield stored, states, new_div


def _native_fits(run: _Run) -> bool:
    """Whether the native kernel can read the run's arrays as they are:
    complex128 noise of one shape and one row stride, in rows of
    contiguous samples, and finite non-zero float64 factors (numpy divides
    by them with Smith's method, which the kernel writes out for that case
    only)."""
    eta = run.eta
    if not (eta.dtype == np.complex128 and eta.strides[1] == 16
            and eta.strides[0] % 16 == 0
            and all(s.dtype == eta.dtype and s.shape == eta.shape
                    and s.strides == eta.strides for s in run.series())):
        return False
    if run.cross is None:
        return True
    factor = run.cross[2]
    return (factor.dtype == np.float64 and factor.flags.c_contiguous
            and bool(np.all(np.isfinite(factor) & (factor != 0))))


def _native_blocks(run: _Run, rk4):
    """The native kernel of :func:`integrate_blocks`: each block one
    GIL-released call to ``rk4``, which gathers the block's half steps
    into the tile and stores the steps from ``first`` on."""
    y0, alpha, h, eps, delta, eta, nu, cross, block_steps, first, scratch = run
    rows, nh = eta.shape
    n_steps = (nh - 1) // 2
    width = rows if cross is None else cross[2].size
    y = scratch("state", (2, 4, width), float)
    y[0], y[1] = y0.real[:, None], y0.imag[:, None]
    block, tile = scratch("block", (block_steps, 4, width), complex), run.tile()
    first_div, new_div = (scratch(name, (width,), np.int64)
                          for name in ("first_div", "new_div"))
    first_div.fill(-1)
    eta0, nu0, factor = cross if cross is not None else (None,) * 3
    i_alpha = 1j * alpha
    args = _native.SlnRun(
        *(None if a is None else a.ctypes.data
          for a in (eta, nu, eta0, nu0, factor, eps, delta, y, block, tile,
                    first_div, new_div)),
        rows, width, eta.strides[0] // 16, first, 2.0 * alpha, i_alpha.real,
        i_alpha.imag, 0.5 * h, h, 2.0, h / 6.0, DIVERGENCE_THRESHOLD)
    for start in range(0, n_steps + 1, block_steps):
        m = min(block_steps, n_steps + 1 - start)
        rk4(args, start, m)
        if start + m > first:
            stored = max(start, first)
            # the first block yielded names every crossing so far
            new = first_div if start <= first else new_div
            yield stored, block[:start + m - stored], new.copy()


def _probe(rk4) -> bool:
    """Whether ``rk4`` gives the numpy kernel's bits on a small random
    batch, with and without a factor table, storing every step, the steps
    from one inside the second block on, and those from the second
    block's first on; one trajectory crosses the divergence threshold
    before either and ends in nan.  The noise is row-major, its rows views
    of longer ones, as the colouring's rows are, so that a kernel that
    reads another layout or another row stride is refused.  A last run
    holds a state whose modulus np.abs puts just above the threshold and
    libm's hypot at it, so that a numpy whose modulus is hypot refuses the
    kernel.  (The kernel's complex multiply is fused, as numpy's is where
    the processor has FMA.)"""
    rng = np.random.default_rng(2020)
    rows, n_steps, block_steps = 5, 6, 4
    nh = 2 * n_steps + 1

    def noise():
        return (3.0 * (rng.standard_normal((rows, nh + 3))
                       + 1j * rng.standard_normal((rows, nh + 3))))[:, :nh]

    eta, nu, eta0, nu0 = (noise() for _ in range(4))
    nu[0] *= 1e60
    y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    drives = rng.standard_normal((2, nh))
    table = rng.uniform(0.1, 10.0, (3, rows))
    runs = [_Run(y0, 0.7, 0.05, *drives, eta, nu, cross, block_steps, first)
            for cross in (None, (eta0, nu0, table)) for first in (0, 2, 4)]
    still = np.zeros((1, nh), dtype=complex)
    runs.append(_Run(np.array([_AT_THRESHOLD, 0, 0, 1]), 0.0, 0.05,
                     *np.zeros((2, nh)), still, still, None, block_steps))
    for run in runs:
        want, got = ([(s, a.copy(), d) for s, a, d in blocks]
                     for blocks in (_numpy_blocks(run), _native_blocks(run, rk4)))
        if len(want) != len(got):
            return False
        for (s0, a, da), (s1, b, db) in zip(want, got):
            if not (s0 == s1 and np.array_equal(a.view(np.uint64), b.view(np.uint64))
                    and np.array_equal(da, db)):
                return False
    return True


def integrate_batch(model: SystemModel, eta_half: np.ndarray,
                    nu_half: np.ndarray, dt_half: float):
    """RK4 integration of a batch of trajectories.

    ``eta_half``/``nu_half`` have shape (batch, 2*n_steps + 1) sampled at
    half the integration step.  Returns (states, first_div) where states
    has shape (batch, n_steps + 1, 4) ordered (sx, sy, sz, tr) and
    first_div is the first diverged step per trajectory (-1 if none).
    The blocks of :func:`integrate_blocks`, concatenated.
    """
    eta = np.ascontiguousarray(np.atleast_2d(eta_half))
    nu = np.ascontiguousarray(np.atleast_2d(nu_half))
    blocks = []
    first_div = np.full(len(eta), -1)
    for _, states, new_div in integrate_blocks(model, eta, nu, dt_half):
        blocks.append(states.transpose(2, 0, 1).copy())
        first_div = np.where(new_div >= 0, new_div, first_div)
    return np.concatenate(blocks, axis=1), first_div


def integrate_trajectory(model: SystemModel, eta_half: np.ndarray,
                         nu_half: np.ndarray, dt_half: float) -> Trajectory:
    """Integrate a single trajectory (see :func:`integrate_batch`)."""
    states, first_div = integrate_batch(model, eta_half, nu_half, dt_half)
    n_steps = states.shape[1] - 1
    t = model.t0 + 2.0 * dt_half * np.arange(n_steps + 1)
    return Trajectory(
        t=t,
        sx=states[0, :, 0],
        sy=states[0, :, 1],
        sz=states[0, :, 2],
        tr=states[0, :, 3],
        diverged=bool(first_div[0] >= 0),
        diverged_step=int(first_div[0]),
    )


def lz_asymptote(delta: float, kappa: float) -> float:
    """Zero-temperature infinite-time limit of <sigma_z> under a linear
    sweep epsilon(t) = kappa*t: 2*exp(-pi*delta^2/(2*kappa)) - 1."""
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    return 2.0 * np.exp(-np.pi * delta**2 / (2.0 * kappa)) - 1.0


# Reference value of <sigma_z> for the sweep run on the finite window used
# throughout (start t = -5, kappa = 5, delta = 1): the finite-time value
# differs from the infinite-time asymptote.
LZ_FINITE_WINDOW = 0.516


def qnd_kernel(t):
    """Pure-dephasing bath correlation K(t) = (1/2) exp(-2|t| + i t)."""
    t = np.asarray(t, dtype=float)
    return 0.5 * np.exp(-2.0 * np.abs(t) + 1j * t)


@dataclass(frozen=True)
class QndModel:
    """Dephasing model solved exactly: H = -sigma_z/2, coupling operator
    sigma_z, and the kernel above.  c_r/c_i are the cumulative integrals
    of the kernel's real and imaginary parts from 0 to t."""

    rho0: np.ndarray = field(
        default_factory=lambda: np.array(
            [[0.5, 0.5 - 0.6j], [0.5 + 0.6j, 0.5]], dtype=complex
        )
    )

    @staticmethod
    def c_r(t):
        t = np.asarray(t, dtype=float)
        return (2.0 + np.exp(-2.0 * t) * (np.sin(t) - 2.0 * np.cos(t))) / 10.0

    @staticmethod
    def c_i(t):
        t = np.asarray(t, dtype=float)
        return (1.0 - np.exp(-2.0 * t) * (np.cos(t) + 2.0 * np.sin(t))) / 10.0

    @staticmethod
    def d_r(t):
        """Double integral int_0^t c_r(s) ds."""
        t = np.asarray(t, dtype=float)
        return t / 5.0 + (
            np.exp(-2.0 * t) * (3.0 * np.cos(t) - 4.0 * np.sin(t)) - 3.0
        ) / 50.0


def qnd_exact(model: QndModel, t) -> np.ndarray:
    """Exact averaged density matrix of the dephasing model.

    The diagonal is frozen; the coherence obeys the scalar ODE
    d rho01/dt = (i - 4 c_r(t)) rho01 (the kernel's imaginary part drops
    out because the coupling squares to the identity), giving
    rho01(t) = rho01(0) * exp(i t - 4 * int_0^t c_r).
    Returns shape t.shape + (2, 2).
    """
    t = np.asarray(t, dtype=float)
    r01 = model.rho0[0, 1] * np.exp(1j * t - 4.0 * QndModel.d_r(t))
    out = np.zeros(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = model.rho0[0, 0]
    out[..., 1, 1] = model.rho0[1, 1]
    out[..., 0, 1] = r01
    out[..., 1, 0] = np.conj(r01)
    return out


def qnd_sln_config():
    """Kernel and system model for the stochastic run of the dephasing
    model: delta = 0, epsilon = -1 (H = -sigma_z/2), alpha = 1, and the
    written initial matrix (deliberately not positive semidefinite; the
    dynamics is linear so this is well-posed)."""
    model = SystemModel(
        delta=0.0, epsilon=-1.0, alpha=1.0, rho0=QndModel().rho0
    )
    return CustomKernel(qnd_kernel), model
