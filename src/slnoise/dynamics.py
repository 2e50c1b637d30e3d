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
trajectories.  It reads the noise time-major, (half steps, trajectories),
updates the four state components of every trajectory in place, and hands
the states out in blocks of BLOCK_STEPS steps; callers reduce a block as
soon as it is written, so the states of a whole run are never held at
once.  :func:`integrate_batch` concatenates the blocks.

It has two kernels that give the same bits.  The numpy kernel, the
reference and the fallback, is a chain of ufunc calls over contiguous
component rows, with the divergence check once per block; it holds the
interpreter lock between the calls, so it runs on one core.  The native
kernel (``sln_rk4`` in ``_native.c``) fuses the noise formation, the RK4
steps and the divergence check in one C loop per column, with numpy's
operations in numpy's order.  It is compiled on first use into a cache
outside the package (see :mod:`slnoise._native`), loaded with ctypes,
and checked against the numpy kernel on a small batch before it is used;
it releases the interpreter lock, so several threads may each integrate
their own batch at once.  A column's bits depend neither on the kernel
that ran nor on the other columns integrated with it.  Without a
compiler, a writable cache or a bitwise match, the numpy kernel runs.

A rescaled batch may be integrated at several rescaling strengths in one
pass: with a table of L factor rows, the kernel runs L x rows columns, the
batch's noise rescaled by each row of factors in turn.  The cost of a
column-step falls as the width grows (in the numpy kernel, fewer ufunc
calls per column), and each column's arithmetic is that of a stand-alone
run, so every column is bitwise the same.  The wider the table, the fewer
steps a block covers, so that it holds no more column-steps than a
one-row block of a full batch; callers cap the width.

The module also provides the exact solution of a pure-dephasing
(quantum-non-demolition) model with kernel K(t) = (1/2) e^{-2|t|+i t},
used as an oracle for the stochastic average.
"""

from __future__ import annotations

import ctypes
import functools
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
# Realizations per batch of an ensemble run.  A block of a factor table is
# cut to BLOCK_STEPS x max(rows, BATCH_ROWS) column-steps, a full batch's.
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
    column and half step of a block: the two noise buffers.  And the
    drives on the half-step grid.  The native kernel holds the split
    state, the block and two divergence rows; its scratch is a few kB of
    stack per thread."""
    steps = _block_steps(rows, n_points, n_steps)
    half_steps = min(2 * steps + 1, 2 * n_steps + 1)
    width = rows * n_points
    return (width * (16 * (6 * 4 + 1) + 40 + (64 + 37) * steps + 32 * half_steps)
            + 32 * (2 * n_steps + 1 + half_steps))


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


def integrate_blocks(model: SystemModel, eta_t: np.ndarray,
                     nu_t: np.ndarray, dt_half: float, cross=None):
    """RK4 integration of a batch of trajectories, streamed in blocks.

    ``eta_t``/``nu_t`` are time-major, shape (2*n_steps + 1, rows): row k
    holds every trajectory's noise at half step k, so each RK4 stage reads
    one contiguous row.  The state is kept as four component rows
    (sx, sy, sz, tr) of shape (rows,) and updated in place.

    ``cross`` = (eta0_t, nu0_t, factor) adds a rescaled cross-correlative
    pair: the noise is eta_t + factor * eta0_t and nu_t + nu0_t / factor,
    with one factor per trajectory, shape (rows,), or a table of L factor
    rows, shape (L, rows).  A table integrates L x rows columns in one
    pass: column l * rows + r is trajectory r rescaled by factor[l, r].
    The noise is formed one block at a time, by broadcasting over the
    table's rows, and rounded exactly as when formed in full beforehand,
    so every column equals a stand-alone run with its factor row, bitwise,
    and no copy of the noise is made per row.

    Yields ``(start, states, new_div)`` for consecutive blocks of up to
    BLOCK_STEPS steps, fewer for a wide table: a block holds at most
    BLOCK_STEPS x max(rows, BATCH_ROWS) column-steps whatever L is (but
    at least one step); the caller caps the width L x rows.
    ``states`` has shape (m, 4, width) and holds steps
    start .. start+m-1 (step 0 is the initial state); it is one buffer,
    overwritten by the next block, so consume it before advancing.
    ``new_div[c]`` is the step at which column c first crossed the
    divergence threshold if that happened in this block, else -1.
    :func:`rk4_bytes` counts the buffers.

    Two kernels compute the blocks on the calling thread, with the same
    bits.  The native one (``sln_rk4``, see :func:`_native_kernel`) runs
    whenever it could be built, the noise is contiguous complex128 and
    the factors are finite, non-zero and contiguous float64, one call per
    block outside the interpreter lock.  Otherwise the numpy kernel, the
    reference, runs.
    """
    nh, rows = eta_t.shape
    if nh % 2 == 0 or nh < 3:
        raise ValueError("half-step series must have odd length >= 3")
    n_steps = (nh - 1) // 2
    n_points = 1
    if cross is not None:
        eta0_t, nu0_t, factor = cross
        cross = eta0_t, nu0_t, np.reshape(factor, (-1, rows))
        n_points = len(cross[2])
    t_half = model.t0 + dt_half * np.arange(nh)
    run = _Run(rho_to_state(model.rho0), model.alpha, 2.0 * dt_half,
               _eval_drive(model.epsilon, t_half),
               _eval_drive(model.delta, t_half), eta_t, nu_t, cross,
               _block_steps(rows, n_points, n_steps))
    rk4 = _native_kernel() if _native_fits(run) else None
    yield from _numpy_blocks(run) if rk4 is None else _native_blocks(run, rk4)


class _Run(NamedTuple):
    """One integration: the initial state, the coupling, the step, the
    drives at the half steps, the noise and the block length."""

    y0: np.ndarray
    alpha: float
    h: float
    eps: np.ndarray
    delta: np.ndarray
    eta_t: np.ndarray
    nu_t: np.ndarray
    cross: Optional[tuple]
    block_steps: int


def _numpy_blocks(run: _Run):
    """The numpy kernel of :func:`integrate_blocks`: a chain of ufunc calls
    over whole component rows, the divergence check once per block."""
    y0, alpha, h, eps, delta, eta_t, nu_t, cross, block_steps = run
    nh, rows = eta_t.shape
    n_steps = (nh - 1) // 2
    if cross is not None:
        eta0_t, nu0_t, factor = cross
    n_points = 1 if cross is None else len(factor)
    width = n_points * rows

    y = np.empty((4, width), dtype=complex)
    y[:] = y0[:, None]
    k1, k2, k3, k4, ys = (np.empty_like(y) for _ in range(5))
    tmp = np.empty(width, dtype=complex)
    y_, k1_, k2_, k3_, k4_, ys_ = (tuple(a) for a in (y, k1, k2, k3, k4, ys))
    block = np.empty((block_steps, 4, width), dtype=complex)
    first_div = np.full(width, -1)
    # the noise terms of a block's half steps
    mw_buf = np.empty((min(2 * block_steps + 1, nh), width), dtype=complex)
    v_buf = np.empty_like(mw_buf)
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
            mw, v = mw_buf[:hi - lo], v_buf[:hi - lo]
            if cross is None:
                mul(eta_t[lo:hi], two_alpha, mw)
                mul(nu_t[lo:hi], i_alpha, v)
            else:
                # (half steps, factor rows, trajectories) views
                mw3 = mw.reshape(hi - lo, n_points, rows)
                v3 = v.reshape(hi - lo, n_points, rows)
                mul(eta0_t[lo:hi, None], factor, mw3)
                add(mw3, eta_t[lo:hi, None], mw3)
                mul(mw, two_alpha, mw)
                np.divide(nu0_t[lo:hi, None], factor, v3)
                add(v3, nu_t[lo:hi, None], v3)
                mul(v, i_alpha, v)
            mw -= eps[lo:hi, None]
            md = -delta[lo:hi].astype(complex)
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
                block[j] = y
            states = block[:m]
            # |component| <= threshold fails for inf and nan too
            bad = ~(np.abs(states) <= DIVERGENCE_THRESHOLD).all(axis=1)
            if start == 0:
                bad[0] = False
            hit = bad.any(axis=0) & (first_div < 0)
            new_div = np.where(hit, start + bad.argmax(axis=0), -1)
            first_div[hit] = new_div[hit]
            yield start, states, new_div


class _Args(ctypes.Structure):
    """The ``sln_run`` struct of ``_native.c``."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "eta", "nu", "eta0", "nu0", "factor", "eps", "delta", "y", "block",
        "first_div", "new_div")] + [
        ("rows", ctypes.c_int64), ("width", ctypes.c_int64)] + [
        (name, ctypes.c_double) for name in (
            "two_alpha", "i_alpha_re", "i_alpha_im", "half_h", "full_h", "two",
            "sixth_h", "threshold")]


def _native_fits(run: _Run) -> bool:
    """Whether the native kernel can read the run's arrays as they are:
    contiguous complex128 noise of one shape, and finite non-zero float64
    factors (numpy divides by them with Smith's method, which the kernel
    writes out for that case only)."""
    series = (run.eta_t, run.nu_t) + (run.cross[:2] if run.cross else ())
    if not all(s.dtype == np.complex128 and s.flags.c_contiguous
               and s.shape == run.eta_t.shape for s in series):
        return False
    if run.cross is None:
        return True
    factor = run.cross[2]
    return (factor.dtype == np.float64 and factor.flags.c_contiguous
            and bool(np.all(np.isfinite(factor) & (factor != 0))))


def _native_blocks(run: _Run, rk4):
    """The native kernel of :func:`integrate_blocks`: each block one
    GIL-released call to ``rk4``."""
    y0, alpha, h, eps, delta, eta_t, nu_t, cross, block_steps = run
    nh, rows = eta_t.shape
    n_steps = (nh - 1) // 2
    width = rows if cross is None else cross[2].size
    y = np.empty((2, 4, width))
    y[0], y[1] = y0.real[:, None], y0.imag[:, None]
    block = np.empty((block_steps, 4, width), dtype=complex)
    first_div = np.full(width, -1, dtype=np.int64)
    new_div = np.empty(width, dtype=np.int64)
    eta0_t, nu0_t, factor = cross if cross is not None else (None,) * 3
    i_alpha = 1j * alpha
    args = ctypes.byref(_Args(
        *(None if a is None else a.ctypes.data
          for a in (eta_t, nu_t, eta0_t, nu0_t, factor, eps, delta, y, block,
                    first_div, new_div)),
        rows, width, 2.0 * alpha, i_alpha.real, i_alpha.imag, 0.5 * h, h,
        2.0, h / 6.0, DIVERGENCE_THRESHOLD))
    for start in range(0, n_steps + 1, block_steps):
        m = min(block_steps, n_steps + 1 - start)
        rk4(args, start, m)
        yield start, block[:m], new_div.copy()


def _probe(rk4) -> bool:
    """Whether ``rk4`` gives the numpy kernel's bits on a small random
    batch, with and without a factor table; one trajectory crosses the
    divergence threshold and ends in nan.  A third run holds a state whose
    modulus np.abs puts just above the threshold and libm's hypot at it, so
    that a numpy whose modulus is hypot refuses the kernel."""
    rng = np.random.default_rng(2020)
    rows, n_steps, block_steps = 5, 6, 4
    nh = 2 * n_steps + 1

    def noise():
        return 3.0 * (rng.standard_normal((nh, rows))
                      + 1j * rng.standard_normal((nh, rows)))

    eta_t, nu_t, eta0_t, nu0_t = (noise() for _ in range(4))
    nu_t[:, 0] *= 1e60
    y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    drives = rng.standard_normal((2, nh))
    table = rng.uniform(0.1, 10.0, (3, rows))
    runs = [_Run(y0, 0.7, 0.05, *drives, eta_t, nu_t, cross, block_steps)
            for cross in (None, (eta0_t, nu0_t, table))]
    still = np.zeros((nh, 1), dtype=complex)
    runs.append(_Run(np.array([_AT_THRESHOLD, 0, 0, 1]), 0.0, 0.05,
                     *np.zeros((2, nh)), still, still, None, block_steps))
    for run in runs:
        for (s0, a, da), (s1, b, db) in zip(_numpy_blocks(run),
                                            _native_blocks(run, rk4)):
            if not (s0 == s1 and np.array_equal(a.view(np.uint64), b.view(np.uint64))
                    and np.array_equal(da, db)):
                return False
    return True


@functools.cache
def _native_kernel():
    """The native RK4 function, ``sln_rk4`` of :func:`_native.library`, if
    it reproduces the numpy kernel bit for bit (its complex multiply is
    fused, as numpy's is where the processor has FMA), or None when it
    cannot be built, loaded or matched; then
    :func:`integrate_blocks` runs its numpy kernel, silently."""
    lib = _native.library()
    if lib is None:
        return None
    rk4 = lib["sln_rk4"]
    rk4.argtypes = [ctypes.POINTER(_Args)] + [ctypes.c_int64] * 2
    rk4.restype = None
    return rk4 if _probe(rk4) else None


def integrate_batch(model: SystemModel, eta_half: np.ndarray,
                    nu_half: np.ndarray, dt_half: float):
    """RK4 integration of a batch of trajectories.

    ``eta_half``/``nu_half`` have shape (batch, 2*n_steps + 1) sampled at
    half the integration step.  Returns (states, first_div) where states
    has shape (batch, n_steps + 1, 4) ordered (sx, sy, sz, tr) and
    first_div is the first diverged step per trajectory (-1 if none).
    The blocks of :func:`integrate_blocks`, concatenated.
    """
    eta_t = np.ascontiguousarray(np.atleast_2d(eta_half).T)
    nu_t = np.ascontiguousarray(np.atleast_2d(nu_half).T)
    blocks = []
    first_div = np.full(eta_t.shape[1], -1)
    for _, states, new_div in integrate_blocks(model, eta_t, nu_t, dt_half):
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
