"""The native library of slnoise: ``_native.c``, compiled on first use,
its C ABI and :func:`kernel`, the one loader of its kernels.

The library holds the kernels below, each called through ctypes, which
releases the interpreter lock: ``sln_rk4``, the RK4 kernel of
:func:`~slnoise.dynamics.integrate_blocks`; ``sln_normals``, the
unit-normal draw of :meth:`~slnoise.noise.Synthesizer._draw`;
``sln_fft``, ``sln_mix`` and ``sln_transpose``, the FFTs, the spectral
pass and the write-out of :class:`~slnoise.noise.Synthesizer`'s
colouring; and ``sln_sums``, the ensemble sums of :mod:`slnoise.ensemble`,
taken in realization order.  Each gives the bits of its numpy
counterpart (for ``sln_sums``, numpy's in-order adds, a nan taken as
nan; for ``sln_fft``, numpy.fft's, which are scipy.fft's).  The module
that uses a kernel has a probe that checks this on a small case, and
:func:`kernel` hands the kernel out only if its probe passes; otherwise
that module runs its numpy code.

The library is compiled once into a cache outside the package
(``$XDG_CACHE_HOME/slnoise``, else ``~/.cache/slnoise``, else a private
directory under the temp dir) and loaded by every later process.
Without a compiler, a private cache directory, a build or a load,
:func:`library` is None.  Each kernel that falls back logs one INFO
record on the ``slnoise`` logger that names it and says why: ``no
library:`` and the reason (for a failed build, the last lines of the
compiler's errors), or ``probe refused``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

# The library's source, and the compiler that builds it.
_SOURCE = Path(__file__).with_name("_native.c")
_COMPILER = "gcc"
# File names of the built library; a new build deletes those beyond the
# _KEEP most recently built, so that a few checkouts of different sources
# can share one cache without building anew each time they take turns.
_PREFIX = "native-"
_KEEP = 4
# Lines of the compiler's errors that a failed build reports.
_TAIL_LINES = 5

_log = logging.getLogger("slnoise")


class SlnRun(ctypes.Structure):
    """The ``sln_run`` struct of ``_native.c``: the arrays and constants of
    one integration by ``sln_rk4``."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "eta", "nu", "eta0", "nu0", "factor", "eps", "delta", "y", "block",
        "first_div", "new_div")] + [
        ("rows", ctypes.c_int64), ("width", ctypes.c_int64)] + [
        (name, ctypes.c_double) for name in (
            "two_alpha", "i_alpha_re", "i_alpha_im", "half_h", "full_h", "two",
            "sixth_h", "threshold")]


# The argument types of each kernel; none returns a value.
_INT, _PTR = ctypes.c_int64, ctypes.c_void_p
_ARGTYPES = {
    "sln_rk4": [ctypes.POINTER(SlnRun), _INT, _INT],
    "sln_normals": [_PTR, _INT, _INT, _INT, _PTR, _INT, _PTR],
    "sln_mix": [_INT] * 3 + [_PTR] * 3 + [_INT] * 4,
    "sln_transpose": [_PTR, _INT, _INT, _INT, _PTR, _INT],
    "sln_sums": [_PTR] + [_INT] * 4 + [_PTR] * 2 + [_INT],
    "sln_fft": [_INT, _INT] + [_PTR] * 3 + [_INT] * 4,
}


class _NoLibrary(Exception):
    """Why the library cannot be built."""


# Why library() is None, set when it is found to be: the message of the
# _NoLibrary of the build, or of the OSError of the build or the load.
_why = ""


def _cache_dirs():
    """Where the built library is kept: the user's cache directory, else a
    private directory under the temp dir."""
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    return (os.path.join(base, "slnoise"),
            os.path.join(tempfile.gettempdir(), f"slnoise-{os.getuid()}"))


def _compile_flags() -> list:
    """Optimised, with numpy's rounding (no contraction, no fast math); FMA
    and AVX2 instructions where the processor has them, and AVX-512 in
    512-bit vectors where it has the foundation, doubleword-quadword and
    vector-length extensions.  Even under -ffp-contract=off, gcc 12 with
    -mfma turns scalar complex multiplies into vfmaddsub and vfmsubadd,
    which round once where numpy rounds twice; ``_native.c`` writes no
    such code (see sln_fft there).  The ggc parameters make gcc collect its
    garbage more often, which keeps a first compile near 60 MB of memory
    instead of 70."""
    flags = ["-O3", "-ffp-contract=off", "-fPIC", "-shared",
             "--param", "ggc-min-heapsize=8192", "--param", "ggc-min-expand=20"]
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split() for line in f if line.startswith("flags")), [])
    except OSError:
        cpu = []
    if {"fma", "avx2"} <= set(cpu):
        flags += ["-mfma", "-mavx2"]
    if {"avx512f", "avx512dq", "avx512vl"} <= set(cpu):
        flags += ["-mavx512f", "-mavx512dq", "-mavx512vl",
                  "-mprefer-vector-width=512"]
    return flags


def _private_dir(path: str) -> bool:
    """Creates ``path`` if needed; whether it is a directory of this user's
    that no one else may write to, so that a library in it can be trusted."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return False
    return (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & 0o022)


def _build() -> str:
    """Path of the library, compiled on first use into the first usable
    cache directory.  The file name hashes the source, the flags and the
    compiler's path, inode, size and modification time, so that an
    upgraded compiler builds anew; the library is written under a unique
    name and renamed into place, so that processes building at once never
    load a half-written file.  A new build deletes the libraries in its
    directory beyond the _KEEP most recently built, itself included.
    Raises :class:`_NoLibrary` without a compiler on PATH or a private,
    writable cache directory, or when the build fails."""
    cc = shutil.which(_COMPILER)
    if cc is None:
        raise _NoLibrary(f"no compiler {_COMPILER!r} on PATH")
    flags = _compile_flags()
    cc = os.path.realpath(cc)
    st = os.stat(cc)
    key = hashlib.sha256(b"\0".join(
        [_SOURCE.read_bytes(), *map(str.encode, flags),
         f"{cc}:{st.st_ino}:{st.st_size}:{st.st_mtime_ns}".encode()])).hexdigest()
    for directory in _cache_dirs():
        if not _private_dir(directory):
            continue
        name = f"{_PREFIX}{key[:24]}.so"
        lib = os.path.join(directory, name)
        if os.path.exists(lib):
            return lib
        try:
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
        except OSError:
            continue
        os.close(fd)
        try:
            subprocess.run([cc, *flags, "-o", tmp, str(_SOURCE), "-lm"],
                           capture_output=True, check=True, timeout=600)
            os.replace(tmp, lib)
        except subprocess.CalledProcessError as e:
            tail = e.stderr.decode(errors="replace").strip().splitlines()
            raise _NoLibrary("the build failed: "
                             + "\n".join(tail[-_TAIL_LINES:])) from e
        except subprocess.TimeoutExpired as e:
            raise _NoLibrary(f"the build took more than {e.timeout:g} s") from e
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        _prune(directory)
        return lib
    raise _NoLibrary("no private, writable cache directory among "
                     + ", ".join(_cache_dirs()))


def _prune(directory: str) -> None:
    """Deletes the libraries in ``directory`` beyond the _KEEP most recently
    modified."""
    built = []
    for entry in os.scandir(directory):
        if entry.name.startswith(_PREFIX) and entry.name.endswith(".so"):
            with contextlib.suppress(OSError):
                built.append((entry.stat().st_mtime_ns, entry.path))
    for _, path in sorted(built, reverse=True)[_KEEP:]:
        with contextlib.suppress(OSError):
            os.unlink(path)


@functools.cache
def library() -> Optional[ctypes.CDLL]:
    """The loaded library, built first if need be, or None when it cannot
    be built or loaded; then ``_why`` says why."""
    global _why
    try:
        return ctypes.CDLL(_build())
    except (_NoLibrary, OSError) as e:
        _why = str(e)
    return None


@functools.cache
def kernel(symbol: str, probe: Callable[[object], bool]):
    """The kernel ``symbol`` of :func:`library`, with its argument types,
    if ``probe`` finds that it gives numpy's bits, else None.  A kernel
    that falls back logs why, once, at INFO on the ``slnoise`` logger."""
    lib = library()
    if lib is None:
        _log.info("%s falls back to numpy: no library: %s", symbol, _why)
        return None
    fn = lib[symbol]
    fn.argtypes, fn.restype = _ARGTYPES[symbol], None
    if probe(fn):
        return fn
    _log.info("%s falls back to numpy: probe refused", symbol)
    return None
