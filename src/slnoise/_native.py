"""The native library of slnoise: ``_native.c``, compiled on first use.

The library holds the kernels below, each called through ctypes, which
releases the interpreter lock: ``sln_rk4``, the RK4 kernel of
:func:`~slnoise.dynamics.integrate_blocks`; ``sln_normals``, the
unit-normal draw of :meth:`~slnoise.noise.Synthesizer._draw`;
``sln_mix`` and ``sln_transpose``, the spectral pass and the write-out
of :class:`~slnoise.noise.Synthesizer`'s colouring; and ``sln_sums``, the
ensemble sums of :mod:`slnoise.ensemble`.  Each gives the bits of its
numpy counterpart; the module that uses a kernel checks that it does on a
small probe before it relies on it
(:func:`slnoise.dynamics._native_kernel`,
:func:`slnoise.noise._native_normals`,
:func:`slnoise.noise._native_colour`,
:func:`slnoise.ensemble._native_sums`), and runs the numpy code where it
does not.

The library is compiled once into a cache outside the package
(``$XDG_CACHE_HOME/slnoise``, else ``~/.cache/slnoise``, else a private
directory under the temp dir) and loaded by every later process.
Without a compiler or a writable cache, :func:`library` is None.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

# The library's source, and the compiler that builds it.
_SOURCE = Path(__file__).with_name("_native.c")
_COMPILER = "gcc"
# File names of the built library, and of the RK4-only library that
# preceded it; a new build deletes those of both beyond the _KEEP most
# recently built, so that a few checkouts of different sources can share
# one cache without building anew each time they take turns.
_PREFIXES = ("native-", "rk4-")
_KEEP = 4


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
    vector-length extensions.  The ggc parameters make gcc collect its
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


def _build() -> Optional[str]:
    """Path of the library, compiled on first use into the first usable
    cache directory, or None.  The file name hashes the source, the flags
    and the compiler's path, inode, size and modification time, so that an
    upgraded compiler builds anew; the library is written under a unique
    name and renamed into place, so that processes building at once never
    load a half-written file.  A new build deletes the libraries in its
    directory beyond the _KEEP most recently built, itself included."""
    cc = shutil.which(_COMPILER)
    if cc is None:
        return None
    flags = _compile_flags()
    cc = os.path.realpath(cc)
    st = os.stat(cc)
    key = hashlib.sha256(b"\0".join(
        [_SOURCE.read_bytes(), *map(str.encode, flags),
         f"{cc}:{st.st_ino}:{st.st_size}:{st.st_mtime_ns}".encode()])).hexdigest()
    for directory in _cache_dirs():
        if not _private_dir(directory):
            continue
        name = f"{_PREFIXES[0]}{key[:24]}.so"
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
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        _prune(directory)
        return lib
    return None


def _prune(directory: str) -> None:
    """Deletes the libraries in ``directory`` beyond the _KEEP most recently
    modified."""
    built = []
    for entry in os.scandir(directory):
        if entry.name.startswith(_PREFIXES) and entry.name.endswith(".so"):
            with contextlib.suppress(OSError):
                built.append((entry.stat().st_mtime_ns, entry.path))
    for _, path in sorted(built, reverse=True)[_KEEP:]:
        with contextlib.suppress(OSError):
            os.unlink(path)


@functools.cache
def library() -> Optional[ctypes.CDLL]:
    """The loaded library, built first if need be, or None when it cannot
    be built or loaded."""
    try:
        path = _build()
        return None if path is None else ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None
