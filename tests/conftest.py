"""Test-session fixtures, and helpers for the native kernels."""

import pytest

from slnoise import _native, dynamics, ensemble, noise

# the module and name of each kernel's probe, looked up when the kernel
# is asked for, so that a test's patch of a probe applies
PROBES = {"sln_rk4": (dynamics, "_probe"), "sln_normals": (noise, "_probe"),
          "sln_mix": (noise, "_colour_probe"),
          "sln_sums": (ensemble, "_sums_probe"),
          "sln_fft": (noise, "_fft_probe")}


def kernel(symbol):
    """The kernel ``symbol`` as the package takes it, or None."""
    module, name = PROBES[symbol]
    return _native.kernel(symbol, getattr(module, name))


def force_numpy(monkeypatch, *symbols):
    """Makes the kernels ``symbols`` fall back to numpy for as long as
    ``monkeypatch`` (or its context) lasts."""
    load = _native.kernel
    monkeypatch.setattr(_native, "kernel", lambda symbol, probe: (
        None if symbol in symbols else load(symbol, probe)))


def without_avx512(flags):
    """The compiler flags ``flags`` without those that target AVX-512."""
    return [f for f in flags if not f.startswith("-mavx512")
            and f != "-mprefer-vector-width=512"]


def forget_native():
    """Forget the loaded native library and the kernels taken from it."""
    _native.library.cache_clear()
    _native.kernel.cache_clear()


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the native library into a directory of the test session,
    not into the user's cache."""
    cache = str(tmp_path_factory.mktemp("kernel-cache"))
    forget_native()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_native, "_cache_dirs", lambda: (cache,))
        yield cache
    forget_native()


@pytest.fixture
def rebuild():
    """Forget the native library and its kernels before and after the
    test."""
    forget_native()
    yield
    forget_native()
