"""Test-session fixtures."""

import pytest

from slnoise import _native, dynamics, ensemble, noise


def forget_native():
    """Forget the loaded native library and the kernels taken from it."""
    _native.library.cache_clear()
    dynamics._native_kernel.cache_clear()
    noise._native_normals.cache_clear()
    noise._native_colour.cache_clear()
    ensemble._native_sums.cache_clear()


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
