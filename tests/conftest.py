"""Test-session fixtures."""

import pytest

from slnoise import dynamics


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the native RK4 kernel into a directory of the test session,
    not into the user's cache."""
    cache = str(tmp_path_factory.mktemp("kernel-cache"))
    dynamics._native_kernel.cache_clear()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "_cache_dirs", lambda: (cache,))
        yield cache
    dynamics._native_kernel.cache_clear()
