import os

import numpy as np
import pytest

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # pytest captures fd 2 during each test, and a process that a watchdog ends loses what was captured
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(scope="session")
def stderr_fd(pytestconfig) -> int:
    """A descriptor of the run's stderr that test capture does not redirect."""
    return pytestconfig.stash[_STDERR_FD]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
