import os
import signal

import pytest

import fvrlab
from fvrlab.ring import make_ring

# about 15 times the slowest test; a hang fails its test instead of the run
TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that outlives TEST_TIME_LIMIT_S.

    A BaseException, so Hypothesis does not catch it and shrink a hanging
    example with no timer armed; pytest still reports the test as failed.
    """


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT_S} s")

    # a real-time timer; forked pool workers do not inherit it
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def z9():
    return make_ring("zpr", 3, r=2)


@pytest.fixture(scope="session")
def z27():
    return make_ring("zpr", 3, r=3)


@pytest.fixture(scope="session")
def z25():
    return make_ring("zpr", 5, r=2)


@pytest.fixture(scope="session")
def f3x2():
    return make_ring("fqxr", 3, s=1, r=2)


@pytest.fixture(scope="session")
def f9():
    return make_ring("fqxr", 3, s=2, r=1)


@pytest.fixture(scope="session")
def all_rings(z9, z27, z25, f3x2, f9):
    return [z9, z27, z25, f3x2, f9]


def child_env(env_extra=None):
    """The caller's environment, pinned to the fvrlab this test imported.

    The directory holding the imported package goes first on PYTHONPATH, so
    a relative entry (``PYTHONPATH=src``) or another installed copy cannot
    change which fvrlab the child runs from its temporary cwd.  An inherited
    FVRLAB_WORKERS is dropped, so only runs that ask for workers get them.
    """
    env = dict(os.environ)
    env.pop("FVRLAB_WORKERS", None)
    root = os.path.dirname(os.path.dirname(os.path.abspath(fvrlab.__file__)))
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([root, *inherited])
    env.update(env_extra or {})
    return env
