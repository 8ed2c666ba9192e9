import signal

import pytest

# no single test may run longer than this; the slowest, the codec roundtrip
# over 65.5M cases, takes about 130 s on a 2-core host
TEST_TIME_LIMIT_S = 600


def _time_out(signum, frame):
    raise TimeoutError(f"test ran past {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a hung test with TimeoutError instead of stalling the suite."""
    if not hasattr(signal, "SIGALRM"):  # no alarm on this platform
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
