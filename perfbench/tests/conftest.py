"""Per-test watchdog for the benchmark's own tests.

Several tests start real servers and child processes; one that stops
answering must fail its test, never hang the suite.  SIGALRM raises
inside the test after :data:`TEST_TIMEOUT_S`.
"""

from __future__ import annotations

import signal

import pytest

#: generous: the watchdog turns a wedge into a failure, it does not time
#: healthy tests
TEST_TIMEOUT_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(f"benchmark test exceeded {TEST_TIMEOUT_S}s watchdog")

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
