"""A time bound for test code that would hang rather than fail."""

import signal
from contextlib import contextmanager


@contextmanager
def bounded(seconds):
    """Raise TimeoutError, rather than hang, once the body has run
    ``seconds``: a random draw that re-reads a rejected candidate never
    ends. Uses SIGALRM, so it runs in the main thread only."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
