"""Wall-clock timing for the benchmark scripts."""

import time


def timed(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)``; return ``(result, elapsed_seconds)``."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0
