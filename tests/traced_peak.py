"""The traced peak of one call, the one tracemalloc pattern the memory tests share."""

import tracemalloc


def peak_bytes(call, warm=False):
    """Peak bytes tracemalloc traces while call() runs; with warm=True, call() runs
    once untraced first, so that first-call allocations are not counted."""
    if warm:
        call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
