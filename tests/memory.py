"""Tracemalloc measurement shared by the memory contracts of the tests."""

import tracemalloc


def traced_peak(fn, *args):
    """``fn(*args)`` and the tracemalloc peak, in bytes, of that one call."""
    tracemalloc.start()
    try:
        value = fn(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
