import tracemalloc

import pytest


@pytest.fixture
def alloc_peak():
    """Peak bytes traced by tracemalloc during one call of fn, above what was
    held when it started; fn runs once before, to warm up lazily allocated
    NumPy state."""

    def measure(fn) -> int:
        fn()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure
