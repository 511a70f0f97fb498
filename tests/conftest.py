import gc

import pytest


@pytest.fixture
def gc_disabled():
    """Runs the test with the cyclic garbage collector off, so an object
    that dies does so by reference counting alone."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
