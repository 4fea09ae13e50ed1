import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import openblas_thread_controls  # noqa: E402


@pytest.fixture()
def openblas_at_three():
    """Sets every bundled OpenBLAS to 3 threads for the test and puts the old
    counts back afterwards; yields a function that reads the current counts."""
    controls = openblas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(3)
    try:
        yield lambda: [get() for get, _ in controls]
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)
