"""Digest pins that depend on numpy's SIMD kernels.

numpy picks its SIMD kernels at run time, and its vectorized ``exp``, ``tanh``,
``log1p`` and complex products round differently from one dispatch level to
the next.  A pin that hashes such output is recorded once per level, keyed by
the dispatch targets that numpy has enabled (``__cpu_dispatch__`` filtered by
``__cpu_features__``); set ``NPY_DISABLE_CPU_FEATURES`` to record another
level.  The key ``"none"`` is numpy's baseline (X86_V2 on x86-64).
"""

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def _dispatch_key() -> str:
    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"


@pytest.fixture
def recorded_digest():
    """``lookup(table)`` returns the digest that ``table`` records for numpy's
    active dispatch targets, and fails naming them when there is none."""
    key = _dispatch_key()

    def lookup(table: dict) -> str:
        if key not in table:
            pytest.fail(f"no digest recorded for numpy's dispatch targets {key!r}; "
                        f"recorded: {sorted(table)}")
        return table[key]
    return lookup
