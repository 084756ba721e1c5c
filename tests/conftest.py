"""Digest pins that depend on numpy's SIMD kernels.

numpy picks its SIMD kernels at run time, and its vectorized ``exp``, ``tanh``,
``log1p`` and complex products round differently from one dispatch level to
the next.  A pin that hashes such output is recorded once per level, keyed by
the dispatch targets that numpy has enabled (``__cpu_dispatch__`` filtered by
``__cpu_features__``); set ``NPY_DISABLE_CPU_FEATURES`` to record another
level.  The key ``"none"`` is numpy's baseline (X86_V2 on x86-64).

On a key with no recorded digest, the values behind the pin are compared
instead with the ``float.hex`` values in ``pin_references.json``, recorded at
the key it names, within that pin's absolute bound.  Each bound is the largest
difference from those values measured over the three recorded levels, plus
the key ``"AVX512_ICL AVX512_SPR"`` (``NPY_DISABLE_CPU_FEATURES="X86_V3
X86_V4"`` on an AVX-512 Xeon), each with ``OPENBLAS_CORETYPE`` unset,
``Haswell``, ``Sandybridge`` and ``Prescott``: 2**-48 (one ulp at 16-32)
for the quadrature integrals, whose largest is about 20, and 4.46e-16 (just
above 2**-51) for the pointwise defects, which are round-off themselves.  Wherever a key's digest
equals that of the key the values were recorded at, the values must equal
them bit for bit, so the two records cannot drift apart.
"""

import json
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

_REFERENCES = Path(__file__).with_name("pin_references.json")


def _dispatch_key() -> str:
    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"


@pytest.fixture
def recorded_digest():
    """``check(table, digest, values, name)`` passes when ``digest`` is the one
    that ``table`` records for numpy's active dispatch targets (or for
    ``key``, when given).  On a key with no record, it passes when every one
    of ``values`` is within the bound of the reference ``name`` instead."""
    def check(table: dict, digest: str, values, name: str, key: str = None):
        key = _dispatch_key() if key is None else key
        ref = json.loads(_REFERENCES.read_text())[name]
        values = [float(v) for v in values]
        if key in table:
            assert digest == table[key], f"digest for numpy's dispatch targets {key!r}"
            if table[key] == table.get(ref["recorded_at"]):
                assert [v.hex() for v in values] == ref["values"]
            return
        bound = float.fromhex(ref["bound"])
        assert len(values) == len(ref["values"])
        off = [(i, v) for i, (v, r) in enumerate(zip(values, ref["values"]))
               if not abs(v - float.fromhex(r)) <= bound]  # NaN is off too
        if off:
            pytest.fail(f"no digest recorded for numpy's dispatch targets {key!r} "
                        f"(recorded: {sorted(table)}), and {len(off)} values differ from "
                        f"{_REFERENCES.name}[{name!r}] by more than {bound:g}, "
                        f"the first (index, value): {off[0]}")
    return check
