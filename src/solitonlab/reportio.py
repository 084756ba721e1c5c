"""Deterministic text serialization for reports.

All numeric output is printed with 17 significant digits (enough to
round-trip IEEE doubles), keys are emitted in sorted order, and no
timestamps or environment data are included, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import math
from io import StringIO

import numpy as np


def fmt(x) -> str:
    """17-significant-digit rendering of one number."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _emit(obj, out: StringIO, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.write("null")
    elif isinstance(obj, (bool, int, float)):
        out.write(fmt(obj))
    elif isinstance(obj, complex):
        out.write(f"[{fmt(obj.real)}, {fmt(obj.imag)}]")
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        items = sorted(obj.items())
        if not items:
            out.write("{}")
            return
        out.write("{\n")
        for i, (k, v) in enumerate(items):
            out.write(f'{pad}  "{k}": ')
            _emit(v, out, indent + 1)
            out.write(",\n" if i + 1 < len(items) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(obj):
            out.write(pad + "  ")
            _emit(v, out, indent + 1)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj) -> str:
    out = StringIO()
    _emit(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else fmt(c) for c in row))
    return "\n".join(lines) + "\n"


# Vertices or faces formatted per block of ``obj_mesh_blocks``: each block's
# format string and argument tuple stay small, and no block outlives its write.
_OBJ_BLOCK = 4096


def _lines(line: str, rows: np.ndarray):
    """``line`` formatted with each row of ``rows``, yielded in blocks of _OBJ_BLOCK rows."""
    for i in range(0, len(rows), _OBJ_BLOCK):
        block = rows[i:i + _OBJ_BLOCK]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def obj_mesh_blocks(values, excluded_mask, na: int, nb: int):
    """Wavefront OBJ for a rectangular parameter grid (row-major in the first
    index), yielded in blocks of ``_OBJ_BLOCK`` vertex or face rows.
    Excluded vertices are dropped and every triangle touching one is
    skipped; a mesh with no vertex is the one block ``"\\n"``.

    Kept vertices are numbered 1, 2, ... in grid order; each quad of four kept
    vertices a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1) gives the
    faces (a, b, c) and (a, c, d).  ``%.17g`` prints a float as ``fmt`` does,
    ``nan``, ``inf``, ``-inf`` and ``-0`` included."""
    keep = ~np.asarray(excluded_mask, dtype=bool).reshape(na, nb)
    xyz = np.asarray(values, dtype=float).reshape(na * nb, 3)[keep.ravel()]
    if not len(xyz):
        yield "\n"  # and no face: every quad has an excluded vertex
    number = np.cumsum(keep).reshape(na, nb)
    quad = keep[:-1, :-1] & keep[1:, :-1] & keep[1:, 1:] & keep[:-1, 1:]
    a, b = number[:-1, :-1][quad], number[1:, :-1][quad]
    c, d = number[1:, 1:][quad], number[:-1, 1:][quad]
    yield from _lines("v %.17g %.17g %.17g\n", xyz)
    yield from _lines("f %d %d %d\nf %d %d %d\n", np.stack([a, b, c, a, c, d], axis=1))


def obj_mesh_text(values, excluded_mask, na: int, nb: int) -> str:
    """The blocks of ``obj_mesh_blocks`` joined into one string."""
    return "".join(obj_mesh_blocks(values, excluded_mask, na, nb))
