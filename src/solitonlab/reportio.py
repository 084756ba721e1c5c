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


# Vertices or faces formatted per block of ``obj_mesh_text``: each block's
# format string and argument tuple stay small, and the text is joined once.
_OBJ_BLOCK = 4096


def _lines(line: str, rows: np.ndarray) -> list:
    """``line`` formatted with each row of ``rows``, in blocks of _OBJ_BLOCK rows."""
    return [(line * len(block)) % tuple(block.ravel().tolist())
            for block in np.split(rows, range(_OBJ_BLOCK, len(rows), _OBJ_BLOCK))]


def obj_mesh_text(values, excluded_mask, na: int, nb: int) -> str:
    """Wavefront OBJ for a rectangular parameter grid (row-major in the first
    index).  Excluded vertices are dropped and every triangle touching one is
    skipped; a mesh with no vertex is ``"\\n"``.

    Kept vertices are numbered 1, 2, ... in grid order; each quad of four kept
    vertices a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1) gives the
    faces (a, b, c) and (a, c, d).  ``%.17g`` prints a float as ``fmt`` does,
    ``nan``, ``inf``, ``-inf`` and ``-0`` included.  Vertices and faces are
    formatted in blocks of ``_OBJ_BLOCK`` and joined once."""
    keep = ~np.asarray(excluded_mask, dtype=bool).reshape(na, nb)
    xyz = np.asarray(values, dtype=float).reshape(na * nb, 3)[keep.ravel()]
    number = np.cumsum(keep).reshape(na, nb)
    quad = keep[:-1, :-1] & keep[1:, :-1] & keep[1:, 1:] & keep[:-1, 1:]
    a, b = number[:-1, :-1][quad], number[1:, :-1][quad]
    c, d = number[1:, 1:][quad], number[:-1, 1:][quad]
    faces = np.stack([a, b, c, a, c, d], axis=1)
    text = "".join(_lines("v %.17g %.17g %.17g\n", xyz)
                   + _lines("f %d %d %d\nf %d %d %d\n", faces))
    return text or "\n"
