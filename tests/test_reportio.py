import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surface_reference
from solitonlab.reportio import _OBJ_BLOCK, fmt, obj_mesh_blocks, obj_mesh_text


def _grid_3x3(z):
    """Vertex (i, j) of a 3x3 grid at (i, j, z[3i + j])."""
    return [(float(i), float(j), z[3 * i + j]) for i in range(3) for j in range(3)]


_Z = [0.5, -0.0, 1 / 3, 2.0, 1e-300, -1.5, 0.1, 1e22, 7.0]


def test_obj_mesh_drops_an_excluded_corner_and_its_quad():
    values = _grid_3x3(_Z)
    excluded = [True] + [False] * 8
    assert obj_mesh_text(values, excluded, 3, 3) == (
        "v 0 1 -0\n"
        "v 0 2 0.33333333333333331\n"
        "v 1 0 2\n"
        "v 1 1 1e-300\n"
        "v 1 2 -1.5\n"
        "v 2 0 0.10000000000000001\n"
        "v 2 1 1e+22\n"
        "v 2 2 7\n"
        "f 1 4 5\n"
        "f 1 5 2\n"
        "f 3 6 7\n"
        "f 3 7 4\n"
        "f 4 7 8\n"
        "f 4 8 5\n")


def test_obj_mesh_with_an_excluded_centre_has_no_faces():
    values = _grid_3x3(_Z)
    excluded = np.zeros(9, dtype=bool)
    excluded[4] = True
    assert obj_mesh_text(values, excluded, 3, 3) == (
        "v 0 0 0.5\n"
        "v 0 1 -0\n"
        "v 0 2 0.33333333333333331\n"
        "v 1 0 2\n"
        "v 1 2 -1.5\n"
        "v 2 0 0.10000000000000001\n"
        "v 2 1 1e+22\n"
        "v 2 2 7\n")


def test_obj_mesh_keeps_non_finite_values():
    z = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0, 3.0]
    values = _grid_3x3(z)
    assert obj_mesh_text(values, [False] * 9, 3, 3) == (
        "v 0 0 nan\n"
        "v 0 1 nan\n"
        "v 0 2 inf\n"
        "v 1 0 -inf\n"
        "v 1 1 0\n"
        "v 1 2 -0\n"
        "v 2 0 1\n"
        "v 2 1 2\n"
        "v 2 2 3\n"
        "f 1 4 5\n"
        "f 1 5 2\n"
        "f 2 5 6\n"
        "f 2 6 3\n"
        "f 4 7 8\n"
        "f 4 8 5\n"
        "f 5 8 9\n"
        "f 5 9 6\n")


def test_obj_mesh_of_all_excluded_points_is_one_newline():
    values = _grid_3x3(_Z)
    assert obj_mesh_text(values, [True] * 9, 3, 3) == "\n"


@pytest.mark.parametrize("x", [0.5, -0.0, 0.0, 1 / 3, 1e-300, 5e-324, 1e22, -1.5e308,
                               math.nan, -math.nan, math.inf, -math.inf, 3, -7])
def test_percent_g_formats_like_fmt(x):
    assert "%.17g" % x == fmt(x)


# Grids whose kept vertices or quads, all kept, number one block, one block
# and one row either way, or two blocks: a single row of B - 1, B, B + 1 and
# 2B vertices, and two rows with B - 1, B and B + 1 quads.
_B = _OBJ_BLOCK
_BOUNDARY_SHAPES = [(1, _B - 1), (1, _B), (1, _B + 1), (1, 2 * _B),
                    (2, _B), (2, _B + 1), (2, _B + 2), (_B + 1, 2)]
_SPECIAL = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22])


@pytest.mark.parametrize("na,nb", _BOUNDARY_SHAPES)
def test_obj_mesh_at_block_boundaries_matches_the_unblocked_text(na, nb):
    values = np.arange(na * nb * 3, dtype=float).reshape(-1, 3) / 7.0
    excluded = np.zeros(na * nb, dtype=bool)
    assert obj_mesh_text(values, excluded, na, nb) == surface_reference.obj_mesh_text(
        values, excluded, na, nb)
    # one block per _OBJ_BLOCK vertices, then one per _OBJ_BLOCK face rows
    blocks = list(obj_mesh_blocks(values, excluded, na, nb))
    faces = (na - 1) * (nb - 1)
    assert [len(x.splitlines()) for x in blocks] == (
        [min(_B, na * nb - i) for i in range(0, na * nb, _B)]
        + [2 * min(_B, faces - i) for i in range(0, faces, _B)])


@settings(max_examples=40, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(1, 9), st.integers(1, 9)),
                       st.sampled_from(_BOUNDARY_SHAPES)),
       excluded_share=st.sampled_from([0.0, 0.0005, 0.1, 0.5, 0.9, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_obj_mesh_on_random_masks_matches_the_unblocked_text(shape, excluded_share, seed):
    na, nb = shape
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((na * nb, 3)) * 10.0 ** rng.integers(-300, 300, (na * nb, 3))
    special = rng.random(values.shape) < 0.05
    values[special] = rng.choice(_SPECIAL, np.count_nonzero(special))
    excluded = rng.random(na * nb) < excluded_share
    got = obj_mesh_text(values, excluded, na, nb)
    assert got == surface_reference.obj_mesh_text(values, excluded, na, nb)
    assert (got == "\n") == bool(excluded.all())
