"""The points of a ``GridSpec`` in grid order, for tests that walk a grid
point by point: the product of its axes, as ``SurfaceMap.sample`` and the
``surface sample`` CSV rows take them."""

import itertools

import numpy as np


def points(grid) -> list:
    """The grid points as (a, b) pairs of Python floats, in grid order."""
    a, b = grid.axes()
    return list(itertools.product(a.tolist(), b.tolist()))


def coords(grid) -> tuple:
    """The a and b coordinates of the points, float arrays in grid order."""
    a, b = grid.axes()
    return np.repeat(a, grid.nb), np.tile(b, grid.na)
