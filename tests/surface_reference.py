"""``SurfaceMap.sample`` and ``obj_mesh_text`` as they were before the kept
points were streamed into one array and the OBJ text was formatted in blocks:
both verbatim (``sample`` as a function of the surface, on a list of (u, v)
points).  ``test_weierstrass.py``, ``test_reportio.py`` and ``test_cli.py``
hold the package's versions to these bit for bit, exceptions included: the
package's ``sample(a, b)`` on two axes to this ``sample`` on
``list(itertools.product(a, b))``."""

import itertools
import math

import numpy as np

from solitonlab.core import exclusion_mask, nonreal
from solitonlab.errors import DomainError


def sample(self, points):
    comps = np.full((len(points), 3), complex(math.nan, 0.0))
    # (u, v) pairs of float64 read as complex128: zetas[k] == complex(u, v)
    zetas = np.fromiter(itertools.chain.from_iterable(points), float,
                        2 * len(points)).view(complex)
    excluded = np.array(exclusion_mask(self.domain_exclusions, zetas))  # writable
    for k in np.flatnonzero(~excluded):
        u, v = points[k]
        comps[k] = self.components(u, v)
    not_real = nonreal(comps)
    if not_real.any():
        k, i = np.argwhere(not_real)[0]
        raise DomainError(f"surface component not real at {complex(*points[k])}: "
                          f"{complex(comps[k, i])}")
    return comps.real, excluded


def obj_mesh_text(values, excluded_mask, na: int, nb: int) -> str:
    keep = ~np.asarray(excluded_mask, dtype=bool).reshape(na, nb)
    xyz = np.asarray(values, dtype=float).reshape(na * nb, 3)[keep.ravel()]
    number = np.cumsum(keep).reshape(na, nb)
    quad = keep[:-1, :-1] & keep[1:, :-1] & keep[1:, 1:] & keep[:-1, 1:]
    a, b = number[:-1, :-1][quad], number[1:, :-1][quad]
    c, d = number[1:, 1:][quad], number[:-1, 1:][quad]
    faces = np.stack([a, b, c, a, c, d], axis=1)
    text = (("v %.17g %.17g %.17g\n" * len(xyz)) % tuple(xyz.ravel().tolist())
            + ("f %d %d %d\nf %d %d %d\n" * len(faces)) % tuple(faces.ravel().tolist()))
    return text or "\n"
