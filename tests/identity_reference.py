"""The three surface identities as they were written out by hand before each
became a Ramanujan term at arguments read off its catalog surface: their
left-hand sides, terms and validity predicates, verbatim.
``test_identities.py`` holds the package's derived identities to these within
measured bounds (the Lorentz helicoid's bit for bit)."""

import cmath
import math

import numpy as np

from solitonlab.identities import EXCLUSION_RADIUS


def _scherk_xy(zeta: complex):
    x = math.log(abs((zeta + 1) / (zeta - 1)))
    y = math.log(abs((zeta - 1j) / (zeta + 1j)))
    return x, y


def _scherk_lhs(args):
    zeta, = args
    return math.log(abs((zeta * zeta - 1) / (zeta * zeta + 1)))


def _scherk_term(k, args):
    # the two log series of the identity, paired per k: each pair collapses
    # to a real log of a positive ratio
    x, y = _scherk_xy(args[0])
    c2 = ((k - 0.5) * math.pi) ** 2
    return np.log((c2 + y * y) / (c2 + x * x))


def _scherk_valid(args) -> bool:
    return min(abs(args[0] - p) for p in (1, -1, 1j, -1j)) > EXCLUSION_RADIUS


def _heli2_lhs(args):
    zeta, = args
    return (zeta + 1 / zeta).imag / (zeta - 1 / zeta).imag


def _heli2_term(k, args):
    L = math.log(abs(args[0]))
    num = ((k - 1) * math.pi + 1j * L) * (k * math.pi - 1j * L)
    den = ((k - 0.5) * math.pi + 1j * L) * ((k - 0.5) * math.pi - 1j * L)
    return num / den


def _heli2_valid(args) -> bool:
    zeta, = args
    if abs(zeta) <= EXCLUSION_RADIUS:
        return False
    if abs(abs(zeta) - 1.0) <= EXCLUSION_RADIUS:
        return False  # ln|zeta| = 0 collapses the k = 1 factor
    return abs((zeta - 1 / zeta).imag) > EXCLUSION_RADIUS


def _lorentz_lhs(args):
    zeta, = args
    R = (zeta + 1 / zeta).real
    I = (zeta - 1 / zeta).imag
    y, x = -0.5 * R, 0.5 * I
    t = math.tanh(y)
    inner = 0.0 if t == 0.0 else math.atan(t / math.tan(x))
    return cmath.log(zeta).imag - inner


def _lorentz_term(k, args):
    zeta, = args
    R = (zeta + 1 / zeta).real
    I = (zeta - 1 / zeta).imag
    return np.arctan(R / (I - 2 * k * math.pi)) + np.arctan(R / (I + 2 * k * math.pi))


def _lorentz_valid(args) -> bool:
    zeta, = args
    if abs(zeta) <= EXCLUSION_RADIUS:
        return False
    if zeta.real <= 0.0 and abs(zeta.imag) <= EXCLUSION_RADIUS:
        return False  # principal-arg branch cut
    return abs((zeta - 1 / zeta).imag) > 1e-9  # cot argument x != 0
