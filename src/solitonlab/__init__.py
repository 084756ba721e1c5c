"""Born-Infeld solitons and maximal surfaces in Lorentz-Minkowski 3-space:
PDE residuals, Wick rotations, Lorentzian graph geometry, Weierstrass-Enneper
integration, conjugate/associate families, and Ramanujan-derived identities.

``import solitonlab`` runs no submodule, so a program, or a CLI command, pays
only for the modules it uses.  Each exported name is imported from its
submodule on first access (PEP 562).  Each submodule but ``cli`` is put in
``sys.modules``, and on the package, as a lazy module
(``importlib.util.LazyLoader``) that runs on its first attribute access: code
that walks ``sys.modules`` to patch the package's functions, as a tracer does,
finds every module from the start.  ``cli`` is imported as usual, so that
``python -m solitonlab.cli`` does not find it loaded before it runs.
"""

import importlib.util
import sys

_LAZY = ("core", "errors", "family", "geometry", "identities", "jetmath", "pde",
         "quadrature", "reportio", "weierstrass")

# The submodule that defines each exported name.
_EXPORTS = {name: module for module, names in {
    "core": "CentralDiff ExactJet LVec3 ScalarField2 jet lorentz_inner with_backend",
    "family": "ConjugatePair SolitonFamilyPoint WhithamPair associate_family "
              "complex_bi_residual_on_family conjugacy_check helicoid_catenoid_pair "
              "soliton_family whitham_verify",
    "geometry": "CausalClass FundForms causal_classify example1_graph fundamental_forms "
                "isothermal_check mean_curvature unit_normal",
    "identities": "REGISTRY TruncationResult convergence_order evaluate",
    "jetmath": "TJet conj power",
    "pde": "Equation GridSpec ResidualReport SolutionEntry equation_residual "
           "residual_sweep solution wick_rotate_t wick_rotate_x",
    "weierstrass": "SurfaceMap Variant WEData catalog_surface nonparametric_check "
                   "we_catalog we_data_rotation we_integrate",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"

for _name in _LAZY:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_EXPORTS[name]], name)
    globals()[name] = value
    return value
