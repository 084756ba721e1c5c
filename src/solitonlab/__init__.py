"""Born-Infeld solitons and maximal surfaces in Lorentz-Minkowski 3-space:
PDE residuals, Wick rotations, Lorentzian graph geometry, Weierstrass-Enneper
integration, conjugate/associate families, and Ramanujan-derived identities.
"""

from .core import (
    CentralDiff,
    ExactJet,
    LVec3,
    ScalarField2,
    jet,
    lorentz_inner,
    with_backend,
)
from .family import (
    ConjugatePair,
    SolitonFamilyPoint,
    WhithamPair,
    associate_family,
    complex_bi_residual_on_family,
    conjugacy_check,
    helicoid_catenoid_pair,
    soliton_family,
    whitham_verify,
)
from .geometry import (
    CausalClass,
    FundForms,
    causal_classify,
    example1_graph,
    fundamental_forms,
    isothermal_check,
    mean_curvature,
    unit_normal,
)
from .identities import (
    REGISTRY,
    TruncationResult,
    convergence_order,
    evaluate,
)
from .jetmath import TJet, conj, power
from .pde import (
    Equation,
    GridSpec,
    ResidualReport,
    SolutionEntry,
    equation_residual,
    residual_sweep,
    solution,
    wick_rotate_t,
    wick_rotate_x,
)
from .weierstrass import (
    SurfaceMap,
    Variant,
    WEData,
    catalog_surface,
    nonparametric_check,
    we_catalog,
    we_data_rotation,
    we_integrate,
)

__version__ = "0.1.0"
