"""Exception types shared across the package."""


class SolitonLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SolitonLabError):
    """Evaluation requested at (or too close to) an excluded point."""


class StencilExcluded(DomainError):
    """A central-difference stencil reaches an excluded point."""


class DegenerateError(SolitonLabError):
    """Tangent plane is lightlike: no unit normal / second form there."""


class UnsupportedEvaluator(SolitonLabError):
    """Field evaluator does not admit complex substitution."""


class PathError(SolitonLabError):
    """No usable integration path: none that avoids the poles within the
    detour budget, or a given path with fewer than two waypoints."""


class UnknownSurface(SolitonLabError):
    """Requested catalog surface name does not exist."""


class ExcludedPoint(SolitonLabError):
    """Identity arguments violate the validity hypotheses."""


class JacobianSingular(SolitonLabError):
    """Graph projection of a parametrized surface degenerates at a point."""


class QuadratureError(SolitonLabError):
    """Contour quadrature met a non-finite integrand value or could not reach
    its tolerance within the subinterval budget."""
