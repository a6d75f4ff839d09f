"""Exception types shared across the package."""


class ConfweightError(Exception):
    """Base class for all package-specific errors."""


class PointOutsideDomain(ConfweightError):
    """A point does not belong to the (open) domain of the map or weight."""


class BranchCutViolation(PointOutsideDomain):
    """A point lies on the ray excluded by a square-root branch."""


class IntegrandNotFinite(ConfweightError):
    """An integrand returned NaN or Inf at an interior quadrature node."""


class InvalidExponents(ConfweightError):
    """Norm exponents violate the required ordering (e.g. 1 <= q < p)."""


class GridTooCoarse(ConfweightError):
    """A polar grid is too coarse for the requested stencil."""


class GridTooLarge(ConfweightError):
    """A refinement ladder would reach a level above the node budget."""


class KpqDivergent(ConfweightError):
    """The dilatation integral defining the operator norm bound diverges."""


class ExponentOutOfRange(ConfweightError):
    """An exponent lies outside the admissible analytic range."""


class IterationDivergence(ConfweightError):
    """An iterative estimate failed to settle within the iteration budget."""


class RhsNotFinite(ConfweightError):
    """A right-hand side evaluated to NaN or Inf on the solver grid."""


class SolutionNotFinite(ConfweightError):
    """A finite right-hand side overflowed to NaN or Inf in the radial solve."""
