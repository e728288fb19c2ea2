"""Exception types shared across the package."""


class MomstratError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MomstratError):
    pass


class NonIntegralInput(MomstratError):
    pass


class RankDeficient(MomstratError):
    pass


class UnboundedPolytope(MomstratError):
    pass


class EmptyPolytope(MomstratError):
    pass


class PointOutsideSupport(MomstratError):
    pass


class PointOutsideImage(MomstratError):
    pass


class InvalidCover(MomstratError):
    pass


class NonIntegrable(MomstratError):
    """Internal soundness assertion of the stratifier; never expected on valid covers."""


class NonEffectiveAction(MomstratError):
    pass


class EmptyFiber(MomstratError):
    pass


class DegenerateFiber(MomstratError):
    pass


class NotTopDimensional(MomstratError):
    pass


class InterpolationInconsistent(MomstratError):
    """A chamber density failed an exact check: a simplex of its fan is flat
    at the point the fan was built over, or the polynomial disagrees with the
    per-point fiber volume at a held-out point.  The message names the
    stratum and the point."""


class ParseError(MomstratError):
    pass
