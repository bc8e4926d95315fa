"""Exception types shared across the package."""


class AnisolabError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpec(AnisolabError, ValueError):
    """User input (a spec string, domain list or config file) does not parse."""


class NonUnitNormal(AnisolabError):
    """A direction that must lie on the unit sphere does not."""


class ZeroVector(AnisolabError):
    """A vector argument is too close to zero to normalize."""


class NonConvexIntegrand(AnisolabError):
    """The integrand fails the sampled convexity (or positivity) margin."""


class DegenerateImmersion(AnisolabError):
    """A chart node where |X_u x X_v| is numerically zero."""


class UnknownFixture(AnisolabError):
    """Requested surface fixture name is not registered."""


class SingularShear(AnisolabError):
    """Shear matrix for a sheared fixture is numerically singular."""


class BoundaryNotFixed(AnisolabError):
    """A variation field does not vanish on the patch boundary."""


class EllipticityLoss(AnisolabError):
    """Frozen coefficient matrix of the graph equation lost ellipticity."""


class SolverFailure(AnisolabError):
    """An eigensolve or linear solve failed; never silently truncated."""


class NonDiscreteCriticalSet(AnisolabError):
    """Flat points are not isolated: a planar patch, a flat set reaching the
    patch boundary or filling a periodic chart's every cell column, or a
    zero of the traceless curvature it does not wind around."""


class AmbiguousWinding(AnisolabError):
    """Winding-number sampling too coarse even after one refinement, or the
    Gauss map and the traceless curvature wind differently around a flat point."""


class GrazingCircle(AnisolabError):
    """The chosen axis is nearly degenerate for this patch's normal field."""
