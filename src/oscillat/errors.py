"""Exception types shared across the workbench."""


class OscillatError(Exception):
    """Base class for all workbench errors."""


class DegenerateBasis(OscillatError):
    """Lattice basis vectors are (numerically) linearly dependent."""


class OddResolution(OscillatError):
    """Grid resolution must be even."""


class RankDeficientSymbol(OscillatError):
    """First-order symbol fails the maximal-rank (uniform ellipticity) test."""


class UnknownCatalogEntry(OscillatError):
    """Requested coefficient catalog entry does not exist."""


class SolverBreakdown(OscillatError):
    """Iterative cell solver stagnated or the truncated system is singular."""


class ResolutionViolation(OscillatError):
    """Mesh spacing too coarse for the requested oscillation scale."""


class NotPositiveDefinite(OscillatError):
    """Assembled operator failed the smallest-eigenvalue probe."""


class LambdaSearchFailed(OscillatError):
    """No shift on the search grid makes all operators positive definite."""


class MarginTooSmall(OscillatError):
    """Extension margin cannot hold the reflection stencil or smoothing reach."""


class NearSpectrumShift(OscillatError):
    """Resolvent shift too close to the operator spectrum."""


class EigSolverFailure(OscillatError):
    """Eigendecomposition failed or produced non-positive eigenvalues."""


class CFLViolation(OscillatError):
    """Time step too large for the explicit wave integrator."""


class InsufficientPoints(OscillatError):
    """Too few usable (eps, error) points to fit a convergence rate."""


class ZeroError(OscillatError):
    """An exactly zero error cannot enter a log-log fit."""
