"""Exception types raised across the library."""


class SepcheckError(Exception):
    """Base class for all library-specific failures."""


class NoAlignment(SepcheckError):
    """No Bob vector f with |a_i, f> in the kernel for the probed Alice basis."""


class RankDropViolation(SepcheckError):
    """A product subtraction failed to lower both ranks by exactly one."""


class CanonicalMismatch(SepcheckError):
    """The canonical form fails an identity: block products, normality or commutation."""


class NonNormal(CanonicalMismatch):
    """A matrix expected to be normal fails [C, C^dag] = 0 within tolerance."""


class NonCommutingFamily(CanonicalMismatch):
    """A family expected to commute has a commutator above tolerance."""


class NotPPT(SepcheckError):
    """The state has a negative partial transpose."""


class RankTooLow(SepcheckError):
    """Global rank below a local rank: the state is distillable, hence entangled."""


class DecompositionFailed(SepcheckError):
    """Numerical breakdown while assembling a product decomposition."""


class DirectionNotFound(DecompositionFailed):
    """No Haar-drawn Alice direction gave a full-rank local block.

    On a PPT rank-N input a draw fails with probability zero, so this means
    the rank decisions sit at the edge of the tolerance.
    """


class RankSumTooHigh(SepcheckError):
    """Kernel dimensions too small for the product-vector search to apply."""


class NonGeneric(SepcheckError):
    """Polynomial elimination degenerated; the solution set may be infinite."""


class DegenerateRowChoice(NonGeneric):
    """Every candidate base-row subset is identically dependent as polynomials."""


class PreconditionFailed(SepcheckError):
    """An operation-specific precondition does not hold for the given inputs."""
