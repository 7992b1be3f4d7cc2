"""Exception types raised across the library."""


class SepcheckError(Exception):
    """Base class for all library-specific failures."""


class NoAlignment(SepcheckError):
    """No Bob vector f with |a_i, f> in the kernel for the probed Alice basis."""


class RankDropViolation(SepcheckError):
    """A product subtraction failed to lower both ranks by exactly one."""


class NotPPT(SepcheckError):
    """The state has a negative partial transpose."""


class RankTooLow(SepcheckError):
    """Global rank below a local rank: the state is distillable, hence entangled."""


class DecompositionFailed(SepcheckError):
    """Numerical breakdown while assembling a product decomposition."""


class CanonicalMismatch(DecompositionFailed):
    """Joint diagonalization left off-diagonal mass: the family is not normal and commuting.

    A rank-N decomposition failure like any other.
    """


class DirectionNotFound(DecompositionFailed):
    """No Haar-drawn Alice direction gave a full-rank local block.

    On a PPT rank-N input a draw fails with probability zero, so this means
    the rank decisions sit at the edge of the tolerance.
    """


class RankSumTooHigh(SepcheckError):
    """Kernel dimensions too small for the product-vector search to apply."""


class NonGeneric(SepcheckError):
    """The eligible product vectors may form a continuum, not a finite set.

    Raised when the base rows of a minor system are identically dependent
    or all of its minors vanish, when polynomial elimination degenerates,
    and for product-vector continua: by the generic-rank probe, when the
    constraint matrix is rank deficient at a random alpha, and on a scalar
    Alice side of rank above one.
    """


class PreconditionFailed(SepcheckError):
    """An operation-specific precondition does not hold for the given inputs."""
