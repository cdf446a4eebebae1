"""Exception types shared across the package."""


class KreinError(Exception):
    """Base class for all errors raised by kreinls."""


class DimensionMismatch(KreinError):
    pass


class NotASignature(KreinError):
    """Matrix fails the signature-operator invariants (involution,
    selfadjointness, or positivity of the induced inner product)."""


class NotKreinSelfadjoint(KreinError):
    pass


class RankThresholdAmbiguous(KreinError):
    """A singular value lies within a decade of the rank cutoff, so the
    numerical rank decision would be a coin flip.  Callers may retry with
    an explicit threshold."""

    def __init__(self, message, sigma=None, threshold=None):
        super().__init__(message)
        self.sigma = sigma
        self.threshold = threshold


class NotComplementable(KreinError):
    pass


class NotWeaklyComplementable(KreinError):
    pass


class RangeNotNonnegative(KreinError):
    pass


class RangeNotNonpositive(KreinError):
    pass


class NormalEquationUnsolvable(KreinError):
    """Douglas range condition fails for the normal equation."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class MinMaxUnsolvable(KreinError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InternalCertificateFailure(KreinError):
    """A construction postcondition failed.  Always a bug, never an
    input problem; raised instead of returning a silently wrong value."""


class UnsatisfiableSpec(KreinError):
    pass


class UnknownSuite(KreinError):
    pass


class MalformedInput(KreinError):
    """Problem/report file failed to parse; message carries field context."""


class OperandOverflow(MalformedInput):
    """Operands so large that the products B^#WB, B^#WC and C^#WC, from
    which every objective value is built, would overflow."""
