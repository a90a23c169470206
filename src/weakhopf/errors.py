"""Exception hierarchy shared by all modules."""


class WeakHopfError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(WeakHopfError):
    """Matrix or tensor-factor dimensions do not line up."""


class ArityMismatch(WeakHopfError):
    """Serial or parallel composition of maps with incompatible interfaces."""


class ExprSyntaxError(WeakHopfError):
    """Expression text could not be parsed; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NotIdempotent(WeakHopfError):
    """split_idempotent was handed a map e with e*e != e."""


class PrerequisiteAxiomFailed(WeakHopfError):
    """A construction was requested on an instance whose axioms fail."""

    def __init__(self, axiom_ids):
        super().__init__("prerequisite axioms failed: " + ", ".join(axiom_ids))
        self.axiom_ids = tuple(axiom_ids)


class FactorizationFailed(WeakHopfError):
    """A map did not factor through a quotient or subobject as required."""


class GaloisNotInvertible(WeakHopfError):
    """Antipode construction requested but the Galois map is singular."""

    def __init__(self, rank, dims):
        super().__init__(
            f"Galois map not invertible (rank {rank}, dims {dims[0]}x{dims[1]})"
        )
        self.rank = rank
        self.dims = dims


class RoundTripFailed(WeakHopfError):
    """Comparison map of the module round trip is not bijective."""

    def __init__(self, message, rank_defect):
        super().__init__(f"{message} (rank defect {rank_defect})")
        self.rank_defect = rank_defect


class EquivalenceViolation(WeakHopfError):
    """The Fundamental-Theorem verdicts (a)/(d)/(e) disagree."""


class InconsistencyError(WeakHopfError):
    """A theorem-backed internal identity failed; implementation or instance defect."""


class SchemaError(WeakHopfError):
    """Instance or module file violates the documented schema."""

    def __init__(self, message, locator=None):
        if locator is not None:
            message = f"{message} [{locator}]"
        super().__init__(message)
        self.locator = locator


class IndexOutOfRange(SchemaError):
    """Sparse table index exceeds the declared dimension."""


class InvalidSpec(WeakHopfError):
    """Generator input (groupoid/group/monoid description) is invalid."""


class NotAssociative(InvalidSpec):
    """Multiplication table fails associativity."""


class NoUnit(InvalidSpec):
    """Multiplication table has no two-sided unit."""


class TauPrimeRequired(InvalidSpec):
    """tau is not an involution, so tau_prime must be supplied."""
