"""Exception types shared across the package."""


class LlcentError(Exception):
    """Base class for all package errors."""


class FieldMismatch(LlcentError):
    """Operands belong to different scalar fields."""


class DivisionByZero(LlcentError, ZeroDivisionError):
    """Division by the zero scalar."""


class AmbientMismatch(LlcentError):
    """Subspaces live in different ambient dimensions."""


class NotContained(LlcentError):
    """A quotient was requested for a pair that is not nested."""


class ProfileMismatch(LlcentError):
    """Objects built over different dimension profiles were combined."""


class NonConstantProfile(LlcentError):
    """A shift constructor needs a constant dimension profile."""


class InvalidOperator(LlcentError):
    """An operator's data breaks the banded contract: the constructor
    raises this with `validate`'s list, so no such operator is built."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InvarianceFailure(LlcentError):
    """A subspace is not invariant under the operator; carries a witness."""

    def __init__(self, witness, image):
        self.witness = witness
        self.image = image
        super().__init__(f"image of {witness} leaves the subspace")


class NotAnInverse(LlcentError):
    """The supplied candidate inverse does not invert the operator."""


class InfiniteField(LlcentError):
    """A finite field was required (e.g. for unit-size conversion)."""


class EngineInvariant(AssertionError):
    """An engine broke one of its own mathematical invariants (a bug).

    Raised explicitly, so the checks also run under ``python -O``.  It
    derives from AssertionError rather than LlcentError: it reports a
    defect in the program, not a problem with the input, and the CLI
    reports it as an internal error (exit 5), like any other unexpected
    exception.
    """


class EngineDisagreement(LlcentError):
    """The two entropy engines returned different confirmed values."""


class SpecError(LlcentError):
    """Base class for spec-file problems."""


class ParseError(SpecError):
    """Malformed spec-file text; carries a position hint."""

    def __init__(self, message, position=None):
        self.position = position
        at = f" at {position}" if position else ""
        super().__init__(f"{message}{at}")


class ValidationError(SpecError):
    """Structurally valid spec-file describing invalid model objects."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
