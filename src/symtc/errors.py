"""Exception hierarchy shared by all symtc modules."""


class SymtcError(Exception):
    """Base class for all errors raised by this package."""


class UnknownVertex(SymtcError):
    pass


class EmptyFacet(SymtcError):
    pass


class NotASubcomplex(SymtcError):
    pass


class UnorderedInput(SymtcError):
    pass


class UnknownElement(SymtcError):
    pass


class CycleDetected(SymtcError):
    pass


class BadArity(SymtcError):
    pass


class BudgetExceeded(SymtcError):
    pass


class SizeLimitExceeded(BudgetExceeded):
    """The section sweep reached more monotone maps than its budget."""


class LevelMismatch(SymtcError):
    pass


class NegativeDepth(SymtcError):
    """A subdivision depth below 0 was asked for."""


class NotEquivariant(SymtcError):
    pass


class SourceMismatch(SymtcError):
    pass


class NotMonotone(SymtcError):
    """Internal interpolation step produced a non-monotone map (a bug)."""


class DisconnectedPoset(SymtcError):
    pass


class EmptySpace(SymtcError):
    """A power asked of a complex or poset with no points."""


class InvalidTable(SymtcError):
    pass


class InvalidChain(SymtcError):
    pass


class MonotonicityViolation(SymtcError):
    """A value sequence that must be non-increasing increased (a bug)."""


class ParseError(SymtcError):
    pass


class UnsupportedMode(SymtcError):
    """A mode the computation does not run: a cover computation takes exact
    or upper, a decider exact, auto or bounded."""


class ValidationError(SymtcError):
    pass
