"""Exception hierarchy shared across the package."""


class CtxclfError(Exception):
    """Base class for all library errors."""


class NoRecords(CtxclfError):
    pass


class SignalsetError(CtxclfError):
    """Malformed signalset directory; message names the file or record and the field."""


class RaggedRecord(CtxclfError):
    pass


class WindowTooLong(CtxclfError):
    pass


class TooFewPerClass(CtxclfError):
    pass


class SignalTooShort(CtxclfError):
    pass


class SubbandTooShort(CtxclfError):
    pass


class DegenerateTraining(CtxclfError):
    pass


class DimensionMismatch(CtxclfError):
    pass


class DuplicateClassInBox(CtxclfError):
    pass


class InfeasibleStructure(CtxclfError):
    pass


class UncoveredClass(CtxclfError):
    pass


class StructureError(CtxclfError):
    """Malformed or invalid context structure definition."""
