"""Exception hierarchy: one class per kind of input, plus the classes caught by name."""


class CtxclfError(Exception):
    """Base class for all library errors."""


class SignalsetError(CtxclfError):
    """Malformed signal data: a signalset directory, a record or a set, or a set too small
    for the windows or folds asked of it; the message names the file or record and the field."""


class DimensionMismatch(CtxclfError):
    pass


class DuplicateClassInBox(CtxclfError):
    pass


class InfeasibleStructure(CtxclfError):
    pass


class StructureError(CtxclfError):
    """Malformed or invalid context structure definition."""
