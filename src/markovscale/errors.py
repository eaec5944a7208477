"""Exception taxonomy shared across the package.

InputError (and subclasses) mark problems with user-supplied data and map to
CLI exit code 1; InternalError and ResourceError mark bugs or blown resource
caps and map to exit code 2.
"""


class InputError(ValueError):
    """User input is malformed or violates a documented precondition."""


class ChainFormatError(InputError):
    """A chain/game/strategy document failed validation."""


class InternalError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""


class ResourceError(RuntimeError):
    """A resource cap was exceeded (the oracle's matrix-power horizon)."""
