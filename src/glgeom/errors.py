"""The refusals that are the caller's, not the engine's.

cli.main exits 3 on TooLargeError and 1 on ParamError; any other
exception (a plain ValueError from a lattice precondition, a RuntimeError
from a broken invariant or an unimplemented case) is an internal error.
"""


class ParamError(ValueError):
    """Caller input refused: parameters, fields, subsets, preconditions."""


class TooLargeError(ValueError):
    """The work would exceed its enumeration budget; refused before it."""
