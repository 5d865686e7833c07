"""Errors raised by the semantics specializer."""


class CompileError(Exception):
    """A rule could not be specialized (malformed or undisciplined IR).

    Raised at generation time, which for a lazily compiled rule is the
    first time something looks it up (e.g. the engine's first step on
    it).
    """
