"""Specialized transfer functions compiled from ADL semantics.

Instead of walking each rule's IR tree per executed instruction, every
rule is lowered into one generated artifact: a mixed int/term *plan*
(:mod:`repro.compile.symbolic`, over the operator library
:mod:`repro.compile.ops`), walked by the one plan driver
(:mod:`repro.compile.driver`).  The engine runs it over symbolic
states, the translation validator over a fully symbolic pre-state, and
the concrete simulator (``Simulator(compiled=True)``) over an all-int
state, where a plan is a concrete transfer function.

Lazy compilation
----------------
:func:`compiled_for` returns an entry whose tables are empty; a rule is
generated the first time it is looked up (``compiled.plan(instr)``), so
constructing an engine generates nothing and a program compiles only
the rules it executes.  The entry compiles from the instruction the
caller passes in and never holds a model.  The module text
(:meth:`CompiledSemantics.symbolic_source`) is assembled from the
per-rule texts that were executed, so translation validation proves
exactly the code that runs.

Cache discipline
----------------
Entries are cached in-process keyed on ``(isa name, spec_digest,
CODEGEN_VERSION)`` — the content digest the run store uses for
provenance (:func:`repro.runstore.provenance.spec_digest`, the digest
of the spec bytes the model was built from) plus a bump-on-change
codegen version, so editing a spec *or* the code generator itself
transparently regenerates the code; models rebuilt from an unchanged
spec under an unchanged generator share the entry.
Translation-validation certificates (:mod:`repro.runstore.certs`) key
on the same pair, so a stale "verified" verdict can never outlive the
generator that earned it.  The cache holds only generated *functions
and plan tuples* — never :class:`repro.smt.terms.Term` objects,
because the term pool is swappable and cached terms would dangle
across ``terms.configure()``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from . import symbolic
from .errors import CompileError  # noqa: F401

__all__ = ["CODEGEN_VERSION", "CompiledSemantics", "CompileError",
           "RuleTable", "compiled_for", "clear_cache", "cache_info"]

#: Version of the code generator itself.  Bump whenever
#: :mod:`repro.compile.symbolic` changes the code it emits, or
#: :mod:`repro.compile.ops` what it means: it invalidates the
#: in-process compilation cache and every translation-validation
#: certificate keyed on the old generator's output.
CODEGEN_VERSION = 5


class RuleTable:
    """Rule name -> generated artifact, generated on first lookup.

    Calling the table with an instruction is its one accessor: there is
    no ``get`` or ``[]`` that could miss a rule not generated yet.
    """

    __slots__ = ("_generate", "_entries")

    def __init__(self, generate: Callable[[Any], Tuple[Any, str]]):
        self._generate = generate
        #: rule name -> (artifact, source)
        self._entries: Dict[str, Tuple[Any, str]] = {}

    def __call__(self, instr) -> Any:
        entry = self._entries.get(instr.name)
        if entry is None:
            entry = self._entries[instr.name] = self._generate(instr)
        return entry[0]

    def source(self, instr) -> str:
        """The exact text executed to build ``self(instr)``."""
        self(instr)
        return self._entries[instr.name][1]

    def generated(self) -> List[str]:
        """Names of the rules generated so far, in generation order."""
        return list(self._entries)


class CompiledSemantics:
    """One ISA's compiled transfer functions, keyed by spec digest.

    ``plan(instr)`` is the rule's plan.
    """

    __slots__ = ("isa", "digest", "codegen_version", "plan")

    def __init__(self, isa: str, digest: str):
        self.isa = isa
        self.digest = digest
        self.codegen_version = CODEGEN_VERSION
        # The generator is looked up at call time, so a patched module
        # function reaches tables that already exist.
        self.plan = RuleTable(
            lambda instr: symbolic.rule_plan(isa, instr))

    def symbolic_source(self, model,
                        overrides: Optional[Dict[str, str]] = None) -> str:
        """The generated plans for every rule of ``model``, as one
        module with a ``PLANS`` table; ``overrides`` replaces a rule's
        plan source by name."""
        overrides = overrides or {}
        return symbolic.module_source(self.isa, [
            (instr.name, overrides.get(instr.name)
             or self.plan.source(instr))
            for instr in model.instructions])

    def __repr__(self):
        return "<CompiledSemantics %s %s: %d plans generated>" % (
            self.isa, self.digest[:18], len(self.plan.generated()))


_CACHE: Dict[Tuple[str, str, int], CompiledSemantics] = {}


def compiled_for(model) -> CompiledSemantics:
    """The (cached) compiled semantics for ``model``; generates no code.

    Cache key is ``(model.name, spec_digest(model),
    CODEGEN_VERSION)``: an edited spec digests differently and is
    recompiled, and so is every spec after a generator change; an
    unchanged spec under an unchanged generator — even through a fresh
    :func:`repro.isa.build` — hits the cache.
    """
    # Imported here: repro.runstore imports the engine, which imports
    # this package.
    from ..runstore.provenance import spec_digest
    digest = spec_digest(model)
    key = (model.name, digest, CODEGEN_VERSION)
    compiled = _CACHE.get(key)
    if compiled is None:
        compiled = _CACHE[key] = CompiledSemantics(model.name, digest)
    return compiled


def clear_cache() -> None:
    """Drop every cached compilation (tests, spec-development loops)."""
    _CACHE.clear()


def cache_info() -> Dict[str, int]:
    return {"entries": len(_CACHE)}
