"""Path pairing and tiered equivalence-obligation discharge.

Both evaluations of a rule produce guarded path sets over the shared
pre-state.  Equivalence is checked over the *path product*: for every
jointly feasible (reference path, candidate path) pair, each observable
destination — final register state per space, memory event log, output
bytes, input consumption, next PC, halt/trap outcome — must agree under
the joint guard.

Discharge is tiered, cheapest first, and every tier's hit count is
reported so the lint summary can show how little solver work a clean
spec needs:

1. **syntactic**  — infeasible pairs whose canonical guard sets contain
   a literal contradiction (``g`` and ``not g``) are dropped without
   any reasoning; this kills the off-diagonal pairs of structurally
   aligned forks.
2. **identity**   — both sides canonicalize
   (:func:`repro.smt.normalize.canon`) to the same hash-consed term.
3. **knownbits**  — :mod:`repro.smt.knownbits` proves or refutes the
   aligned equality bit-wise.
4. **interval**   — :mod:`repro.smt.interval` refutes the pair's guard
   conjunction, or decides the equality.
5. **solver**     — a single query per leftover obligation,
   ``guards ∧ lhs ≠ rhs``, batched through one solver (and its
   QueryCache) per rule; SAT models become concrete counterexamples.

A mismatch only counts once its pair is proven reachable (the guard
conjunction alone is SAT), so infeasible-path disagreements can never
produce false findings.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import sys

from ..smt import knownbits
from ..smt import terms as T
from ..smt import interval as _  # noqa: F401  (package attr is the fn)

#: ``repro.smt`` re-exports the :func:`interval` *function* as a
#: package attribute, shadowing the submodule — fetch the module.
interval = sys.modules["repro.smt.interval"]
from ..ir.symexec import Path
from .state import MachineState, PreState

__all__ = ["Mismatch", "ComparisonError", "compare_paths", "TIERS"]

#: Tier-counter keys, in discharge order.
TIERS = ("syntactic", "identity", "knownbits", "interval", "solver",
         "refuted_pairs")

#: Observation-index width for register-file final-state comparison
#: (any width at least as wide as every real index term works).
_OBS_WIDTH = 16


class ComparisonError(Exception):
    """The path product is too large to enumerate (explicit give-up)."""


class Mismatch:
    """One proven inequivalence: destination + concrete witness."""

    __slots__ = ("label", "model", "ref_value", "cand_value", "detail")

    def __init__(self, label: str, model: Dict[str, int],
                 ref_value: Optional[int] = None,
                 cand_value: Optional[int] = None,
                 detail: str = ""):
        self.label = label
        self.model = model
        self.ref_value = ref_value
        self.cand_value = cand_value
        self.detail = detail


class _Comparer:
    def __init__(self, pre: PreState, assumptions: List[T.Term],
                 single_spaces, solver, check: Callable,
                 tiers: Dict[str, int]):
        self.pre = pre
        self.assumptions = list(assumptions)
        self.single_spaces = set(single_spaces)
        self.solver = solver
        self.check = check
        self.tiers = tiers
        self._kb: Dict[int, Tuple[int, int]] = pre._kb_cache

    # -- guard handling ------------------------------------------------------

    def _guards(self, ref: Path, cand: Path) -> Optional[List[T.Term]]:
        """Joint canonical guard list, or None when syntactically or
        abstractly infeasible."""
        canon = self.pre.canon
        conds = [canon(g) for g in
                 tuple(self.assumptions) + ref[2] + cand[2]]
        seen = {T.digest(g) for g in conds}
        for cond in conds:
            if cond.is_const():
                if cond.value == 0:
                    self.tiers["syntactic"] += 1
                    return None
                continue
            if T.digest(T.not_(cond)) in seen:
                self.tiers["syntactic"] += 1
                return None
            known, value = knownbits.known_bits(cond, self._kb)
            if known & 1 and not (value & 1):
                self.tiers["knownbits"] += 1
                return None
        if interval.refute_conjunction(conds):
            self.tiers["interval"] += 1
            return None
        return [c for c in conds if not c.is_const()]

    def _pair_reachable(self, guards: List[T.Term]) -> bool:
        """Solver-confirm the pair's guards are satisfiable (only asked
        before reporting a mismatch — proofs never need it)."""
        verdict = self.check(self.solver, guards)
        if verdict != "sat":
            self.tiers["refuted_pairs"] += 1
            return False
        return True

    # -- single obligation ---------------------------------------------------

    def _discharge(self, label: str, ref_term: T.Term, cand_term: T.Term,
                   guards: List[T.Term],
                   mismatches: List[Mismatch]) -> None:
        a = self.pre.canon(ref_term)
        b = self.pre.canon(cand_term)
        if a is b:
            self.tiers["identity"] += 1
            return
        width = max(a.width, b.width)
        if a.width < width:
            a = T.zext(a, width - a.width)
        if b.width < width:
            b = T.zext(b, width - b.width)
        if a is b or knownbits.definitely_equal(a, b, self._kb):
            self.tiers["knownbits"] += 1
            return
        equal = T.eq(a, b)
        if interval.definitely_true(equal):
            self.tiers["interval"] += 1
            return
        self.tiers["solver"] += 1
        verdict = self.check(self.solver, guards + [T.not_(equal)])
        if verdict != "sat":
            return
        model = self.solver.model()
        mismatches.append(Mismatch(
            label, model,
            ref_value=T.evaluate(a, model),
            cand_value=T.evaluate(b, model)))

    # -- structural divergence ----------------------------------------------

    def _structure(self, ref: Path, cand: Path) -> Optional[str]:
        ref_machine, ref_outcome = ref[0], ref[1]
        cand_machine, cand_outcome = cand[0], cand[1]
        if ref_outcome.halted != cand_outcome.halted:
            return "halt behavior differs (ref halted=%s, compiled=%s)" \
                % (ref_outcome.halted, cand_outcome.halted)
        if ref_outcome.trapped != cand_outcome.trapped:
            return "trap behavior differs (ref trapped=%s, compiled=%s)" \
                % (ref_outcome.trapped, cand_outcome.trapped)
        if (ref_outcome.next_pc is None) != (cand_outcome.next_pc is None):
            return "next-pc presence differs (ref %s, compiled %s)" % (
                "set" if ref_outcome.next_pc is not None else "fallthrough",
                "set" if cand_outcome.next_pc is not None else "fallthrough")
        if ref_outcome.halted and ref_outcome.exit_code is not None \
                and cand_outcome.exit_code is None:
            return "exit code missing (ref halted with one, compiled " \
                "without)"
        if ref_outcome.trapped and ref_outcome.trap_code is not None \
                and cand_outcome.trap_code is None:
            return "trap code missing (ref trapped with one, compiled " \
                "without)"
        ref_events = [(e[0], e[-1]) for e in ref_machine.mem_log]
        cand_events = [(e[0], e[-1]) for e in cand_machine.mem_log]
        if ref_events != cand_events:
            return "memory access sequence differs (ref %r, compiled %r)" \
                % (ref_events, cand_events)
        if len(ref_machine.outputs) != len(cand_machine.outputs):
            return "output count differs (ref %d, compiled %d)" % (
                len(ref_machine.outputs), len(cand_machine.outputs))
        if ref_machine.input_count != cand_machine.input_count:
            return "input consumption differs (ref %d, compiled %d)" % (
                ref_machine.input_count, cand_machine.input_count)
        return None

    # -- one pair ------------------------------------------------------------

    def compare_pair(self, ref: Path, cand: Path,
                     mismatches: List[Mismatch]) -> None:
        guards = self._guards(ref, cand)
        if guards is None:
            return
        divergence = self._structure(ref, cand)
        if divergence is not None:
            if self._pair_reachable(guards):
                mismatches.append(Mismatch(
                    "structure", self.solver.model(), detail=divergence))
            return
        ref_machine: MachineState = ref[0]
        cand_machine: MachineState = cand[0]
        ref_outcome, cand_outcome = ref[1], cand[1]
        if ref_outcome.next_pc is not None:
            self._discharge("next_pc", ref_outcome.next_pc,
                            cand_outcome.next_pc, guards, mismatches)
        # _structure made the compiled side carry a code wherever the
        # reference halted or trapped with one.
        if ref_outcome.halted and ref_outcome.exit_code is not None:
            self._discharge("exit_code", ref_outcome.exit_code,
                            cand_outcome.exit_code, guards, mismatches)
        if ref_outcome.trapped and ref_outcome.trap_code is not None:
            self._discharge("trap_code", ref_outcome.trap_code,
                            cand_outcome.trap_code, guards, mismatches)
        spaces = sorted(set(ref_machine.touched_spaces())
                        | set(cand_machine.touched_spaces()))
        for space in spaces:
            obs = None if space in self.single_spaces \
                else self.pre.obs_var(space, _OBS_WIDTH)
            self._discharge("reg:%s" % space,
                            ref_machine.final_reg(space, obs),
                            cand_machine.final_reg(space, obs),
                            guards, mismatches)
        for position, (ref_event, cand_event) in enumerate(
                zip(ref_machine.mem_log, cand_machine.mem_log)):
            kind = ref_event[0]
            self._discharge("mem[%d]:%s addr" % (position, kind),
                            ref_event[1], cand_event[1], guards,
                            mismatches)
            if kind == "store":
                self._discharge("mem[%d]:store value" % position,
                                ref_event[2], cand_event[2], guards,
                                mismatches)
        for position, (ref_byte, cand_byte) in enumerate(
                zip(ref_machine.outputs, cand_machine.outputs)):
            self._discharge("output[%d]" % position, ref_byte,
                            cand_byte, guards, mismatches)


def compare_paths(ref_paths: List[Path], cand_paths: List[Path],
                  pre: PreState, assumptions: List[T.Term],
                  single_spaces, solver, check: Callable,
                  tiers: Dict[str, int], max_pairs: int = 512,
                  max_mismatches: int = 3) -> List[Mismatch]:
    """Compare the full path product; returns proven mismatches (empty
    means the rule is verified).  ``tiers`` is mutated with per-tier
    discharge counts; ``check`` is ``lambda solver, extra: verdict``
    (the lint pass routes it through ``ctx.check`` for attribution)."""
    if len(ref_paths) * len(cand_paths) > max_pairs:
        raise ComparisonError(
            "path product %d x %d exceeds limit %d"
            % (len(ref_paths), len(cand_paths), max_pairs))
    comparer = _Comparer(pre, assumptions, single_spaces, solver, check,
                         tiers)
    mismatches: List[Mismatch] = []
    for ref in ref_paths:
        for cand in cand_paths:
            comparer.compare_pair(ref, cand, mismatches)
            if len(mismatches) >= max_mismatches:
                return mismatches
    return mismatches
