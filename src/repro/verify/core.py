"""Translation validation: prove compiled transfer functions equal the IR.

For one rule, :func:`verify_rule` runs two artifacts over one shared
symbolic pre-state (:class:`~repro.verify.state.PreState`):

* the reference IR block via :mod:`repro.ir.symexec`,
* the generated plan via :mod:`repro.verify.planeval`, walked by the
  plan driver the engine and the concrete simulator run,

and discharges the resulting per-destination equivalence obligations
through :mod:`repro.verify.obligations`.  Operand fields are free
bitvector variables constrained only by decode validity (register
fields index inside their regfile; ``match``-fixed fields are the
constants the decoder guarantees), so a "proved" verdict covers *every*
decodable instance of the rule and every machine pre-state.

:func:`verify_model` maps this over a whole
:class:`~repro.isa.model.ArchModel` and never skips silently: a rule
the validator cannot handle comes back ``status="unsupported"`` with
the reason, which the lint pass escalates to a WARN finding.

``seeded_mutation`` is the canned codegen-bug injector behind the
``REPRO_TRANSVAL_SEED_BUG`` CI fixture: it turns the first ``add(``
operator call of a generated plan into ``sub(``, which a correct
validator must catch with a concrete counterexample.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Dict, List, Optional

from ..adl import ast as A
from ..compile.errors import CompileError
from ..ir import symexec
from ..smt import terms as T
from . import planeval
from .obligations import TIERS, ComparisonError, Mismatch, compare_paths
from .state import MachineState, PreState

__all__ = ["VALIDATOR_VERSION", "Counterexample", "RuleResult",
           "verify_rule", "verify_model", "seeded_mutation"]

#: Bump when validator semantics change — the plan driver's walk
#: included (part of the certificate key).
VALIDATOR_VERSION = 3

PROVED = "proved"
COUNTEREXAMPLE = "counterexample"
UNSUPPORTED = "unsupported"

_UIDS = itertools.count()


class Counterexample:
    """A concrete decodable instruction + pre-state that separates the
    reference semantics from the compiled artifact."""

    __slots__ = ("rule", "label", "word", "length", "fields", "prestate",
                 "ref_value", "cand_value", "detail")

    def __init__(self, rule: str, label: str, word: int, length: int,
                 fields: Dict[str, int], prestate: Dict[str, int],
                 ref_value: Optional[int], cand_value: Optional[int],
                 detail: str):
        self.rule = rule
        self.label = label
        self.word = word
        self.length = length          # bytes
        self.fields = fields          # free encoding fields only
        self.prestate = prestate      # location label -> value
        self.ref_value = ref_value
        self.cand_value = cand_value
        self.detail = detail

    @property
    def word_hex(self) -> str:
        return "0x%0*x" % (self.length * 2, self.word)

    def describe(self) -> str:
        parts = ["%s: word %s" % (self.label, self.word_hex)]
        if self.fields:
            parts.append("fields " + ", ".join(
                "%s=%#x" % (name, value)
                for name, value in sorted(self.fields.items())))
        if self.prestate:
            parts.append("pre-state " + ", ".join(
                "%s=%#x" % (name, value)
                for name, value in sorted(self.prestate.items())))
        if self.ref_value is not None:
            parts.append("reference=%#x compiled=%#x"
                         % (self.ref_value, self.cand_value or 0))
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)


class RuleResult:
    """Verdict for one rule — proved, counterexample, or unsupported."""

    __slots__ = ("rule", "status", "tiers", "counterexamples", "detail",
                 "ref_paths", "cand_paths")

    def __init__(self, rule: str, status: str, tiers: Dict[str, int],
                 counterexamples: List[Counterexample], detail: str = "",
                 ref_paths: int = 0, cand_paths: int = 0):
        self.rule = rule
        self.status = status
        self.tiers = tiers
        self.counterexamples = counterexamples
        self.detail = detail
        self.ref_paths = ref_paths
        self.cand_paths = cand_paths

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "status": self.status,
            "tiers": dict(self.tiers),
            "ref_paths": self.ref_paths,
            "cand_paths": self.cand_paths,
            "detail": self.detail,
            "counterexamples": [ce.describe()
                                for ce in self.counterexamples],
        }


def _operand_term(enc: A.EncodingDecl, operand: A.OperandDecl,
                  field_terms: Dict[str, T.Term]) -> T.Term:
    """MSB-first part concatenation — the symbolic twin of
    ``Instruction.operand_value`` (zero-pad parts become zero bits)."""
    parts: List[T.Term] = []
    for part in operand.parts:
        if part.field_name is None:
            if part.zero_bits:
                parts.append(T.bv(0, part.zero_bits))
        else:
            parts.append(field_terms[part.field_name])
    if not parts:
        return T.bv(0, 1)
    return T.concat_many(parts)


def _rule_environment(model, instr):
    """(pre, reg_widths, fields, field_terms, assumptions) for one rule."""
    uid = next(_UIDS)

    def mkvar(name: str, width: int) -> T.Term:
        return T.var("tv%d_%s" % (uid, name), width)

    pre = PreState(mkvar, model.pc_width)
    reg_widths: Dict[str, int] = {
        name: regfile.width for name, regfile in model.regfiles.items()}
    reg_widths.update(model.registers)
    enc = instr.encoding
    field_terms: Dict[str, T.Term] = {}
    for field in enc.fields:
        fixed = instr.decl.match.get(field.name)
        if fixed is not None:
            field_terms[field.name] = T.bv(fixed, field.width)
        else:
            field_terms[field.name] = mkvar(
                "f_%s_%s" % (enc.name, field.name), field.width)
    fields = dict(field_terms)
    for operand in instr.decl.operands:
        fields[operand.name] = _operand_term(enc, operand, field_terms)
    assumptions: List[T.Term] = []
    for name, limit in sorted(instr.reg_field_limits.items()):
        term = field_terms.get(name)
        if term is None or term.is_const() or limit >= (1 << term.width):
            continue
        assumptions.append(T.ult(term, T.bv(limit, term.width)))
    return pre, reg_widths, fields, field_terms, assumptions


_UID_PREFIX = re.compile(r"tv\d+_")


def _render(instr, pre: PreState, field_terms: Dict[str, T.Term],
            mismatch: Mismatch) -> Counterexample:
    field_ints: Dict[str, int] = {}
    renames: Dict[str, str] = {}
    for name, term in field_terms.items():
        if term.is_const():
            field_ints[name] = term.value
        else:
            field_ints[name] = mismatch.model.get(term.name, 0)
            renames[term.name] = name

    def pretty(label: str) -> str:
        for var_name, short in renames.items():
            label = label.replace(var_name, short)
        return _UID_PREFIX.sub("", label)

    word = instr.assemble_word(field_ints)
    free_fields = {name: value for name, value in field_ints.items()
                   if name not in instr.decl.match}
    prestate = {pretty(pre.labels[name]): value
                for name, value in mismatch.model.items()
                if name in pre.labels}
    return Counterexample(
        instr.name, mismatch.label, word, instr.length, free_fields,
        prestate, mismatch.ref_value, mismatch.cand_value,
        mismatch.detail)


def verify_rule(model, instr, solver, check: Callable, plan: tuple,
                max_pairs: int = 512) -> RuleResult:
    """Prove the rule's ``plan`` equivalent to its IR."""
    tiers = {key: 0 for key in TIERS}
    try:
        pre, reg_widths, fields, field_terms, assumptions = \
            _rule_environment(model, instr)
        ref_paths = symexec.exec_block(
            instr.semantics, MachineState(pre, reg_widths), fields)
        cand_paths = planeval.exec_plan(
            plan, MachineState(pre, reg_widths), fields)
        mismatches = compare_paths(
            ref_paths, cand_paths, pre, assumptions,
            set(model.registers), solver, check, tiers,
            max_pairs=max_pairs)
    except (symexec.SymExecError, CompileError, ComparisonError,
            T.SmtError) as error:
        return RuleResult(instr.name, UNSUPPORTED, tiers, [],
                          detail="%s: %s" % (type(error).__name__, error))
    if mismatches:
        counterexamples = [_render(instr, pre, field_terms, mismatch)
                           for mismatch in mismatches]
        return RuleResult(instr.name, COUNTEREXAMPLE, tiers,
                          counterexamples, ref_paths=len(ref_paths),
                          cand_paths=len(cand_paths))
    return RuleResult(instr.name, PROVED, tiers, [],
                      ref_paths=len(ref_paths),
                      cand_paths=len(cand_paths))


def verify_model(model, solver_factory: Optional[Callable] = None,
                 check: Optional[Callable] = None,
                 source_overrides: Optional[Dict[str, str]] = None,
                 max_pairs: int = 512) -> List[RuleResult]:
    """Verify every rule of ``model``; one :class:`RuleResult` each, in
    instruction order — nothing is skipped silently.
    ``source_overrides`` maps a rule name to plan source to prove in
    place of the generated plan (mutation tests, the seeded-bug
    fixture)."""
    from ..compile import compiled_for

    if check is None:
        check = lambda solver, extra: solver.check(extra)  # noqa: E731
    if solver_factory is not None:
        solver = solver_factory()
    else:
        from ..smt.solver import Solver
        solver = Solver()
    try:
        plans = planeval.load_plans(
            compiled_for(model).symbolic_source(model, source_overrides),
            model.name)
    except (CompileError, symexec.SymExecError) as error:
        return [RuleResult(instr.name, UNSUPPORTED,
                           {key: 0 for key in TIERS}, [],
                           detail="codegen failed: %s" % error)
                for instr in model.instructions]
    return [verify_rule(model, instr, solver, check,
                        plan=plans[instr.name], max_pairs=max_pairs)
            for instr in model.instructions]


_ADD_CALL = re.compile(r"\badd\(")


def seeded_mutation(source: str) -> str:
    """Turn the first ``add(`` operator call of generated plan source
    into ``sub(``: the canned codegen bug for CI/tests."""
    match = _ADD_CALL.search(source)
    if match is None:
        raise ValueError("no add( call to mutate in generated source")
    return source[:match.start()] + "sub(" + source[match.end():]
