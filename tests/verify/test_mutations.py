"""Mutation corpus: seeded codegen and driver bugs the validator must
catch.

Representative codegen-bug classes are injected into the generated
plan source of rv32 rules — a flipped operator, a flipped mask literal,
a dropped sign-extension, two reordered effects, an off-by-one shift
amount — and the validator must report each with a concrete
counterexample whose witness actually separates the mutant from the
original plan.  The plan driver is proved with the plans, so a swapped
fork-arm order, a dropped arm guard or a dropped halt/trap code patched
into the one driver is a counterexample too.

One test is the reason the validator exists at all: a mutation the
*dynamic* differential harness (``tests/compile/``) cannot see —
because the exerciser kernel never drives the mutated rule into the
corrupted operand region — is still caught statically, because the
proof quantifies over every decodable operand assignment and machine
pre-state.
"""

import inspect

import pytest

from repro.compile import clear_cache, compiled_for, driver, symbolic
from repro.compile.ops import OPS
from repro.isa import build
from repro.isa.simulator import run_image
from repro.programs import build_kernel
from repro.smt.solver import Solver
from repro.verify import (COUNTEREXAMPLE, PROVED, planeval,
                          seeded_mutation, verify_model, verify_rule)


def _replace_once(source, old, new):
    assert old in source
    return source.replace(old, new, 1)


def _mutate_mask(source):
    # srl: mask the shift amount to 0x1e instead of 0x1f.
    return _replace_once(source, ", 31, 32)", ", 30, 32)")


def _mutate_drop_sign_extension(source):
    # lb: forget to sign-extend the loaded byte.
    return _replace_once(source, "return sext(E._load(",
                         "return zext(E._load(")


def _mutate_reorder_effects(source):
    # jalr: write the link register *before* computing the branch
    # target — visibly wrong when rd aliases rs1.
    target = "(0, 'target', _s_jalr_0)"
    link = "(1, 'x', ('f', 'rd'), _s_jalr_1)"
    return _replace_once(source, "%s, %s" % (target, link),
                         "%s, %s" % (link, target))


def _mutate_shift_amount(source):
    # sll: shift by one more than the architecture says.
    return _replace_once(source, "and_(S.read_reg('x', FT['rs2']), 31, 32)",
                         "add(and_(S.read_reg('x', FT['rs2']), 31, 32), "
                         "1, 32)")


MUTATIONS = [
    ("add", "operator-flip", seeded_mutation),
    ("srl", "flipped-mask", _mutate_mask),
    ("lb", "dropped-sign-extension", _mutate_drop_sign_extension),
    ("jalr", "reordered-effects", _mutate_reorder_effects),
    ("sll", "off-by-one-shift", _mutate_shift_amount),
]


def _compile_plan(rule, source):
    namespace = dict(OPS)
    exec(compile(source, "<mutant>", "exec"), namespace)
    return namespace[symbolic.plan_name(rule)]


@pytest.mark.parametrize("rule,label,mutate",
                         MUTATIONS, ids=[m[1] for m in MUTATIONS])
def test_mutation_caught_with_counterexample(rule, label, mutate):
    model = build("rv32")
    source = compiled_for(model).plan.source(model.by_name[rule])
    mutated = mutate(source)
    assert mutated != source
    results = {r.rule: r
               for r in verify_model(model,
                                     source_overrides={rule: mutated})}
    result = results[rule]
    assert result.status == COUNTEREXAMPLE, result.detail
    ce = result.counterexamples[0]
    # The witness is a decodable instance of the mutated rule with a
    # two-sided valuation showing the divergence.
    assert ce.rule == rule
    assert 0 <= ce.word < (1 << (8 * ce.length))
    assert ce.ref_value != ce.cand_value
    # ... and every other rule still verifies clean.
    assert all(r.status == "proved" for name, r in results.items()
               if name != rule)


def test_clean_sources_not_flagged():
    model = build("rv32")
    source = compiled_for(model).plan.source(model.by_name["add"])
    results = verify_model(model, source_overrides={"add": source})
    assert all(r.status == "proved" for r in results)


def test_validator_catches_what_dynamic_harness_misses(monkeypatch):
    """A flipped shift-amount mask corrupts behavior only for operand
    values the exerciser kernel never produces: the dynamic
    differential run of the compiled simulator is bit-for-bit identical
    (the harness misses the bug), while the static proof still finds a
    counterexample."""
    model, image = build_kernel("exerciser", "rv32")
    rule = "sra"
    source = compiled_for(model).plan.source(model.by_name[rule])
    mutated = _mutate_mask(source)
    generate = symbolic.rule_plan

    def mutant_generator(isa, instr):
        if instr.name == rule:
            return _compile_plan(rule, mutated), mutated
        return generate(isa, instr)

    def final_state(compiled):
        sim = run_image(model, image,
                        input_bytes=b"\xff\x7f\x01\x02\x03\x04\x05\x06",
                        max_steps=20000, compiled=compiled)
        return (sim.output, sim.halted, sim.exit_code, sim.trapped,
                sim.state.pc, sim.state.regfiles, sim.state.registers,
                sim.state.memory, sim.instruction_count)

    baseline = final_state(compiled=False)
    # The mutant goes in through the lazy table: a fresh cache entry
    # generates each rule from the (patched) generator on first use.
    clear_cache()
    monkeypatch.setattr(symbolic, "rule_plan", mutant_generator)
    try:
        dynamic_missed = final_state(compiled=True) == baseline
        # The mutant did run: the operands are what hid it.
        assert rule in compiled_for(model).plan.generated()
    finally:
        monkeypatch.undo()
        clear_cache()
    assert dynamic_missed, (
        "exerciser differential unexpectedly detected the mutation — "
        "pick a different rule for the miss demonstration")
    results = {r.rule: r
               for r in verify_model(model,
                                     source_overrides={rule: mutated})}
    assert results[rule].status == COUNTEREXAMPLE
    assert results[rule].counterexamples[0].word is not None


def _check(solver, extra):
    return solver.check(extra)


def _verify_rv32(rule):
    model = build("rv32")
    instr = model.by_name[rule]
    plans = planeval.load_plans(
        compiled_for(model).symbolic_source(model), model.name)
    return verify_rule(model, instr, Solver(), _check, plans[rule])


DRIVER_MUTATIONS = [
    ("swapped-arm-order", "(st[2], st[3])", "(st[3], st[2])"),
    ("dropped-arm-guard",
     "branch.assume(guard)",
     "branch.assume(guard) if position == 0 else None"),
]


@pytest.mark.parametrize("label,old,new", DRIVER_MUTATIONS,
                         ids=[m[0] for m in DRIVER_MUTATIONS])
def test_driver_mutation_caught(monkeypatch, label, old, new):
    """The validator walks plans with the engine's own plan driver, so
    a bug in the driver's fork — the arm a guard selects, or the guard
    an arm assumes — is a counterexample on a branching rule."""
    assert _verify_rv32("beq").status == PROVED
    source = _replace_once(inspect.getsource(driver._fork), old, new)
    namespace = dict(vars(driver))
    exec(compile(source, driver.__file__, "exec"), namespace)
    monkeypatch.setattr(driver, "_fork", namespace["_fork"])
    result = _verify_rv32("beq")
    assert result.status == COUNTEREXAMPLE, result.detail
    assert result.counterexamples[0].word is not None


DROPPED_CODE_MUTATIONS = [
    ("halt", "outcome.exit_code = st[1](E, S, FT, L, D)",
     "st[1](E, S, FT, L, D)"),
    ("trap", "outcome.trap_code = st[1](E, S, FT, L, D)",
     "st[1](E, S, FT, L, D)"),
]


@pytest.mark.parametrize("rule,old,new", DROPPED_CODE_MUTATIONS,
                         ids=["dropped-exit-code", "dropped-trap-code"])
def test_dropped_code_mutation_caught(monkeypatch, rule, old, new):
    """A driver that evaluates a halt's (trap's) code but never stores
    it leaves the compiled path without one, while the reference path
    halts (traps) with a code: a structure counterexample."""
    assert _verify_rv32(rule).status == PROVED
    source = _replace_once(inspect.getsource(driver.drive), old, new)
    namespace = dict(vars(driver))
    exec(compile(source, driver.__file__, "exec"), namespace)
    # The validator calls the driver through planeval's own binding.
    monkeypatch.setattr(planeval, "drive", namespace["drive"])
    result = _verify_rv32(rule)
    assert result.status == COUNTEREXAMPLE, result.detail
    assert result.counterexamples[0].label == "structure"
    assert result.counterexamples[0].word is not None


def test_wrong_width_literal_caught():
    """Only a plan's int path reads its width literals, so the harness
    runs the emitted source with operators that reject a literal
    disagreeing with a term operand: a width bug the term path alone
    would hide fails the proof."""
    from repro.verify import UNSUPPORTED

    model = build("rv32")
    instr = model.by_name["add"]
    compiled = compiled_for(model)
    source = compiled.symbolic_source(model)
    text = compiled.plan.source(instr)
    assert text.count(", 32)") == 1
    mutated = source.replace(text, text.replace(", 32)", ", 31)"))
    assert mutated != source
    plans = planeval.load_plans(mutated, model.name)
    result = verify_rule(model, instr, Solver(), _check, plans["add"])
    assert result.status == UNSUPPORTED
    assert "width literal 31 disagrees with a 32-bit operand" \
        in result.detail
