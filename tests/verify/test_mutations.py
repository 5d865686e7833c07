"""Mutation corpus: seeded codegen bugs the validator must catch.

Four representative codegen-bug classes are injected into generated
rv32 transfer functions — a flipped mask literal, a dropped
sign-extension, two reordered effects, an off-by-one shift amount —
and the validator must report each with a concrete counterexample
whose witness actually separates the mutant from the original
function when executed.

The last test is the reason the validator exists at all: a mutation
the *dynamic* differential harness (``tests/compile/``) cannot see —
because the exerciser kernel never drives the mutated rule into the
corrupted operand region — is still caught statically, because the
proof quantifies over every decodable operand assignment and machine
pre-state.
"""

import re

import pytest

from repro.compile import clear_cache, compiled_for
from repro.compile import concrete as concrete_mod
from repro.compile.concrete import _HELPERS
from repro.isa import build
from repro.isa.simulator import run_image
from repro.programs import build_kernel
from repro.verify import COUNTEREXAMPLE, seeded_mutation, verify_model


def _mutate_drop_sign_extension(source):
    # lb: forget to sign-extend the loaded byte.
    assert " - ((_w2 & 0x80) << 1)" in source
    return source.replace(" - ((_w2 & 0x80) << 1)", "", 1)


def _mutate_reorder_effects(source):
    # jalr: compute the branch target *after* writing the link
    # register — visibly wrong when rd aliases rs1.
    lines = source.split("\n")
    position = next(index for index, line in enumerate(lines)
                    if line.strip().startswith("u_target"))
    assert "write_reg" in lines[position + 1]
    lines[position], lines[position + 1] = \
        lines[position + 1], lines[position]
    return "\n".join(lines)


def _mutate_shift_amount(source):
    # sll: shift by one more than the architecture says.
    assert "& 31), 32," in source
    return source.replace("& 31), 32,", "& 31) + 1, 32,", 1)


MUTATIONS = [
    ("add", "flipped-mask", seeded_mutation),
    ("lb", "dropped-sign-extension", _mutate_drop_sign_extension),
    ("jalr", "reordered-effects", _mutate_reorder_effects),
    ("sll", "off-by-one-shift", _mutate_shift_amount),
]


def _compile_source(source):
    namespace = dict(_HELPERS)
    exec(compile(source, "<mutant>", "exec"), namespace)
    return namespace[re.search(r"def (\w+)\(", source).group(1)]


@pytest.mark.parametrize("rule,label,mutate",
                         MUTATIONS, ids=[m[1] for m in MUTATIONS])
def test_mutation_caught_with_counterexample(rule, label, mutate):
    model = build("rv32")
    source = compiled_for(model).concrete.source(model.by_name[rule])
    mutated = mutate(source)
    assert mutated != source
    results = {r.rule: r
               for r in verify_model(model, "concrete",
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
    source = compiled_for(model).concrete.source(model.by_name["add"])
    results = verify_model(model, "concrete",
                           source_overrides={"add": source})
    assert all(r.status == "proved" for r in results)


def test_validator_catches_what_dynamic_harness_misses(monkeypatch):
    """A flipped register-index mask corrupts behavior only for
    operand values the exerciser kernel never produces: the dynamic
    differential run is bit-for-bit identical (the harness misses the
    bug), while the static proof still finds a counterexample."""
    model, image = build_kernel("exerciser", "rv32")
    rule = "xor"
    source = compiled_for(model).concrete.source(model.by_name[rule])
    mutated = seeded_mutation(source)
    generate = concrete_mod.rule_function

    def mutant_generator(isa, instr):
        if instr.name == rule:
            return _compile_source(mutated), mutated
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
    monkeypatch.setattr(concrete_mod, "rule_function", mutant_generator)
    try:
        dynamic_missed = final_state(compiled=True) == baseline
    finally:
        monkeypatch.undo()
        clear_cache()
    assert dynamic_missed, (
        "exerciser differential unexpectedly detected the mutation — "
        "pick a different rule for the miss demonstration")
    results = {r.rule: r
               for r in verify_model(model, "concrete",
                                     source_overrides={rule: mutated})}
    assert results[rule].status == COUNTEREXAMPLE
    assert results[rule].counterexamples[0].word is not None


def test_probed_twin_mutation_caught():
    """transval-symbolic proves each plan's probed twin as well: a bug
    present only in the twin (the code deep attribution steps run) is
    a counterexample labelled as the twin's."""
    from repro.smt.solver import Solver
    from repro.verify import planeval, verify_rule

    model = build("rv32")
    instr = model.by_name["add"]
    compiled = compiled_for(model)
    source = compiled.symbolic_source(model)
    twin = compiled.probed_plan.source(instr)
    mutated = source.replace(twin, twin.replace(" = add(", " = sub(", 1))
    assert mutated != source
    plans, probed = planeval.load_plans(mutated, model.name)
    result = verify_rule(model, instr, "symbolic", Solver(),
                         lambda solver, extra: solver.check(extra),
                         plans=(plans["add"], probed["add"]))
    assert result.status == COUNTEREXAMPLE
    assert result.counterexamples[0].label.startswith("probed twin: ")
    clean = verify_rule(model, instr, "symbolic", Solver(),
                        lambda solver, extra: solver.check(extra),
                        plans=(plans["add"], plans["add"]))
    assert clean.status == "proved"


def test_wrong_width_literal_caught():
    """Only a plan's int path reads its width literals, so the harness
    runs the emitted source with operators that reject a literal
    disagreeing with a term operand: a width bug the term path alone
    would hide fails the proof, in the plan and in its twin."""
    from repro.smt.solver import Solver
    from repro.verify import UNSUPPORTED, planeval, verify_rule

    model = build("rv32")
    instr = model.by_name["add"]
    compiled = compiled_for(model)
    source = compiled.symbolic_source(model)
    for table in (compiled.plan, compiled.probed_plan):
        text = table.source(instr)
        assert text.count(", 32)") == 1
        mutated = source.replace(text, text.replace(", 32)", ", 31)"))
        assert mutated != source
        plans, probed = planeval.load_plans(mutated, model.name)
        result = verify_rule(model, instr, "symbolic", Solver(),
                             lambda solver, extra: solver.check(extra),
                             plans=(plans["add"], probed["add"]))
        assert result.status == UNSUPPORTED
        assert "width literal 31 disagrees with a 32-bit operand" \
            in result.detail
