"""Differential harness: the engine against pinned fingerprints, and the
concrete simulator's compiled plans against IR interpretation.

The engine executes every rule through its compiled symbolic plan
(:mod:`repro.compile.symbolic`); deep cost-attribution steps run the
plan's probed twin.  Neither may change what a run computes, so every
exploration below must reproduce the tree, leaf and defect fingerprints
(the hashes the run store verifies on replay) pinned in
``pinned_fingerprints.json`` — with attribution off, sampled every 3rd
step, and full.  The pins were recorded with the engine's former
interpreted IR walk; running this module as a script prints them
again from the code at hand::

    PYTHONPATH=src python -m tests.compile.test_differential

The pin file also holds the ``calls`` of full-mode attribution blocks —
per rule and IR kind on the exerciser, per IR kind on each defect-suite
run: the probed twins must count exactly the nodes the interpreted
walk's probe counted.

The concrete simulator keeps both evaluators — the IR interpreter (the
default and the reference) and the engine's plans, run by the same
plan driver over an all-int state — so its compiled mode is held to
the same step results on every step and to full machine-state equality
(registers, memory, I/O, instruction count) after complete runs.
"""

import json
import os
import sys

import pytest

from repro.core import Engine, EngineConfig
from repro.obs import Obs
from repro.obs.attr import AttrConfig
from repro.obs.sinks import RingBufferSink
from repro.programs import all_cases, build_kernel, run_case
from repro.runstore.fingerprint import (defects_fingerprint,
                                        leaves_fingerprint,
                                        tree_fingerprint)

ALL_TARGETS = ["rv32", "mips32", "armlite", "pred32", "vlx"]

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pinned_fingerprints.json")

#: Attribution settings every pinned exploration is repeated under.
ATTR_MODES = {
    "off": None,
    "sampled-3": lambda: AttrConfig(mode="sampled", sample_every=3),
    "full": lambda: AttrConfig(mode="full"),
}


def _config(attr=None, **kwargs):
    ring = RingBufferSink(capacity=200000)
    obs = Obs(metrics=True)
    obs.add_sink(ring)
    config = EngineConfig(collect_coverage=True, obs=obs,
                          attr=attr() if attr else None, **kwargs)
    return config, ring


def _fingerprints(ring, result):
    serialized = result.to_dict()
    return [tree_fingerprint(ring.events()),
            leaves_fingerprint(serialized["paths"]),
            defects_fingerprint(serialized["defects"])]


def _explore_exerciser(target, attr=None):
    """``(fingerprints, result)`` of the exerciser kernel on ``target``."""
    model, image = build_kernel("exerciser", target)
    config, ring = _config(attr)
    engine = Engine(model, config=config)
    engine.load_image(image)
    result = engine.explore()
    return _fingerprints(ring, result), result


def _explore_case(case, target, variant, attr=None):
    """``(pinned outcome, result)`` of one defect-suite run, as
    ``run_case`` runs it."""
    config, ring = _config(attr, max_steps_per_path=4096)
    detected, result, _image = run_case(case, target, variant,
                                        config=config)
    return ([detected, result.stop_reason] + _fingerprints(ring, result),
            result)


def _ir_calls(result):
    """rule -> IR kind -> calls, from a result's attribution block."""
    rules = result.telemetry["attr"]["rules"]
    return {rule: {kind: cost["calls"]
                   for kind, cost in entry.get("ir", {}).items()}
            for rule, entry in rules.items() if entry.get("ir")}


def _ir_kind_calls(result):
    """IR kind -> calls over all rules, from the attribution block."""
    return {kind: cost["calls"]
            for kind, cost in result.telemetry["attr"]["ir"].items()}


def collect_pins():
    """Every pinned value, computed by the code at hand."""
    pins = {"exerciser": {}, "defect_suite": {}, "attr_ir_calls": {},
            "defect_suite_ir_calls": {}}
    for target in ALL_TARGETS:
        pins["exerciser"][target], _ = _explore_exerciser(target)
        _, result = _explore_exerciser(target, ATTR_MODES["full"])
        pins["attr_ir_calls"][target] = _ir_calls(result)
        for case in all_cases():
            for variant in ("bad", "good"):
                key = "%s/%s/%s" % (target, case.name, variant)
                pins["defect_suite"][key], _ = _explore_case(
                    case, target, variant)
                _, result = _explore_case(case, target, variant,
                                          ATTR_MODES["full"])
                pins["defect_suite_ir_calls"][key] = _ir_kind_calls(result)
    return pins


@pytest.fixture(scope="module")
def pins():
    with open(PINS_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_exerciser_fingerprints_identical(pins, target):
    for mode, attr in ATTR_MODES.items():
        found, _result = _explore_exerciser(target, attr)
        assert found == pins["exerciser"][target], (target, mode)


def test_deep_attr_step_falls_back_without_changing_fingerprints(pins):
    """Deep cost-attribution steps fall back from the plain plan to its
    probed twin; attribution being observe-only, fingerprints must not
    move.  Sampled mode is the risky interleaving: plain steps alternate
    with probed deep steps inside one exploration."""
    pinned = pins["exerciser"]["rv32"]
    found, full = _explore_exerciser("rv32", ATTR_MODES["full"])
    assert found == pinned
    full_attr = full.telemetry["attr"]
    assert full_attr["deep_steps"] == full_attr["steps"] > 0
    full_calls = sum(cost["calls"] for cost in full_attr["ir"].values())

    found, sampled = _explore_exerciser("rv32", ATTR_MODES["sampled-3"])
    assert found == pinned
    sampled_attr = sampled.telemetry["attr"]
    # Both kinds of step ran, and the per-IR-kind rows prove the deep
    # ones went through the probed twin.
    assert 0 < sampled_attr["deep_steps"] < sampled_attr["steps"]
    sampled_calls = sum(cost["calls"]
                        for cost in sampled_attr["ir"].values())
    assert 0 < sampled_calls < full_calls


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_defect_suite_fingerprints_identical(pins, target):
    """Also pins each run's full-mode per-kind attribution calls, so the
    probed twins of every rule the suite executes count as the
    interpreted walk counted."""
    cases = 0
    for case in all_cases():
        for variant in ("bad", "good"):
            key = "%s/%s/%s" % (target, case.name, variant)
            for mode, attr in ATTR_MODES.items():
                found, result = _explore_case(case, target, variant, attr)
                assert found == pins["defect_suite"][key], (key, mode)
                if mode == "full":
                    assert _ir_kind_calls(result) \
                        == pins["defect_suite_ir_calls"][key], key
            cases += 1
    assert cases == 16


def test_every_pin_is_checked(pins):
    """The pin file covers exactly the runs the tests here make."""
    assert sorted(pins["exerciser"]) == sorted(ALL_TARGETS)
    assert sorted(pins["attr_ir_calls"]) == sorted(ALL_TARGETS)
    assert len(pins["defect_suite"]) == len(ALL_TARGETS) * 16
    assert sorted(pins["defect_suite_ir_calls"]) \
        == sorted(pins["defect_suite"])


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_probed_twins_count_every_ir_node(pins, target):
    """Full-mode attribution charges the same per-rule, per-kind calls
    the interpreted walk's probe charged."""
    _, result = _explore_exerciser(target, ATTR_MODES["full"])
    assert _ir_calls(result) == pins["attr_ir_calls"][target]


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_concrete_simulator_state_identical(target):
    """Both simulator modes in lockstep: every ``step()`` reports the same
    instruction and halt/exit/trap fields, and the final machines are
    equal."""
    from repro.isa.simulator import Simulator

    model, image = build_kernel("exerciser", target)
    for input_bytes in (b"", b"\x00" * 8,
                        b"\xff\x7f\x01\x02\x03\x04\x05\x06", b"abcdefgh"):
        sims = []
        for compiled in (False, True):
            sim = Simulator(model, input_bytes=input_bytes,
                            compiled=compiled)
            sim.state.load_image(image)
            sims.append(sim)
        interp_sim, compiled_sim = sims
        context = (target, input_bytes)
        while not (interp_sim.halted or interp_sim.trapped):
            assert interp_sim.instruction_count < 20000, context
            left, right = interp_sim.step(), compiled_sim.step()
            step = context + (interp_sim.instruction_count,)
            assert left.decoded.instruction is right.decoded.instruction, \
                step
            assert (left.halted, left.exit_code, left.trapped,
                    left.trap_code) == (right.halted, right.exit_code,
                                        right.trapped, right.trap_code), step
        assert interp_sim.output == compiled_sim.output, context
        assert interp_sim.halted == compiled_sim.halted, context
        assert interp_sim.exit_code == compiled_sim.exit_code, context
        assert interp_sim.trapped == compiled_sim.trapped, context
        assert interp_sim.trap_code == compiled_sim.trap_code, context
        assert interp_sim.state.pc == compiled_sim.state.pc, context
        assert interp_sim.state.regfiles == compiled_sim.state.regfiles, \
            context
        assert interp_sim.state.registers == compiled_sim.state.registers, \
            context
        assert interp_sim.state.memory == compiled_sim.state.memory, context
        assert interp_sim.state.input_cursor \
            == compiled_sim.state.input_cursor, context
        assert interp_sim.instruction_count \
            == compiled_sim.instruction_count, context


#: rv32: the loop's first instruction is overwritten on the first pass
#: (``addi x1, x1, 1`` becomes ``addi x1, x1, 16``), so x1 ends at 17.
SELF_MODIFYING = """
.org 0x1000
.entry start
start:
    addi x5, x0, 2
    lui x3, 1
    addi x3, x3, 20
    lui x2, 0x1008
    addi x2, x2, 0x93
patch:
    addi x1, x1, 1
    sw x2, 0(x3)
    addi x5, x5, -1
    bne x5, x0, patch
    outb x1
    halt 0
"""


def test_compiled_simulator_redecodes_patched_code():
    """The compiled simulator's site cache revalidates an instruction's
    bytes on every hit: code stored over an instruction already run is
    decoded afresh on its next visit, as the interpreter decodes it."""
    from repro.isa import DecodeError, assemble, build
    from repro.isa.simulator import run_image

    model = build("rv32")
    image = assemble(model, SELF_MODIFYING)
    for compiled in (False, True):
        sim = run_image(model, image, compiled=compiled)
        assert sim.output == bytes([17]), compiled
    # A site whose bytes are gone from memory reads zeros, which do not
    # decode — in both modes.
    for compiled in (False, True):
        sim = run_image(model, image, max_steps=3, compiled=compiled)
        sim.state.pc = 0x1000
        sim.state.memory = {}
        with pytest.raises(DecodeError):
            sim.step()


if __name__ == "__main__":
    json.dump(collect_pins(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
