"""Differential harness: the engine against pinned fingerprints, and the
concrete simulator's compiled plans against IR interpretation.

The engine executes every rule through its compiled symbolic plan
(:mod:`repro.compile.symbolic`).  Cost attribution only observes it, so
every exploration below must reproduce the tree, leaf and defect
fingerprints (the hashes the run store verifies on replay) pinned in
``pinned_fingerprints.json`` — with attribution off and on.  The pins
were recorded with the engine's former interpreted IR walk; running
this module as a script prints them again from the code at hand::

    PYTHONPATH=src python -m tests.compile.test_differential

The concrete simulator keeps both evaluators — the IR interpreter (the
default and the reference) and the engine's plans, run by the same
plan driver over an all-int state — so its compiled mode is held to
the same step results on every step and to full machine-state equality
(registers, memory, I/O, instruction count) after complete runs.  On
rv32 it also runs a rule probe whose operands tell a right plan from a
plausible wrong one the exerciser's operands cannot tell apart.
"""

import json
import os
import sys

import pytest

from repro.core import Engine, EngineConfig
from repro.obs import Obs
from repro.obs.sinks import RingBufferSink
from repro.programs import all_cases, build_kernel, run_case
from repro.runstore.fingerprint import (defects_fingerprint,
                                        leaves_fingerprint,
                                        tree_fingerprint)

ALL_TARGETS = ["rv32", "mips32", "armlite", "pred32", "vlx"]

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pinned_fingerprints.json")

#: Attribution settings every pinned exploration is repeated under.
ATTR_MODES = {"off": False, "on": True}


def _config(attr=False, **kwargs):
    ring = RingBufferSink(capacity=200000)
    obs = Obs(metrics=True)
    obs.add_sink(ring)
    config = EngineConfig(collect_coverage=True, obs=obs, attr=attr,
                          **kwargs)
    return config, ring


def _fingerprints(ring, result):
    serialized = result.to_dict()
    return [tree_fingerprint(ring.events()),
            leaves_fingerprint(serialized["paths"]),
            defects_fingerprint(serialized["defects"])]


def _explore_exerciser(target, attr=False):
    """The fingerprints of the exerciser kernel on ``target``."""
    model, image = build_kernel("exerciser", target)
    config, ring = _config(attr)
    engine = Engine(model, config=config)
    engine.load_image(image)
    return _fingerprints(ring, engine.explore())


def _explore_case(case, target, variant, attr=False):
    """The pinned outcome of one defect-suite run, as ``run_case``
    runs it."""
    config, ring = _config(attr, max_steps_per_path=4096)
    detected, result, _image = run_case(case, target, variant,
                                        config=config)
    return [detected, result.stop_reason] + _fingerprints(ring, result)


def collect_pins():
    """Every pinned value, computed by the code at hand."""
    pins = {"exerciser": {}, "defect_suite": {}}
    for target in ALL_TARGETS:
        pins["exerciser"][target] = _explore_exerciser(target)
        for case in all_cases():
            for variant in ("bad", "good"):
                key = "%s/%s/%s" % (target, case.name, variant)
                pins["defect_suite"][key] = _explore_case(
                    case, target, variant)
    return pins


@pytest.fixture(scope="module")
def pins():
    with open(PINS_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_exerciser_fingerprints_identical(pins, target):
    for mode, attr in ATTR_MODES.items():
        assert _explore_exerciser(target, attr) \
            == pins["exerciser"][target], (target, mode)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_defect_suite_fingerprints_identical(pins, target):
    cases = 0
    for case in all_cases():
        for variant in ("bad", "good"):
            key = "%s/%s/%s" % (target, case.name, variant)
            for mode, attr in ATTR_MODES.items():
                assert _explore_case(case, target, variant, attr) \
                    == pins["defect_suite"][key], (key, mode)
            cases += 1
    assert cases == 16


def test_every_pin_is_checked(pins):
    """The pin file covers exactly the runs the tests here make."""
    assert sorted(pins) == ["defect_suite", "exerciser"]
    assert sorted(pins["exerciser"]) == sorted(ALL_TARGETS)
    assert len(pins["defect_suite"]) == len(ALL_TARGETS) * 16


#: rv32 rules with operands that separate a right plan from a plausible
#: wrong one, which the exerciser never supplies: odd and over-wide shift
#: amounts (a shift mask of 30 instead of 31 shows), signed compares of
#: a negative with a positive (unsigned ones disagree), mulh/div/rem and
#: their unsigned forms (by zero too), slt/sltu/slti/sltiu, the immediate
#: logic ops, and halfword loads of values with the sign bit set.  Every
#: result goes to memory at 0x2000; the branch outcomes go to x10.
RULE_PROBE = """
.org 0x1000
.entry start
start:
    lui x31, 2
    inb x1
    inb x2
    addi x3, x0, -7
    addi x4, x0, 5
    sub x5, x3, x1
    addi x6, x0, 3
    addi x7, x0, 33
    add x8, x2, x4
""" + "".join("    %s\n    sw x9, %d(x31)\n" % (line, 4 * index)
              for index, line in enumerate([
                  "sll x9, x5, x6", "srl x9, x5, x6", "sra x9, x5, x6",
                  "sll x9, x5, x7", "srl x9, x5, x7", "sra x9, x5, x7",
                  "sll x9, x3, x8", "srl x9, x3, x8", "sra x9, x3, x8",
                  "slli x9, x5, 7", "srli x9, x5, 9", "srai x9, x5, 11",
                  "slt x9, x3, x4", "sltu x9, x3, x4",
                  "slti x9, x5, -3", "sltiu x9, x5, 5",
                  "mulh x9, x5, x3", "mulh x9, x5, x4", "mulhu x9, x5, x3",
                  "div x9, x5, x4", "div x9, x4, x3",
                  "rem x9, x5, x4", "rem x9, x4, x3",
                  "divu x9, x5, x4", "remu x9, x5, x4",
                  "div x9, x5, x0", "rem x9, x5, x0",
                  "xori x9, x5, -1366", "ori x9, x1, 1365",
                  "andi x9, x5, -256"])) + """
    lui x10, 0x8001f
    addi x10, x10, -9
    add x10, x10, x2
    sw x10, 120(x31)
    lh x9, 120(x31)
    sw x9, 124(x31)
    lhu x9, 120(x31)
    sw x9, 128(x31)
    lh x9, 122(x31)
    sw x9, 132(x31)
    lhu x9, 122(x31)
    sw x9, 136(x31)
    sh x5, 142(x31)
    lh x9, 142(x31)
    sw x9, 144(x31)
    addi x10, x0, 0
    blt x3, x4, b1
    ori x10, x10, 1
b1:
    bge x3, x4, b2
    ori x10, x10, 2
b2:
    bge x4, x3, b3
    ori x10, x10, 4
b3:
    blt x4, x3, b4
    ori x10, x10, 8
b4:
    blt x5, x1, b5
    ori x10, x10, 16
b5:
    bge x1, x5, b6
    ori x10, x10, 32
b6:
    bltu x3, x4, b7
    ori x10, x10, 64
b7:
    bgeu x3, x4, b8
    ori x10, x10, 128
b8:
    outb x10
    halt 0
"""


def _simulator_programs(target):
    """``(name, model, image)`` of each program the simulator modes run
    in lockstep on ``target``."""
    model, image = build_kernel("exerciser", target)
    yield "exerciser", model, image
    if target == "rv32":
        from repro.isa import assemble
        yield "rule-probe", model, assemble(model, RULE_PROBE)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_concrete_simulator_state_identical(target):
    """Both simulator modes in lockstep: every ``step()`` reports the same
    instruction and halt/exit/trap fields, and the final machines are
    equal."""
    for name, model, image in _simulator_programs(target):
        for input_bytes in (b"", b"\x00" * 8,
                            b"\xff\x7f\x01\x02\x03\x04\x05\x06",
                            b"abcdefgh"):
            _assert_lockstep(model, image, input_bytes,
                             (target, name, input_bytes))


def _assert_lockstep(model, image, input_bytes, context):
    from repro.isa.simulator import Simulator

    sims = []
    for compiled in (False, True):
        sim = Simulator(model, input_bytes=input_bytes, compiled=compiled)
        sim.state.load_image(image)
        sims.append(sim)
    interp_sim, compiled_sim = sims
    while not (interp_sim.halted or interp_sim.trapped):
        assert interp_sim.instruction_count < 20000, context
        left, right = interp_sim.step(), compiled_sim.step()
        step = context + (interp_sim.instruction_count,)
        assert left.decoded.instruction is right.decoded.instruction, step
        assert (left.halted, left.exit_code, left.trapped,
                left.trap_code) == (right.halted, right.exit_code,
                                    right.trapped, right.trap_code), step
    assert interp_sim.output == compiled_sim.output, context
    assert interp_sim.halted == compiled_sim.halted, context
    assert interp_sim.exit_code == compiled_sim.exit_code, context
    assert interp_sim.trapped == compiled_sim.trapped, context
    assert interp_sim.trap_code == compiled_sim.trap_code, context
    assert interp_sim.state.pc == compiled_sim.state.pc, context
    assert interp_sim.state.regfiles == compiled_sim.state.regfiles, context
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
