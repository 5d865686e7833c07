"""Property test: compiled concrete step == interpreted step, always.

Hypothesis draws an instruction and random free-field values per ISA,
runs one step through the rule's compiled plan (the plan driver over an
all-int machine, as ``Simulator(compiled=True)`` runs it) and through
:func:`repro.ir.interp.exec_block` on identical machines, and requires
full machine-state equality.  Derandomized so CI is reproducible; the
shared seed corpus still grows locally under ``.hypothesis``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import compiled_for
from repro.compile.driver import CONCRETE, drive
from repro.ir import interp
from repro.isa import build
from repro.isa.simulator import MachineState

ALL_TARGETS = ["rv32", "mips32", "armlite", "pred32", "vlx"]


def _random_fields(model, instr, rng):
    """Random values for every free encoding field (register-index
    fields drawn from the regfile's valid range)."""
    from repro.adl.analyze import syntax_placeholders
    reg_fields = {name: kind
                  for name, kind in syntax_placeholders(instr.syntax)
                  if kind is not None}
    fields = {}
    for field in instr.encoding.fields:
        if field.name in instr.decl.match:
            continue
        regfile = reg_fields.get(field.name)
        if regfile is not None:
            fields[field.name] = rng.randrange(model.regfiles[regfile].count)
        else:
            fields[field.name] = rng.getrandbits(field.width)
    return fields


def _random_machine(model, rng, input_bytes):
    machine = MachineState(model, input_bytes=input_bytes)
    for name, info in model.regfiles.items():
        for index in range(info.count):
            machine.write_reg(name, index, rng.getrandbits(info.width))
    for name, width in model.registers.items():
        machine.write_reg(name, None, rng.getrandbits(width))
    for _ in range(32):
        addr = rng.randrange(0, 1 << model.pc_width)
        machine.memory[addr] = rng.getrandbits(8)
    machine.pc = 0x1000
    return machine


def _clone_machine(model, machine, input_bytes):
    clone = MachineState(model, input_bytes=input_bytes)
    clone.regfiles = {name: list(values)
                     for name, values in machine.regfiles.items()}
    clone.registers = dict(machine.registers)
    clone.memory = dict(machine.memory)
    clone.pc = machine.pc
    return clone


def _assert_machines_equal(left, right, context):
    assert left.regfiles == right.regfiles, context
    assert left.registers == right.registers, context
    assert left.memory == right.memory, context
    assert left.pc == right.pc, context
    assert left.output == right.output, context
    assert left.input_cursor == right.input_cursor, context


def _assert_outcomes_equal(left, right, context):
    assert left.halted == right.halted, context
    assert left.exit_code == right.exit_code, context
    assert left.trapped == right.trapped, context
    assert left.trap_code == right.trap_code, context
    assert left.next_pc == right.next_pc, context


@pytest.mark.parametrize("target", ALL_TARGETS)
@given(data=st.data())
@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
def test_compiled_step_matches_interpreted_step(target, data):
    model = build(target)
    table = compiled_for(model).plan
    instr = data.draw(st.sampled_from(tuple(model.instructions)),
                      label="instruction")
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1),
                     label="machine seed")
    rng = random.Random(seed)
    fields = _random_fields(model, instr, rng)
    word = instr.assemble_word(fields)
    decoded_fields = instr.bind(word)
    input_bytes = bytes(rng.getrandbits(8) for _ in range(4))
    context = "%s/%s seed=%d" % (target, instr.name, seed)

    reference = _random_machine(model, rng, input_bytes)
    specialized = _clone_machine(model, reference, input_bytes)

    interp_outcome = interp.exec_block(instr.semantics, reference,
                                       decoded_fields)
    ((_, compiled_outcome),) = drive(CONCRETE, specialized, table(instr),
                                     decoded_fields, None,
                                     interp.Outcome())

    _assert_outcomes_equal(interp_outcome, compiled_outcome, context)
    _assert_machines_equal(reference, specialized, context)
