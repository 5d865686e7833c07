"""Differential testing: symbolic vs concrete execution of every
generated instruction.

For every instruction of every ISA we synthesize random instances (random
free-field values), run one step on (a) the concrete simulator and (b) the
symbolic executor seeded with the same fully-concrete state, and require
bit-identical results: registers, flags, memory, next pc, halt/trap,
output, input consumption.

This is the soundness check behind the paper's generation claim: the
symbolic transfer functions derived from the ADL agree with the concrete
reference semantics on every instruction.
"""

import random

import pytest

from repro.core import Engine, EngineConfig
from repro.core.memory import MemoryMap, Region, SymMemory
from repro.core.state import SymState
from repro.ir import interp
from repro.isa import build
from repro.isa.simulator import MachineState
from repro.smt import terms as T

ALL_TARGETS = ["rv32", "mips32", "armlite", "vlx", "pred32"]
INSTANCES_PER_INSTRUCTION = 3


def _random_fields(model, instr, rng):
    """Random values for every free encoding field.

    Fields used as register indices are drawn from the regfile's valid
    range (a 4-bit field over an 8-register file would otherwise produce
    architecturally-invalid indices, e.g. on vlx).
    """
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
    # A spread of initialized memory (the whole space reads as 0 anyway).
    for _ in range(32):
        addr = rng.randrange(0, 1 << model.pc_width)
        machine.memory[addr] = rng.getrandbits(8)
    machine.pc = 0x1000
    return machine


def _mirror_state(model, machine, input_bytes):
    """A SymState with exactly the concrete machine's contents."""
    memory_map = MemoryMap([Region(0, 1 << model.pc_width, "all")])
    memory = SymMemory(memory_map)
    for addr, value in machine.memory.items():
        memory.write_byte(addr, T.bv(value, 8))
    state = SymState(model, memory)
    state.pc = machine.pc
    for name, info in model.regfiles.items():
        for index in range(info.count):
            value = machine.regfiles[name][index]
            if info.zero_index is not None and index == info.zero_index:
                value = 0
            state.regfiles[name][index] = value
    for name in model.registers:
        state.registers[name] = machine.registers[name]
    return state


def _evaluate(value, env):
    """A state value under ``env``: ints are concrete already."""
    return value if type(value) is int else T.evaluate(value, env)


def _engine(model):
    config = EngineConfig(check_div_zero=False, check_oob=False,
                          check_uninit=False, check_write_protect=False)
    engine = Engine(model, config=config)
    engine.memory_map.add(Region(0, 1 << model.pc_width, "all"))
    return engine


def _assert_states_agree(model, machine, state, env, context):
    for name, info in model.regfiles.items():
        for index in range(info.count):
            sym = state.read_reg(name, index)
            assert _evaluate(sym, env) == machine.read_reg(name, index), (
                context, name, index)
    for name in model.registers:
        sym = state.read_reg(name, None)
        assert _evaluate(sym, env) == machine.read_reg(name, None), (
            context, name)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_every_instruction_symbolic_matches_concrete(target):
    model = build(target)
    rng = random.Random(hash(target) & 0xffff)
    engine = _engine(model)
    for instr in model.instructions:
        for round_no in range(INSTANCES_PER_INSTRUCTION):
            context = "%s/%s#%d" % (target, instr.name, round_no)
            fields = _random_fields(model, instr, rng)
            word = instr.assemble_word(fields)
            decoded_fields = instr.bind(word)
            input_bytes = bytes(rng.getrandbits(8) for _ in range(4))

            machine = _random_machine(model, rng, input_bytes)
            state = _mirror_state(model, machine, input_bytes)

            concrete = interp.exec_block(instr.semantics, machine,
                                         decoded_fields)

            class _FakeDecoded:
                instruction = instr
                address = 0x1000
                length = instr.length
            _FakeDecoded.word = word
            _FakeDecoded.fields = decoded_fields

            finished = engine._exec_block(state, _FakeDecoded)
            assert len(finished) == 1, (context, "fully concrete state "
                                        "must not fork")
            sym_state, outcome = finished[0]

            # Input reads become symbolic variables; evaluating every
            # symbolic result under the concrete input assignment must
            # reproduce the concrete machine exactly.
            env = {"in_%d" % i: b for i, b in enumerate(input_bytes)}

            assert outcome.halted == concrete.halted, context
            assert outcome.trapped == concrete.trapped, context
            if concrete.halted:
                assert _evaluate(outcome.exit_code, env) \
                    == concrete.exit_code, context
            if concrete.trapped:
                assert _evaluate(outcome.trap_code, env) \
                    == concrete.trap_code, context
            if concrete.next_pc is None:
                assert outcome.next_pc is None, context
            else:
                assert outcome.next_pc is not None, context
                mask = (1 << model.pc_width) - 1
                assert _evaluate(outcome.next_pc, env) & mask \
                    == concrete.next_pc & mask, context

            _assert_states_agree(model, machine, sym_state, env, context)

            # Memory written concretely must match symbolically.
            for addr, value in machine.memory.items():
                sym_byte = sym_state.memory.read_byte(addr)
                assert _evaluate(sym_byte, env) == value, (
                    context, hex(addr))

            # Output and input-consumption agreement.
            assert len(sym_state.output) == len(machine.output), context
            for sym_byte, conc_byte in zip(sym_state.output, machine.output):
                assert _evaluate(sym_byte, env) == conc_byte, context
            assert len(sym_state.input_vars) == machine.input_cursor, context


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_simulator_matches_engine_on_full_kernels(target):
    """Whole-program agreement: simulator output/exit == the engine's
    concrete path (via concolic single run) for fixed inputs."""
    from repro.core.concolic import ConcolicExplorer
    from repro.isa import run_image
    from repro.programs import build_kernel

    model, image = build_kernel("checksum", target, length=3)
    test_input = b"\x11\x22\x33"
    sim = run_image(model, image, input_bytes=test_input)
    engine = Engine(model)
    engine.load_image(image)
    explorer = ConcolicExplorer(engine)
    result = explorer.explore(seed=test_input, max_runs=1)
    assert explorer.runs[0].status == "halted"
    path = result.paths[0]
    assert path.exit_code == sim.exit_code


# -- solver-cache soundness across ISAs ------------------------------------
#
# The query cache + incremental check reuse must be *observationally
# invisible*: running the whole defect suite with the cache on and off
# must produce identical defect reports, path counts and leaf states.
# Inputs witnessing a path may legitimately differ (any model of the
# path condition is a valid witness), so they are compared for validity
# elsewhere (tests/smt/test_cache_differential.py), not for equality.

def _suite_fingerprint(target, use_cache):
    """Canonical exploration fingerprint of the defect suite."""
    from repro.programs import all_cases, run_case

    fingerprint = []
    for case in all_cases():
        for variant in ("bad", "good"):
            config = EngineConfig(max_steps_per_path=4096,
                                  use_solver_cache=use_cache)
            detected, result, _image = run_case(case, target, variant,
                                                config=config)
            defects = sorted((d.kind, d.pc, d.instruction)
                             for d in result.defects)
            leaves = sorted((p.status, p.state.pc, p.exit_code,
                             len(p.state.path_condition),
                             len(p.state.input_vars))
                            for p in result.paths)
            fingerprint.append((case.name, variant, detected,
                                result.stop_reason, defects, leaves))
    return fingerprint


@pytest.mark.parametrize("target", ["rv32", "mips32"])
def test_defect_suite_identical_with_and_without_solver_cache(target):
    cached = _suite_fingerprint(target, use_cache=True)
    uncached = _suite_fingerprint(target, use_cache=False)
    assert cached == uncached
