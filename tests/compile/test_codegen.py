"""Unit tests for the specializer itself: generated source shape,
generation-time constant folding, input discipline, and the
spec-digest-keyed compilation cache."""

import shutil

import pytest

from repro.adl import analyze, parse_spec
from repro.compile import (CompileError, cache_info, clear_cache,
                           compile_block, compiled_for)
from repro.ir import interp
from repro.ir import nodes as N
from repro.isa import build
from repro.isa.model import ArchModel

ALL_TARGETS = ["rv32", "mips32", "armlite", "pred32", "vlx"]


class FakeMachine(interp.MachineContext):
    """Dict-backed machine, mirroring the interpreter unit tests."""

    def __init__(self, pc=0x1000, input_bytes=b""):
        self.regs = {}
        self.single = {}
        self.mem = {}
        self.pc = pc
        self.inputs = list(input_bytes)
        self.outputs = []

    def read_reg(self, regfile, index):
        if index is None:
            return self.single.get(regfile, 0)
        return self.regs.get((regfile, index), 0)

    def write_reg(self, regfile, index, value):
        if index is None:
            self.single[regfile] = value
        else:
            self.regs[(regfile, index)] = value

    def load(self, addr, size):
        value = 0
        for i in range(size):
            value |= self.mem.get(addr + i, 0) << (8 * i)
        return value

    def store(self, addr, value, size):
        for i in range(size):
            self.mem[addr + i] = (value >> (8 * i)) & 0xff

    def input_byte(self):
        return self.inputs.pop(0) if self.inputs else 0

    def output_byte(self, value):
        self.outputs.append(value)

    def current_pc(self):
        return self.pc


def c32(value):
    return N.Const(value, 32)


def run_compiled(stmts, machine=None, fields=None):
    machine = machine or FakeMachine()
    outcome = interp.ExecOutcome()
    compile_block("test", stmts)(machine, fields or {}, outcome)
    return machine, outcome


class TestCompileBlock:
    def test_basic_register_write(self):
        machine, outcome = run_compiled(
            [N.SetReg("x", c32(3), N.BinOp("add", c32(40), c32(2), 32))])
        assert machine.regs[("x", 3)] == 42
        assert outcome.next_pc is None and not outcome.halted

    def test_constants_folded_in_source(self):
        # 40 + 2 is machine-independent: the generated body must carry
        # the literal 42, not an add at run time.
        fn = compile_block("test", [
            N.SetReg("x", c32(3), N.BinOp("add", c32(40), c32(2), 32))])
        assert "42" in fn.generated_source
        assert "40" not in fn.generated_source

    def test_field_extraction_hoisted_and_masked(self):
        fn = compile_block("test", [
            N.SetReg("x", c32(1), N.Field("imm", 4)),
            N.SetReg("x", c32(2), N.Field("imm", 4))])
        # One hoisted `_f0 = F['imm'] & 0xf`, reused by both writes.
        assert fn.generated_source.count("F['imm']") == 1
        machine, _ = run_compiled(
            [N.SetReg("x", c32(1), N.Field("imm", 4))], fields={"imm": 0x1f})
        assert machine.regs[("x", 1)] == 0xf

    def test_constant_if_branch_eliminated(self):
        fn = compile_block("test", [
            N.IfStmt(N.BinOp("eq", c32(1), c32(1), 1),
                     [N.SetReg("x", c32(1), c32(7))],
                     [N.SetReg("x", c32(1), c32(9))])])
        assert "if " not in fn.generated_source
        assert "9" not in fn.generated_source
        machine, _ = run_compiled([
            N.IfStmt(N.BinOp("eq", c32(1), c32(1), 1),
                     [N.SetReg("x", c32(1), c32(7))],
                     [N.SetReg("x", c32(1), c32(9))])])
        assert machine.regs[("x", 1)] == 7

    def test_input_byte_whole_rhs_ok(self):
        machine, _ = run_compiled(
            [N.SetLocal("t", N.InputByte()),
             N.SetReg("x", c32(1), N.InputByte()),
             N.Output(N.Local("t", 8))],
            machine=FakeMachine(input_bytes=b"\xab\xcd"))
        assert machine.regs[("x", 1)] == 0xcd
        assert machine.outputs == [0xab]

    def test_nested_input_byte_rejected(self):
        nested = N.BinOp("add", N.Ext("zext", N.InputByte(), 32),
                         c32(1), 32)
        with pytest.raises(CompileError, match="right-hand side"):
            compile_block("test", [N.SetReg("x", c32(1), nested)])

    def test_halt_trap_and_pc(self):
        _, outcome = run_compiled([N.SetPc(c32(0x2000)), N.Halt(c32(3))])
        assert outcome.next_pc == 0x2000
        assert outcome.halted and outcome.exit_code == 3
        _, outcome = run_compiled([N.Trap(c32(7))])
        assert outcome.trapped and outcome.trap_code == 7


class TestTableCoverage:
    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_every_rule_compiles(self, target):
        model = build(target)
        compiled = compiled_for(model)
        source = (compiled.concrete_source(model)
                  + compiled.symbolic_source(model))
        assert "generated by repro.compile" in source
        for table in (compiled.concrete, compiled.plan,
                      compiled.probed_plan):
            assert set(table.generated()) == set(model.by_name)

    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_symbolic_plans_are_plain_tuples(self, target):
        # The cache must never hold Term objects — the term pool is
        # swappable.  Plans are nested tuples of ints/strings/functions.
        from repro.smt.terms import Term

        def scan(value):
            assert not isinstance(value, Term)
            if isinstance(value, tuple):
                for item in value:
                    scan(item)

        model = build(target)
        compiled = compiled_for(model)
        for instr in model.instructions:
            scan(compiled.plan(instr))
            scan(compiled.probed_plan(instr))


class TestCache:
    def test_cache_hit_on_same_digest(self):
        clear_cache()
        model = build("rv32")
        first = compiled_for(model)
        assert cache_info() == {"entries": 1}
        # A freshly built model of the same (unchanged) spec digests
        # identically and must share the compilation.
        assert compiled_for(build("rv32", fresh=True)) is first
        assert cache_info() == {"entries": 1}

    def test_clear_cache(self):
        model = build("rv32")
        first = compiled_for(model)
        clear_cache()
        assert cache_info() == {"entries": 0}
        assert compiled_for(model) is not first

    def test_spec_edit_invalidates(self, tmp_path):
        """Editing the spec file changes its digest and forces a
        recompilation — the cache key is content, not ISA name."""
        from repro.adl import builtin_spec_path
        from repro.runstore.provenance import spec_digest

        spec_file = tmp_path / "rv32.adl"
        shutil.copy(builtin_spec_path("rv32"), spec_file)

        def model_from(path):
            with open(path) as handle:
                model = ArchModel(analyze(parse_spec(handle.read())))
            model.source_path = str(path)
            return model

        clear_cache()
        before = model_from(spec_file)
        first = compiled_for(before)
        spec_file.write_text(spec_file.read_text()
                             + "\n# touched by the cache test\n")
        after = model_from(spec_file)
        assert spec_digest(after) != first.digest
        second = compiled_for(after)
        assert second is not first
        assert second.digest != first.digest
        assert cache_info() == {"entries": 2}

    def test_edit_between_build_and_first_compile(self, tmp_path,
                                                  monkeypatch):
        """build() digests the bytes it parsed.  Editing the spec after
        build must neither file the built model's code under the new
        digest nor let a fresh build reuse the old code."""
        import hashlib

        import repro.adl as adl
        from repro.core import Engine
        from repro.isa import assemble
        from repro.runstore.provenance import spec_digest

        spec_file = tmp_path / "rv32.adl"
        shutil.copy(adl.builtin_spec_path("rv32"), spec_file)
        monkeypatch.setattr(adl, "builtin_spec_path",
                            lambda name: str(spec_file))
        original = spec_file.read_bytes()
        program = "\n".join([
            ".org 0x1000", ".entry start", "start:",
            "    addi x1, x0, 5", "    addi x2, x0, 3",
            "    add x3, x1, x2", "    outb x3", "    halt 0", ""])

        def output_of(model):
            engine = Engine(model)
            engine.load_image(assemble(model, program))
            result = engine.explore()
            (path,) = result.paths
            return list(path.state.output)

        clear_cache()
        try:
            old = build("rv32", fresh=True)
            spec_file.write_text(original.decode().replace(
                "x[rd] = x[rs1] + x[rs2];", "x[rd] = x[rs1] - x[rs2];", 1))
            assert spec_digest(old) == \
                "sha256:" + hashlib.sha256(original).hexdigest()
            assert output_of(old) == [8]
            new = build("rv32", fresh=True)
            assert spec_digest(new) != spec_digest(old)
            assert compiled_for(new) is not compiled_for(old)
            assert output_of(new) == [2]
        finally:
            clear_cache()

    def test_in_memory_specs_do_not_share_code(self):
        """Without a spec file the digest covers each rule's IR, so two
        same-named specs that differ in one expression compile apart."""
        from repro.adl import builtin_spec_path
        from repro.runstore.provenance import spec_digest

        with open(builtin_spec_path("rv32")) as handle:
            text = handle.read()
        edited = text.replace("x[rd] = x[rs1] + x[rs2];",
                              "x[rd] = x[rs1] - x[rs2];", 1)
        assert edited != text
        first = ArchModel(analyze(parse_spec(text)))
        second = ArchModel(analyze(parse_spec(edited)))
        clear_cache()
        try:
            assert spec_digest(first) != spec_digest(second)
            assert compiled_for(first) is not compiled_for(second)
            assert spec_digest(ArchModel(analyze(parse_spec(text)))) \
                == spec_digest(first)
        finally:
            clear_cache()
