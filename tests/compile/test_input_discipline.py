"""Input discipline and machine-visible effect order.

``in()`` is legal only as the entire right-hand side of an assignment —
a discipline enforced at every layer: the validator, the interpreter,
the plan generator and the plan driver.  The second half pins the
*order* of machine-visible effects (register reads, loads, stores,
input, output) by recording an op log from a tracing machine and
requiring the compiled plan, run by the plan driver
(:mod:`repro.compile.driver`), to replay the interpreter's log exactly.
Equal final state is not enough: input cursors and self-modifying
stores make order observable.
"""

from types import SimpleNamespace

import pytest

from repro.compile import symbolic
from repro.compile.driver import CONCRETE, Outcome, drive
from repro.ir import interp
from repro.ir import nodes as N
from repro.ir.validate import IrError, validate_block, validate_expr


def c32(value):
    return N.Const(value, 32)


class TracingMachine(interp.MachineContext):
    """Records every machine-visible operation in call order."""

    pc = 0x1000

    def __init__(self, input_bytes=b""):
        self.regs = {}
        self.mem = {}
        self.inputs = list(input_bytes)
        self.log = []

    def read_reg(self, regfile, index):
        value = self.regs.get((regfile, index), 0)
        self.log.append(("read_reg", regfile, index, value))
        return value

    def write_reg(self, regfile, index, value):
        self.log.append(("write_reg", regfile, index, value))
        self.regs[(regfile, index)] = value

    def load(self, addr, size):
        value = 0
        for i in range(size):
            value |= self.mem.get(addr + i, 0) << (8 * i)
        self.log.append(("load", addr, size, value))
        return value

    def store(self, addr, value, size):
        self.log.append(("store", addr, value, size))
        for i in range(size):
            self.mem[addr + i] = (value >> (8 * i)) & 0xff

    def input_byte(self):
        value = self.inputs.pop(0) if self.inputs else 0
        self.log.append(("input", value))
        return value

    def output_byte(self, value):
        self.log.append(("output", value))

    def current_pc(self):
        return 0x1000


def run_compiled(stmts, machine, fields=None):
    """Compile ``stmts`` into a plan and run it on ``machine`` through
    the plan driver; returns the one path's outcome."""
    plan, _source = symbolic.rule_plan(
        "test", SimpleNamespace(name="test", semantics=stmts))
    ((_, outcome),) = drive(CONCRETE, machine, plan, fields or {}, None,
                            Outcome())
    return outcome


def logs_for(stmts, input_bytes=b"", fields=None):
    """(interpreter log, compiled log) for the same block."""
    reference = TracingMachine(input_bytes)
    interp.exec_block(stmts, reference, fields or {})
    traced = TracingMachine(input_bytes)
    run_compiled(stmts, traced, fields)
    return reference.log, traced.log


class TestValidatorDiscipline:
    def test_nested_input_byte_rejected(self):
        nested = N.BinOp("add", N.Ext("zext", N.InputByte(), 32),
                         c32(1), 32)
        with pytest.raises(IrError, match="right-hand side"):
            validate_expr(N.Ext("zext", N.InputByte(), 32))
        with pytest.raises(IrError, match="right-hand side"):
            validate_block([N.SetReg("x", c32(1), nested)])
        with pytest.raises(IrError, match="right-hand side"):
            validate_block([N.Output(N.Ext("zext", N.InputByte(), 32))])

    def test_whole_rhs_input_byte_accepted(self):
        validate_block([N.SetLocal("t", N.InputByte()),
                        N.SetReg("x", c32(1), N.InputByte())])


class TestEffectOrder:
    def test_statement_order(self):
        interp_log, compiled_log = logs_for(
            [N.SetLocal("a", N.InputByte()),
             N.Output(N.Local("a", 8)),
             N.SetLocal("b", N.InputByte()),
             N.Output(N.Local("b", 8))],
            input_bytes=b"\x11\x22")
        assert interp_log == compiled_log
        assert [op for op in compiled_log] == [
            ("input", 0x11), ("output", 0x11),
            ("input", 0x22), ("output", 0x22)]

    def test_binop_operands_left_to_right(self):
        stmts = [N.SetReg("x", c32(1), N.BinOp(
            "add", N.ReadReg("x", c32(2), 32),
            N.ReadReg("x", c32(3), 32), 32))]
        interp_log, compiled_log = logs_for(stmts)
        assert interp_log == compiled_log

    def test_store_then_load_same_address(self):
        # Order is semantically observable here, not just traceable.
        stmts = [N.Store(c32(0x100), c32(0xaa), 1),
                 N.SetReg("x", c32(1), N.Load(c32(0x100), 1)),
                 N.Store(c32(0x100), c32(0xbb), 1),
                 N.SetReg("x", c32(2), N.Load(c32(0x100), 1))]
        interp_log, compiled_log = logs_for(stmts)
        assert interp_log == compiled_log

    def test_setreg_index_evaluated_before_value(self):
        # The interpreter evaluates SetReg's index expression before the
        # value expression; the plan driver must replicate that.
        stmts = [N.SetReg("x", N.ReadReg("x", c32(4), 32),
                          N.ReadReg("x", c32(5), 32))]
        interp_log, compiled_log = logs_for(stmts)
        assert interp_log == compiled_log
        assert compiled_log[0] == ("read_reg", "x", 4, 0)

    def test_ite_only_chosen_arm_runs(self):
        # Lazy ite: the untaken arm's load must not appear in the log.
        picker = N.IteExpr(N.BinOp("eq", N.ReadReg("x", c32(1), 32),
                                   c32(0), 1),
                           N.Load(c32(0x100), 1),
                           N.Load(c32(0x200), 1))
        for taken in (0, 1):
            reference = TracingMachine()
            reference.regs[("x", 1)] = taken
            interp.exec_block([N.SetReg("x", c32(2),
                                        N.Ext("zext", picker, 32))],
                              reference, {})
            traced = TracingMachine()
            traced.regs[("x", 1)] = taken
            run_compiled([N.SetReg("x", c32(2),
                                   N.Ext("zext", picker, 32))], traced)
            assert reference.log == traced.log
            loads = [op for op in traced.log if op[0] == "load"]
            assert len(loads) == 1

    def test_untaken_if_branch_consumes_no_input(self):
        stmts = [N.IfStmt(N.BinOp("eq", N.ReadReg("x", c32(1), 32),
                                  c32(0), 1),
                          [N.SetLocal("a", N.InputByte()),
                           N.Output(N.Local("a", 8))],
                          [N.Output(c32(0x99))])]
        for taken in (0, 1):
            reference = TracingMachine(b"\x55")
            reference.regs[("x", 1)] = taken
            interp.exec_block(stmts, reference, {})
            traced = TracingMachine(b"\x55")
            traced.regs[("x", 1)] = taken
            run_compiled(stmts, traced)
            assert reference.log == traced.log

    def test_signed_compare_and_shift_edge_order(self):
        stmts = [N.SetReg("x", c32(1), N.Ext("zext", N.BinOp(
                    "slt", N.ReadReg("x", c32(2), 32),
                    N.ReadReg("x", c32(3), 32), 1), 32)),
                 N.SetReg("x", c32(4), N.BinOp(
                    "ashr", N.ReadReg("x", c32(5), 32),
                    N.ReadReg("x", c32(6), 32), 32))]
        reference = TracingMachine()
        reference.regs.update({("x", 2): 0x80000000, ("x", 3): 1,
                               ("x", 5): 0x80000000, ("x", 6): 99})
        interp.exec_block(stmts, reference, {})
        traced = TracingMachine()
        traced.regs.update({("x", 2): 0x80000000, ("x", 3): 1,
                            ("x", 5): 0x80000000, ("x", 6): 99})
        run_compiled(stmts, traced)
        assert reference.log == traced.log
        assert traced.regs[("x", 1)] == 1           # -2^31 < 1 signed
        assert traced.regs[("x", 4)] == 0xffffffff  # ashr saturates
