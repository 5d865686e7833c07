"""Engine-level tests: forking, checkers, concretization, limits."""

import pytest

from repro import core
from repro.core import Engine, EngineConfig, EngineError
from repro.isa import assemble, build, run_image


def engine_for(target, source, config=None, strategy="dfs", regions=()):
    model = build(target)
    image = assemble(model, source, base=0x1000)
    engine = Engine(model, config=config, strategy=strategy)
    engine.load_image(image)
    for region in regions:
        engine.add_region(**region)
    return engine, image, model


class TestBasicExploration:
    def test_straight_line_single_path(self):
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        addi x1, x0, 1
        addi x2, x1, 2
        halt 0
        """)
        result = engine.explore()
        assert len(result.paths) == 1
        assert result.paths[0].status == "halted"
        assert result.paths[0].exit_code == 0
        assert result.instructions_executed == 3

    def test_no_image_rejected(self):
        with pytest.raises(EngineError):
            Engine(build("rv32")).initial_state()

    def test_concrete_branch_does_not_fork(self):
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        addi x1, x0, 1
        beq x1, x0, never
        halt 0
        never: trap 1
        """)
        result = engine.explore()
        assert len(result.paths) == 1
        assert result.states_forked == 0
        assert not result.defects

    def test_symbolic_branch_forks_two_paths(self):
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        inb x1
        beq x1, x0, a
        halt 1
        a: halt 2
        """)
        result = engine.explore()
        assert len(result.paths) == 2
        assert {p.exit_code for p in result.paths} == {1, 2}

    def test_path_inputs_satisfy_path(self):
        engine, image, model = engine_for("rv32", """
        .org 0x1000
        inb x1
        addi x2, x0, 77
        bne x1, x2, no
        halt 1
        no: halt 0
        """)
        result = engine.explore()
        by_code = {p.exit_code: p for p in result.paths}
        sim = run_image(model, image, input_bytes=by_code[1].input_bytes)
        assert sim.exit_code == 1
        assert by_code[1].input_bytes[0] == 77

    def test_fork_arm_that_dies_is_a_dead_end(self):
        """The plan driver hands a fork arm that raises ``PathEnd`` to
        the engine's ``_dead_end`` (a ``prune`` event naming the fork
        parent) and keeps its sibling."""
        from repro.compile.driver import Outcome, PathEnd, drive
        from repro.compile.symbolic import S_IF, S_LOCAL
        from repro.obs import Obs
        from repro.obs.sinks import RingBufferSink
        from repro.smt import terms as T

        ring = RingBufferSink()
        obs = Obs(metrics=True)
        obs.add_sink(ring)
        engine, _, _ = engine_for("rv32", ".org 0x1000\nhalt 0\n",
                                  config=EngineConfig(obs=obs))
        state = engine.initial_state()

        def cond(E, S, FT, L, D):
            return T.eq(T.var("in_0", 8), T.bv(0, 8))

        def dies(E, S, FT, L, D):
            raise PathEnd("oob-load")

        def survives(E, S, FT, L, D):
            return 0

        plan = ((S_IF, cond, ((S_LOCAL, "x", dies),),
                 ((S_LOCAL, "x", survives),)),)
        finished = drive(engine, state, plan, {}, None, Outcome())
        assert [survivor for survivor, _outcome in finished] == [state]
        pruned = ring.events("prune")
        assert [event.data["reason"] for event in pruned] == ["oob-load"]
        assert pruned[0].data["parent"] == state.state_id

    def test_infeasible_branch_not_explored(self):
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        inb x1
        andi x2, x1, 1
        addi x3, x0, 2
        beq x2, x3, impossible    # (x & 1) == 2 is unsat
        halt 0
        impossible: trap 1
        """)
        result = engine.explore()
        assert len(result.paths) == 1
        assert not result.defects


class TestTrapAndHalt:
    def test_trap_reported_with_input(self):
        engine, image, model = engine_for("rv32", """
        .org 0x1000
        inb x1
        addi x2, x0, 5
        bne x1, x2, ok
        trap 3
        ok: halt 0
        """)
        result = engine.explore()
        defect = result.first_defect(core.TRAP)
        assert defect is not None
        assert defect.input_bytes[0] == 5
        sim = run_image(model, image, input_bytes=defect.input_bytes)
        assert sim.trapped and sim.trap_code == 3

    def test_exit_codes_collected(self):
        engine, _, _ = engine_for("rv32", ".org 0x1000\nhalt 9")
        result = engine.explore()
        assert result.paths[0].exit_code == 9


class TestLimits:
    def test_depth_limit(self):
        config = EngineConfig(max_steps_per_path=5)
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        loop: jal x0, loop
        """, config=config)
        result = engine.explore()
        assert result.paths[0].status == "depth-limit"

    def test_max_paths(self):
        config = EngineConfig(max_paths=2)
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        inb x1
        beq x1, x0, a
        inb x2
        beq x2, x0, a
        halt 1
        a: halt 0
        """, config=config)
        result = engine.explore()
        assert len(result.paths) == 2
        assert result.stop_reason == "max-paths"

    def test_max_instructions(self):
        config = EngineConfig(max_instructions=3)
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        loop: jal x0, loop
        """, config=config)
        result = engine.explore()
        assert result.instructions_executed == 3
        assert result.stop_reason == "max-instructions"

    def test_max_defects(self):
        config = EngineConfig(max_defects=1)
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        inb x1
        beq x1, x0, a
        trap 1
        a: trap 2
        """, config=config)
        result = engine.explore()
        assert len(result.defects) == 1
        assert result.stop_reason == "max-defects"


class TestIndirectJumps:
    def test_concrete_jalr(self):
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        start:
            jal x1, fn
            halt 0
        fn:
            jalr x0, 0(x1)
        .entry start
        """)
        result = engine.explore()
        assert result.paths[0].status == "halted"

    def test_symbolic_target_enumerated(self):
        # Jump table: target = 0x1000 + 16 + 4*(x1 & 1)
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        start:
            inb x1
            andi x1, x1, 1
            slli x1, x1, 2
            addi x2, x0, 0x110
            slli x2, x2, 4      # 0x1100
            add x2, x2, x1
            jalr x0, 0(x2)
        .org 0x1100
            halt 1
            halt 2
        .entry start
        """)
        result = engine.explore()
        assert {p.exit_code for p in result.paths} == {1, 2}
        assert result.states_forked >= 1


class TestCheckers:
    def test_invalid_instruction_defect(self):
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        jal x0, data
        data: .word 0xffffffff
        """)
        result = engine.explore()
        assert result.first_defect(core.INVALID_INSTRUCTION) is not None

    def test_oob_concrete_address(self):
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        lui x1, 0x9
        lw x2, 0(x1)       # 0x9000: unmapped
        halt 0
        """)
        result = engine.explore()
        defect = result.first_defect(core.OOB_ACCESS)
        assert defect is not None
        assert not result.paths    # the path could not continue

    def test_oob_symbolic_constrained_and_continues(self):
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        inb x1
        lui x2, 1
        add x2, x2, x1     # 0x1000 + in: partially in-bounds
        lbu x3, 0(x2)
        halt 0
        .org 0x10f0
        .space 8
        """)
        result = engine.explore()
        # OOB reported (input can push past 0x10f8) AND the in-bounds
        # continuation still reaches halt.
        assert result.first_defect(core.OOB_ACCESS) is not None
        assert any(p.status == "halted" for p in result.paths)

    def test_write_protect(self):
        model = build("rv32")
        image = assemble(model, """
        .org 0x1000
        lui x1, 1
        addi x2, x0, 7
        sw x2, 0(x1)       # write into the read-only image
        halt 0
        """, base=0x1000)
        engine = Engine(model)
        engine.load_image(image, writable=False)
        result = engine.explore()
        assert result.first_defect(core.WRITE_TO_CODE) is not None

    def test_uninit_read_checker(self):
        config = EngineConfig(check_uninit=True)
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        lui x1, 2
        lbu x2, 0(x1)      # scratch region, never written
        halt 0
        """, config=config,
            regions=[{"start": 0x2000, "size": 16, "track_uninit": True}])
        result = engine.explore()
        assert result.first_defect(core.UNINIT_READ) is not None

    def test_uninit_ok_after_write(self):
        config = EngineConfig(check_uninit=True)
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        lui x1, 2
        addi x2, x0, 5
        sb x2, 0(x1)
        lbu x3, 0(x1)
        halt 0
        """, config=config,
            regions=[{"start": 0x2000, "size": 16, "track_uninit": True}])
        result = engine.explore()
        assert result.first_defect(core.UNINIT_READ) is None

    def test_defect_dedup(self):
        # The same div site in a loop is reported once.
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        addi x4, x0, 3
        loop:
        inb x1
        addi x2, x0, 9
        divu x3, x2, x1
        addi x4, x4, -1
        bne x4, x0, loop
        halt 0
        """)
        result = engine.explore()
        div_defects = [d for d in result.defects
                       if d.kind == core.DIV_BY_ZERO]
        assert len(div_defects) == 1

    def test_dedup_disabled_reports_again(self):
        config = EngineConfig(dedup_defects=False, max_defects=4)
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        addi x4, x0, 3
        loop:
        inb x1
        addi x2, x0, 9
        divu x3, x2, x1
        addi x4, x4, -1
        bne x4, x0, loop
        halt 0
        """, config=config)
        result = engine.explore()
        div_defects = [d for d in result.defects
                       if d.kind == core.DIV_BY_ZERO]
        assert len(div_defects) > 1


class TestSymbolicMemoryAccess:
    def test_symbolic_load_window(self):
        # Small symbolic range -> ite chain over the table.
        engine, image, model = engine_for("rv32", """
        .org 0x1000
        start:
            inb x1
            andi x1, x1, 3       # index 0..3
            lui x2, 1
            addi x2, x2, 0x200   # 0x1200 table
            add x2, x2, x1
            lbu x3, 0(x2)
            addi x4, x0, 30
            bne x3, x4, no
            trap 1
        no: halt 0
        .org 0x1200
        .byte 10, 20, 30, 40
        .entry start
        """)
        result = engine.explore()
        defect = result.first_defect(core.TRAP)
        assert defect is not None
        assert defect.input_bytes[0] & 3 == 2   # table[2] == 30
        sim = run_image(model, image, input_bytes=defect.input_bytes)
        assert sim.trapped

    def test_symbolic_store_then_load(self):
        engine, image, model = engine_for("rv32", """
        .org 0x1000
        start:
            inb x1
            andi x1, x1, 7
            lui x2, 1
            addi x2, x2, 0x200
            add x3, x2, x1
            addi x4, x0, 55
            sb x4, 0(x3)        # buf[in & 7] = 55
            lbu x5, 0(x3)       # read it back
            addi x6, x0, 55
            bne x5, x6, bad
            halt 0
        bad: trap 9
        .org 0x1200
        .space 8
        .entry start
        """)
        result = engine.explore()
        # Reading back the stored value must always succeed.
        assert result.first_defect(core.TRAP) is None
        assert any(p.status == "halted" for p in result.paths)


class TestStrategySelection:
    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "random",
                                          "coverage"])
    def test_all_strategies_find_all_paths(self, strategy):
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        inb x1
        beq x1, x0, a
        inb x2
        beq x2, x0, a
        halt 1
        a: halt 0
        """, strategy=strategy)
        result = engine.explore()
        assert len(result.paths) == 3

    def test_state_cap_prunes(self):
        config = EngineConfig(max_states=1)
        engine, _, _ = engine_for("rv32", """
        .org 0x1000
        inb x1
        beq x1, x0, a
        inb x2
        beq x2, x0, a
        halt 1
        a: halt 0
        """, config=config)
        result = engine.explore()
        assert result.states_pruned >= 1


class TestConfigSerialization:
    #: ``EngineConfig(collect_coverage=True).to_dict()`` of code that
    #: still had three fields which are now engine constants.
    OLDER = {
        "check_div_zero": True, "check_oob": True,
        "check_tainted_control": False, "check_uninit": False,
        "check_write_protect": True, "collect_coverage": True,
        "collect_path_inputs": True, "cow_memory": True,
        "dedup_defects": True, "div_check_respects_guards": False,
        "max_address_values": 4, "max_defects": None,
        "max_fork_targets": 4, "max_instructions": None,
        "max_paths": None, "max_states": 4096,
        "max_steps_per_path": 4096, "max_visits_per_pc": None,
        "max_wall_seconds": None, "merge_states": False,
        "symbolic_read_window": 32, "use_solver_cache": True,
    }
    RETIRED = ("div_check_respects_guards", "max_address_values",
               "symbolic_read_window")

    def test_older_payload_loads_and_round_trips(self):
        config = EngineConfig.from_dict(self.OLDER)
        current = {key: value for key, value in self.OLDER.items()
                   if key not in self.RETIRED}
        assert config.to_dict() == current
        assert EngineConfig.from_dict(current).to_dict() == current
