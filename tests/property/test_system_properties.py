"""Property-based tests over the system layers above the solver."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory import MemoryMap, Region, SymMemory
from repro.isa import assemble, build, run_image
from repro.smt import terms as T
from repro.smt.sat import SAT, UNSAT, SatSolver


class TestSatAgainstBruteForce:
    @given(st.lists(
        st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]),
                 min_size=1, max_size=3),
        min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_truth_table(self, clauses):
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        got = solver.solve()
        expected = UNSAT
        for bits in range(16):
            assignment = [(bits >> v) & 1 for v in range(4)]
            if all(any((lit > 0) == (assignment[abs(lit) - 1] == 1)
                       for lit in clause) for clause in clauses):
                expected = SAT
                break
        assert got == expected
        if got == SAT:
            model = solver.model()
            for clause in clauses:
                assert any((lit > 0) == (model[abs(lit)] == 1)
                           for lit in clause)


class TestMemoryAgainstDictModel:
    @given(st.lists(st.tuples(st.sampled_from(["write", "fork", "read"]),
                              st.integers(0, 1023),
                              st.integers(0, 255)),
                    min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_cow_memory_behaves_like_dict(self, operations):
        memory_map = MemoryMap([Region(0, 4096)])
        memory = SymMemory(memory_map)
        reference = {}
        snapshots = []
        for op, addr, value in operations:
            if op == "write":
                memory.write_byte(addr, T.bv(value, 8))
                reference[addr] = value
            elif op == "fork":
                snapshots.append((memory.fork(), dict(reference)))
            else:
                assert memory.read_byte(addr) == reference.get(addr, 0)
        # Forked snapshots must still reflect their point-in-time contents.
        for snapshot, expected in snapshots:
            for addr, value in expected.items():
                assert snapshot.read_byte(addr) == value

    @given(st.integers(0, 4000), st.integers(0, 2**32 - 1),
           st.sampled_from(["little", "big"]))
    @settings(max_examples=100, deadline=None)
    def test_word_roundtrip(self, addr, value, endian):
        memory = SymMemory(MemoryMap([Region(0, 8192)]))
        memory.write(addr, T.bv(value, 32), 4, endian)
        assert memory.read(addr, 4, endian) == value


class TestAssemblerEncodeDecodeProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["rv32", "mips32", "armlite", "vlx", "pred32"]),
           st.integers(0, 2**32 - 1))
    def test_random_instances_roundtrip_fields(self, target, seed):
        """assemble_word(bind(word)) is the identity on valid instances."""
        model = build(target)
        rng = random.Random(seed)
        instr = rng.choice(model.instructions)
        fields = {}
        for field in instr.encoding.fields:
            if field.name not in instr.decl.match:
                fields[field.name] = rng.getrandbits(field.width)
        word = instr.assemble_word(fields)
        rebound = instr.bind(word)
        for name, value in fields.items():
            assert rebound[name] == value
        assert instr.assemble_word(rebound) == word

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-2048, 2047))
    def test_rv32_addi_immediate_roundtrip(self, imm):
        model = build("rv32")
        image = assemble(model, ".org 0x1000\naddi x1, x0, %d" % imm,
                         base=0x1000)
        decoded = model.decoder.decode_bytes(bytes(image.data), 0x1000)
        signed = decoded.fields["imm"]
        if signed >= 2048:
            signed -= 4096
        assert signed == imm


class TestPortableCrossIsaProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=3, max_size=3))
    def test_checksum_identical_output_everywhere(self, input_bytes):
        from repro.programs import build_kernel
        observations = set()
        for target in ("rv32", "mips32", "armlite", "vlx", "pred32"):
            model, image = build_kernel("checksum", target, length=3)
            sim = run_image(model, image, input_bytes=input_bytes)
            observations.add((bytes(sim.output), sim.exit_code,
                              sim.trapped))
        assert len(observations) == 1
