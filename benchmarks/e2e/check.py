"""Correctness oracle and result digest for the end-to-end benchmark.

Runs after timing ends.  Reference answers never come from the symbolic
engine under test: defect inputs and path inputs are replayed on the
concrete simulator (``repro.isa.simulator.run_image``), and the expected
defects and leaf counts come from how each program was built
(:class:`workloads.Program`).
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Tuple

from repro.core import TRAP
from repro.isa import DecodeError, SimError, run_image

__all__ = ["fingerprint", "Reference", "check", "result_digest",
           "HALTED_SAMPLE"]

#: Halted paths replayed per program (a seeded sample when there are more).
HALTED_SAMPLE = 8
_REPLAY_STEPS = 1_000_000


def fingerprint(result) -> Tuple:
    """What an exploration decided: instructions executed, sorted leaf
    (status, exit code) pairs and sorted defect (kind, pc) pairs."""
    leaves = tuple(sorted(
        (path.status, -1 if path.exit_code is None else path.exit_code)
        for path in result.paths))
    defects = tuple(sorted((defect.kind, defect.pc)
                           for defect in result.defects))
    return result.instructions_executed, leaves, defects


class Reference:
    """One exploration per program kept for the oracle: its fingerprint,
    stop reason, trap inputs and a seeded sample of halted-path inputs.
    Holding these instead of the result frees the explored states."""

    __slots__ = ("fingerprint", "stop_reason", "traps", "halted")

    def __init__(self, result, seed: int, program_id: str):
        self.fingerprint = fingerprint(result)
        self.stop_reason = result.stop_reason
        self.traps = [(defect.pc, defect.input_bytes)
                      for defect in result.defects if defect.kind == TRAP]
        halted = [(path.input_bytes, path.exit_code)
                  for path in result.paths if path.status == "halted"]
        if len(halted) > HALTED_SAMPLE:
            rng = random.Random("%d:%s" % (seed, program_id))
            halted = rng.sample(halted, HALTED_SAMPLE)
        self.halted = halted


def check(program, reference: Reference, model, image) -> List[str]:
    """Problems with one program's verdict; empty when it is correct."""
    problems = []
    if reference.stop_reason != "exhausted":
        problems.append("stopped: %s" % reference.stop_reason)
    _instructions, leaves, defects = reference.fingerprint
    reported = any(kind == program.defect_kind for kind, _pc in defects)
    if reported != program.expect_defect:
        problems.append("%s %s" % (program.defect_kind, "missed" if
                                   program.expect_defect else "false alarm"))
    if program.leaves is not None and len(leaves) + len(defects) \
            != program.leaves:
        problems.append("%d leaves, expected %d"
                        % (len(leaves) + len(defects), program.leaves))
    for pc, data in reference.traps:
        sim = _replay(model, image, data)
        if sim is None or not sim.trapped or sim.state.pc != pc:
            problems.append("trap input %s does not trap at %#x"
                            % (data.hex(), pc))
    for data, exit_code in reference.halted:
        sim = _replay(model, image, data)
        if sim is None or not sim.halted or (
                exit_code is not None and sim.exit_code != exit_code):
            problems.append("path input %s does not halt with %r"
                            % (data.hex(), exit_code))
    return problems


def _replay(model, image, data: bytes):
    try:
        return run_image(model, image, input_bytes=data,
                         max_steps=_REPLAY_STEPS)
    except (SimError, DecodeError):
        return None


def result_digest(rows: Iterable[Tuple[object, Tuple]]) -> str:
    """sha256 over (program id, ISA, fingerprint) rows, in list order."""
    hasher = hashlib.sha256()
    for program, (instructions, leaves, defects) in rows:
        hasher.update(("%s|%s|%d|%r|%r\n" % (program.id, program.isa,
                                             instructions, leaves, defects)
                       ).encode())
    return hasher.hexdigest()
