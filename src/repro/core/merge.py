"""Opportunistic state merging (veritesting-lite).

Two pending states parked at the same program counter whose differences
are *register contents only* can be merged into one state whose registers
are ``ite`` terms over the paths' distinguishing conditions.  On
diamond-shaped code this collapses the 2^n path explosion of n
independent branches into a linear number of states, trading path count
for term size — the classic static-symbolic-execution trade-off.

Soundness rests on two facts:

* Sibling paths from a deterministic fork tree carry *disjoint* extra
  conditions (they disagree on at least the branch that split them), so
  the merged ``ite`` selector picks exactly the right arm for any input.
* Merging requires equal input positions, identical memory contents and
  identical output streams; anything else stays unmerged.

Enabled via ``EngineConfig(merge_states=True)``; ablated in Table 6.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..compile.ops import lift, norm
from ..smt import terms as T
from .state import SymState
from .strategy import Strategy

__all__ = ["try_merge", "MergingFrontier"]


def _split_paths(a: SymState, b: SymState):
    """Common path-condition prefix plus each state's extra conditions."""
    prefix_len = 0
    for cond_a, cond_b in zip(a.path_condition, b.path_condition):
        if cond_a is not cond_b:
            break
        prefix_len += 1
    return (a.path_condition[:prefix_len],
            a.path_condition[prefix_len:],
            b.path_condition[prefix_len:])


def try_merge(a: SymState, b: SymState) -> Optional[SymState]:
    """Merge two pending states if structurally compatible, else None."""
    if a.pc != b.pc or a.model is not b.model:
        return None
    if len(a.input_vars) != len(b.input_vars):
        return None
    if len(a.output) != len(b.output):
        return None
    if not all(x is y or x == y for x, y in zip(a.output, b.output)):
        return None
    if not _same_memory(a.memory, b.memory):
        return None
    prefix, extra_a, extra_b = _split_paths(a, b)
    if not extra_a and not extra_b:
        # Identical path conditions: states are duplicates; keep one.
        return a
    select_a = T.conjoin(extra_a)
    merged = a.fork()
    merged.parent_id = a.state_id
    merged.path_condition = prefix + [T.or_(select_a, T.conjoin(extra_b))]
    for name, regs_a in a.regfiles.items():
        regs_b = b.regfiles[name]
        merged_regs = merged.regfiles[name]
        width = a.model.regfiles[name].width
        for index, (ra, rb) in enumerate(zip(regs_a, regs_b)):
            if not _same(ra, rb):
                merged_regs[index] = _select(select_a, ra, rb, width)
    for name, ra in a.registers.items():
        rb = b.registers[name]
        if not _same(ra, rb):
            merged.registers[name] = _select(
                select_a, ra, rb, a.model.registers[name])
    merged.steps = max(a.steps, b.steps)
    return merged


def _same(a, b) -> bool:
    """Ints compare by value, terms by (hash-consed) identity."""
    return a is b or (type(a) is int and a == b)


def _select(cond: T.Term, a, b, width: int):
    return norm(T.ite(cond, lift(a, width), lift(b, width)))


def _same_memory(mem_a, mem_b) -> bool:
    pages_a, pages_b = mem_a._pages, mem_b._pages
    if pages_a.keys() != pages_b.keys():
        return False
    for key, page_a in pages_a.items():
        page_b = pages_b[key]
        if page_a is page_b:
            continue
        if page_a.keys() != page_b.keys():
            return False
        for offset, term_a in page_a.items():
            term_b = page_b[offset]
            if term_a is not term_b and term_a != term_b:
                return False
    return True


class MergingFrontier(Strategy):
    """Wraps any strategy, merging pushes that land on a buffered pc.

    Merged-away states stay inside the inner strategy but are marked dead
    and skipped on pop (strategies cannot remove arbitrary elements).
    """

    name = "merging"

    def __init__(self, inner: Strategy, obs=None):
        self.inner = inner
        self._by_pc: Dict[int, SymState] = {}
        self._dead: set = set()
        self._live = 0
        self.merges = 0
        # Observability (see repro.obs): one 'merge' event per merge.
        self._obs = obs

    def push(self, state: SymState) -> None:
        candidate = self._by_pc.get(state.pc)
        if candidate is not None and candidate.state_id not in self._dead:
            merged = try_merge(candidate, state)
            if merged is not None:
                self._dead.add(candidate.state_id)
                self._live -= 1
                self.merges += 1
                if (self._obs is not None
                        and self._obs.tracer.enabled):
                    self._obs.tracer.emit(
                        "merge", state_id=merged.state_id, pc=merged.pc,
                        merged_from=[candidate.state_id, state.state_id],
                        duplicate=merged is candidate)
                if merged is not candidate:
                    self._by_pc[state.pc] = merged
                    self.inner.push(merged)
                    self._live += 1
                else:
                    # Duplicate state: resurrect the candidate.
                    self._dead.discard(candidate.state_id)
                    self._live += 1
                return
        self._by_pc[state.pc] = state
        self.inner.push(state)
        self._live += 1

    def pop(self) -> SymState:
        while True:
            state = self.inner.pop()
            if state.state_id in self._dead:
                self._dead.discard(state.state_id)
                continue
            self._live -= 1
            if self._by_pc.get(state.pc) is state:
                del self._by_pc[state.pc]
            return state

    def states(self):
        """Live pending states (merged-away tombstones are skipped)."""
        return (state for state in self.inner.states()
                if state.state_id not in self._dead)

    def __len__(self) -> int:
        return self._live
