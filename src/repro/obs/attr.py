"""Rule-level cost attribution: *which* spec rules pay for the run.

The phase profiler (:mod:`repro.obs.profile`) answers "how much time
goes to ``eval`` vs ``solver``"; this module answers the porter's next
question — *which ADL semantic rules, IR node kinds and branch sites*
that time is spent on.  Costs are charged at three granularities:

* **rules** — every executed instruction is attributed to its semantic
  rule (the ``instruction`` block, via the
  :class:`~repro.adl.translate.RuleProvenance` table the translator
  threads into the :class:`~repro.isa.model.ArchModel`), accumulating
  evaluation wall time, solver check time, cache hits/misses, forks and
  term-pool allocations per rule;
* **IR node kinds** — a *deep* step runs the rule's probed twin (its
  compiled plan with :meth:`CostAttribution.ir_enter`/``ir_exit`` around
  every IR node, :mod:`repro.compile.symbolic`), so ``BinOp:add`` vs
  ``Load`` vs ``IteExpr`` get their own inclusive/self timings (self
  time excludes nested kinds and solver work, profiler-style);
* **branch sites** — solver time is blamed on the guest pc that issued
  the query, so one hot branch shows up as one hot address.

**Sampling.**  Rule-level charging (steps, eval time, solver time,
forks) happens on *every* step.  The expensive parts (per-IR-node
probing, term-pool deltas) run only on every ``sample_every``-th step
("deep" steps); ``mode="full"`` makes every step deep.

**One timer** (pinned by ``tests/obs/test_attr.py``): attribution takes
its eval and solver charges from the same clock readings as the phase
profiler's ``eval`` and ``solver`` scopes (``Engine._timed_exec``,
``Solver.check``), so with the profiler enabled the block's
``eval_calls``/``eval_s`` and ``solver_checks``/``solver_s`` *equal*
those phases' ``calls``/``total_s``.

The :meth:`CostAttribution.snapshot` dict is the wire format: it rides
in ``result.telemetry["attr"]`` (schema-v5 sidecar ``run_summary``
blocks), is persisted as ``attr.json`` in the run store, and is what
the offline renderers (:func:`hot_report`,
:func:`annotate_spec_costs`, :mod:`repro.obs.flame`) and the
``repro hot`` CLI consume.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..ir import nodes as N

__all__ = ["AttrConfig", "CostAttribution", "ATTR_SCHEMA_VERSION",
           "hot_report", "hot_rules_lines", "annotate_spec_costs",
           "ir_kind"]

#: Version of the ``attr`` snapshot block (independent of the event
#: schema version; bumped when the block's shape changes).  2: attr and
#: the phase profiler share one timer, so the block no longer carries a
#: section comparing their totals.
ATTR_SCHEMA_VERSION = 2

#: Pseudo-rule charged for solver work issued outside any instruction
#: (e.g. a feasibility probe before the first step).
ENGINE_BUCKET = "(engine)"


class AttrConfig:
    """Tunables for cost attribution (observe-only; never serialized
    into the run-store key — attribution must not change outcomes)."""

    MODES = ("sampled", "full")

    def __init__(self, mode: str = "sampled", sample_every: int = 16):
        if mode not in self.MODES:
            raise ValueError("attr mode must be one of %r, got %r"
                             % (self.MODES, mode))
        self.mode = mode
        # In full mode every step is deep; sampled mode probes every
        # Nth step (N >= 1) so the always-on overhead stays bounded.
        self.sample_every = 1 if mode == "full" else max(1, int(sample_every))


def ir_kind(expr) -> str:
    """Attribution label for one IR expression node.  ``BinOp``/``UnOp``
    carry their operator so ``BinOp:add`` and ``BinOp:udiv`` separate."""
    name = expr.__class__.__name__
    if isinstance(expr, (N.BinOp, N.UnOp)):
        return "%s:%s" % (name, expr.op)
    return name


class _IrCost:
    """Per-(rule, IR kind) timing: calls, inclusive, self."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class _RuleCost:
    """Everything charged to one semantic rule."""

    __slots__ = ("steps", "eval_s", "solver_s", "solver_checks",
                 "cache_hits", "cache_misses", "forks", "term_allocs",
                 "ir", "solver_by_ir")

    def __init__(self):
        self.steps = 0
        self.eval_s = 0.0
        self.solver_s = 0.0
        self.solver_checks = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.forks = 0
        self.term_allocs = 0
        self.ir: Dict[str, _IrCost] = {}
        self.solver_by_ir: Dict[str, float] = {}


class _SiteCost:
    """Costs blamed on one guest pc (branch/query site)."""

    __slots__ = ("rule", "steps", "solver_s", "solver_checks",
                 "cache_hits", "forks")

    def __init__(self, rule: str):
        self.rule = rule
        self.steps = 0
        self.solver_s = 0.0
        self.solver_checks = 0
        self.cache_hits = 0
        self.forks = 0


class CostAttribution:
    """The live accumulator the engine and solver charge into.

    Wired by :class:`~repro.core.executor.Engine` (context + eval/fork
    charges) and :meth:`~repro.smt.solver.Solver.attach_attr` (solver
    charges).  Like the profiler it accumulates over the engine's
    lifetime; one ``explore()`` per engine (the common case) makes the
    snapshot per-exploration.
    """

    def __init__(self, config: Optional[AttrConfig] = None, model=None,
                 metrics=None):
        self.config = config if config is not None else AttrConfig()
        self.isa = getattr(model, "name", "?")
        self._provenance = dict(getattr(model, "rules", None) or {})
        self._source = getattr(model, "source_path", None)
        self.rules: Dict[str, _RuleCost] = {}
        self.sites: Dict[int, _SiteCost] = {}
        self.steps = 0
        self.deep_steps = 0
        # Running totals (equal to the eval/solver phase totals).
        self.eval_calls = 0
        self.eval_s = 0.0
        self.solver_checks = 0
        self.solver_s = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.forks = 0
        # Current step context (rule name + pc) and deep-step state.
        self._rule = ENGINE_BUCKET
        self._pc: Optional[int] = None
        self._rule_cost = self._rule_for(ENGINE_BUCKET)
        self._site_cost: Optional[_SiteCost] = None
        self.deep = False
        self._ir_stack: List[list] = []   # [kind, start, child_time]
        self._pool = None                 # bound lazily (term pool)
        self._pool_mark = 0
        # attr.* metrics; NULL objects when metrics are off.
        from .metrics import NULL_COUNTER, NULL_HISTOGRAM
        self._h_eval = NULL_HISTOGRAM
        self._h_solver = NULL_HISTOGRAM
        self._c_steps = NULL_COUNTER
        self._c_deep = NULL_COUNTER
        if metrics is not None:
            self._h_eval = metrics.histogram("attr.step_eval_ms")
            self._h_solver = metrics.histogram("attr.solver_ms")
            self._c_steps = metrics.counter("attr.steps")
            self._c_deep = metrics.counter("attr.deep_steps")

    # -- engine-side charging ------------------------------------------------

    def _rule_for(self, name: str) -> _RuleCost:
        cost = self.rules.get(name)
        if cost is None:
            cost = self.rules[name] = _RuleCost()
        return cost

    def begin_step(self, rule: str, pc: int) -> bool:
        """Set the (rule, pc) context for one instruction; returns
        whether this step is *deep* (per-IR-node probing on)."""
        self.steps += 1
        self._c_steps.inc()
        self._rule = rule
        self._pc = pc
        cost = self._rule_for(rule)
        cost.steps += 1
        self._rule_cost = cost
        site = self.sites.get(pc)
        if site is None:
            site = self.sites[pc] = _SiteCost(rule)
        site.steps += 1
        self._site_cost = site
        deep = (self.steps - 1) % self.config.sample_every == 0
        self.deep = deep
        if deep:
            self.deep_steps += 1
            self._c_deep.inc()
            if self._pool is None:
                from ..smt import terms as T
                self._pool = T.get_pool()
            self._pool_mark = self._pool.misses
            del self._ir_stack[:]
        return deep

    def end_step(self, elapsed: float) -> None:
        """Charge one instruction's evaluation wall time (every step;
        the ``eval`` phase is charged the same reading)."""
        self.eval_calls += 1
        self.eval_s += elapsed
        self._rule_cost.eval_s += elapsed
        if self.deep:
            self._rule_cost.term_allocs += \
                self._pool.misses - self._pool_mark
            self._h_eval.observe(elapsed * 1000.0)
            self.ir_unwind()
            self.deep = False

    def on_fork(self, count: int) -> None:
        self.forks += count
        self._rule_cost.forks += count
        site = self._site_cost
        if site is not None:
            site.forks += count

    # -- IR probing (deep steps only) ----------------------------------------

    def ir_enter(self, kind: str) -> None:
        self._ir_stack.append([kind, time.perf_counter(), 0.0])

    def ir_exit(self) -> None:
        kind, start, child = self._ir_stack.pop()
        elapsed = time.perf_counter() - start
        table = self._rule_cost.ir
        cost = table.get(kind)
        if cost is None:
            cost = table[kind] = _IrCost()
        cost.calls += 1
        cost.total += elapsed
        cost.self_time += elapsed - child
        if self._ir_stack:
            self._ir_stack[-1][2] += elapsed

    def ir_unwind(self) -> None:
        """Close every open IR frame: the path ended mid-expression, so
        the frames it entered will never see their ``ir_exit``."""
        while self._ir_stack:
            self.ir_exit()

    # -- solver-side charging (Solver.attach_attr) ---------------------------

    def on_solver_check(self, elapsed: float, result: str) -> None:
        """One *solved* query, charged the reading its ``solver`` phase
        gets (cache answers go through :meth:`on_solver_cache`
        instead)."""
        self.solver_checks += 1
        self.solver_s += elapsed
        cost = self._rule_cost
        cost.solver_checks += 1
        cost.solver_s += elapsed
        site = self._site_cost
        if site is not None:
            site.solver_checks += 1
            site.solver_s += elapsed
        if self._ir_stack:
            frame = self._ir_stack[-1]
            # Solver time inside an IR frame is the frame's child time,
            # so IR self time stays pure term building.
            frame[2] += elapsed
            kind = frame[0]
            cost.solver_by_ir[kind] = \
                cost.solver_by_ir.get(kind, 0.0) + elapsed
        self._h_solver.observe(elapsed * 1000.0)

    def on_solver_cache(self, layer: str) -> None:
        self.cache_hits += 1
        self._rule_cost.cache_hits += 1
        site = self._site_cost
        if site is not None:
            site.cache_hits += 1

    def on_cache_miss(self) -> None:
        self.cache_misses += 1
        self._rule_cost.cache_misses += 1

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The JSON-able ``attr`` block (see module docstring)."""
        rules: Dict[str, Dict[str, object]] = {}
        for name, cost in self.rules.items():
            if cost.steps == 0 and cost.solver_checks == 0 \
                    and cost.cache_hits == 0:
                continue
            entry: Dict[str, object] = {
                "steps": cost.steps,
                "eval_s": cost.eval_s,
                "solver_s": cost.solver_s,
                "solver_checks": cost.solver_checks,
                "cache_hits": cost.cache_hits,
                "cache_misses": cost.cache_misses,
                "forks": cost.forks,
                "term_allocs": cost.term_allocs,
            }
            rule = self._provenance.get(name)
            if rule is not None:
                entry["mnemonic"] = rule.mnemonic
                entry["lines"] = [rule.line_lo, rule.line_hi]
            if cost.ir:
                entry["ir"] = {
                    kind: {"calls": ir.calls, "total_s": ir.total,
                           "self_s": ir.self_time}
                    for kind, ir in sorted(cost.ir.items())}
            if cost.solver_by_ir:
                entry["solver_by_ir"] = dict(sorted(
                    cost.solver_by_ir.items()))
            rules[name] = entry
        ir_rollup: Dict[str, Dict[str, float]] = {}
        for cost in self.rules.values():
            for kind, ir in cost.ir.items():
                agg = ir_rollup.setdefault(
                    kind, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                           "solver_s": 0.0})
                agg["calls"] += ir.calls
                agg["total_s"] += ir.total
                agg["self_s"] += ir.self_time
            for kind, seconds in cost.solver_by_ir.items():
                agg = ir_rollup.setdefault(
                    kind, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                           "solver_s": 0.0})
                agg["solver_s"] += seconds
        sites = {
            "%#x" % pc: {"rule": site.rule, "steps": site.steps,
                         "solver_s": site.solver_s,
                         "solver_checks": site.solver_checks,
                         "cache_hits": site.cache_hits,
                         "forks": site.forks}
            for pc, site in sorted(self.sites.items())
            if site.solver_checks or site.forks or site.cache_hits}
        return {
            "version": ATTR_SCHEMA_VERSION,
            "isa": self.isa,
            "source": self._source,
            "mode": self.config.mode,
            "sample_every": self.config.sample_every,
            "steps": self.steps,
            "deep_steps": self.deep_steps,
            "eval_calls": self.eval_calls,
            "eval_s": self.eval_s,
            "solver_checks": self.solver_checks,
            "solver_s": self.solver_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "forks": self.forks,
            "rules": dict(sorted(rules.items())),
            "ir": dict(sorted(ir_rollup.items())),
            "sites": sites,
        }

    def report(self, top: int = 10) -> str:
        return hot_report(self.snapshot(), top=top)

    def __repr__(self):
        return ("<CostAttribution %s steps=%d rules=%d solver=%.4fs>"
                % (self.isa, self.steps, len(self.rules), self.solver_s))


# -- offline rendering (operates on snapshot dicts) ---------------------------


def _rule_rows(block: Dict[str, object]) -> List[dict]:
    """Flatten a snapshot's rule table into rows with cost shares.

    Tolerant of malformed input: a non-dict block or rules table yields
    no rows (degenerate sidecars must never traceback)."""
    if not isinstance(block, dict):
        return []
    rules = block.get("rules")
    if not isinstance(rules, dict):
        return []
    total = 0.0
    rows = []
    for name, entry in rules.items():
        if not isinstance(entry, dict):
            continue
        eval_s = float(entry.get("eval_s", 0.0) or 0.0)
        solver_s = float(entry.get("solver_s", 0.0) or 0.0)
        cost = eval_s + solver_s
        total += cost
        rows.append({
            "rule": str(name),
            "mnemonic": str(entry.get("mnemonic", "?")),
            "lines": entry.get("lines"),
            "steps": int(entry.get("steps", 0) or 0),
            "eval_s": eval_s,
            "solver_s": solver_s,
            "solver_checks": int(entry.get("solver_checks", 0) or 0),
            "cache_hits": int(entry.get("cache_hits", 0) or 0),
            "forks": int(entry.get("forks", 0) or 0),
            "term_allocs": int(entry.get("term_allocs", 0) or 0),
            "cost_s": cost,
        })
    for row in rows:
        row["share"] = row["cost_s"] / total if total > 0 else 0.0
    rows.sort(key=lambda row: (-row["cost_s"], row["rule"]))
    return rows


def hot_rules_lines(block, top: int = 5,
                    min_share: float = 0.0) -> List[str]:
    """The "hottest rules" table as lines, or ``[]`` when the block is
    missing/degenerate (``repro stats`` renders these verbatim)."""
    rows = [row for row in _rule_rows(block)
            if row["share"] >= min_share][:max(0, top)]
    if not rows:
        return []
    lines = ["  %-14s %-8s %7s %9s %9s %7s %6s %6s"
             % ("rule", "mnemonic", "steps", "eval", "solver",
                "checks", "forks", "share"),
             "  " + "-" * 72]
    for row in rows:
        lines.append("  %-14s %-8s %7d %8.2fms %8.2fms %7d %6d %5.1f%%"
                     % (row["rule"], row["mnemonic"], row["steps"],
                        row["eval_s"] * 1e3, row["solver_s"] * 1e3,
                        row["solver_checks"], row["forks"],
                        100.0 * row["share"]))
    return lines


def hot_report(block, top: int = 10, min_share: float = 0.0) -> str:
    """Human-readable cost report for one ``attr`` snapshot block."""
    if not isinstance(block, dict) or not isinstance(
            block.get("rules"), dict):
        return "attr: no attribution block (run with --attr)"
    header = ("== cost attribution: %s (mode=%s, %s/%s steps deep) =="
              % (block.get("isa", "?"), block.get("mode", "?"),
                 block.get("deep_steps", 0), block.get("steps", 0)))
    lines = [header,
             "total: eval %.2fms  solver %.2fms over %s checks "
             "(%s cache hits, %s forks)"
             % (float(block.get("eval_s", 0.0)) * 1e3,
                float(block.get("solver_s", 0.0)) * 1e3,
                block.get("solver_checks", 0),
                block.get("cache_hits", 0), block.get("forks", 0))]
    table = hot_rules_lines(block, top=top, min_share=min_share)
    if table:
        lines.append("hottest rules:")
        lines.extend(table)
    ir = block.get("ir")
    if isinstance(ir, dict) and ir:
        rows = sorted(((kind, entry) for kind, entry in ir.items()
                       if isinstance(entry, dict)),
                      key=lambda kv: -(float(kv[1].get("self_s", 0.0))
                                       + float(kv[1].get("solver_s",
                                                         0.0))))
        lines.append("hottest IR kinds (deep-step sample):")
        lines.append("  %-16s %8s %9s %9s %9s"
                     % ("kind", "calls", "total", "self", "solver"))
        for kind, entry in rows[:max(0, top)]:
            lines.append("  %-16s %8d %8.2fms %8.2fms %8.2fms"
                         % (kind, int(entry.get("calls", 0)),
                            float(entry.get("total_s", 0.0)) * 1e3,
                            float(entry.get("self_s", 0.0)) * 1e3,
                            float(entry.get("solver_s", 0.0)) * 1e3))
    sites = block.get("sites")
    if isinstance(sites, dict) and sites:
        def _site_cost(item):
            entry = item[1]
            return -(float(entry.get("solver_s", 0.0) or 0.0))
        rows = sorted(((pc, entry) for pc, entry in sites.items()
                       if isinstance(entry, dict)), key=_site_cost)
        lines.append("hottest branch sites (solver blame):")
        lines.append("  %-10s %-14s %9s %7s %6s %6s"
                     % ("pc", "rule", "solver", "checks", "hits",
                        "forks"))
        for pc, entry in rows[:max(0, top)]:
            lines.append("  %-10s %-14s %8.2fms %7d %6d %6d"
                         % (pc, entry.get("rule", "?"),
                            float(entry.get("solver_s", 0.0)) * 1e3,
                            int(entry.get("solver_checks", 0) or 0),
                            int(entry.get("cache_hits", 0) or 0),
                            int(entry.get("forks", 0) or 0)))
    return "\n".join(lines)


def annotate_spec_costs(block, source_path: Optional[str] = None) -> str:
    """The ADL source with per-line *cost shares* in the margin — the
    heat-map twin of ``speccov``'s annotated coverage view.

    Lines of a rule that consumed cost carry its share of total
    attributed cost (eval + solver); zero-cost rules are flagged ``.``;
    structural lines stay blank.  ``source_path`` falls back to the
    path recorded in the snapshot, then to the built ISA model's.
    """
    if not isinstance(block, dict) or not isinstance(
            block.get("rules"), dict):
        raise ValueError("not an attribution block")
    path = source_path or block.get("source")
    if not path:
        from ..isa.model import build
        path = build(str(block.get("isa"))).source_path
    if not path:
        raise ValueError("no spec source path recorded for %r"
                         % block.get("isa"))
    with open(path) as handle:
        source_lines = handle.read().splitlines()
    shares: Dict[str, float] = {
        row["rule"]: row["share"] for row in _rule_rows(block)}
    spans: Dict[str, tuple] = {}
    for name, entry in block["rules"].items():
        lines = entry.get("lines") if isinstance(entry, dict) else None
        if isinstance(lines, (list, tuple)) and len(lines) == 2:
            spans[str(name)] = (int(lines[0]), int(lines[1]))
    # Fall back to the model's provenance table for rules whose spans
    # were not serialized (older snapshots).
    missing = [name for name in shares if name not in spans]
    if missing:
        try:
            from ..isa.model import build
            provenance = build(str(block.get("isa"))).rules
        except Exception:
            provenance = {}
        for name in missing:
            rule = provenance.get(name)
            if rule is not None:
                spans[name] = (rule.line_lo, rule.line_hi)
    margin: Dict[int, str] = {}
    for name, (lo, hi) in sorted(spans.items()):
        share = shares.get(name, 0.0)
        tag = "%6.2f%% " % (100.0 * share) if share > 0 else "      . "
        for line in range(lo, hi + 1):
            margin.setdefault(line, tag)
    out = ["# spec cost heat map: %s" % block.get("isa", "?"),
           "# margin: share of attributed cost (eval+solver) | "
           "'.' = executed rule with ~zero cost",
           ""]
    for number, text in enumerate(source_lines, 1):
        out.append("%s|%s" % (margin.get(number, " " * 8), text))
    return "\n".join(out)
