"""Rule-level cost attribution: *which* spec rules pay for the run.

The phase profiler (:mod:`repro.obs.profile`) answers "how much time
goes to ``eval`` vs ``solver``"; this module answers the porter's next
question — *which ADL semantic rules and branch sites* that time is
spent on.  Every step is charged at two granularities:

* **rules** — every executed instruction is attributed to its semantic
  rule (the ``instruction`` block, via the
  :class:`~repro.adl.translate.RuleProvenance` table the translator
  threads into the :class:`~repro.isa.model.ArchModel`), accumulating
  evaluation wall time, solver check time, cache hits/misses, forks and
  term-pool allocations per rule;
* **branch sites** — solver time is blamed on the guest pc that issued
  the query, so one hot branch shows up as one hot address.

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
``repro hot`` CLI consume.  The renderers read only the rule and site
tables, so older blocks still render.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["CostAttribution", "ATTR_SCHEMA_VERSION", "hot_report",
           "hot_rules_lines", "annotate_spec_costs"]

#: Version of the ``attr`` snapshot block (independent of the event
#: schema version; bumped when the block's shape changes).  2: attr and
#: the phase profiler share one timer, so the block no longer carries a
#: section comparing their totals.  3: every step is charged alike, so
#: the block has no per-IR-kind tables and no sampling fields.
ATTR_SCHEMA_VERSION = 3

#: Pseudo-rule charged for solver work issued outside any instruction
#: (e.g. a feasibility probe before the first step).
ENGINE_BUCKET = "(engine)"


class _RuleCost:
    """Everything charged to one semantic rule."""

    __slots__ = ("steps", "eval_s", "solver_s", "solver_checks",
                 "cache_hits", "cache_misses", "forks", "term_allocs")

    def __init__(self):
        self.steps = 0
        self.eval_s = 0.0
        self.solver_s = 0.0
        self.solver_checks = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.forks = 0
        self.term_allocs = 0


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

    def __init__(self, model=None):
        self.isa = getattr(model, "name", "?")
        self._provenance = dict(getattr(model, "rules", None) or {})
        self._source = getattr(model, "source_path", None)
        self.rules: Dict[str, _RuleCost] = {}
        self.sites: Dict[int, _SiteCost] = {}
        self.steps = 0
        # Running totals (equal to the eval/solver phase totals).
        self.eval_calls = 0
        self.eval_s = 0.0
        self.solver_checks = 0
        self.solver_s = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.forks = 0
        # The current step's ledgers: its rule's and its pc's.
        self._rule_cost = self._rule_for(ENGINE_BUCKET)
        self._site_cost: Optional[_SiteCost] = None
        self._pool = None                 # bound lazily (term pool)
        self._pool_mark = 0

    # -- engine-side charging ------------------------------------------------

    def _rule_for(self, name: str) -> _RuleCost:
        cost = self.rules.get(name)
        if cost is None:
            cost = self.rules[name] = _RuleCost()
        return cost

    def begin_step(self, rule: str, pc: int) -> None:
        """Set the (rule, pc) context for one instruction."""
        self.steps += 1
        cost = self._rule_for(rule)
        cost.steps += 1
        self._rule_cost = cost
        site = self.sites.get(pc)
        if site is None:
            site = self.sites[pc] = _SiteCost(rule)
        site.steps += 1
        self._site_cost = site
        if self._pool is None:
            from ..smt import terms as T
            self._pool = T.get_pool()
        self._pool_mark = self._pool.misses

    def end_step(self, elapsed: float) -> None:
        """Charge one instruction's evaluation wall time (the ``eval``
        phase is charged the same reading) and its term allocations."""
        self.eval_calls += 1
        self.eval_s += elapsed
        cost = self._rule_cost
        cost.eval_s += elapsed
        cost.term_allocs += self._pool.misses - self._pool_mark

    def on_fork(self, count: int) -> None:
        self.forks += count
        self._rule_cost.forks += count
        site = self._site_cost
        if site is not None:
            site.forks += count

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
            rules[name] = entry
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
            "steps": self.steps,
            "eval_calls": self.eval_calls,
            "eval_s": self.eval_s,
            "solver_checks": self.solver_checks,
            "solver_s": self.solver_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "forks": self.forks,
            "rules": dict(sorted(rules.items())),
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
    header = ("== cost attribution: %s (%s steps) =="
              % (block.get("isa", "?"), block.get("steps", 0)))
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
