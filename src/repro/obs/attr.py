"""Rule-level cost attribution: *which* spec rules pay for the run.

The phase profiler (:mod:`repro.obs.profile`) answers "how much time
goes to ``eval`` vs ``solver``"; this module answers the porter's next
question — *which ADL semantic rules and branch sites* that time is
spent on.  Every step is charged at two granularities:

* **rules** — every executed instruction is attributed to its semantic
  rule (the ``instruction`` block, via the
  :class:`~repro.adl.translate.RuleProvenance` table the translator
  threads into the :class:`~repro.isa.model.ArchModel`), accumulating
  evaluation wall time, solver check time, cache answers and misses,
  forks and term-construction requests per rule;
* **branch sites** — solver time is blamed on the guest pc that issued
  the query, so one hot branch shows up as one hot address.

**Counter deltas.**  The solver has no attribution hook, and the
engine only brackets steps.  Apart from eval time, every charge is the
change in counts the run keeps anyway —
:class:`~repro.smt.solver.SolverStats`, the exploration's fork count and
the term pool's requests — since the last mark, taken at each step's
start and at :meth:`CostAttribution.snapshot`.  It is charged to the
(rule, pc) of the step that was running; work before the first step
lands in :data:`ENGINE_BUCKET`.

**One timer** (pinned by ``tests/obs/test_attr.py``): eval charges are
the clock readings the profiler's ``eval`` scope gets
(``Engine._timed_exec``), and solver charges come from
``SolverStats.solve_time``, the sum of the readings its ``solver``
scope gets (``Solver.check``).  So with the profiler enabled the
block's ``eval_calls``/``eval_s`` and ``solver_checks``/``solver_s``
*equal* those phases' ``calls``/``total_s``.

The :meth:`CostAttribution.snapshot` dict is the wire format: it rides
in ``result.telemetry["attr"]`` (sidecar ``run_summary`` blocks since
schema 5, and a stored run's ``result.json``), and is what the offline
renderers (:func:`hot_report`, :func:`annotate_spec_costs`,
:mod:`repro.obs.flame`) and the ``repro hot`` CLI consume.  The
renderers read only the rule and site tables, so older blocks still
render.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..smt import terms as T
from ..smt.solver import SolverStats, cache_answers, solved_queries

__all__ = ["CostAttribution", "ATTR_SCHEMA_VERSION", "hot_report",
           "hot_rules_lines", "annotate_spec_costs"]

#: Version of the ``attr`` snapshot block (independent of the event
#: schema version; bumped when the block's shape changes).  2: attr and
#: the phase profiler share one timer, so the block no longer carries a
#: section comparing their totals.  3: every step is charged alike, so
#: the block has no per-IR-kind tables and no sampling fields.  4: rules
#: count ``term_requests`` (constructions requested, which a fresh
#: process reproduces) instead of ``term_allocs`` (pool misses).
ATTR_SCHEMA_VERSION = 4

#: Pseudo-rule charged for solver work issued outside any instruction
#: (e.g. a feasibility probe before the first step).
ENGINE_BUCKET = "(engine)"

#: The counts charged by delta, in :meth:`CostAttribution._counts`
#: order; a site ledger carries the ones it has a key for.
_COUNTED = ("solver_s", "solver_checks", "cache_hits", "cache_misses",
            "forks", "term_requests")


class CostAttribution:
    """The live accumulator the engine charges into.

    :class:`~repro.core.executor.Engine` names the exploration whose
    forks count (:meth:`begin_run`), opens each step
    (:meth:`begin_step`) and charges its eval time (:meth:`end_step`).
    Like the profiler it accumulates over the engine's lifetime; one
    ``explore()`` per engine (the common case) makes the snapshot
    per-exploration.
    """

    def __init__(self, model=None, solver_stats=None):
        self.isa = getattr(model, "name", "?")
        self._provenance = dict(getattr(model, "rules", None) or {})
        self._source = getattr(model, "source_path", None)
        self.rules: Dict[str, Dict[str, object]] = {}
        self.sites: Dict[int, Dict[str, object]] = {}
        self.steps = 0
        self.eval_calls = 0
        self.eval_s = 0.0
        # The current step's ledgers: its rule's and its pc's.
        self._rule_cost = self._rule_for(ENGINE_BUCKET)
        self._site_cost: Optional[Dict[str, object]] = None
        self._stats = (solver_stats if solver_stats is not None
                       else SolverStats())
        self._solve_base = self._stats.solve_time
        self._result = None
        self._pool = T.get_pool()
        self._mark = self._counts()

    # -- charging ------------------------------------------------------------

    def _rule_for(self, name: str) -> Dict[str, object]:
        cost = self.rules.get(name)
        if cost is None:
            cost = self.rules[name] = {
                "steps": 0, "eval_s": 0.0, "solver_s": 0.0,
                "solver_checks": 0, "cache_hits": 0, "cache_misses": 0,
                "forks": 0, "term_requests": 0}
        return cost

    def _counts(self) -> tuple:
        """The :data:`_COUNTED` counts as the counters read now."""
        stats = self._stats.__dict__
        pool = self._pool
        result = self._result
        return (stats["solve_time"], solved_queries(stats),
                cache_answers(stats), stats["cache_misses"],
                result.states_forked if result is not None else 0,
                pool.hits + pool.misses)

    def _charge(self) -> None:
        """Charge the counts since the last mark to the current step's
        rule and site, and mark."""
        now = self._counts()
        mark = self._mark
        if now == mark:
            return
        self._mark = now
        rule, site = self._rule_cost, self._site_cost
        for key, new, old in zip(_COUNTED, now, mark):
            if new != old:
                rule[key] += new - old
                if site is not None and key in site:
                    site[key] += new - old

    def begin_run(self, result) -> None:
        """Count forks in ``result`` (one exploration's) from now on."""
        self._charge()
        self._result = result
        self._pool = T.get_pool()
        self._mark = self._counts()

    def begin_step(self, rule: str, pc: int) -> None:
        """Charge the previous step; set the (rule, pc) context for
        one instruction."""
        self._charge()
        self.steps += 1
        cost = self._rule_cost = self._rule_for(rule)
        cost["steps"] += 1
        site = self.sites.get(pc)
        if site is None:
            site = self.sites[pc] = {
                "rule": rule, "steps": 0, "solver_s": 0.0,
                "solver_checks": 0, "cache_hits": 0, "forks": 0}
        site["steps"] += 1
        self._site_cost = site

    def end_step(self, elapsed: float) -> None:
        """Charge one instruction's evaluation wall time (the ``eval``
        phase is charged the same reading)."""
        self.eval_calls += 1
        self.eval_s += elapsed
        self._rule_cost["eval_s"] += elapsed

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The JSON-able ``attr`` block (see module docstring); charges
        the counts since the last mark first."""
        self._charge()
        rules: Dict[str, Dict[str, object]] = {}
        for name, cost in self.rules.items():
            if not (cost["steps"] or cost["solver_checks"]
                    or cost["cache_hits"]):
                continue
            entry = dict(cost)
            rule = self._provenance.get(name)
            if rule is not None:
                entry["mnemonic"] = rule.mnemonic
                entry["lines"] = [rule.line_lo, rule.line_hi]
            rules[name] = entry
        ledgers = self.rules.values()
        return {
            "version": ATTR_SCHEMA_VERSION,
            "isa": self.isa,
            "source": self._source,
            "steps": self.steps,
            "eval_calls": self.eval_calls,
            "eval_s": self.eval_s,
            "solver_checks": sum(c["solver_checks"] for c in ledgers),
            # Read, not summed, so it stays equal to the solver phase.
            "solver_s": self._mark[0] - self._solve_base,
            "cache_hits": sum(c["cache_hits"] for c in ledgers),
            "cache_misses": sum(c["cache_misses"] for c in ledgers),
            "forks": sum(c["forks"] for c in ledgers),
            "rules": dict(sorted(rules.items())),
            "sites": {"%#x" % pc: dict(site)
                      for pc, site in sorted(self.sites.items())
                      if site["solver_checks"] or site["forks"]
                      or site["cache_hits"]},
        }

    def __repr__(self):
        return ("<CostAttribution %s steps=%d rules=%d>"
                % (self.isa, self.steps, len(self.rules)))


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
