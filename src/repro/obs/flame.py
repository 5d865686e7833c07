"""Flamegraph + Chrome-trace rendering of ``attr`` snapshot blocks.

Both renderers are pure functions over the JSON-able snapshot produced
by :meth:`repro.obs.attr.CostAttribution.snapshot`, so they work
offline from a telemetry sidecar's ``run_summary`` block or a
run-store ``attr.json`` artifact — the ``repro hot --flame/--trace``
round trip.

* :func:`collapsed_stacks` emits Brendan-Gregg collapsed-stack lines
  (``frame;frame;frame weight``) with ``isa;rule`` and
  ``isa;rule;solver`` frames and integer microsecond weights — feed
  the output straight to ``flamegraph.pl`` or any collapsed-stack
  viewer (speedscope, etc.).
* :func:`chrome_trace` emits a Chrome ``trace_event`` JSON object
  (synthetic sequential complete events) for ``chrome://tracing`` /
  Perfetto.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["collapsed_stacks", "render_collapsed", "chrome_trace"]


def _us(seconds) -> int:
    try:
        return int(round(float(seconds) * 1e6))
    except (TypeError, ValueError):
        return 0


def collapsed_stacks(block) -> List[Dict[str, object]]:
    """Collapsed-stack rows (``{"stack": [...], "us": N}``) for one
    attribution snapshot; zero-weight rows are dropped.

    Per rule: eval time becomes ``isa;rule`` and solver time
    ``isa;rule;solver``, so the flamegraph total equals the attributed
    eval+solver total.
    """
    if not isinstance(block, dict) or not isinstance(
            block.get("rules"), dict):
        return []
    isa = str(block.get("isa", "?"))
    rows: List[Dict[str, object]] = []

    def add(stack, us):
        if us > 0:
            rows.append({"stack": stack, "us": us})

    for name, entry in sorted(block["rules"].items()):
        if not isinstance(entry, dict):
            continue
        rule = str(name)
        add([isa, rule, "solver"], _us(entry.get("solver_s")))
        add([isa, rule], _us(entry.get("eval_s")))
    return rows


def render_collapsed(block) -> str:
    """Brendan-Gregg collapsed-stack text (one ``a;b;c N`` per line)."""
    return "\n".join("%s %d" % (";".join(row["stack"]), row["us"])
                     for row in collapsed_stacks(block))


def chrome_trace(block) -> Dict[str, object]:
    """Chrome ``trace_event`` JSON (synthetic sequential timeline).

    Wall-clock layout is reconstructed, not replayed: each rule gets a
    contiguous span sized by its attributed cost, with its solver time
    nested inside — the *shares* are faithful, the ordering is
    synthetic.
    """
    events: List[Dict[str, object]] = []
    cursor = 0
    meta = {"isa": "?"}
    if isinstance(block, dict):
        meta = {"isa": block.get("isa", "?"),
                "steps": block.get("steps", 0)}
    rows = collapsed_stacks(block)
    by_rule: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        by_rule.setdefault(row["stack"][1], []).append(row)
    for rule in sorted(by_rule):
        children = by_rule[rule]
        total = sum(row["us"] for row in children)
        events.append({"name": rule, "cat": "rule", "ph": "X",
                       "ts": cursor, "dur": total, "pid": 1, "tid": 1,
                       "args": {"isa": meta.get("isa")}})
        child_cursor = cursor
        for row in children:
            frames = row["stack"][2:]
            if frames:
                events.append({"name": ";".join(frames), "cat": "solver",
                               "ph": "X", "ts": child_cursor,
                               "dur": row["us"], "pid": 1, "tid": 1})
            child_cursor += row["us"]
        cursor += total
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": meta}
