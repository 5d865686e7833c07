"""Translation validation: certificate-cached re-validation speedup.

The ``transval-*`` lint passes prove every compiled transfer function
equivalent to the reference IR; clean verdicts are cached as
certificates in the run store keyed on (spec digest, codegen version,
validator version).  This benchmark measures what the certificate
cache buys: the same all-ISA transval lint run, cold store vs warmed
store.

The speed guard is the ``lint.transval_cold_vs_cached`` registration:
``repro bench run --bench lint.transval_cold_vs_cached --check``
requires the cached re-validation to be **>= 5x** faster than the cold
proof run.  Run as a script (``python benchmarks/bench_transval.py``)
it prints the per-ISA table and writes the ``.telemetry.json`` sidecar.
"""

import os
import tempfile

from repro.bench import Sample, benchmark
from repro.lint import LintConfig, run_lint

from _util import print_table, write_telemetry_sidecar

ALL_TARGETS = ["rv32", "mips32", "armlite", "pred32", "vlx"]

#: Required cold/cached speedup of a certificate-hit re-validation.
GUARD_SPEEDUP = 5.0


def _transval_seconds():
    """One all-ISA transval lint sweep; returns (pass_seconds, rows).

    Only the transval pass wall time counts — front-end parse time is
    identical cold and cached and would dilute the ratio.
    """
    total = 0.0
    rows = []
    for target in ALL_TARGETS:
        report = run_lint(target, config=LintConfig(families=["transval"]))
        assert not report.errors(), "transval found real findings on %s" \
            % target
        seconds = sum(t.seconds for t in report.timings)
        cached = all(f.details.get("cached") for f in report.findings)
        rows.append((target, seconds, cached,
                     sum(t.solver_checks for t in report.timings)))
        total += seconds
    return total, rows


def cold_vs_cached():
    """(cold_seconds, cached_seconds, cold_rows, cached_rows) against a
    throwaway store so developer certificates never skew the run."""
    previous = os.environ.get("REPRO_STORE")
    with tempfile.TemporaryDirectory(prefix="repro-bench-transval-") \
            as store:
        os.environ["REPRO_STORE"] = store
        try:
            cold_total, cold_rows = _transval_seconds()
            cached_total, cached_rows = _transval_seconds()
        finally:
            if previous is None:
                os.environ.pop("REPRO_STORE", None)
            else:
                os.environ["REPRO_STORE"] = previous
    assert not any(cached for _t, _s, cached, _c in cold_rows)
    assert all(cached for _t, _s, cached, _c in cached_rows)
    return cold_total, cached_total, cold_rows, cached_rows


@benchmark("lint.transval_cold_vs_cached",
           title="translation validation: certificate-cached "
                 "re-validation speedup",
           suite="quick", isas=tuple(ALL_TARGETS), unit="x",
           direction="higher", expect_min=GUARD_SPEEDUP, reps=3,
           warmup=0,
           workload="repro lint --family transval over all 5 shipped "
                    "ISAs, cold store vs certificate hits")
def _observatory_sample():
    cold, cached, cold_rows, _cached_rows = cold_vs_cached()
    return Sample(cold / cached, wall_s=cold + cached,
                  extra={"cold_s": round(cold, 4),
                         "cached_s": round(cached, 4),
                         "solver_checks": sum(row[3]
                                              for row in cold_rows)})


def print_report():
    cold, cached, cold_rows, cached_rows = cold_vs_cached()
    print_table(
        "Translation validation: cold proofs vs certificate hits",
        ["isa", "cold", "solver checks", "cached", "speedup"],
        [[target, "%.3fs" % cold_s, checks, "%.3fs" % cached_s,
          "%.1fx" % (cold_s / cached_s if cached_s else float("inf"))]
         for (target, cold_s, _f, checks), (_t, cached_s, _c, _n)
         in zip(cold_rows, cached_rows)])
    speedup = cold / cached
    sidecar = write_telemetry_sidecar(
        __file__,
        [{"label": target, "cold_s": round(cold_s, 4),
          "cached_s": round(cached_s, 4)}
         for (target, cold_s, _f, _ck), (_t, cached_s, _c, _n)
         in zip(cold_rows, cached_rows)],
        guard_speedup=round(speedup, 3), guard_required=GUARD_SPEEDUP)
    print("\ncertificate-cached re-validation speedup: %.2fx (bar %.2fx)"
          % (speedup, GUARD_SPEEDUP))
    print("telemetry sidecar: %s" % sidecar)


if __name__ == "__main__":
    print_report()
