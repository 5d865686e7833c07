"""Command-line interface: ``python -m repro <command> ...``.

Subcommands::

    isas                        list built-in ISA models
    asm   <isa> <file.s>        assemble; print a hex dump and symbols
    dis   <isa> <file.s>        assemble, then disassemble (round-trip view)
    run   <isa> <file.s>        run concretely on the simulator
    trace <isa> <file.s>        run concretely with a full execution trace
    explore <isa> <file.s>      symbolic execution; report paths + defects
    record <isa> <file.s>       explore into the run store (the one way in)
    replay <run-id>             re-execute a stored run; verify bit-for-bit
    runs                        list, show or garbage-collect stored runs
    cfg   <isa> <file.s>        recover and print the control-flow graph
    stats <run.jsonl>           pretty-print a saved telemetry run
    hot <run.jsonl|run-id>      cost-attribution views: hottest ADL
                                rules / branch sites, spec heat maps
                                (``--annotate``), flamegraphs
                                (``--flame``), Chrome traces
                                (``--trace``); needs ``explore
                                --attr`` or a ``record``-ed run
    tree  <run.jsonl>           reconstruct the execution tree of a run
                                (``--format ascii|dot|json``, ``--out``)
    speccov <run.jsonl>         ADL spec coverage of a run — which
                                semantic rules ran (``--min-ratio`` CI
                                gate, ``--annotate`` spec margin view)
    metrics <run.jsonl>         metrics of a saved run
    diffstats <A> <B>           diff two runs' metrics/health series
                                with ``bench compare``'s rule; flags
                                moves past ``--threshold`` in the bad
                                direction (exit 3 when any are found;
                                ``--json`` for ``bench compare``'s
                                payload)
    bench list|run|compare|history
                                the performance observatory: registered
                                benchmark suites with declarative
                                gates, BENCH_<n>.json reports, the
                                run-store perf-history ledger and the
                                median+MAD statistical regression gate
                                (exit 3 on regression; see
                                docs/OBSERVABILITY.md)
    lint <spec|--all>           static verification of ADL specs:
                                structural + SMT proof passes with
                                witness words (``--format
                                text|json|sarif``, ``--baseline``,
                                ``--list-passes``; exit 3 on new
                                errors; see docs/LINT.md)

Common options: ``--input TEXT`` (program input; ``\\xNN`` escapes),
``--base ADDR``, ``--max-steps N``.  ``explore`` and ``record`` share
the search options ``--strategy``, ``--seed``, ``--merge``,
``--taint``, ``--uninit``, ``--region START:SIZE`` and
``--no-solver-cache``.  ``explore`` adds ``--max-seconds`` (wall-clock
deadline, honest ``deadline`` stop reason) and the observability flags
``--telemetry-out FILE.jsonl`` (structured event trace; see
docs/OBSERVABILITY.md), ``--profile`` (per-phase time breakdown),
``--attr`` (rule-level cost attribution) and ``--health`` (periodic
sampler + observe-only watchdog, with ``--health-every`` /
``--frontier-budget``).  ``record`` always stores a cost-attribution
profile with the run, and its event stream is a telemetry sidecar.

The telemetry readers (``stats``, ``tree``, ``speccov``, ``metrics``,
``diffstats``) share one loader: a missing, empty or
unparseable run file is a one-line error on stderr and exit code 1
(never a traceback); a truncated trailing line — the usual artifact of
a killed run — is skipped with a warning and the remaining events are
used.  A reader piped into a consumer that closes early (``repro stats
run.jsonl | head -1``) exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .core import (Engine, EngineConfig, measure, solver_cache_summary,
                   trace_run)
from .isa import assemble, build, format_instruction, run_image
from .isa.cfg import recover_cfg
from .obs import (ExecutionTree, HealthConfig, JsonlSink, Obs,
                  SpecCoverage, TelemetryError, extract_metrics,
                  health_summary_line, load_run)
from .obs.attr import annotate_spec_costs, hot_report, hot_rules_lines
from .obs.flame import chrome_trace, render_collapsed
from .runstore import (RunStore, RunStoreError, cached_explore,
                       replay_run, spec_digest)

__all__ = ["main"]


def _parse_input(text: str) -> bytes:
    return text.encode("utf-8").decode("unicode_escape").encode("latin-1")


def _load(args):
    model = build(args.isa)
    with open(args.source) as handle:
        image = assemble(model, handle.read(), base=args.base)
    return model, image


def _add_common(parser):
    parser.add_argument("isa", help="built-in ISA name (see 'isas')")
    parser.add_argument("source", help="assembly source file")
    parser.add_argument("--base", type=lambda s: int(s, 0), default=0x1000,
                        help="load address (default 0x1000)")
    parser.add_argument("--input", default="",
                        help=r"program input bytes (supports \xNN escapes)")
    parser.add_argument("--max-steps", type=int, default=100000)


def _add_search(parser):
    """The search options ``explore`` and ``record`` share; each one
    shapes the exploration, so each is run-store key material."""
    parser.add_argument("--strategy", default="dfs",
                        choices=["dfs", "bfs", "random", "coverage"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--merge", action="store_true",
                        help="enable state merging (use with bfs)")
    parser.add_argument("--taint", action="store_true",
                        help="report input-dependent jump targets")
    parser.add_argument("--uninit", action="store_true",
                        help="track uninitialized reads in --region areas")
    parser.add_argument("--region", action="append",
                        metavar="START:SIZE",
                        help="map extra memory (repeatable)")
    parser.add_argument("--no-solver-cache", action="store_true",
                        help="disable the solver query cache and the "
                             "engine's incremental check reuse "
                             "(ablation baseline)")


def cmd_isas(_args) -> int:
    from .adl import builtin_spec_names
    for name in builtin_spec_names():
        model = build(name)
        print("%-8s %2d-bit %-7s %3d instructions, lengths %s"
              % (name, model.wordsize, model.endian,
                 len(model.instructions),
                 "/".join(str(n) for n in model.instruction_lengths)))
    return 0


def cmd_asm(args) -> int:
    model, image = _load(args)
    print("; %s, %d bytes at %#x, entry %#x"
          % (model.name, len(image.data), image.base, image.entry))
    data = bytes(image.data)
    for offset in range(0, len(data), 16):
        chunk = data[offset:offset + 16]
        print("%08x  %s" % (image.base + offset,
                            " ".join("%02x" % b for b in chunk)))
    if image.symbols:
        print("; symbols:")
        for name, value in sorted(image.symbols.items(),
                                  key=lambda item: item[1]):
            print(";   %-20s %#x" % (name, value))
    return 0


def cmd_dis(args) -> int:
    model, image = _load(args)
    address = image.base
    end = image.base + len(image.data)
    data = bytes(image.data)
    while address < end:
        window = data[address - image.base:
                      address - image.base + model.decoder.max_length]
        try:
            decoded = model.decoder.decode_bytes(window, address)
        except Exception:
            print("%08x  %02x                (data)"
                  % (address, data[address - image.base]))
            address += 1
            continue
        raw = " ".join("%02x" % b for b in window[:decoded.length])
        print("%08x  %-12s  %s" % (address, raw,
                                   format_instruction(model, decoded)))
        address += decoded.length
    return 0


def cmd_run(args) -> int:
    model, image = _load(args)
    sim = run_image(model, image, input_bytes=_parse_input(args.input),
                    max_steps=args.max_steps,
                    compiled=getattr(args, "compiled", False))
    if sim.output:
        sys.stdout.write("output: %r\n" % bytes(sim.output))
    if sim.trapped:
        print("TRAP %d after %d instructions" % (sim.trap_code,
                                                 sim.instruction_count))
        return 2
    if sim.halted:
        print("halted with code %d after %d instructions"
              % (sim.exit_code, sim.instruction_count))
        return sim.exit_code if sim.exit_code else 0
    print("step budget exhausted at pc=%#x" % sim.state.pc)
    return 1


def cmd_trace(args) -> int:
    model, image = _load(args)
    tracer = trace_run(model, image, input_bytes=_parse_input(args.input),
                       max_steps=args.max_steps)
    print(tracer.format())
    sim = tracer.simulator
    status = ("TRAP %d" % sim.trap_code if sim.trapped
              else "halt %s" % sim.exit_code if sim.halted
              else "budget exhausted")
    print("; %s after %d instructions" % (status, len(tracer.entries)))
    return 0


def _parse_regions(args):
    """``--region START:SIZE`` strings -> (start, size, track_uninit)."""
    rows = []
    for region in args.region or ():
        start_text, _, size_text = region.partition(":")
        rows.append((int(start_text, 0), int(size_text, 0),
                     bool(args.uninit)))
    return rows


def _config(args, obs, attr, **extra) -> EngineConfig:
    """The ``EngineConfig`` that ``explore`` and ``record`` build from
    the options :func:`_add_search` defines."""
    return EngineConfig(
        max_steps_per_path=args.max_steps,
        check_uninit=args.uninit,
        check_tainted_control=args.taint,
        merge_states=args.merge,
        collect_coverage=True,
        use_solver_cache=not args.no_solver_cache,
        obs=obs,
        attr=attr,
        **extra)


def cmd_explore(args) -> int:
    model, image = _load(args)
    # Observability: counters always; profiler with --profile (and with
    # --telemetry-out, so the saved run carries a per-phase breakdown);
    # JSONL event sink with --telemetry-out.
    want_profile = args.profile
    telemetry_out = args.telemetry_out
    obs = Obs(metrics=True, profile=want_profile or bool(telemetry_out))
    sink = None
    if telemetry_out:
        sink = JsonlSink(telemetry_out,
                         env={"argv": sys.argv[1:],
                              "spec_digests": {model.name:
                                               spec_digest(model)}})
        obs.add_sink(sink)
    # Health monitor: sampler + watchdog (--health); a tightened
    # budget implies it.
    want_health = args.health or args.frontier_budget is not None
    health = None
    if want_health:
        health = HealthConfig(sample_every_steps=args.health_every,
                              frontier_budget=args.frontier_budget)
    config = _config(args, obs, args.attr,
                     max_wall_seconds=args.max_seconds, health=health)
    engine = Engine(model, config=config, strategy=args.strategy,
                    seed=args.seed)
    engine.load_image(image)
    for start, size, track in _parse_regions(args):
        engine.add_region(start, size, track_uninit=track)
    result = engine.explore()
    print(result.summary())
    cache_line = result.solver_cache_line()
    if cache_line is not None:
        print(cache_line)
    health_line = result.health_line()
    if health_line is not None:
        print(health_line)
    for defect in result.defects:
        print("defect: %-24s pc=%#x instr=%-8s input=%r"
              % (defect.kind, defect.pc, defect.instruction,
                 defect.input_bytes))
    # Unified coverage: address-level (this program) + rule-level (the
    # ADL spec), the latter via image-based attribution so no event sink
    # is required.
    report = measure(model, image, result.visited_pcs, spec_coverage=True)
    print(report.summary())
    if want_health and engine.health is not None:
        print(engine.health.report())
    if want_profile:
        print(obs.profiler.report())
    attr_block = (result.telemetry or {}).get("attr")
    if attr_block:
        print(hot_report(attr_block, top=5))
    if sink is not None:
        sink.write_meta(result.run_summary(model.name))
        obs.close()
        print("telemetry: %d events -> %s"
              % (obs.tracer.emitted, telemetry_out))
    return 2 if result.defects else 0


def cmd_record(args) -> int:
    """Explore and persist into the content-addressed run store.

    Deliberately excludes ``--max-seconds``: a recorded run must stop
    for deterministic reasons or replay verification is meaningless.
    ``--health`` is left out too: a store hit runs no exploration to
    sample.
    Exit codes mirror ``explore``: 2 when defects were found, else 0.
    A stored run that cannot be read, or whose result no longer
    matches its manifest's fingerprints, exits 1.
    """
    model, image = _load(args)
    store = RunStore(args.store)
    # Recorded runs always carry a cost-attribution profile:
    # attribution is observe-only, so it never changes the run id or
    # the outcome.
    config = _config(args, Obs(metrics=True, profile=True), True)
    try:
        result, stored, hit = cached_explore(
            store, model, image, config, args.strategy, args.seed,
            _parse_regions(args), argv=sys.argv[1:], force=args.force)
    except RunStoreError as error:
        sys.stderr.write("error: %s\n" % error)
        return 1
    print(result.summary())
    for defect in result.defects:
        print("defect: %-24s pc=%#x instr=%-8s input=%r"
              % (defect.kind, defect.pc, defect.instruction,
                 defect.input_bytes))
    if hit:
        print("store: hit %s (cached result, zero new solver checks)"
              % stored.run_id)
    else:
        print("store: recorded %s -> %s" % (stored.run_id, stored.path))
    return 2 if result.defects else 0


def cmd_replay(args) -> int:
    """Re-execute a stored run; verify fingerprints bit-for-bit.

    Exit 0 verified, 3 diverged (the report names the field), 1 the
    run is missing/unreadable.
    """
    store = RunStore(args.store)
    try:
        report = replay_run(store, args.run_id, diff=args.diff)
    except RunStoreError as error:
        sys.stderr.write("error: %s\n" % error)
        return 1
    print(report.summary())
    return report.exit_code


def _format_age(created: float) -> str:
    import time as _time
    age = max(0.0, _time.time() - created)
    if age < 3600:
        return "%dm" % (age // 60)
    if age < 86400:
        return "%.1fh" % (age / 3600)
    return "%.1fd" % (age / 86400)


def cmd_runs(args) -> int:
    """List, inspect (``--show``) or garbage-collect (``--gc``) the
    run store.

    A run whose manifest cannot be read is one ``error:`` line on
    stderr: ``--show`` exits 1, and the listing prints every other run
    and then exits 1.
    """
    store = RunStore(args.store)
    if args.show:
        try:
            run = store.get(args.show)
            if run is None:
                raise RunStoreError("run %r is not in the store"
                                    % args.show)
            manifest = run.manifest
        except RunStoreError as error:
            sys.stderr.write("error: %s\n" % error)
            return 1
        print("run %s  (%s)" % (run.run_id, run.path))
        print("  isa:      %s" % manifest.get("isa"))
        print("  summary:  %s" % manifest.get("summary"))
        for field, digest in sorted(
                (manifest.get("key_digests") or {}).items()):
            print("  %-9s %s" % (field + ":", digest))
        for field, digest in sorted(run.fingerprints.items()):
            print("  fp.%-6s %s" % (field + ":", digest))
        env = run.environment
        for field in ("python", "implementation", "platform", "machine",
                      "package_version", "git_sha"):
            if field in env:
                print("  %-9s %s" % (field + ":", env[field]))
        if env.get("argv"):
            print("  argv:     %s" % " ".join(env["argv"]))
        return 0
    if args.gc:
        deleted = store.gc(keep=args.keep,
                           older_than_days=args.older_than)
        print("gc: deleted %d run%s%s"
              % (len(deleted), "s" if len(deleted) != 1 else "",
                 (" (" + ", ".join(run_id[:12] for run_id in deleted)
                  + ")") if deleted else ""))
        return 0
    runs = store.list_runs()
    if not runs:
        print("store %s is empty (record with 'repro record')"
              % store.root)
        return 0
    print("%-32s %-8s %6s %6s %6s  %s"
          % ("run", "isa", "age", "paths", "defect", "strategy"))
    unreadable = 0
    for run in runs:
        try:
            manifest = run.manifest
        except RunStoreError as error:
            sys.stderr.write("error: %s\n" % error)
            unreadable += 1
            continue
        counts = manifest.get("counts") or {}
        key = manifest.get("key") or {}
        print("%-32s %-8s %6s %6s %6s  %s"
              % (run.run_id, manifest.get("isa", "?"),
                 _format_age(run.created), counts.get("paths", "?"),
                 counts.get("defects", "?"),
                 (key.get("strategy", "?"))))
    return 1 if unreadable else 0


def _open_run(path):
    """Load a telemetry run for the reader subcommands.

    Never lets a :class:`TelemetryError` escape as a traceback: a
    missing/empty/corrupt file is a one-line stderr message and the
    caller returns exit code 1.  Reader warnings (skipped truncated
    lines) go to stderr so stdout stays machine-consumable.
    """
    try:
        run = load_run(path)
    except TelemetryError as error:
        sys.stderr.write("error: %s\n" % error)
        return None
    for warning in run.warnings:
        sys.stderr.write("warning: %s\n" % warning)
    return run


def _print_phases(phases) -> None:
    if not phases:
        return
    print("\nper-phase:")
    print("  %-18s %10s %12s %12s" % ("phase", "calls", "total", "self"))
    print("  " + "-" * 55)
    ordered = sorted(phases.items(),
                     key=lambda kv: kv[1].get("total_s", 0.0),
                     reverse=True)
    for name, stats in ordered:
        print("  %-18s %10d %11.4fs %11.4fs"
              % (name, stats.get("calls", 0),
                 stats.get("total_s", 0.0), stats.get("self_s", 0.0)))


def _print_counters(counters) -> None:
    if not counters:
        return
    print("\ncounters:")
    for name in sorted(counters):
        print("  %-24s %10d" % (name, counters[name]))


def cmd_stats(args) -> int:
    """Pretty-print a saved ``--telemetry-out`` JSONL run."""
    run = _open_run(args.run)
    if run is None:
        return 1
    events, meta = run.events, run.meta
    by_kind = {}
    for event in events:
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
    print("run: %s (%d events, %d meta records)"
          % (args.run, len(events), len(meta)))
    if events:
        span = events[-1].ts - events[0].ts
        isas = sorted({event.isa for event in events})
        print("isa: %s   span: %.3fs" % (", ".join(isas), span))
    print("\nper-event-kind:")
    print("  %-14s %8s" % ("kind", "count"))
    print("  " + "-" * 23)
    for kind in sorted(by_kind, key=by_kind.get, reverse=True):
        print("  %-14s %8d" % (kind, by_kind[kind]))
    for record in meta:
        kind = record.get("record")
        if kind == "run_summary":
            telemetry = record.get("telemetry", {})
            print("\nrun summary: paths=%s defects=%s instructions=%s "
                  "time=%.3fs stop=%s"
                  % (record.get("paths"), record.get("defects"),
                     record.get("instructions"),
                     record.get("wall_time", 0.0),
                     record.get("stop_reason")))
            _print_phases(telemetry.get("phases", {}))
            _print_counters(telemetry.get("metrics", {}).get("counters",
                                                             {}))
            # Hottest rules (schema-v5 attr block; absent on pre-v5
            # sidecars and runs without --attr — silently skipped).
            hot_lines = hot_rules_lines(telemetry.get("attr"), top=5)
            if hot_lines:
                print("\nhottest rules (by cost share; full view: "
                      "'repro hot %s'):" % args.run)
                for line in hot_lines:
                    print(line)
            cache_line = solver_cache_summary(telemetry.get("solver"))
            if cache_line is not None:
                print("\n" + cache_line)
            health_line = health_summary_line(telemetry.get("health"))
            if health_line is not None:
                print(health_line)
        elif kind == "lint_summary":
            telemetry = record.get("telemetry", {})
            counts = record.get("counts", {})
            print("\nlint summary: %s spec(s): %s error, %s warn, %s "
                  "info  (%.3fs, %s solver checks)"
                  % (len(record.get("specs", [])),
                     counts.get("error", 0), counts.get("warn", 0),
                     counts.get("info", 0),
                     record.get("wall_time", 0.0),
                     record.get("solver_checks", 0)))
            _print_phases(telemetry.get("phases", {}))
            _print_counters(telemetry.get("metrics", {}).get("counters",
                                                             {}))
    return 0


def _attr_block_from_sidecar(path):
    """The ``attr`` block of a telemetry sidecar's run_summary, or None
    (pre-v5 sidecar, run without --attr, unreadable file...)."""
    run = _open_run(path)
    if run is None:
        return None, True         # _open_run already printed the error
    return run.attr_block(), False


def cmd_hot(args) -> int:
    """Cost-attribution views of a run: hottest rules / branch sites,
    flamegraphs, Chrome traces, spec heat maps.

    ``target`` is a telemetry sidecar path (JSONL, written by
    ``explore --attr --telemetry-out``) or a run-store run id
    (``repro record``).  Degenerate inputs — missing file, pre-v5
    sidecar, a run without attribution — exit 1 with a one-line error,
    never a traceback.
    """
    import json as _json
    block = None
    if os.path.exists(args.target) or os.path.sep in args.target:
        block, failed = _attr_block_from_sidecar(args.target)
        if failed:
            return 1
        if block is None:
            sys.stderr.write(
                "error: %s has no cost-attribution block (re-run with "
                "'repro explore --attr --telemetry-out ...')\n"
                % args.target)
            return 1
    else:
        try:
            run = RunStore(args.store).get(args.target)
            block = run.attr() if run is not None else None
        except RunStoreError as error:
            sys.stderr.write("error: %s\n" % error)
            return 1
        if run is None:
            sys.stderr.write(
                "error: %r is neither a telemetry file nor a stored "
                "run id (see 'repro runs')\n" % args.target)
            return 1
        if block is None:
            sys.stderr.write(
                "error: run %s has no cost-attribution profile (it "
                "was stored without attribution)\n" % run.run_id)
            return 1
    if args.flame:
        with open(args.flame, "w") as handle:
            handle.write(render_collapsed(block) + "\n")
        print("flamegraph: collapsed stacks -> %s" % args.flame)
    if args.trace:
        with open(args.trace, "w") as handle:
            _json.dump(chrome_trace(block), handle)
        print("trace: chrome trace_event JSON -> %s" % args.trace)
    if args.annotate:
        try:
            text = annotate_spec_costs(block)
        except (ValueError, OSError) as error:
            sys.stderr.write("error: %s\n" % error)
            return 1
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            print("heat map -> %s" % args.out)
        else:
            print(text)
        return 0
    if args.json:
        print(_json.dumps(block, indent=2, sort_keys=True))
        return 0
    print(hot_report(block, top=args.top, min_share=args.min_share))
    return 0


def cmd_tree(args) -> int:
    """Reconstruct the execution tree of a saved run (flight recorder)."""
    run = _open_run(args.run)
    if run is None:
        return 1
    tree = ExecutionTree.from_events(run.events)
    if not tree.nodes:
        sys.stderr.write("error: %s carries no step/fork events (was the "
                         "run traced with --telemetry-out?)\n" % args.run)
        return 1
    if args.format == "dot":
        text = tree.to_dot()
    elif args.format == "json":
        text = tree.to_json(indent=2)
    else:
        text = tree.to_ascii(max_nodes=args.max_nodes)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        stats = tree.stats()
        print("tree: %d nodes, %d edges, %d leaves -> %s"
              % (stats["nodes"], stats["edges"], stats["leaves"], args.out))
    else:
        print(text)
    return 0


def cmd_speccov(args) -> int:
    """ADL spec coverage of a saved run: which semantic rules ran."""
    run = _open_run(args.run)
    if run is None:
        return 1
    cov = SpecCoverage.from_events(run.events)
    if not cov.per_isa:
        sys.stderr.write("error: %s carries no step events (was the run "
                         "traced with --telemetry-out?)\n" % args.run)
        return 1
    if args.annotate:
        for isa in cov.isas():
            text = cov.per_isa[isa].annotate_spec()
            if args.out:
                path = (args.out if len(cov.per_isa) == 1
                        else "%s.%s" % (args.out, isa))
                with open(path, "w") as handle:
                    handle.write(text + "\n")
                print("annotated spec -> %s" % path)
            else:
                print(text)
    else:
        text = cov.report()
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            for isa in cov.isas():
                print(cov.per_isa[isa].summary())
            print("report -> %s" % args.out)
        else:
            print(text)
    if args.min_ratio is not None:
        failing = cov.gate(args.min_ratio)
        if failing:
            sys.stderr.write(
                "error: rule coverage below %.2f for: %s\n"
                % (args.min_ratio,
                   ", ".join("%s (%.0f%%)"
                             % (isa, 100 * cov.per_isa[isa].rule_ratio)
                             for isa in failing)))
            return 1
        print("gate: every ISA >= %.2f rule coverage" % args.min_ratio)
    return 0


def cmd_metrics(args) -> int:
    """Metrics of a saved run."""
    run = _open_run(args.run)
    if run is None:
        return 1
    summary = run.run_summary()
    telemetry = (summary or {}).get("telemetry") or {}
    metrics = telemetry.get("metrics") or {}
    sections = [metrics.get(key) or {} for key in
                ("counters", "gauges", "histograms")]
    if not any(sections):
        sys.stderr.write(
            "error: %s carries no metrics section (was the run recorded "
            "with --telemetry-out?)\n" % args.run)
        return 1
    counters, gauges, histograms = sections
    if counters:
        print("counters:")
        for name in sorted(counters):
            print("  %-28s %12d" % (name, counters[name]))
    if gauges:
        print("gauges:")
        for name in sorted(gauges):
            print("  %-28s %12g" % (name, gauges[name]))
    if histograms:
        print("histograms:")
        print("  %-20s %8s %10s %10s %10s %10s"
              % ("name", "count", "mean", "p50", "p90", "p99"))
        for name in sorted(histograms):
            stats = histograms[name] or {}
            print("  %-20s %8d %10.4g %10.4g %10.4g %10.4g"
                  % (name, stats.get("count", 0), stats.get("mean", 0.0),
                     stats.get("p50", 0.0), stats.get("p90", 0.0),
                     stats.get("p99", 0.0)))
    return 0


def cmd_diffstats(args) -> int:
    """Diff two runs' metrics through the ``repro bench compare`` rule
    (one sample per side); exit 3 when regressions are flagged."""
    from . import bench

    reports = []
    for path in (args.a, args.b):
        run = _open_run(path)
        if run is None:
            return 1
        report = extract_metrics(run)
        env = run.environment()
        report["env_digest"] = bench.env_digest(env) if env else None
        reports.append(report)
    comparison = bench.compare_reports(*reports, path_a=args.a,
                                       path_b=args.b,
                                       min_rel=args.threshold)
    if not comparison.rows:
        sys.stderr.write("error: no comparable metrics between %s and %s "
                         "(were both recorded with --telemetry-out?)\n"
                         % (args.a, args.b))
        return 1
    if args.json:
        import json
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(bench.render_comparison(comparison))
    return 3 if comparison.regressions else 0


def cmd_bench(args) -> int:
    """The performance observatory: ``repro bench list|run|compare|
    history`` (see docs/OBSERVABILITY.md).

    Exit codes, shared with ``diffstats``: 0 clean, 1 unusable input,
    3 a confirmed regression or a failed declarative expectation.
    """
    import json

    from . import bench

    def fail(message):
        sys.stderr.write("error: %s\n" % message)
        return 1

    if args.bench_command == "compare":
        # Pure report-vs-report statistics; no discovery needed.
        try:
            report_a = bench.load_report(args.a)
            report_b = bench.load_report(args.b)
        except bench.BenchError as exc:
            return fail(exc)
        comparison = bench.compare_reports(
            report_a, report_b, path_a=args.a, path_b=args.b,
            k=args.k, min_rel=args.min_rel)
        if args.json:
            print(json.dumps(comparison.to_dict(), indent=2,
                             sort_keys=True))
        else:
            print(bench.render_comparison(comparison))
        return 3 if comparison.regressions else 0

    if args.bench_command == "history":
        ledger = bench.PerfLedger(args.store)
        entries, warnings = ledger.entries(args.bench_id)
        for warning in warnings:
            sys.stderr.write("warning: %s\n" % warning)
        if not entries:
            return fail("no history for %r in %s"
                        % (args.bench_id, ledger.path))
        if args.limit:
            entries = entries[-args.limit:]
        values = [e.get("median") for e in entries
                  if isinstance(e.get("median"), (int, float))]
        shift = bench.changepoint(values)
        if args.json:
            payload = {"bench": args.bench_id, "ledger": ledger.path,
                       "entries": entries,
                       "changepoint": (shift.to_dict() if shift
                                       else None)}
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        import time as _time
        unit = entries[-1].get("unit", "")
        print("%s (%d entr%s, %s)" % (args.bench_id, len(entries),
                                      "y" if len(entries) == 1 else "ies",
                                      ledger.path))
        print("  %s" % bench.sparkline(values))
        print("  %-12s %-10s %-30s %12s %10s" %
              ("date", "git", "env", "median", "mad"))
        for entry in entries:
            unix = entry.get("unix") or 0
            day = _time.strftime("%Y-%m-%d", _time.localtime(unix))
            sha = str(entry.get("git_sha") or "-")[:10]
            print("  %-12s %-10s %-30s %12.6g %10.4g %s"
                  % (day, sha, str(entry.get("env_digest") or "-")[:30],
                     entry.get("median") or 0.0, entry.get("mad") or 0.0,
                     unit))
        if shift is not None:
            print("  changepoint: entry %d, %.6g -> %.6g (%+.1f%%)"
                  % (shift.index, shift.before, shift.after,
                     100 * shift.shift_ratio))
        return 0

    # ``list`` and ``run`` need the registry populated.
    try:
        directory, _modules = bench.discover(args.dir)
    except bench.BenchError as exc:
        return fail(exc)

    if args.bench_command == "list":
        benches = bench.suite_benchmarks(args.suite or "full")
        if args.json:
            print(json.dumps([b.metadata() for b in benches],
                             indent=2, sort_keys=True))
            return 0
        print("%d benchmark%s in %s" % (len(benches),
                                        "s" if len(benches) != 1 else "",
                                        directory))
        for b in benches:
            gates = []
            if b.expect_min is not None:
                gates.append(">= %g" % b.expect_min)
            if b.expect_max is not None:
                gates.append("<= %g" % b.expect_max)
            print("  %-34s %-5s %-9s %-6s %s"
                  % (b.id, b.suite, b.unit, b.direction,
                     "  ".join(gates)))
        return 0

    assert args.bench_command == "run"
    try:
        if args.bench:
            benches = [bench.get(bench_id) for bench_id in args.bench]
            suite = "custom"
        else:
            suite = args.suite
            benches = bench.suite_benchmarks(suite)
    except bench.BenchError as exc:
        return fail(exc)
    if not benches:
        return fail("nothing to run")
    progress = (None if args.quiet
                else lambda line: sys.stderr.write(line + "\n"))
    report = bench.run_benchmarks(benches, suite=suite, reps=args.reps,
                                  warmup=args.warmup, progress=progress)
    out = args.out or bench.default_report_path(args.dir)
    bench.write_report(report, out)
    appended = []
    if not args.no_ledger:
        ledger = bench.PerfLedger(args.store)
        appended = ledger.append_report(report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(bench.render_report(report))
        print("  report: %s" % out)
        if not args.no_ledger:
            print("  ledger: %s (%d entr%s appended)"
                  % (ledger.path, len(appended),
                     "y" if len(appended) == 1 else "ies"))
    failed = [exp for result in report["results"]
              for exp in result.get("expectations") or []
              if not exp.get("passed")]
    if args.check and failed:
        sys.stderr.write("FAIL: %d expectation%s not met\n"
                         % (len(failed),
                            "" if len(failed) == 1 else "s"))
        return 3
    return 0


def cmd_compile(args) -> int:
    """Dump the generated plan module for one ISA.

    What actually executes: the mixed int/term plans, which
    ``explore`` and ``run --compiled`` both run through the one plan
    driver, headed by the spec digest that keys the
    compilation cache.  Useful for eyeballing the specializer's output
    and as a CI artifact.
    """
    from .compile import compiled_for
    model = build(args.isa)
    compiled = compiled_for(model)
    text = "# %s @ %s\n\n%s" % (compiled.isa, compiled.digest,
                                compiled.symbolic_source(model))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print("wrote %s (%d rules, %d lines)"
              % (args.out, len(model.instructions),
                 text.count("\n") + 1))
    else:
        print(text)
    return 0


def cmd_lint(args) -> int:
    """Static verification of ADL specs (see docs/LINT.md).

    Exit codes: 0 clean (or everything baselined), 1 a spec could not be
    linted at all, 2 bad usage, 3 non-baselined ``error`` findings.
    """
    import time as _time

    from . import lint
    from .adl import builtin_spec_names

    if args.list_passes:
        for lint_pass in lint.all_passes():
            print("%-18s %-10s %-5s  %s"
                  % (lint_pass.id, lint_pass.family,
                     lint_pass.default_severity, lint_pass.title))
        return 0
    targets = list(args.specs)
    if args.all:
        targets = builtin_spec_names() + targets
    if not targets:
        sys.stderr.write("error: name a built-in spec, an .adl file, or "
                         "pass --all\n")
        return 2
    try:
        config = lint.LintConfig(enable=args.enable, disable=args.disable,
                                 families=args.family)
        config.selected_passes()  # fail fast on unknown pass ids
    except KeyError as error:
        sys.stderr.write("error: %s\n" % error.args[0])
        return 2
    obs = Obs(metrics=True, profile=True)
    started = _time.perf_counter()
    reports = []
    try:
        for target in targets:
            reports.append(lint.run_lint(target, config=config, obs=obs))
    except lint.LintError as error:
        sys.stderr.write("error: %s\n" % error)
        return 1
    wall_time = _time.perf_counter() - started
    if args.write_baseline:
        findings = [f for report in reports for f in report.findings]
        baseline = lint.write_baseline(args.write_baseline, findings)
        sys.stderr.write("wrote baseline %s (%d fingerprints)\n"
                         % (args.write_baseline, len(baseline)))
    suppressed = []
    if args.baseline:
        try:
            baseline = lint.load_baseline(args.baseline)
        except (OSError, ValueError) as error:
            sys.stderr.write("error: %s\n" % error)
            return 1
        for report in reports:
            kept, gone = baseline.split(report.findings)
            report.findings = kept
            suppressed.extend(gone)
    if args.format == "json":
        text = lint.render_json(reports, suppressed)
    elif args.format == "sarif":
        text = lint.render_sarif(reports, suppressed,
                                 tool_version=__version__)
    else:
        text = lint.render_text(reports, suppressed,
                                show_timings=args.timings)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.telemetry_out:
        sink = JsonlSink(args.telemetry_out)
        sink.write_meta({
            "record": "lint_summary",
            "specs": [report.spec_name for report in reports],
            "counts": _lint_totals(reports),
            "wall_time": round(wall_time, 6),
            "solver_checks": sum(t.solver_checks for report in reports
                                 for t in report.timings),
            "telemetry": obs.snapshot(),
        })
        sink.close()
    errors = sum(len(report.errors()) for report in reports)
    return 3 if errors else 0


def _lint_totals(reports):
    from .lint import SEVERITIES
    totals = {severity: 0 for severity in SEVERITIES}
    for report in reports:
        for severity, count in report.by_severity().items():
            totals[severity] = totals.get(severity, 0) + count
    return totals


def cmd_cfg(args) -> int:
    model, image = _load(args)
    cfg = recover_cfg(model, image)
    print("entry %#x, %d blocks, %d edges%s"
          % (cfg.entry, cfg.block_count, cfg.edge_count,
             ", has indirect jumps" if cfg.has_indirect else ""))
    for start, block in sorted(cfg.blocks.items()):
        targets = ", ".join(("%#x [%s]" % (t, k)) if t is not None else k
                            for t, k in block.successors)
        print("  %#x (%d instrs) -> %s"
              % (start, len(block.addresses), targets))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ADL-based retargetable symbolic execution toolchain")
    parser.add_argument("--version", action="version",
                        version="repro " + __version__)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("isas", help="list built-in ISAs")

    for name, help_text in (("asm", "assemble and hex-dump"),
                            ("dis", "assemble then disassemble"),
                            ("run", "run on the concrete simulator"),
                            ("trace", "run with a full execution trace"),
                            ("cfg", "recover the control-flow graph")):
        sub = commands.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "run":
            sub.add_argument("--compiled", action="store_true",
                             help="run the rules' compiled plans "
                                  "(repro.compile, the engine's own) "
                                  "instead of interpreting IR; "
                                  "bit-for-bit identical, just faster")

    explore = commands.add_parser(
        "explore", help="symbolic execution (paths + defects + coverage)")
    _add_common(explore)
    _add_search(explore)
    explore.add_argument("--telemetry-out", metavar="FILE.jsonl",
                         help="write a structured event trace (JSONL); "
                              "inspect with 'repro stats FILE.jsonl'")
    explore.add_argument("--profile", action="store_true",
                         help="print a per-phase time breakdown "
                              "(decode/eval/solver/memory/strategy)")
    explore.add_argument("--attr", action="store_true",
                         help="rule-level cost attribution: charge "
                              "eval/solver/cache/fork costs to ADL "
                              "rules and branch sites (prints the "
                              "hottest rules; with --telemetry-out, "
                              "inspect later via 'repro hot')")
    explore.add_argument("--max-seconds", type=float, default=None,
                         metavar="T",
                         help="wall-clock deadline; stops cleanly with "
                              "stop reason 'deadline'")
    explore.add_argument("--health", action="store_true",
                         help="health monitor: periodic sampler + "
                              "observe-only stall/pressure watchdog "
                              "(report at the end; with "
                              "--telemetry-out, 'health' and "
                              "'watchdog' events)")
    explore.add_argument("--health-every", type=int, default=256,
                         metavar="N",
                         help="sample every N engine steps "
                              "(default 256)")
    explore.add_argument("--frontier-budget", type=int, default=None,
                         metavar="N",
                         help="watchdog: diagnose frontier-pressure "
                              "when pending states exceed N "
                              "(implies --health)")

    record = commands.add_parser(
        "record",
        help="symbolic execution persisted into the content-addressed "
             "run store (replayable with 'repro replay')")
    _add_common(record)
    _add_search(record)
    record.add_argument("--store", metavar="DIR", default=None,
                        help="store root (default ~/.repro/store or "
                             "$REPRO_STORE)")
    record.add_argument("--force", action="store_true",
                        help="re-explore even when the store already "
                             "holds this run, and replace it")

    replay = commands.add_parser(
        "replay",
        help="re-execute a stored run and verify its tree/leaf/defect "
             "fingerprints bit-for-bit (exit 3 on divergence)")
    replay.add_argument("run_id", help="run id (or unique prefix) from "
                                       "'repro runs'")
    replay.add_argument("--store", metavar="DIR", default=None,
                        help="store root (default ~/.repro/store or "
                             "$REPRO_STORE)")
    replay.add_argument("--diff", action="store_true",
                        help="on divergence, locate the first "
                             "diverging structural event")

    runs = commands.add_parser(
        "runs", help="list, inspect or garbage-collect the run store")
    runs.add_argument("--store", metavar="DIR", default=None,
                      help="store root (default ~/.repro/store or "
                           "$REPRO_STORE)")
    runs.add_argument("--show", metavar="RUN_ID", default=None,
                      help="print one run's provenance (key digests, "
                           "fingerprints, environment)")
    runs.add_argument("--gc", action="store_true",
                      help="delete runs per --keep / --older-than and "
                           "sweep crashed recorders' temp dirs")
    runs.add_argument("--keep", type=int, default=None, metavar="N",
                      help="--gc: keep only the N newest runs")
    runs.add_argument("--older-than", type=float, default=None,
                      metavar="DAYS",
                      help="--gc: delete runs older than DAYS")

    stats = commands.add_parser(
        "stats", help="pretty-print a saved --telemetry-out run")
    stats.add_argument("run", help="telemetry JSONL file")

    hot = commands.add_parser(
        "hot",
        help="cost-attribution views of a run: hottest rules, spec "
             "heat maps, flamegraphs (needs explore --attr, or a run "
             "stored by record)")
    hot.add_argument("target",
                     help="telemetry JSONL file (explore --attr "
                          "--telemetry-out) or run-store run id "
                          "(repro record)")
    hot.add_argument("--store", metavar="DIR", default=None,
                     help="store root for run-id targets (default "
                          "~/.repro/store or $REPRO_STORE)")
    hot.add_argument("--top", type=int, default=10, metavar="N",
                     help="rows per table in the text report "
                          "(default 10)")
    hot.add_argument("--min-share", type=float, default=0.0,
                     metavar="R",
                     help="hide rules below this cost share "
                          "(0.05 = 5%%)")
    hot.add_argument("--json", action="store_true",
                     help="dump the raw attribution block as JSON")
    hot.add_argument("--flame", metavar="FILE",
                     help="write collapsed stacks (flamegraph.pl / "
                          "speedscope format) to FILE")
    hot.add_argument("--trace", metavar="FILE",
                     help="write Chrome trace_event JSON to FILE "
                          "(open in chrome://tracing or Perfetto)")
    hot.add_argument("--annotate", action="store_true",
                     help="print the ADL spec source with per-line "
                          "cost shares in the margin")
    hot.add_argument("--out", metavar="FILE",
                     help="--annotate: write the heat map to FILE")

    metrics = commands.add_parser(
        "metrics", help="metrics of a saved run")
    metrics.add_argument("run", help="telemetry JSONL file")

    diffstats = commands.add_parser(
        "diffstats", help="diff two runs' metrics; flag regressions "
                          "(exit 3 when any are found)")
    diffstats.add_argument("a", help="baseline telemetry JSONL file")
    diffstats.add_argument("b", help="candidate telemetry JSONL file")
    diffstats.add_argument("--threshold", type=float, default=0.20,
                           metavar="R",
                           help="noise band: a move must exceed this "
                                "relative change to be flagged "
                                "(default 0.20 = 20%%)")
    diffstats.add_argument("--json", action="store_true",
                           help="emit the comparison as JSON (the exact "
                                "payload the exit-code logic sees)")

    bench_cmd = commands.add_parser(
        "bench", help="performance observatory: run the benchmark "
                      "suite, compare reports statistically, browse "
                      "perf history (exit 3 on regression)")
    bench_sub = bench_cmd.add_subparsers(dest="bench_command",
                                         required=True)

    bench_list = bench_sub.add_parser(
        "list", help="list registered benchmarks and their gates")
    bench_list.add_argument("--suite", choices=["quick", "full"],
                            default="full",
                            help="restrict to one suite (default full)")
    bench_list.add_argument("--dir", metavar="DIR", default=None,
                            help="benchmarks directory (default: this "
                                 "checkout's benchmarks/)")
    bench_list.add_argument("--json", action="store_true",
                            help="emit benchmark metadata as JSON")

    bench_run = bench_sub.add_parser(
        "run", help="run a suite; write the BENCH report and append "
                    "the perf-history ledger")
    bench_run.add_argument("--suite", choices=["quick", "full"],
                           default="quick",
                           help="which suite to run (default quick)")
    bench_run.add_argument("--bench", action="append", default=[],
                           metavar="ID",
                           help="run only this benchmark (repeatable; "
                                "overrides --suite)")
    bench_run.add_argument("--reps", type=int, default=None, metavar="N",
                           help="override every benchmark's declared "
                                "repetition count")
    bench_run.add_argument("--warmup", type=int, default=None,
                           metavar="N",
                           help="override every benchmark's declared "
                                "warmup count")
    bench_run.add_argument("--out", metavar="FILE", default=None,
                           help="report path (default BENCH_9.json at "
                                "the repo root)")
    bench_run.add_argument("--dir", metavar="DIR", default=None,
                           help="benchmarks directory (default: this "
                                "checkout's benchmarks/)")
    bench_run.add_argument("--store", metavar="DIR", default=None,
                           help="run-store root for the perf-history "
                                "ledger (default $REPRO_STORE or "
                                "~/.repro/store)")
    bench_run.add_argument("--no-ledger", action="store_true",
                           help="do not append to the perf-history "
                                "ledger")
    bench_run.add_argument("--json", action="store_true",
                           help="print the report JSON on stdout "
                                "(progress goes to stderr)")
    bench_run.add_argument("--quiet", action="store_true",
                           help="suppress per-benchmark progress lines")
    bench_run.add_argument("--check", action="store_true",
                           help="exit 3 when a declarative expectation "
                                "(the migrated CI guards) fails")

    bench_compare = bench_sub.add_parser(
        "compare", help="statistical A/B gate over two reports "
                        "(exit 3 on regression)")
    bench_compare.add_argument("a", help="baseline BENCH report")
    bench_compare.add_argument("b", help="candidate BENCH report")
    bench_compare.add_argument("--k", type=float, default=3.0,
                               metavar="K",
                               help="MAD multiplier of the noise band "
                                    "(default 3.0)")
    bench_compare.add_argument("--min-rel", type=float, default=0.05,
                               metavar="R",
                               help="relative floor of the noise band "
                                    "(default 0.05)")
    bench_compare.add_argument("--json", action="store_true",
                               help="emit the comparison as JSON")

    bench_history = bench_sub.add_parser(
        "history", help="one benchmark's trajectory from the "
                        "perf-history ledger (sparkline + changepoint)")
    bench_history.add_argument("bench_id", help="benchmark id")
    bench_history.add_argument("--store", metavar="DIR", default=None,
                               help="run-store root (default "
                                    "$REPRO_STORE or ~/.repro/store)")
    bench_history.add_argument("--limit", type=int, default=0,
                               metavar="N",
                               help="show only the newest N entries")
    bench_history.add_argument("--json", action="store_true",
                               help="emit entries + changepoint as JSON")

    tree = commands.add_parser(
        "tree", help="reconstruct the execution tree of a saved run")
    tree.add_argument("run", help="telemetry JSONL file")
    tree.add_argument("--format", default="ascii",
                      choices=["ascii", "dot", "json"],
                      help="output format (default ascii)")
    tree.add_argument("--out", metavar="FILE",
                      help="write to FILE instead of stdout")
    tree.add_argument("--max-nodes", type=int, default=500,
                      help="ascii format: cap on rendered nodes")

    speccov = commands.add_parser(
        "speccov",
        help="ADL spec coverage of a saved run (which rules ran)")
    speccov.add_argument("run", help="telemetry JSONL file")
    speccov.add_argument("--min-ratio", type=float, default=None,
                         metavar="R",
                         help="exit 1 if any ISA's rule coverage < R "
                              "(CI gate for new specs)")
    speccov.add_argument("--annotate", action="store_true",
                         help="print the ADL spec source with per-line "
                              "hit counts in the margin")
    speccov.add_argument("--out", metavar="FILE",
                         help="write the report to FILE instead of stdout")

    lint = commands.add_parser(
        "lint",
        help="static verification of ADL specs (structural + SMT proof "
             "passes; exit 3 on new errors)")
    lint.add_argument("specs", nargs="*",
                      help="built-in spec names or .adl file paths")
    lint.add_argument("--all", action="store_true",
                      help="lint every built-in spec")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"],
                      help="output format (default text)")
    lint.add_argument("--out", metavar="FILE",
                      help="write the report to FILE instead of stdout")
    lint.add_argument("--baseline", metavar="FILE",
                      help="suppress findings whose fingerprints are in "
                           "this baseline file")
    lint.add_argument("--write-baseline", metavar="FILE",
                      help="record the current findings as the accepted "
                           "baseline")
    lint.add_argument("--enable", action="append", default=[],
                      metavar="PASS",
                      help="run only these passes (repeatable)")
    lint.add_argument("--disable", action="append", default=[],
                      metavar="PASS",
                      help="skip these passes (repeatable)")
    lint.add_argument("--family", action="append", default=[],
                      metavar="FAMILY",
                      help="run only these pass families (structural, "
                           "smt, transval; repeatable)")
    lint.add_argument("--list-passes", action="store_true",
                      help="list registered passes and exit")
    lint.add_argument("--timings", action="store_true",
                      help="text format: include per-pass wall/solver "
                           "time")
    lint.add_argument("--telemetry-out", metavar="FILE.jsonl",
                      help="write a lint summary readable by "
                           "'repro stats'")

    compile_cmd = commands.add_parser(
        "compile",
        help="dump the generated plan module for an ISA "
             "(what run --compiled and explore execute; CI artifact)")
    compile_cmd.add_argument("isa",
                             help="built-in ISA name (see 'isas')")
    compile_cmd.add_argument("--out", metavar="FILE",
                             help="write to FILE instead of stdout")

    args = parser.parse_args(argv)
    handler = {
        "isas": cmd_isas, "asm": cmd_asm, "dis": cmd_dis, "run": cmd_run,
        "trace": cmd_trace, "explore": cmd_explore, "cfg": cmd_cfg,
        "stats": cmd_stats, "hot": cmd_hot, "tree": cmd_tree,
        "speccov": cmd_speccov, "metrics": cmd_metrics,
        "diffstats": cmd_diffstats, "bench": cmd_bench,
        "lint": cmd_lint,
        "record": cmd_record, "replay": cmd_replay, "runs": cmd_runs,
        "compile": cmd_compile,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early.  Point stdout at devnull so
        # the flush at interpreter exit cannot raise again (the recipe
        # of the ``signal`` module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
