#!/usr/bin/env python3
"""Health monitoring: provoke frontier pressure and watch it, without
changing the run.

A breadth-first exploration of a path-explosion maze doubles its
frontier at every branch — exactly the mid-flight failure mode the
health monitor exists to see.  Two runs of the same kernel:

1. **baseline** — no monitor, just the ground truth;
2. **observe-only** — a tight ``frontier_budget`` makes the watchdog
   diagnose ``frontier-pressure``, and the monitor only observes, so
   exploration is provably unchanged (same paths, same defects).

Run:  python examples/health_monitor.py
"""

from repro.core import Engine, EngineConfig
from repro.obs import HealthConfig, Obs
from repro.obs.health import FRONTIER_PRESSURE

ISA = "rv32"
DEPTH = 8            # 2^8 paths without merging: real pressure
BUDGET = 6           # pending states allowed before the watchdog speaks


def explore(health=None):
    from repro.programs import build_kernel
    model, image = build_kernel("maze", ISA, depth=DEPTH,
                                solution=0b10110010)
    engine = Engine(model, strategy="bfs",
                    config=EngineConfig(obs=Obs.default(), health=health,
                                        collect_coverage=True))
    engine.load_image(image)
    return engine, engine.explore()


def main():
    # -- 1. ground truth ---------------------------------------------
    _, baseline = explore()
    print("=== baseline (no monitor) ===")
    print(baseline.summary())
    print()

    # -- 2. observe-only: the watchdog speaks, nothing changes ---------
    observed_cfg = HealthConfig(sample_every_steps=64,
                                frontier_budget=BUDGET)
    engine, observed = explore(health=observed_cfg)
    print("=== observe-only (frontier_budget=%d) ===" % BUDGET)
    print(observed.summary())
    print(engine.health.report())
    print()

    pressure = [d for d in engine.health.diagnoses
                if d["diagnosis"] == FRONTIER_PRESSURE]
    assert pressure, "a depth-%d bfs maze must blow a budget of %d" % (
        DEPTH, BUDGET)
    # Observe-only means observe only: identical exploration.
    assert len(observed.paths) == len(baseline.paths)
    assert ({d.input_bytes for d in observed.defects}
            == {d.input_bytes for d in baseline.defects})
    print("observe-only: %d frontier-pressure diagnoses, exploration "
          "unchanged (%d paths)" % (len(pressure), len(observed.paths)))


if __name__ == "__main__":
    main()
