"""Compilation follows use.

``compiled_for`` hands out an empty entry; each rule's code is
generated the first time it is looked up.  So constructing an engine
generates nothing, an exploration generates exactly the plans of the
rules it executes (and an attributed one runs the same plans), and a
cache entry never keeps a model alive.
"""

import gc
import weakref

import pytest

import repro.compile as compile_mod
from repro.compile import symbolic
from repro.core import Engine, EngineConfig
from repro.isa import build
from repro.obs import Obs
from repro.obs.sinks import RingBufferSink
from repro.programs import build_kernel

ALL_TARGETS = ["rv32", "mips32", "armlite", "pred32", "vlx"]


@pytest.fixture
def generations(monkeypatch):
    """The rule of every call of the code generator."""
    calls = []
    rule_plan = symbolic.rule_plan

    def counting_plan(isa, instr):
        calls.append(instr.name)
        return rule_plan(isa, instr)

    monkeypatch.setattr(symbolic, "rule_plan", counting_plan)
    compile_mod.clear_cache()
    yield calls
    compile_mod.clear_cache()


def _explore(target, attr=False):
    """Explore the exerciser; returns (engine, executed rule names)."""
    model, image = build_kernel("exerciser", target)
    ring = RingBufferSink(capacity=200000)
    obs = Obs(metrics=True)
    obs.add_sink(ring)
    engine = Engine(model, config=EngineConfig(obs=obs, attr=attr))
    engine.load_image(image)
    engine.explore()
    executed = {event.data["instr"] for event in ring.events()
                if event.kind == "step"}
    return engine, executed


def test_engine_construction_generates_no_code(generations):
    for target in ALL_TARGETS:
        compiled = Engine(build(target, fresh=True))._compiled
        assert compiled.plan.generated() == []
    assert generations == []


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_exploring_generates_only_executed_rules(generations, target):
    engine, executed = _explore(target)
    assert executed
    assert sorted(engine._compiled.plan.generated()) == sorted(executed)
    assert sorted(generations) == sorted(executed)
    # A second exploration, attributed, finds every plan already
    # generated: attribution runs the same plans.
    del generations[:]
    _explore(target, attr=True)
    assert generations == []


def test_cache_entry_holds_no_model():
    compile_mod.clear_cache()
    try:
        _cached_model, image = build_kernel("exerciser", "rv32")
        model = build("rv32", fresh=True)
        engine = Engine(model)
        engine.load_image(image)
        engine.explore()
        compiled = engine._compiled
        assert compiled.plan.generated()
        alive = weakref.ref(model)
        del model, engine
        gc.collect()
        assert alive() is None
        assert compile_mod.cache_info() == {"entries": 1}
    finally:
        compile_mod.clear_cache()

