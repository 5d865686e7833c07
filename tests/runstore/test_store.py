"""Run store: content addressing, atomic commit, dedup, gc.

Acceptance pins:
* an identical submission hits the store, increments ``store.hit`` and
  performs ZERO new solver checks (no engine is even constructed);
* the stored result round-trips paths/defects/coverage;
* the run id depends on every key component and nothing else.
"""

import json
import os

import pytest

from repro.core import EngineConfig
from repro.programs.kernels import build_kernel
from repro.runstore import (RunStore, RunStoreError, cached_explore,
                            image_from_payload, image_payload,
                            record_exploration, run_key, spec_digest)


@pytest.fixture(scope="module")
def kernel():
    return build_kernel("exerciser", "rv32")


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "store"))


def fresh_config():
    return EngineConfig(collect_coverage=True)


class TestRunKey:
    def test_run_id_is_stable(self, kernel, store):
        model, image = kernel
        spec = spec_digest(model)
        key_a = run_key(model.name, spec, image, fresh_config(), "dfs",
                        0, [(0x8000, 64, False)])
        key_b = run_key(model.name, spec, image, fresh_config(), "dfs",
                        0, [(0x8000, 64, False)])
        assert store.run_id_for(key_a) == store.run_id_for(key_b)

    @pytest.mark.parametrize("mutate", [
        lambda k: k.__setitem__("seed", 1),
        lambda k: k.__setitem__("strategy", "bfs"),
        lambda k: k["config"].__setitem__("max_fork_targets", 2),
        lambda k: k["program"].__setitem__("data", "00"),
        lambda k: k.__setitem__("regions", [[0x9000, 64, False]]),
        lambda k: k.__setitem__("spec", "sha256:other"),
    ])
    def test_every_component_changes_the_id(self, kernel, store, mutate):
        model, image = kernel
        key = run_key(model.name, spec_digest(model), image,
                      fresh_config(), "dfs", 0, [(0x8000, 64, False)])
        base_id = store.run_id_for(key)
        mutate(key)
        assert store.run_id_for(key) != base_id

    def test_image_payload_round_trips(self, kernel):
        _, image = kernel
        clone = image_from_payload(image_payload(image))
        assert clone.base == image.base
        assert clone.entry == image.entry
        assert bytes(clone.data) == bytes(image.data)


class TestRecordAndDedup:
    def test_miss_then_hit(self, kernel, store):
        model, image = kernel
        result, stored, hit = cached_explore(store, model, image,
                                             fresh_config())
        assert not hit and stored is not None
        config = fresh_config()
        cached, stored2, hit2 = cached_explore(store, model, image,
                                               config)
        assert hit2 and stored2.run_id == stored.run_id
        assert config.obs.metrics.counter("store.hit").value == 1
        # Zero new solver checks: the hit path never builds an engine,
        # so the returned stats are the recorded ones, verbatim.
        assert cached.solver_stats == result.solver_stats
        assert len(cached.paths) == len(result.paths)
        assert [d.kind for d in cached.defects] == \
            [d.kind for d in result.defects]
        assert cached.visited_pcs == result.visited_pcs

    def test_hit_emits_store_event(self, kernel, store):
        from repro.obs import Obs, RingBufferSink
        model, image = kernel
        cached_explore(store, model, image, fresh_config())
        ring = RingBufferSink()
        obs = Obs(metrics=True)
        obs.add_sink(ring)
        cached_explore(store, model, image,
                       EngineConfig(collect_coverage=True, obs=obs))
        events = ring.events("store")
        assert len(events) == 1
        assert events[0].data["hit"] is True
        assert events[0].data["run_id"]

    def test_force_reexplores(self, kernel, store):
        model, image = kernel
        cached_explore(store, model, image, fresh_config())
        config = fresh_config()
        _, _, hit = cached_explore(store, model, image, config,
                                   force=True)
        assert not hit
        assert config.obs.metrics.counter("store.miss").value == 1

    def test_commit_is_atomic(self, kernel, store):
        model, image = kernel
        _, stored = record_exploration(store, model, image,
                                       fresh_config())
        # No temp dirs left behind; every artifact in place.
        assert not [n for n in os.listdir(store.runs_dir)
                    if n.startswith(".tmp-")]
        for artifact in ("manifest.json", "events.jsonl.gz",
                         "result.json", "solver_cache.json.gz"):
            assert os.path.exists(os.path.join(stored.path, artifact))

    def test_manifest_provenance(self, kernel, store):
        model, image = kernel
        _, stored = record_exploration(store, model, image,
                                       fresh_config(),
                                       argv=["record", "rv32", "x.s"])
        manifest = stored.manifest
        assert manifest["run_id"] == stored.run_id
        assert set(manifest["fingerprints"]) == \
            {"tree", "leaves", "defects"}
        assert set(manifest["key_digests"]) == \
            {"spec", "program", "config", "strategy"}
        env = manifest["env"]
        assert env["argv"] == ["record", "rv32", "x.s"]
        assert env["python"] and env["platform"]
        assert env["spec_digests"][model.name].startswith("sha256:")

    def test_recorded_events_readable(self, kernel, store):
        model, image = kernel
        result, stored = record_exploration(store, model, image,
                                            fresh_config())
        events = stored.events()
        assert any(e.kind == "step" for e in events)
        assert sum(1 for e in events if e.kind == "path_end") == \
            len(result.paths)


class TestHealthActions:
    """Health is observe-only and not key material, so the store
    records a monitored run like any other."""

    def test_observe_only_health_allowed(self, kernel, store):
        from repro.obs.health import HealthConfig

        model, image = kernel
        config = fresh_config()
        config.health = HealthConfig()
        _result, stored = record_exploration(store, model, image, config)
        assert store.get(stored.run_id) is not None


class TestLookupAndGc:
    def test_prefix_lookup(self, kernel, store):
        model, image = kernel
        _, stored = record_exploration(store, model, image,
                                       fresh_config())
        assert store.get(stored.run_id[:8]).run_id == stored.run_id
        assert store.get("feedfacedeadbeef") is None

    def test_ambiguous_prefix_raises(self, kernel, store):
        model, image = kernel
        record_exploration(store, model, image, fresh_config())
        record_exploration(store, model, image, fresh_config(), seed=1)
        ids = [run.run_id for run in store.list_runs()]
        # The empty prefix (or any shared one) matches both runs.
        with pytest.raises(RunStoreError):
            store.get(os.path.commonprefix(ids))

    def test_gc_keep(self, kernel, store):
        model, image = kernel
        for seed in range(3):
            record_exploration(store, model, image, fresh_config(),
                               seed=seed)
        deleted = store.gc(keep=1)
        assert len(deleted) == 2
        assert len(store.list_runs()) == 1

    def test_gc_older_than(self, kernel, store):
        model, image = kernel
        _, stored = record_exploration(store, model, image,
                                       fresh_config())
        # Backdate the manifest: gc must collect it.
        path = os.path.join(stored.path, "manifest.json")
        manifest = json.load(open(path))
        manifest["created"] -= 40 * 86400
        json.dump(manifest, open(path, "w"))
        assert store.gc(older_than_days=30) == [stored.run_id]

    def test_gc_sweeps_crashed_tmp_dirs(self, kernel, store):
        model, image = kernel
        record_exploration(store, model, image, fresh_config())
        crashed = os.path.join(store.runs_dir, ".tmp-dead-123")
        os.makedirs(crashed)
        store.gc()
        assert not os.path.exists(crashed)


class TestWarmStart:
    def test_warm_start_loads_entries_and_stays_deterministic(
            self, kernel, store):
        model, image = kernel
        _, source = record_exploration(store, model, image,
                                       fresh_config())
        _, warmed = record_exploration(store, model, image,
                                       fresh_config(), seed=3,
                                       warm_start=source.run_id[:8])
        assert warmed.manifest["warm_start"] == source.run_id
        assert warmed.manifest["warm_loaded"] > 0

    def test_unknown_warm_start_raises(self, kernel, store):
        model, image = kernel
        with pytest.raises(RunStoreError):
            record_exploration(store, model, image, fresh_config(),
                               warm_start="nope")
