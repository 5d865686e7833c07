"""End-to-end translation validation: every shipped ISA verifies clean.

The acceptance bar for the ``transval-symbolic`` pass: the compiled
plan of every rule of every shipped spec, run by the plan driver the
engine and the concrete simulator run, is statically proved
equivalent to the reference IR — no
counterexamples, and no silently skipped rules (an unsupported rule
would surface as an explicit non-proved verdict and fail here).
"""

import pytest

from repro.isa import build
from repro.verify import PROVED, TIERS, verify_model

ALL_TARGETS = ["rv32", "mips32", "armlite", "pred32", "vlx"]
#: The validator's one mode: compiled plans (``transval-symbolic``).
MODES = ["symbolic"]


@pytest.mark.parametrize("target", ALL_TARGETS)
@pytest.mark.parametrize("mode", MODES)
def test_every_rule_proved(target, mode):
    model = build(target)
    results = verify_model(model)
    # One explicit verdict per rule — the "no silent skips" guarantee.
    assert [r.rule for r in results] \
        == [i.name for i in model.instructions]
    not_proved = [(r.rule, r.status, r.detail) for r in results
                  if r.status != PROVED]
    assert not_proved == []
    # Every proved rule explored at least one path on each side.
    assert all(r.ref_paths >= 1 and r.cand_paths >= 1 for r in results)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_tier_statistics_populated(target):
    model = build(target)
    results = verify_model(model)
    totals = {key: 0 for key in TIERS}
    for result in results:
        assert set(result.tiers) == set(TIERS)
        for key, count in result.tiers.items():
            assert count >= 0
            totals[key] += count
    # The cheap tiers must carry the bulk: hash-consed identity
    # discharges obligations without any solver involvement.
    assert totals["identity"] > 0
    assert totals["identity"] > totals["solver"]


def test_branching_rules_enumerate_both_sides():
    model = build("rv32")
    results = {r.rule: r for r in verify_model(model)}
    beq = results["beq"]
    assert beq.status == PROVED
    assert beq.ref_paths == 2 and beq.cand_paths == 2


def test_result_serialization_round_trips():
    model = build("vlx")
    for result in verify_model(model):
        record = result.to_dict()
        assert record["rule"] == result.rule
        assert record["status"] == "proved"
        assert set(record["tiers"]) == set(TIERS)
