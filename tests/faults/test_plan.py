"""FaultPlan: validation, serialization round-trips, digests."""

import json

import pytest

from repro.faults import (
    FailSlow,
    FailStop,
    FaultPlan,
    FaultPlanError,
    HotSpot,
    ResiliencePolicy,
    TransientErrors,
)


def sample_plan():
    return FaultPlan(
        faults=(
            FailStop(disk=0, at=100.0, recover=400.0),
            FailSlow(disk=1, factor=3.0, start=50.0, end=250.0),
            TransientErrors(disk=2, probability=0.2),
            HotSpot(disk=3, alpha=0.5, start=0.0, end=1000.0),
        ),
        resilience=ResiliencePolicy(timeout=120.0),
        name="sample",
    )


def test_round_trip_preserves_plan_and_digest():
    plan = sample_plan()
    again = FaultPlan.from_dict(json.loads(plan.to_json()))
    assert again == plan
    assert again.digest == plan.digest


def test_save_load_round_trip(tmp_path):
    plan = sample_plan()
    path = tmp_path / "plan.json"
    plan.save(str(path))
    assert FaultPlan.load(str(path)) == plan


def test_digest_is_content_sensitive():
    plan = sample_plan()
    tweaked = FaultPlan(
        faults=plan.faults,
        resilience=ResiliencePolicy(timeout=121.0),
        name=plan.name,
    )
    assert tweaked.digest != plan.digest
    # Names are part of the content too (they land in provenance).
    renamed = FaultPlan(
        faults=plan.faults, resilience=plan.resilience, name="other"
    )
    assert renamed.digest != plan.digest


def test_plan_is_hashable_and_usable_in_config():
    plan = sample_plan()
    assert hash(plan) == hash(sample_plan())
    assert plan in {sample_plan()}


def test_for_disk_and_max_disk():
    plan = sample_plan()
    assert [s.kind for s in plan.for_disk(0)] == ["fail-stop"]
    assert plan.for_disk(7) == ()
    assert plan.max_disk == 3
    plan.validate_for(4)
    with pytest.raises(FaultPlanError):
        plan.validate_for(3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FailStop(disk=-1, at=0.0),
        lambda: FailStop(disk=0, at=100.0, recover=100.0),
        lambda: FailSlow(disk=0, factor=0.5),
        lambda: TransientErrors(disk=0, probability=0.0),
        lambda: TransientErrors(disk=0, probability=1.5),
        lambda: HotSpot(disk=0, alpha=0.0),
        lambda: HotSpot(disk=0, alpha=1.0, start=10.0, end=5.0),
    ],
)
def test_invalid_specs_rejected(build):
    with pytest.raises(FaultPlanError):
        build()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_retries": -1},
        {"timeout": -1.0},
        {"backoff_base": -1.0},
        {"backoff_factor": 0.5},
        {"backoff_jitter": 1.5},
        {"breaker_threshold": 0},
        {"breaker_cooldown": -1.0},
    ],
)
def test_invalid_resilience_rejected(kwargs):
    with pytest.raises(FaultPlanError):
        ResiliencePolicy(**kwargs)


def test_from_dict_rejects_malformed_documents():
    good = sample_plan().to_dict()
    for mutate in (
        lambda d: d.update(format="other"),
        lambda d: d.update(version=99),
        lambda d: d.update(surprise=1),
        lambda d: d["faults"][0].update(kind="unknown"),
        lambda d: d["faults"][0].update(surprise=1),
        lambda d: d["resilience"].update(surprise=1),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict(doc)


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d["faults"][1].update(disk=True), "disk"),
        (lambda d: d["faults"][1].update(disk=1.5), "disk"),
        (lambda d: d["faults"][0].update(at="5"), "at"),
        (lambda d: d["resilience"].update(timeout=True), "timeout"),
        (
            lambda d: d["resilience"].update(breaker_threshold=2.5),
            "breaker_threshold",
        ),
    ],
    ids=[
        "disk-bool", "disk-float", "at-str", "timeout-bool", "threshold-float"
    ],
)
def test_from_dict_names_a_mistyped_field(mutate, field):
    doc = sample_plan().to_dict()
    mutate(doc)
    with pytest.raises(FaultPlanError, match=rf"\b{field} must be "):
        FaultPlan.from_dict(doc)


def test_empty_plan_is_resilience_only():
    # No faults but a policy: enables timeouts/retries/breakers on a
    # healthy machine.  Valid, serializable, targets any machine.
    plan = FaultPlan(faults=(), resilience=ResiliencePolicy(timeout=90.0))
    plan.validate_for(1)
    assert plan.max_disk == -1
    assert FaultPlan.from_dict(json.loads(plan.to_json())) == plan
