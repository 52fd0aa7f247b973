"""Tests for the policy interface and the policy factory registry."""

from types import SimpleNamespace

import pytest

from repro.experiments import ExperimentConfig
from repro.prefetch import (
    NullPolicy,
    build_policy,
    policy_choices,
    register_policy_builder,
)


def test_null_policy_never_proposes():
    policy = NullPolicy()
    assert policy.peek(0) is None
    assert policy.exhausted(0)
    with pytest.raises(RuntimeError):
        policy.commit(0, 0, 0)
    with pytest.raises(RuntimeError):
        policy.mark_covered(0, 0, 0)
    with pytest.raises(RuntimeError):
        policy.abort(0, 0, 0)


def test_registry_contains_builtins():
    names = policy_choices()
    for expected in ("null", "oracle", "obl", "portion", "global-seq"):
        assert expected in names


def test_make_policy_unknown_rejected():
    # ExperimentConfig rejects the name itself; the factory reads only
    # ``config.policy`` before rejecting it.
    with pytest.raises(ValueError, match="unknown policy"):
        build_policy(SimpleNamespace(policy="clairvoyant"))


def test_make_policy_builds_null():
    assert isinstance(build_policy(ExperimentConfig(policy="null")), NullPolicy)


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_policy_builder("null")(lambda config, pattern, tracker: None)
    assert "null" in policy_choices()


def test_observe_default_noop():
    NullPolicy().observe(0, 5)  # must not raise
