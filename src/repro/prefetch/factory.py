"""Config-aware prefetch policy factory.

One registry maps every policy name to a builder taking the full
experiment context — ``(config, pattern, tracker)`` — so ``run``,
``trace replay``, and ``tournament`` all construct policies through the
same door and ``--policy adaptive`` works everywhere a policy flag
exists.

Only the oracle builder touches ``pattern``/``tracker`` — it is the one
policy that consults the reference string.  Every history-based builder
ignores both, which the no-reference-string test exploits by passing
``None``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

from .adaptive import AdaptiveConfig, AdaptivePolicy, FeedbackConfig
from .oracle import OraclePolicy
from .policy import NullPolicy, PrefetchPolicy
from .predictors import (
    GlobalPortionPolicy,
    GlobalSequentialPolicy,
    OBLPolicy,
    PortionPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import ExperimentConfig

__all__ = ["build_policy", "policy_choices", "register_policy_builder"]

#: name -> builder(config, pattern, tracker) -> policy.
PolicyBuilder = Callable[["ExperimentConfig", Any, Any], PrefetchPolicy]
_BUILDERS: Dict[str, PolicyBuilder] = {}


def register_policy_builder(
    name: str,
) -> Callable[[PolicyBuilder], PolicyBuilder]:
    """Decorator: register a config-aware policy builder under ``name``."""

    def decorator(builder: PolicyBuilder) -> PolicyBuilder:
        if name in _BUILDERS:
            raise ValueError(f"policy builder {name!r} already registered")
        _BUILDERS[name] = builder
        return builder

    return decorator


def policy_choices() -> Tuple[str, ...]:
    """Every selectable policy name, sorted (the CLI ``choices`` lists)."""
    return tuple(sorted(_BUILDERS))


def build_policy(
    config: "ExperimentConfig", pattern: Any = None, tracker: Any = None
) -> PrefetchPolicy:
    """Instantiate ``config.policy`` for this run.

    ``pattern``/``tracker`` are required only by the oracle; every
    history-based policy is built from the config's scalars alone.
    """
    try:
        builder = _BUILDERS[config.policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {config.policy!r}; known: {list(policy_choices())}"
        ) from None
    return builder(config, pattern, tracker)


@register_policy_builder("oracle")
def _build_oracle(
    config: "ExperimentConfig", pattern: Any, tracker: Any
) -> PrefetchPolicy:
    if pattern is None or tracker is None:
        raise ValueError(
            "the oracle policy needs the materialized pattern and "
            "progress tracker (it consults the reference string)"
        )
    return OraclePolicy(pattern, tracker, lead=config.lead)


@register_policy_builder("obl")
def _build_obl(
    config: "ExperimentConfig", pattern: Any, tracker: Any
) -> PrefetchPolicy:
    return OBLPolicy(config.file_blocks)


@register_policy_builder("portion")
def _build_portion(
    config: "ExperimentConfig", pattern: Any, tracker: Any
) -> PrefetchPolicy:
    return PortionPolicy(config.file_blocks)


@register_policy_builder("global-seq")
def _build_global_seq(
    config: "ExperimentConfig", pattern: Any, tracker: Any
) -> PrefetchPolicy:
    return GlobalSequentialPolicy(config.file_blocks)


@register_policy_builder("global-portion")
def _build_global_portion(
    config: "ExperimentConfig", pattern: Any, tracker: Any
) -> PrefetchPolicy:
    return GlobalPortionPolicy(config.file_blocks)


def _adaptive_for(
    config: "ExperimentConfig", fault_aware: bool
) -> PrefetchPolicy:
    return AdaptivePolicy(
        config.file_blocks,
        config.n_nodes,
        AdaptiveConfig(
            feedback=FeedbackConfig(
                initial_distance=config.adaptive_initial_distance,
                min_distance=config.adaptive_min_distance,
                max_distance=config.adaptive_max_distance,
            ),
            fault_aware=fault_aware,
        ),
    )


@register_policy_builder("adaptive")
def _build_adaptive(
    config: "ExperimentConfig", pattern: Any, tracker: Any
) -> PrefetchPolicy:
    return _adaptive_for(config, fault_aware=True)


@register_policy_builder("adaptive-nofault")
def _build_adaptive_nofault(
    config: "ExperimentConfig", pattern: Any, tracker: Any
) -> PrefetchPolicy:
    """The fault-oblivious adaptive policy, kept selectable so chaos
    tournaments can race fault awareness against its own baseline.  On
    healthy runs it is schedule-identical to ``adaptive``."""
    return _adaptive_for(config, fault_aware=False)


@register_policy_builder("null")
def _build_null(
    config: "ExperimentConfig", pattern: Any, tracker: Any
) -> PrefetchPolicy:
    return NullPolicy()
