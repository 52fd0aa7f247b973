"""Declarative, replayable fault plans.

A :class:`FaultPlan` schedules per-disk faults over simulated time plus
the :class:`ResiliencePolicy` knobs the file server uses to survive them.
Plans are frozen (hashable — they live directly on
:class:`~repro.experiments.config.ExperimentConfig`), JSON-serializable
for replay, and identified by a stable content digest so a faulted run's
provenance can be recorded next to its seed.

Four fault kinds (see ``docs/faults.md`` for semantics):

* ``fail-stop`` — the disk dies at ``at`` and optionally recovers at
  ``recover`` (``null``/``None`` = never);
* ``fail-slow`` — service times are multiplied by ``factor`` over a
  window;
* ``transient`` — a request *completes* after its service time but
  returns an error with the given probability (drawn from the blessed
  per-disk ``RandomStreams`` stream);
* ``hot-spot`` — queue-depth-dependent slowdown: service time is
  multiplied by ``1 + alpha * queue_depth`` over a window.

Windows are ``[start, end)``; ``end = None`` means "until the run ends".
Every spec and policy field is type-checked against its annotation at
construction, so a mistyped JSON value fails with an error that names
the field.
All randomness a plan induces flows through named
:class:`~repro.sim.rng.RandomStreams` streams, so the same seed and the
same plan reproduce the same fault schedule bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Union

from ..typecheck import check_field_types
from .errors import FaultPlanError

__all__ = [
    "FailStop",
    "FailSlow",
    "TransientErrors",
    "HotSpot",
    "FaultSpec",
    "ResiliencePolicy",
    "FaultPlan",
    "PLAN_FORMAT",
    "PLAN_VERSION",
]

PLAN_FORMAT = "rapid-transit-faults"
PLAN_VERSION = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FaultPlanError(message)


def _check_window(start: float, end: Optional[float], kind: str) -> None:
    _require(start >= 0, f"{kind}: start {start} must be non-negative")
    _require(
        end is None or end > start,
        f"{kind}: end {end} must exceed start {start} (or be null)",
    )


@dataclass(frozen=True)
class FailStop:
    """The disk stops serving at ``at``; requests reaching the head of
    the queue while it is down wait out the outage (forever when
    ``recover`` is ``None`` — pair that with a request timeout)."""

    disk: int
    at: float
    recover: Optional[float] = None
    kind: ClassVar[str] = "fail-stop"

    def __post_init__(self) -> None:
        check_field_types(self)
        _require(self.disk >= 0, f"fail-stop: disk {self.disk} must be >= 0")
        _check_window(self.at, self.recover, "fail-stop")

    def window(self) -> Tuple[float, Optional[float]]:
        return (self.at, self.recover)


@dataclass(frozen=True)
class FailSlow:
    """Service times are multiplied by ``factor`` over ``[start, end)``."""

    disk: int
    factor: float
    start: float = 0.0
    end: Optional[float] = None
    kind: ClassVar[str] = "fail-slow"

    def __post_init__(self) -> None:
        check_field_types(self)
        _require(self.disk >= 0, f"fail-slow: disk {self.disk} must be >= 0")
        _require(
            self.factor >= 1.0,
            f"fail-slow: factor {self.factor} must be >= 1",
        )
        _check_window(self.start, self.end, "fail-slow")

    def window(self) -> Tuple[float, Optional[float]]:
        return (self.start, self.end)


@dataclass(frozen=True)
class TransientErrors:
    """Each request completing during ``[start, end)`` fails with
    ``probability`` (the transfer still consumed the disk's time)."""

    disk: int
    probability: float
    start: float = 0.0
    end: Optional[float] = None
    kind: ClassVar[str] = "transient"

    def __post_init__(self) -> None:
        check_field_types(self)
        _require(self.disk >= 0, f"transient: disk {self.disk} must be >= 0")
        _require(
            0.0 < self.probability <= 1.0,
            f"transient: probability {self.probability} must be in (0, 1]",
        )
        _check_window(self.start, self.end, "transient")

    def window(self) -> Tuple[float, Optional[float]]:
        return (self.start, self.end)


@dataclass(frozen=True)
class HotSpot:
    """Queue-depth-dependent slowdown: service time is multiplied by
    ``1 + alpha * queue_depth`` over ``[start, end)`` (a disk that is
    falling behind falls behind faster)."""

    disk: int
    alpha: float
    start: float = 0.0
    end: Optional[float] = None
    kind: ClassVar[str] = "hot-spot"

    def __post_init__(self) -> None:
        check_field_types(self)
        _require(self.disk >= 0, f"hot-spot: disk {self.disk} must be >= 0")
        _require(
            self.alpha > 0.0, f"hot-spot: alpha {self.alpha} must be > 0"
        )
        _check_window(self.start, self.end, "hot-spot")

    def window(self) -> Tuple[float, Optional[float]]:
        return (self.start, self.end)


FaultSpec = Union[FailStop, FailSlow, TransientErrors, HotSpot]

_SPEC_KINDS: Dict[str, type] = {
    FailStop.kind: FailStop,
    FailSlow.kind: FailSlow,
    TransientErrors.kind: TransientErrors,
    HotSpot.kind: HotSpot,
}


@dataclass(frozen=True)
class ResiliencePolicy:
    """Retry/timeout/backoff/circuit-breaker knobs of the file server."""

    #: Retries after the first attempt (total attempts = max_retries + 1).
    max_retries: int = 4
    #: Per-attempt timeout, ms.  0 disables timeouts: an attempt waits
    #: for its completion however long that takes.
    timeout: float = 0.0
    #: First backoff delay, ms.
    backoff_base: float = 5.0
    #: Exponential growth factor of successive backoffs.
    backoff_factor: float = 2.0
    #: Backoff ceiling, ms.
    backoff_max: float = 200.0
    #: Deterministic jitter: each delay is scaled by a draw from
    #: ``U(1-jitter, 1+jitter)`` on a named per-disk stream.
    backoff_jitter: float = 0.25
    #: Consecutive failures that trip a disk's circuit breaker.
    breaker_threshold: int = 3
    #: Breaker cooldown before a half-open probe is allowed, ms.
    breaker_cooldown: float = 500.0

    def __post_init__(self) -> None:
        check_field_types(self)
        _require(self.max_retries >= 0, "max_retries must be >= 0")
        _require(self.timeout >= 0, "timeout must be >= 0")
        _require(self.backoff_base > 0, "backoff_base must be > 0")
        _require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")
        _require(
            self.backoff_max >= self.backoff_base,
            "backoff_max must be >= backoff_base",
        )
        _require(
            0.0 <= self.backoff_jitter < 1.0,
            "backoff_jitter must be in [0, 1)",
        )
        _require(self.breaker_threshold >= 1, "breaker_threshold must be >= 1")
        _require(self.breaker_cooldown > 0, "breaker_cooldown must be > 0")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of disk faults plus the resilience policy."""

    faults: Tuple[FaultSpec, ...] = ()
    resilience: ResiliencePolicy = ResiliencePolicy()
    name: str = ""

    def __post_init__(self) -> None:
        _require(
            isinstance(self.faults, tuple),
            "faults must be a tuple of fault specs",
        )

    # -- queries -----------------------------------------------------------

    def for_disk(self, disk_id: int) -> Tuple[FaultSpec, ...]:
        """The specs targeting ``disk_id`` (declaration order)."""
        return tuple(s for s in self.faults if s.disk == disk_id)

    @property
    def max_disk(self) -> int:
        """Highest disk index any spec targets (-1 for an empty plan)."""
        return max((s.disk for s in self.faults), default=-1)

    def validate_for(self, n_disks: int) -> None:
        """Raise :class:`FaultPlanError` if a spec targets a disk the
        machine does not have."""
        if self.max_disk >= n_disks:
            raise FaultPlanError(
                f"plan targets disk {self.max_disk} but the machine has "
                f"only {n_disks} disks (0..{n_disks - 1})"
            )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        faults: List[Dict[str, Any]] = []
        for spec in self.faults:
            entry: Dict[str, Any] = {"kind": spec.kind}
            entry.update(dataclasses.asdict(spec))
            faults.append(entry)
        return {
            "format": PLAN_FORMAT,
            "version": PLAN_VERSION,
            "name": self.name,
            "resilience": dataclasses.asdict(self.resilience),
            "faults": faults,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"plan must be a JSON object, got {type(data).__name__}"
            )
        fmt = data.get("format")
        if fmt != PLAN_FORMAT:
            raise FaultPlanError(
                f"not a fault plan: format {fmt!r} != {PLAN_FORMAT!r}"
            )
        version = data.get("version")
        if version != PLAN_VERSION:
            raise FaultPlanError(
                f"unsupported fault-plan version {version!r} "
                f"(this build reads version {PLAN_VERSION})"
            )
        known = {"format", "version", "name", "resilience", "faults"}
        unknown = sorted(k for k in data if k not in known)
        if unknown:
            raise FaultPlanError(f"unknown plan fields: {unknown}")

        try:
            resilience = ResiliencePolicy(**data.get("resilience", {}))
        except TypeError as exc:
            raise FaultPlanError(f"bad resilience section: {exc}") from None

        specs: List[FaultSpec] = []
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, list):
            raise FaultPlanError("'faults' must be a list")
        for i, raw in enumerate(raw_faults):
            if not isinstance(raw, dict):
                raise FaultPlanError(f"fault #{i} must be an object")
            kind = raw.get("kind")
            spec_cls = _SPEC_KINDS.get(kind)
            if spec_cls is None:
                raise FaultPlanError(
                    f"fault #{i}: unknown kind {kind!r}; known: "
                    f"{sorted(_SPEC_KINDS)}"
                )
            fields = {k: v for k, v in raw.items() if k != "kind"}
            try:
                specs.append(spec_cls(**fields))
            except TypeError as exc:
                raise FaultPlanError(f"fault #{i} ({kind}): {exc}") from None
        return cls(
            faults=tuple(specs),
            resilience=resilience,
            name=str(data.get("name", "")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @property
    def digest(self) -> str:
        """Stable content digest (16 hex chars): same plan, same digest —
        recorded as provenance on runs, traces, and reports."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.blake2b(
            canonical.encode("utf-8"), digest_size=8
        ).hexdigest()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """The plan saved at ``path``; a :class:`FaultPlanError` names
        the file."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except json.JSONDecodeError as exc:
                raise FaultPlanError(f"{path}: not valid JSON: {exc}") from None
            except FaultPlanError as exc:
                raise FaultPlanError(f"{path}: {exc}") from None

    def describe(self) -> List[str]:
        """Human-readable one-liners, one per spec."""
        lines = []
        for spec in self.faults:
            if isinstance(spec, FailStop):
                until = (
                    f"recovers t={spec.recover}"
                    if spec.recover is not None
                    else "never recovers"
                )
                lines.append(
                    f"disk {spec.disk}: fail-stop at t={spec.at}, {until}"
                )
            elif isinstance(spec, FailSlow):
                lines.append(
                    f"disk {spec.disk}: fail-slow x{spec.factor} over "
                    f"[{spec.start}, {spec.end if spec.end is not None else 'end'})"
                )
            elif isinstance(spec, TransientErrors):
                lines.append(
                    f"disk {spec.disk}: transient errors p={spec.probability}"
                    f" over [{spec.start}, "
                    f"{spec.end if spec.end is not None else 'end'})"
                )
            else:
                lines.append(
                    f"disk {spec.disk}: hot-spot alpha={spec.alpha} over "
                    f"[{spec.start}, "
                    f"{spec.end if spec.end is not None else 'end'})"
                )
        return lines
