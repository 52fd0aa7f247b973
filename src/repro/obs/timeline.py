"""Metric timelines: counters, gauges, and histograms over sim time.

A :class:`TimelineRegistry` holds named instruments; a
:class:`TimelineSampler` rides the simulation's *step-observer* hook and
snapshots every instrument each time the event clock crosses a sampling
boundary.  Sampling therefore costs nothing when no sampler is attached
and — crucially — never schedules events, so an instrumented run executes
the exact same event schedule as a bare one (the determinism tests prove
the event-trace hashes are bit-identical).

Instruments:

* **gauge** — a zero-argument callable read at each sample point
  (cache occupancy, per-disk queue depth, per-node CPU busy flag);
* **counter** — a monotone accumulator bumped by passive observers
  (reads completed, prefetch actions); its cumulative value is sampled;
* **histogram** — fixed bucket bounds; observations update cumulative
  bucket counts and its total count is sampled as a series.

Samples are recorded at the *boundary* timestamp (``k * interval``) with
the value the instrument holds when the first event at-or-after that
boundary is popped — i.e. the state that held across the quiet gap.

Samples are stored as rows, not as pairs per series: one time column,
and per *group* one row per sample holding what the group's read
returned — a scalar for a one-name gauge, a list for a gauge group
(:meth:`TimelineRegistry.register_gauges`) and for the counters and
histograms together.  A :class:`Series` is a read-only view over its
group's column; it builds its ``(t, float(value))`` pairs when read.  At
200 nodes that is three lists per sample instead of 409 tuples for the
garbage collector to track.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "Series",
    "TimelineRegistry",
    "TimelineSampler",
]

#: Default histogram bucket upper bounds (ms), chosen around the paper's
#: 30 ms disk access time.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0, 100.0, 200.0, 500.0,
)


class Series:
    """One sampled timeline: ``(sim_time, value)`` pairs, in time order.

    A read-only view over its group's rows: sample ``i`` is
    ``rows[skip + i]``, at ``column`` unless each row is the value
    (``column`` None), taken at ``times[first + i]``.  A series starts
    at the next sample taken after it is made.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        times: List[float],
        rows: List[Any],
        column: Optional[int],
    ) -> None:
        self.name = name
        #: ``gauge`` | ``counter`` | ``histogram``.
        self.kind = kind
        self._times = times
        self._rows = rows
        self._column = column
        self._first = len(times)
        self._skip = len(rows)

    @property
    def samples(self) -> List[Tuple[float, float]]:
        """The ``(t, value)`` pairs, built on each read; never append."""
        times = self._times[self._first:]
        rows = self._rows[self._skip:]
        column = self._column
        if column is None:
            return [(t, float(value)) for t, value in zip(times, rows)]
        return [(t, float(row[column])) for t, row in zip(times, rows)]

    def last(self) -> Optional[float]:
        if not len(self):
            return None
        row = self._rows[-1]
        return float(row if self._column is None else row[self._column])

    def __len__(self) -> int:
        return len(self._times) - self._first


class Counter:
    """A monotone accumulator bumped by passive observers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name}: negative delta {delta}")
        self.value += delta


class Histogram:
    """Cumulative bucket counts over fixed upper bounds (plus overflow)."""

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> None:
        ordered = tuple(bounds)
        if list(ordered) != sorted(ordered) or len(set(ordered)) != len(
            ordered
        ):
            raise ValueError(
                f"histogram {name}: bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = ordered
        #: One count per bound, plus a final overflow bucket.
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0


class TimelineRegistry:
    """Named instruments plus the rows their samples accumulate into.

    Registration order is the export order, so reports are deterministic
    without any sorting of names.  A series registered after sampling
    began starts at the next sample.
    """

    def __init__(self) -> None:
        #: The sample times, one per :meth:`sample_all`.
        self._times: List[float] = []
        # Counters and histograms share one group; their row holds one
        # read per instrument, in registration order, so a column never
        # moves when a later instrument widens the rows.
        self._tally_reads: List[Callable[[], float]] = []
        self._tally_rows: List[List[float]] = []
        #: ``(read, rows)`` per group: ``rows`` gets one ``read()`` per
        #: sample, as returned.
        self._groups: List[Tuple[Callable[[], Any], List[Any]]] = [
            (lambda: [read() for read in self._tally_reads], self._tally_rows)
        ]
        self._gauges: List[Series] = []
        self._counters: List[Series] = []
        self._histograms: List[Tuple[Series, Histogram]] = []

    # -- registration ---------------------------------------------------------

    def register_gauge(self, name: str, read: Callable[[], float]) -> Series:
        """Sample ``read()`` at every boundary under ``name``."""
        series = Series(name, "gauge", self._times, self._group(read), None)
        self._gauges.append(series)
        return series

    def register_gauges(
        self, names: Sequence[str], read: Callable[[], Sequence[float]]
    ) -> List[Series]:
        """Sample ``read()``, one value per name, at every boundary."""
        rows = self._group(read)
        series = [
            Series(name, "gauge", self._times, rows, column)
            for column, name in enumerate(names)
        ]
        self._gauges.extend(series)
        return series

    def counter(self, name: str) -> Counter:
        """A new counter whose cumulative value is sampled as a series."""
        counter = Counter(name)
        self._counters.append(
            self._tally(name, "counter", lambda: counter.value)
        )
        return counter

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        """A new histogram; its total observation count is sampled."""
        histogram = Histogram(name, bounds)
        series = self._tally(name, "histogram", lambda: histogram.total)
        self._histograms.append((series, histogram))
        return histogram

    def _group(self, read: Callable[[], Any]) -> List[Any]:
        rows: List[Any] = []
        self._groups.append((read, rows))
        return rows

    def _tally(
        self, name: str, kind: str, read: Callable[[], float]
    ) -> Series:
        column = len(self._tally_reads)
        self._tally_reads.append(read)
        return Series(name, kind, self._times, self._tally_rows, column)

    # -- sampling -------------------------------------------------------------

    def sample_all(self, t: float) -> None:
        """Snapshot every instrument at boundary timestamp ``t``."""
        self._times.append(t)
        for read, rows in self._groups:
            rows.append(read())

    # -- queries --------------------------------------------------------------

    @property
    def times(self) -> List[float]:
        """The sample times, one per :meth:`sample_all`; never append."""
        return self._times

    @property
    def series(self) -> List[Series]:
        """Every series, in registration order (gauges, counters, hists)."""
        out = list(self._gauges)
        out.extend(self._counters)
        out.extend(series for series, _ in self._histograms)
        return out

    @property
    def histograms(self) -> List[Histogram]:
        return [histogram for _, histogram in self._histograms]

    def find(self, name: str) -> Optional[Series]:
        for series in self.series:
            if series.name == name:
                return series
        return None


class TimelineSampler:
    """A step observer that samples the registry on sim-time boundaries.

    Attached via ``Environment.add_step_observer``; the observer signature
    is ``(time, priority, sequence, event)``.  When the popped event's
    timestamp crosses one or more sampling boundaries, each crossed
    boundary gets one sample (so quiet stretches still produce a sample
    per interval, carrying the state that held throughout).  Purely
    passive: reads state, never schedules.
    """

    def __init__(
        self, registry: TimelineRegistry, interval: float = 50.0
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval {interval} must be positive")
        self.registry = registry
        self.interval = interval
        self._next = interval
        self.samples_taken = 0

    def __call__(
        self, time: float, priority: int, sequence: int, event: object
    ) -> None:
        while time >= self._next:
            self.registry.sample_all(self._next)
            self.samples_taken += 1
            self._next += self.interval

    def finalize(self, end_time: float) -> None:
        """Record one last sample at the run's end timestamp."""
        if end_time >= 0:
            self.registry.sample_all(end_time)
            self.samples_taken += 1
