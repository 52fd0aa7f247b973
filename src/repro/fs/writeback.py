"""Write-path configuration: the write mode and the dirty thresholds.

The 1989 testbed is read-only; the write path supplies the other half of
a credible file-system memory model (after Do et al.'s Linux page-cache
simulation, arXiv:2101.01335): dirty blocks, a background flusher, and
dirty-ratio throttling.  See docs/writes.md for the full model and its
Linux mapping.

The flusher is the prefetch daemon's own loop,
:class:`~repro.prefetch.daemon.IdleDaemon` with ``kind="writeback"``
(built by :func:`~repro.prefetch.daemon.writeback_daemon`): one per node,
it waits for the node's user process to go idle, then repeatedly
performs :meth:`~repro.fs.cache.BlockCache.flush_action` while the node
is idle, holding the CPU for each action's full duration, and sits out
the rest of an idle period on ``clean`` or ``suspended``.  Because both
daemons wake on the same gate and compete for the same capacity-1 CPU
and the same disks, prefetch-vs-writeback interference is *emergent* —
visible in the overrun (daemon-theft) attribution rather than asserted.

Thresholds follow Linux's two-level scheme:

* ``dirty_background_ratio`` — above this fraction of cache buffers the
  flusher starts cleaning opportunistically (idle time only);
* ``dirty_ratio`` — above this fraction the *foreground* writer must
  flush synchronously before its write returns (the throttle stall),
  which bounds dirty growth even when there is no idle time at all.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WRITE_MODES", "WritebackConfig"]


#: Recognized write modes: "write-back" (dirty blocks linger and are
#: cleaned by the flusher / throttle / eviction) vs "write-through"
#: (every write is flushed synchronously before it returns).
WRITE_MODES = ("write-back", "write-through")


@dataclass(frozen=True)
class WritebackConfig:
    """Write-path tunables (the Linux knobs, as ratios of cache size)."""

    #: "write-back" or "write-through".
    write_mode: str = "write-back"

    #: Foreground throttle threshold: a writer finding at least this
    #: fraction of all cache buffers dirty must flush synchronously
    #: (Linux ``vm.dirty_ratio``).
    dirty_ratio: float = 0.5

    #: Background flusher threshold: the daemon cleans only while the
    #: dirty fraction exceeds this (Linux ``vm.dirty_background_ratio``).
    dirty_background_ratio: float = 0.25

    def __post_init__(self) -> None:
        if self.write_mode not in WRITE_MODES:
            raise ValueError(
                f"unknown write mode {self.write_mode!r}; "
                f"pick from {WRITE_MODES}"
            )
        if not 0.0 < self.dirty_ratio <= 1.0:
            raise ValueError("dirty_ratio must be in (0, 1]")
        if not 0.0 <= self.dirty_background_ratio <= self.dirty_ratio:
            raise ValueError(
                "need 0 <= dirty_background_ratio <= dirty_ratio"
            )

    def dirty_limit_for(self, n_buffers: int) -> int:
        """Foreground-throttle threshold in blocks (at least 1)."""
        return max(1, int(n_buffers * self.dirty_ratio))

    def background_limit_for(self, n_buffers: int) -> int:
        """Background-flush threshold in blocks."""
        return int(n_buffers * self.dirty_background_ratio)
