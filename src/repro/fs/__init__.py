"""The RAPID Transit interleaved file system.

* :mod:`~repro.fs.layout` / :mod:`~repro.fs.file` — Bridge-style
  interleaved files;
* :mod:`~repro.fs.buffer` — buffer states (the unready-hit machinery);
* :mod:`~repro.fs.replacement` — per-processor RU-set replacement;
* :mod:`~repro.fs.cache` — the shared block cache with demand and prefetch
  paths, metadata-lock contention, and the global prefetched-unused budget;
* :mod:`~repro.fs.fileserver` — the application-facing read/write paths;
* :mod:`~repro.fs.writeback` — the write mode and dirty-ratio thresholds
  of the write path (docs/writes.md);
* :mod:`~repro.fs.trace` — the trace format: recorded, synthesized and
  imported workloads, for replay and offline analysis.
"""

from .buffer import DATA_PRESENT, Buffer, BufferPool, BufferState
from .cache import BlockCache, CacheConfig, LookupOutcome
from .file import File
from .fileserver import FileServer
from .layout import FileLayout, HashedLayout, RoundRobinLayout, StripedLayout
from .replacement import GlobalLRUPolicy, ReplacementPolicy, RUSetPolicy
from .trace import TraceFormatError
from .writeback import WRITE_MODES, WritebackConfig

__all__ = [
    "File",
    "FileLayout",
    "RoundRobinLayout",
    "StripedLayout",
    "HashedLayout",
    "Buffer",
    "BufferPool",
    "BufferState",
    "DATA_PRESENT",
    "ReplacementPolicy",
    "RUSetPolicy",
    "GlobalLRUPolicy",
    "BlockCache",
    "CacheConfig",
    "LookupOutcome",
    "FileServer",
    "WRITE_MODES",
    "WritebackConfig",
    "TraceFormatError",
]
