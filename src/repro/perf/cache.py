"""On-disk content-addressed cache of completed runs.

One JSON file per run, named by :func:`~repro.perf.digest.run_key` —
the hash of (config digest, fault-plan digest, code fingerprint).  The
code fingerprint makes staleness impossible by construction: touch any
source file and every old entry simply stops being addressed.

Hits return *slim* results (every measure intact, raw ``metrics``/
``trace``/``fault_events`` handles ``None``) — callers that need the raw
handles must run uncached, which is why audited runs never consult the
cache.  Writes go through a temp file + ``os.replace`` so a crashed run
never leaves a half-written entry.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Union

from ..experiments.config import ExperimentConfig
from ..experiments.runner import RunResult
from .digest import obs_digest, run_key
from .serialize import result_from_dict, result_to_dict

__all__ = ["RunCache", "default_cache_dir", "open_cache"]

#: Wire-format version; bumped on incompatible layout changes.
#: v2 added the ``obs`` section (attribution payload + digest).
_FORMAT = 2

#: Environment variable naming a cache directory to use by default.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Optional[Path]:
    """Cache directory from ``$REPRO_CACHE_DIR``, if set."""
    raw = os.environ.get(CACHE_DIR_ENV)
    return Path(raw) if raw else None


class RunCache:
    """Memo of completed :class:`RunResult`\\ s, with hit/miss counters."""

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"run-v{_FORMAT}-{key}.json"

    def get(self, config: ExperimentConfig) -> Optional[RunResult]:
        """The memoized slim result for ``config``, or ``None``.

        Entries whose ``obs`` section is missing or fails its digest
        check (truncated write, hand-edited file) read as misses — a
        corrupt observability payload must never masquerade as a run's
        true attribution.
        """
        path = self._path(run_key(config))
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            obs = data["obs"]
            result = result_from_dict(config, data["result"])
            stored = obs["digest"]
            if (
                stored != obs_digest(obs["attribution"])
                or stored != result.obs_digest
            ):
                raise ValueError("obs payload fails digest check")
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, config: ExperimentConfig, result: RunResult) -> None:
        """Memoize ``result`` (atomically) under ``config``'s key."""
        path = self._path(run_key(config))
        payload = {
            "format": _FORMAT,
            "label": config.label,
            "obs": {
                "digest": result.obs_digest,
                "attribution": result.node_attribution,
            },
            "result": result_to_dict(result),
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, path)
        self.stores += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def summary(self) -> str:
        """One report line: ``cache DIR: H/N hits, S stored``."""
        return (
            f"cache {self.cache_dir}: {self.hits}/{self.lookups} hits, "
            f"{self.stores} stored"
        )


def open_cache(
    cache_dir: Union[str, Path, None] = None, no_cache: bool = False
) -> Optional[RunCache]:
    """The cache the CLI flags ask for (``None`` disables caching).

    ``no_cache`` wins over everything; otherwise an explicit directory
    wins over ``$REPRO_CACHE_DIR``; with neither, caching is off.
    """
    if no_cache:
        return None
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if directory is None:
        return None
    return RunCache(directory)
