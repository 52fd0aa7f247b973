"""Incremental lint cache + parallel per-file analysis.

The per-file stage of ``repro lint`` — parse, run the syntactic rules,
extract the flow summary — is a pure function of the file's bytes, its
location under the scan root, and the analyzer version.  So it caches
exactly the way the run cache of :mod:`repro.perf` caches simulations:
content-addressed by blake2b digest (the same machinery as
``repro.perf.digest``), atomic writes, corrupt-entry tolerance, and
hit/miss counters.  A warm re-scan of an unchanged tree re-analyzes
**zero** files; only whole-program propagation (cheap, in-memory)
re-runs.

``jobs > 1`` fans uncached files out to a process pool; results merge
back in deterministic (sorted-path) order so output never depends on
worker scheduling — the same discipline as ``repro.perf.executor``.
"""

from __future__ import annotations

import ast
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .flow.summary import FlowSummary, module_name_for, summarize_module
from .rules import ALL_RULES, Diagnostic, FileContext, Rule
from .simlint import collect_files

__all__ = [
    "FileAnalysis",
    "LintCache",
    "analyze_one",
    "analyze_tree",
    "file_digest",
]

#: Bump when rule or summary semantics change: invalidates every entry.
_ANALYZER_VERSION = "simlint-v2.1"

_DIGEST_SIZE = 16

#: Environment variable naming the default cache directory.
CACHE_ENV = "REPRO_LINT_CACHE_DIR"


def file_digest(path: Path, rel_parts: Sequence[str]) -> str:
    """Content digest of one file *as analyzed*: bytes, relative
    location (classification depends on it), and analyzer version."""
    h = blake2b(digest_size=_DIGEST_SIZE)
    h.update(_ANALYZER_VERSION.encode("utf-8"))
    h.update(b"\x00")
    h.update("/".join(rel_parts).encode("utf-8"))
    h.update(b"\x00")
    h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class FileAnalysis:
    """Everything the per-file stage produces for one module."""

    path: str
    digest: str
    diagnostics: List[Diagnostic]
    summary: FlowSummary
    from_cache: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "digest": self.digest,
            "diagnostics": [
                {
                    "path": str(d.path),
                    "line": d.line,
                    "col": d.col,
                    "rule": d.rule,
                    "message": d.message,
                }
                for d in self.diagnostics
            ],
            "summary": self.summary.to_json(),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FileAnalysis":
        return cls(
            path=data["path"],
            digest=data["digest"],
            diagnostics=[
                Diagnostic(
                    path=Path(d["path"]),
                    line=d["line"],
                    col=d["col"],
                    rule=d["rule"],
                    message=d["message"],
                )
                for d in data["diagnostics"]
            ],
            summary=FlowSummary.from_json(data["summary"]),
        )


class LintCache:
    """On-disk per-file result cache, content-addressed."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _entry(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def get(self, digest: str) -> Optional[FileAnalysis]:
        entry = self._entry(digest)
        try:
            data = json.loads(entry.read_text(encoding="utf-8"))
            analysis = FileAnalysis.from_json(data)
        except (OSError, ValueError, KeyError, TypeError):
            # Missing or corrupt entries are misses, never errors.
            self.misses += 1
            return None
        if analysis.digest != digest:
            self.misses += 1
            return None
        self.hits += 1
        analysis.from_cache = True
        return analysis

    def put(self, analysis: FileAnalysis) -> None:
        entry = self._entry(analysis.digest)
        tmp = entry.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(analysis.to_json(), sort_keys=True),
            encoding="utf-8",
        )
        os.replace(tmp, entry)

    def summary(self) -> str:
        return (
            f"lint cache [{self.directory}]: {self.hits} hit(s), "
            f"{self.misses} miss(es)"
        )


def analyze_one(
    path: Path,
    root: Path,
    rules: Sequence[Rule] = ALL_RULES,
    digest: Optional[str] = None,
) -> FileAnalysis:
    """Per-file stage: parse once, run rules, extract the flow summary."""
    try:
        rel_parts: Tuple[str, ...] = tuple(path.relative_to(root).parts)
    except ValueError:
        rel_parts = tuple(path.parts)
    if digest is None:
        digest = file_digest(path, rel_parts)
    source = path.read_text(encoding="utf-8")
    ctx = FileContext.build(path, rel_parts, source)
    module = module_name_for(rel_parts)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        diag = Diagnostic(
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            rule="parse",
            message=f"syntax error: {exc.msg}",
        )
        empty = FlowSummary(
            module=module,
            path=str(path),
            parts=ctx.parts,
            skip_file=True,
            is_test=ctx.in_tests,
        )
        return FileAnalysis(
            path=str(path),
            digest=digest,
            diagnostics=[diag],
            summary=empty,
        )
    findings: List[Diagnostic] = []
    if not ctx.skip_file:
        for rule in rules:
            for diag in rule.check(tree, ctx):
                if not ctx.suppressed(diag.rule, diag.line):
                    findings.append(diag)
        findings.sort(key=lambda d: (d.line, d.col, d.rule))
    summary = summarize_module(tree, ctx, module)
    return FileAnalysis(
        path=str(path),
        digest=digest,
        diagnostics=findings,
        summary=summary,
    )


def _analyze_for_pool(
    item: Tuple[str, str, Sequence[str]],
) -> Dict[str, Any]:
    """Pool worker: analyze one file with the full rule set, ship JSON."""
    path, root, _rel = item
    return analyze_one(Path(path), Path(root)).to_json()


def analyze_tree(
    paths: Sequence[Path],
    *,
    rules: Sequence[Rule] = ALL_RULES,
    cache: Optional[LintCache] = None,
    jobs: int = 1,
) -> Tuple[List[FileAnalysis], Dict[str, int]]:
    """Analyze every file under ``paths``; returns (results, stats).

    ``stats`` counts ``files``, ``analyzed`` (actually parsed this run)
    and ``cached`` (served from the incremental cache).
    """
    pairs = collect_files(paths)
    results: Dict[str, FileAnalysis] = {}
    pending: List[Tuple[Path, Path, str]] = []
    for path, root in pairs:
        try:
            rel_parts: Tuple[str, ...] = tuple(
                path.relative_to(root).parts
            )
        except ValueError:
            rel_parts = tuple(path.parts)
        digest = file_digest(path, rel_parts)
        cached = cache.get(digest) if cache is not None else None
        if cached is not None:
            results[str(path)] = cached
        else:
            pending.append((path, root, digest))
    use_pool = jobs > 1 and len(pending) > 1 and rules is ALL_RULES
    if use_pool:
        items = [(str(p), str(r), ()) for p, r, _ in pending]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            payloads = list(pool.map(_analyze_for_pool, items))
        for (path, root, digest), payload in zip(pending, payloads):
            analysis = FileAnalysis.from_json(payload)
            results[str(path)] = analysis
            if cache is not None:
                cache.put(analysis)
    else:
        for path, root, digest in pending:
            analysis = analyze_one(path, root, rules, digest=digest)
            results[str(path)] = analysis
            if cache is not None:
                cache.put(analysis)
    ordered = [results[str(path)] for path, _ in pairs]
    stats = {
        "files": len(ordered),
        "analyzed": len(pending),
        "cached": len(ordered) - len(pending),
    }
    return ordered, stats
