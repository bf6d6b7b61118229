"""Content-hash cache for per-file and whole-program lint results.

Parsing + rule-walking the whole tree is the dominant lint cost, and
almost every file is unchanged between runs.  The cache maps each file
to ``(key, findings, deps)`` where the key is a SHA-256 over

* the file's bytes,
* the names of the rules that apply to it (selection changes re-lint),
* a *framework salt*: a hash of every ``repro.analysis`` source file,
  so editing any rule or the framework itself invalidates everything.

``deps`` records the content hashes of the project files the entry's
file *imports* (version 2): per-file hashing alone is insufficient once
rules resolve imports — renaming a symbol in ``repro.store.layout``
must re-lint ``feature_store.py`` even though its bytes are unchanged.
An entry whose dependency hashes drifted is treated as a miss.

Whole-program passes cache under the reserved :data:`PROJECT_KEY`
pseudo-path, keyed on the hash of *every* in-scope ``(path, content)``
pair: any file appearing, changing, or vanishing dirties the call graph
and forces full re-analysis — there is no sound partial replay for a
cross-file fixpoint.

Entries store pre-baseline, post-suppression findings — suppression
depends only on file content (in the key); the baseline is applied
globally after cache assembly, so baseline edits never invalidate.

CI persists the cache file across runs keyed on the source tree hash
(see ``.github/workflows/ci.yml``); locally it makes ``repro lint``
effectively incremental.  Corrupt or version-skewed caches are
discarded wholesale, never trusted partially.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.findings import Finding
from repro.atomic import atomic_write

__all__ = [
    "LintCache",
    "PROJECT_KEY",
    "content_hash",
    "file_key",
    "framework_salt",
    "project_key",
]

CACHE_VERSION = 2

#: Reserved pseudo-path for whole-program pass results ("//" cannot
#: occur in a normalized repo-relative path).
PROJECT_KEY = "//project"

_salt: str | None = None


def framework_salt() -> str:
    """Hash of the analysis package's own sources (memoized)."""
    global _salt
    if _salt is None:
        digest = hashlib.sha256()
        package_root = Path(__file__).parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix().encode())
            digest.update(path.read_bytes())
        _salt = digest.hexdigest()
    return _salt


def content_hash(source_bytes: bytes) -> str:
    return hashlib.sha256(source_bytes).hexdigest()


def file_key(source_bytes: bytes, rule_names: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    digest.update(framework_salt().encode())
    digest.update("\x00".join(rule_names).encode())
    digest.update(b"\x00")
    digest.update(source_bytes)
    return digest.hexdigest()


def project_key(
    hashes: dict[str, str], rule_names: tuple[str, ...]
) -> str:
    """Key for a whole-program pass over files ``{relpath: content_hash}``."""
    digest = hashlib.sha256()
    digest.update(framework_salt().encode())
    digest.update("\x00".join(rule_names).encode())
    for relpath in sorted(hashes):
        digest.update(b"\x00")
        digest.update(relpath.encode())
        digest.update(b"\x00")
        digest.update(hashes[relpath].encode())
    return digest.hexdigest()


class LintCache:
    """Load-modify-save wrapper around the on-disk cache file."""

    def __init__(self, path: str | Path, *, enabled: bool = True) -> None:
        self.path = Path(path)
        self.enabled = enabled
        self._entries: dict[str, dict] = {}
        self._dirty = False
        if enabled:
            self._load()

    def _load(self) -> None:
        if not self.path.is_file():
            return
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
            if raw.get("version") != CACHE_VERSION:
                return
            entries = raw.get("entries")
            if isinstance(entries, dict):
                self._entries = entries
        except (json.JSONDecodeError, OSError, TypeError, ValueError):
            self._entries = {}  # corrupt cache: start over

    def get(
        self,
        relpath: str,
        key: str,
        content_hashes: dict[str, str] | None = None,
    ) -> list[Finding] | None:
        """Cached findings, or None on any mismatch.

        ``content_hashes`` maps every in-scope file to its current
        content hash; the entry's recorded import dependencies must all
        still match, otherwise a dependency changed under an unchanged
        file and the cross-file analyses may now disagree.
        """
        if not self.enabled:
            return None
        entry = self._entries.get(relpath)
        if not entry or entry.get("key") != key:
            return None
        deps = entry.get("deps", {})
        if deps:
            if content_hashes is None:
                return None
            for dep, dep_hash in deps.items():
                if content_hashes.get(dep) != dep_hash:
                    return None
        try:
            return [Finding.from_dict(f) for f in entry["findings"]]
        except (KeyError, TypeError, ValueError):
            return None

    def put(
        self,
        relpath: str,
        key: str,
        findings: list[Finding],
        deps: dict[str, str] | None = None,
    ) -> None:
        if not self.enabled:
            return
        self._entries[relpath] = {
            "key": key,
            "findings": [f.to_dict() for f in findings],
            "deps": dict(deps or {}),
        }
        self._dirty = True

    def prune(self, live_relpaths: set[str]) -> None:
        """Drop entries for files that no longer exist / are out of scope."""
        dead = set(self._entries) - live_relpaths - {PROJECT_KEY}
        if dead:
            for relpath in dead:
                del self._entries[relpath]
            self._dirty = True

    def save(self) -> None:
        if not (self.enabled and self._dirty):
            return
        payload = {"version": CACHE_VERSION, "entries": self._entries}
        with atomic_write(self.path) as tmp:
            tmp.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        self._dirty = False
