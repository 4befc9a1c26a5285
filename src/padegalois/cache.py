"""Persistent JSON result cache keyed by content hashes.

Each cached value lives in its own file named by the SHA-256 of the
canonical encoding of (operation name, input payload, tool version), so
a version bump orphans every old entry and formatting changes to the
human-readable polynomial text cannot split the key space.  Entries
store JSON values only; anything cacheable must round-trip through
``json`` losslessly.

A cache opened with ``verify=True`` recomputes every hit and insists the
stored value is bit-identical to the fresh one (compared on canonical
dumps); a disagreement raises :class:`CacheMismatchError`.  Corrupt
entries are never fatal: they are recomputed and overwritten with a
warning on stderr.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__

ENV_CACHE_DIR = "PADEGALOIS_CACHE_DIR"

# Bump to invalidate entries whose stored layout changed without a
# package release.
CACHE_LAYOUT = "1"


class CacheMismatchError(RuntimeError):
    """A verified cache hit disagreed with its recomputation."""


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def cache_key(operation: str, payload) -> str:
    """Content hash identifying one computation.

    The payload must already be JSON-friendly; the tool version is mixed
    in so upgrades never serve stale results.
    """
    body = _canonical(
        {
            "operation": operation,
            "input": payload,
            "version": f"{__version__}+{CACHE_LAYOUT}",
        }
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "padegalois"


class ResultCache:
    """File-backed memoization of JSON-valued computations.

    ``verify=True`` turns each hit into a recompute-and-compare; it
    subsumes spot checks because no hit escapes unverified.  To compute
    with no cache at all, callers pass no cache (``reproduce(cache=None)``).
    """

    def __init__(self, directory: Path | str, verify: bool = False):
        self.directory = Path(directory)
        self.verify = verify
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, operation: str, payload, thunk):
        """Return the cached value for (operation, payload) or compute it.

        ``thunk`` must be deterministic and produce a JSON-serializable
        value; it runs on misses, on corrupt entries, and on every hit
        when verification is on.
        """
        key = cache_key(operation, payload)
        path = self.directory / f"{key}.json"
        if path.exists():
            entry = self._load(path)
            if entry is not None:
                value = entry["value"]
                if not self.verify:
                    self.hits += 1
                    return value
                fresh = thunk()
                if _canonical(fresh) != _canonical(value):
                    raise CacheMismatchError(
                        f"cache entry {key} for {operation!r} does not "
                        "match its recomputation"
                    )
                self.hits += 1
                return fresh
        value = thunk()
        self._store(path, key, operation, value)
        self.misses += 1
        return value

    def _load(self, path: Path) -> dict | None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or "value" not in entry:
                raise ValueError("missing value field")
            return entry
        except (OSError, ValueError) as exc:
            print(
                f"warning: discarding corrupt cache entry {path.name}: {exc}",
                file=sys.stderr,
            )
            return None

    def _store(self, path: Path, key: str, operation: str, value) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "operation": operation,
            "version": f"{__version__}+{CACHE_LAYOUT}",
            "timestamp": time.time(),
            "value": value,
        }
        # a temporary file of its own (a random name, created exclusively),
        # so two writers of one key never share it; the entry appears
        # whole, by the rename, or not at all
        tmp = path.with_name(f"{key}.{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp, "x", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
