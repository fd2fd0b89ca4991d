"""Content-addressed artifact & verdict cache: warm starts for ``repro.eval``.

Every ``repro.eval`` entry point used to cold-start the world: ``score``
regenerated the dataset, rebuilt every reference binary and re-executed
every candidate from scratch, and the repair search re-judged neighbors
that were byte-identical to ones already scored in a previous round or
campaign.  This module is the missing persistence layer — a single
on-disk store (default ``.repro-cache/``) shared by three cache layers:

* **dataset entries** — built (assembly, reference C, IO-vector) triples
  and certified candidate sets, keyed by their content, so warm runs load
  instead of regenerating and recompiling;
* **compiled artifacts** — emitted candidate assembly and linked batch
  binaries, keyed by the raw source text, never lexed (or the full
  generated translation units), the ISA, the opt level and the cache
  schema version;
* **verdict memos** — ``(candidate, reference, substrate) →``
  :class:`~repro.eval.score.CandidateScore` payloads, so one execution
  fans out to every byte-identical candidate, across rounds, beams and
  campaigns.

Correctness properties:

* **Self-invalidating keys.**  Every key mixes in
  :func:`pipeline_fingerprint` — a digest of every ``.py`` file in the
  ``repro`` package — plus :data:`SCHEMA_VERSION`.  Changing any stage of
  the pipeline (generator, compiler, interpreter, harness ABI, scorer)
  changes every key, so a stale cache can never resurrect verdicts the
  current code would not produce.  ``--no-cache`` and cache-warm runs are
  byte-identical by construction: a hit returns exactly what the miss
  path would have computed and stored.
* **Crash- and race-safe writes.**  Entries are written to a temp file in
  the cache root and published with :func:`os.replace`, so concurrent
  ``--jobs`` workers (or parallel CI legs sharing one cache dir) never
  observe a partial entry; the losing writer of a race simply overwrites
  the same bytes.
* **Corruption is a miss, never a crash.**  A truncated, garbage or
  schema-mismatched entry is quarantined (removed) and counted, and the
  caller recomputes.
* **Bounded size.**  :meth:`EvalCache.sweep` evicts least-recently-used
  entries (hits refresh mtime) until the store fits ``max_bytes``;
  ties are broken by path so eviction order is deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Bump when any cached payload's shape or meaning changes; part of every
#: key *and* checked in every stored envelope, so schema-mismatched files
#: read as misses even if the key somehow collides.
SCHEMA_VERSION = 1

#: Default cache location (relative to the working directory) used by the
#: ``--cache-dir`` CLI flags.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default size cap applied by the CLI-level eviction sweep.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_fingerprint: Optional[str] = None


def pipeline_fingerprint() -> str:
    """Digest of every ``.py`` file in the ``repro`` package, cached.

    This is the self-invalidation component of every cache key: any edit
    to the generator, front end, compiler, interpreter, native harness or
    scorer yields a different fingerprint and therefore a cold cache —
    the safe default for a codebase where all of those define what the
    cached bytes *mean*.
    """
    global _fingerprint
    if _fingerprint is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix().encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _fingerprint = digest.hexdigest()
    return _fingerprint


def json_digest(payload: Any) -> str:
    """sha256 hex digest of a canonical JSON rendering of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _counter() -> Dict[str, int]:
    return {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}


def merge_stats(into: Dict[str, Any], other: Dict[str, Any]) -> Dict[str, Any]:
    """Accumulate one stats summary into another (for ``--jobs`` workers)."""
    for field in ("hits", "misses", "stores", "corrupt", "evictions"):
        into[field] = into.get(field, 0) + other.get(field, 0)
    layers = into.setdefault("layers", {})
    for layer, counts in other.get("layers", {}).items():
        target = layers.setdefault(layer, _counter())
        for field, value in counts.items():
            target[field] = target.get(field, 0) + value
    return into


class EvalCache:
    """One content-addressed store with named layers.

    A *layer* is a subdirectory (``entry``, ``candidates``, ``asm``,
    ``bin``, ``score``); a *key* is a hex digest computed by :meth:`key`,
    which always mixes in the schema version and the pipeline
    fingerprint.  JSON payloads are stored in an envelope that repeats the
    schema version so corrupted or legacy files are detected on read.
    """

    #: A ``.tmp-*`` file older than this is considered abandoned (its
    #: writer crashed before publishing) and is reaped by :meth:`sweep` and
    #: on open.  Generous enough that a live concurrent writer — whose
    #: publish window is milliseconds — is never raced.
    STALE_TMP_SECONDS = 3600.0

    def __init__(self, root: Path, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats: Dict[str, Dict[str, int]] = {}
        self.evictions = 0
        self._reap_stale_tmp()

    # -- keys -----------------------------------------------------------------

    def key(self, *parts: Any) -> str:
        """A cache key from string-able parts + schema + fingerprint."""
        digest = hashlib.sha256()
        digest.update(f"schema={SCHEMA_VERSION}".encode())
        digest.update(b"\x00")
        digest.update(pipeline_fingerprint().encode())
        for part in parts:
            digest.update(b"\x00")
            digest.update(str(part).encode("utf-8"))
        return digest.hexdigest()

    # -- bookkeeping ----------------------------------------------------------

    def _bump(self, layer: str, field: str) -> None:
        self.stats.setdefault(layer, _counter())[field] += 1

    def absorb(self, summary: Dict[str, Any]) -> None:
        """Fold a worker process's :meth:`stats_summary` into this cache.

        ``--jobs`` workers operate on pickled copies of the cache object;
        their hit/miss counters come back with their results and are
        accumulated here so the parent's summary covers the whole run.
        """
        for layer, counts in summary.get("layers", {}).items():
            target = self.stats.setdefault(layer, _counter())
            for field in ("hits", "misses", "stores", "corrupt"):
                target[field] += counts.get(field, 0)
        self.evictions += summary.get("evictions", 0)

    def stats_summary(self) -> Dict[str, Any]:
        summary: Dict[str, Any] = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "corrupt": 0,
            "evictions": self.evictions,
            "layers": {},
        }
        for layer, counts in sorted(self.stats.items()):
            summary["layers"][layer] = dict(counts)
            for field in ("hits", "misses", "stores", "corrupt"):
                summary[field] += counts[field]
        return summary

    # -- paths and atomic publication ----------------------------------------

    def _path(self, layer: str, key: str, suffix: str) -> Path:
        # Two-level fan-out keeps directories small under heavy use.
        return self.root / layer / key[:2] / f"{key}{suffix}"

    def _publish(self, writer, destination: Path) -> None:
        """Write via ``writer(tmp_path)`` then atomically rename into place.

        The temp file lives inside the cache root, so the rename never
        crosses a filesystem boundary; racing writers each publish a
        complete file and the last rename wins with identical bytes.

        The temp file is removed on *every* failure: OSErrors (disk full,
        permissions) are swallowed — cache writes are best-effort — while
        anything else (a writer passed a bad payload, KeyboardInterrupt
        mid-write) cleans up and propagates.  Previously only OSError
        cleaned up, so any other exception stranded ``.tmp-*`` files in the
        root forever, invisible to the LRU sweep.
        """
        destination.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        os.close(fd)
        tmp = Path(tmp_name)
        try:
            writer(tmp)
            os.replace(tmp, destination)
        except OSError:
            tmp.unlink(missing_ok=True)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _reap_stale_tmp(self) -> int:
        """Remove abandoned ``.tmp-*`` files (stranded by a crashed writer
        of an older code version, or a kill signal no handler could catch).
        Fresh temp files may belong to a live concurrent writer and are
        left alone.  Returns the number reaped."""
        cutoff = time.time() - self.STALE_TMP_SECONDS
        reaped = 0
        try:
            candidates = list(self.root.glob(".tmp-*"))
        except OSError:
            return 0
        for path in candidates:
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    reaped += 1
            except OSError:
                continue
        return reaped

    def _quarantine(self, layer: str, path: Path) -> None:
        """A damaged entry is removed so it cannot fail a second reader."""
        self._bump(layer, "corrupt")
        try:
            path.unlink()
        except OSError:
            pass

    # -- JSON payloads --------------------------------------------------------

    def get(self, layer: str, key: str) -> Optional[Any]:
        """The stored payload, or None (miss).  Damage reads as a miss."""
        path = self._path(layer, key, ".json")
        try:
            raw = path.read_bytes()
        except OSError:
            self._bump(layer, "misses")
            return None
        try:
            envelope = json.loads(raw)
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != SCHEMA_VERSION
                or "payload" not in envelope
            ):
                raise ValueError("bad cache envelope")
        except (ValueError, UnicodeDecodeError):
            self._quarantine(layer, path)
            self._bump(layer, "misses")
            return None
        self._bump(layer, "hits")
        self._touch(path)
        return envelope["payload"]

    def put(self, layer: str, key: str, payload: Any) -> None:
        envelope = {"schema": SCHEMA_VERSION, "payload": payload}
        # Insertion order is part of the payload (e.g. a dataset entry's
        # assembly grid keeps its build order through the JSON round-trip),
        # so no sort_keys here — canonical sorting is for digests only.
        data = json.dumps(envelope).encode("utf-8")
        self._publish(lambda tmp: tmp.write_bytes(data), self._path(layer, key, ".json"))
        self._bump(layer, "stores")

    # -- binary payloads (linked batch/case executables) ----------------------

    def get_file(self, layer: str, key: str, destination: Path) -> bool:
        """Copy a cached binary to ``destination`` (executable); False = miss."""
        path = self._path(layer, key, ".bin")
        try:
            shutil.copyfile(path, destination)
            os.chmod(destination, 0o755)
        except OSError:
            self._bump(layer, "misses")
            return False
        self._bump(layer, "hits")
        self._touch(path)
        return True

    def put_file(self, layer: str, key: str, source: Path) -> None:
        try:
            self._publish(
                lambda tmp: shutil.copyfile(source, tmp),
                self._path(layer, key, ".bin"),
            )
        except OSError:
            return
        self._bump(layer, "stores")

    # -- eviction -------------------------------------------------------------

    def _touch(self, path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    def _entries(self) -> List[Tuple[int, str, int, Path]]:
        """(mtime_ns, path-as-string, size, path) for every stored entry."""
        out: List[Tuple[int, str, int, Path]] = []
        for path in self.root.rglob("*"):
            if not path.is_file() or path.name.startswith(".tmp-"):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((stat.st_mtime_ns, str(path), stat.st_size, path))
        return out

    def total_bytes(self) -> int:
        return sum(size for _, _, size, _ in self._entries())

    def sweep(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the store fits the cap.

        Entries are removed oldest-mtime first (hits refresh mtime, making
        this LRU), ties broken by path so the order is deterministic.
        Returns the number of entries evicted.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        self._reap_stale_tmp()
        entries = sorted(self._entries())
        total = sum(size for _, _, size, _ in entries)
        evicted = 0
        for _, _, size, path in entries:
            if total <= cap:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        self.evictions += evicted
        return evicted


def open_cache(
    cache_dir: Optional[object], max_bytes: int = DEFAULT_MAX_BYTES
) -> Optional[EvalCache]:
    """An :class:`EvalCache` at ``cache_dir``, or None when disabled."""
    if cache_dir is None:
        return None
    return EvalCache(Path(os.fspath(cache_dir)), max_bytes=max_bytes)


def describe_stats(summary: Dict[str, Any]) -> str:
    """One human line for the CLI ``cache`` section."""
    layers = ", ".join(
        f"{layer} {counts['hits']}/{counts['hits'] + counts['misses']}"
        for layer, counts in sorted(summary.get("layers", {}).items())
    )
    line = (
        f"{summary.get('hits', 0)} hits, {summary.get('misses', 0)} misses, "
        f"{summary.get('stores', 0)} stores, {summary.get('corrupt', 0)} corrupt, "
        f"{summary.get('evictions', 0)} evicted"
    )
    return f"{line} [{layers}]" if layers else line


def add_cache_arguments(parser) -> None:
    """The shared ``--cache-dir`` / ``--no-cache`` CLI surface."""
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="content-addressed cache directory for built entries, compiled "
        f"artifacts and verdict memos (default {DEFAULT_CACHE_DIR}/; results "
        "are byte-identical with or without it)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the cache entirely (cold-start every layer)",
    )


def cache_from_args(args) -> Optional[EvalCache]:
    return None if args.no_cache else open_cache(args.cache_dir)


__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_BYTES",
    "EvalCache",
    "SCHEMA_VERSION",
    "add_cache_arguments",
    "cache_from_args",
    "describe_stats",
    "json_digest",
    "merge_stats",
    "open_cache",
    "pipeline_fingerprint",
]
