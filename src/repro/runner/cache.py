"""Content-addressed on-disk result cache.

A job's cache key is the SHA-256 of a canonical JSON description of
the *entire* job — factory identity, every argument (dataclasses are
expanded field by field, classes and functions are named by module and
qualname), and the measurement parameters — combined with a version
stamp.  Any change to topology, routing algorithm, traffic pattern,
:class:`~repro.network.SimulationConfig` field, load, window length,
or the stamp itself therefore produces a different key.

Bump :data:`CACHE_VERSION` whenever a change to the simulator alters
numerical results; stale entries are then never read again (they are
simply unreferenced files that can be deleted with
``ResultCache.clear()``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
import time
from typing import Iterator, Optional, Tuple

#: Version stamp mixed into every cache key.  Bump on any change that
#: alters simulation results.  v2: results carry per-run
#: ``KernelStats`` (kernel name, phase calls, wall time), so entries
#: cached by v1 binaries lack the field and must not be replayed.
#: v3: ``SimulationConfig`` grew the ``faults`` field and open-loop /
#: batch results carry ``packets_undeliverable``; v2 entries lack both.
#: v4: ``KernelStats`` grew the profiling counters (``route_calls``,
#: ``flits_allocated``, ``flits_reused``, ``phase_seconds``); v3
#: entries would replay without them and silently zero the new sweep
#: aggregates.
#: v5: ``SimSpec`` grew the ``topology`` sub-spec field, which appears
#: in every job description (dataclass fields are expanded), so every
#: key changed; results themselves are byte-identical to v4.
#: v6: the ``kernel="batch"`` backend landed and experiment specs may
#: now carry an explicit ``kernel`` kwarg; bumping keeps any entry
#: cached before the kernel kwarg existed from being replayed for a
#: spec that now means a different backend.
#: v7: the unified workload plane: ``SimulationConfig`` grew the
#: ``workload`` field (expanded into every job description),
#: ``OpenLoopResult`` grew ``per_class``, and workload-driven points
#: use the new ``WorkloadJob``; entries cached by v6 binaries lack the
#: fields and must not be replayed.
CACHE_VERSION = "repro-results-v7"

#: Sidecar file (inside the cache directory) accumulating hit/miss
#: counters across runs.  The name deliberately does not end in
#: ``.pkl`` so entry iteration, ``clear`` and ``prune`` skip it.
COUNTERS_FILENAME = "counters.json"

#: Lock file serializing read-modify-write updates of the counters
#: sidecar across processes (parallel sweeps sharing a cache, CLI).
COUNTERS_LOCK_FILENAME = "counters.lock"

#: A counters lock older than this is considered abandoned (its holder
#: died between acquire and release) and is broken by the next writer.
LOCK_STALE_SECONDS = 30.0

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-flatbfly``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-flatbfly")


def describe(obj) -> object:
    """Reduce ``obj`` to a JSON-serializable canonical form.

    Supports the vocabulary jobs are built from: primitives,
    tuples/lists, dicts with string keys, dataclass instances,
    ``functools.partial``, and module-level callables (functions and
    classes, named by ``module:qualname``).  Anything else raises
    ``TypeError`` — an unhashable job must not be silently cached.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips floats exactly; JSON's float formatting does
        # too in Python, but be explicit that 0.1 != 0.1000000001.
        return {"__float__": repr(obj)}
    if isinstance(obj, (list, tuple)):
        return [describe(item) for item in obj]
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("cache descriptions require string dict keys")
        return {key: describe(obj[key]) for key in sorted(obj)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": _qualified_name(type(obj)),
            "fields": {
                field.name: describe(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, functools.partial):
        return {
            "__partial__": describe(obj.func),
            "args": describe(obj.args),
            "kwargs": describe(dict(obj.keywords)),
        }
    if isinstance(obj, type) or callable(obj):
        return {"__callable__": _qualified_name(obj)}
    raise TypeError(
        f"cannot build a stable cache description for {type(obj).__name__}: "
        f"{obj!r}"
    )


def _qualified_name(obj) -> str:
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise TypeError(
            f"{obj!r} is not a module-level callable; cache keys need a "
            f"stable import path"
        )
    return f"{module}:{qualname}"


def job_key(job, version: str = CACHE_VERSION) -> str:
    """Stable hex digest identifying ``job`` under ``version``."""
    payload = {"version": version, "job": describe(job)}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-per-entry cache in a flat directory.

    Entries are written atomically (temp file + rename) so concurrent
    workers and interrupted runs can never leave a torn entry behind.
    """

    def __init__(self, directory: Optional[str] = None,
                 version: str = CACHE_VERSION) -> None:
        self.directory = directory or default_cache_dir()
        self.version = version
        self.hits = 0
        self.misses = 0
        # Portions of hits/misses already merged into the sidecar file
        # by flush_counters(); only the delta is written next time.
        self._flushed_hits = 0
        self._flushed_misses = 0

    def key(self, job) -> str:
        return job_key(job, self.version)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def get(self, job) -> Tuple[bool, object]:
        """Return ``(hit, value)`` for ``job``.

        An entry that fails to load for any reason — truncated, or
        naming a module or class that is gone — is a miss: it is
        removed, so the job recomputes and ``put`` writes it afresh."""
        path = self._path(self.key(job))
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception:
            # Unpickling a stale or torn entry can raise almost any
            # exception type, not only UnpicklingError.
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, job, value) -> None:
        """Store ``value`` under ``job``'s key.

        The entry is written to a temp file and renamed into place:
        concurrent sweep processes may share one cache directory, and
        the atomic rename means a reader (or a run killed mid-write)
        never sees a torn entry.  When two writers store the same key,
        the last rename wins; both wrote the same deterministic result.
        """
        path = self._path(self.key(job))
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def _entries(self) -> Iterator[str]:
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return
        for name in names:
            if name.endswith(".pkl"):
                yield os.path.join(self.directory, name)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        """Summary of the on-disk state: entry count, total bytes,
        modification-time range (Unix timestamps, ``None`` if empty),
        and the persisted hit/miss counters.

        Uses one ``os.scandir`` pass over the directory — directory
        entries carry their ``stat`` results, so this never opens or
        re-stats an entry and stays cheap on large caches."""
        entries = 0
        total_bytes = 0
        oldest = newest = None
        try:
            scan = os.scandir(self.directory)
        except FileNotFoundError:
            scan = None
        if scan is not None:
            with scan:
                for entry in scan:
                    if not entry.name.endswith(".pkl"):
                        continue
                    try:
                        info = entry.stat()
                    except OSError:
                        continue
                    entries += 1
                    total_bytes += info.st_size
                    mtime = info.st_mtime
                    if oldest is None or mtime < oldest:
                        oldest = mtime
                    if newest is None or mtime > newest:
                        newest = mtime
        counters = self.persisted_counters()
        return {
            "directory": self.directory,
            "entries": entries,
            "total_bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
            "hits": counters["hits"],
            "misses": counters["misses"],
        }

    # ------------------------------------------------------------------
    # Persisted hit/miss counters
    # ------------------------------------------------------------------
    def _counters_path(self) -> str:
        return os.path.join(self.directory, COUNTERS_FILENAME)

    def persisted_counters(self) -> dict:
        """The accumulated ``{"hits": int, "misses": int}`` sidecar
        (zeros when absent or unreadable)."""
        try:
            with open(self._counters_path(), "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            return {
                "hits": int(raw.get("hits", 0)),
                "misses": int(raw.get("misses", 0)),
            }
        except (OSError, ValueError):
            return {"hits": 0, "misses": 0}

    def _lock_path(self) -> str:
        return os.path.join(self.directory, COUNTERS_LOCK_FILENAME)

    def _acquire_counters_lock(self, timeout: float = 5.0) -> bool:
        """Take the cross-process counters lock (an ``O_EXCL`` lock
        file).  Returns ``False`` on timeout; locks whose holder
        apparently died (older than :data:`LOCK_STALE_SECONDS`) are
        broken rather than waited out."""
        path = self._lock_path()
        deadline = time.monotonic() + timeout
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                return True
            except FileExistsError:
                try:
                    age = time.time() - os.stat(path).st_mtime
                    if age > LOCK_STALE_SECONDS:
                        os.unlink(path)
                        continue
                except OSError:
                    continue  # holder released it; retry immediately
                if time.monotonic() >= deadline:
                    return False
                time.sleep(0.005)

    def _release_counters_lock(self) -> None:
        try:
            os.unlink(self._lock_path())
        except OSError:
            pass

    def flush_counters(self) -> None:
        """Merge this instance's unflushed hit/miss counts into the
        sidecar file.

        The read-modify-rename runs under a cross-process lock file, so
        concurrent flushers (sweep processes sharing one cache
        directory) serialize instead of clobbering each other's
        increments.  If the lock cannot be acquired within the timeout
        the flush is skipped — the delta stays unflushed and rides
        along with the next flush, so counts are delayed, never lost.
        """
        delta_hits = self.hits - self._flushed_hits
        delta_misses = self.misses - self._flushed_misses
        if delta_hits == 0 and delta_misses == 0:
            return
        os.makedirs(self.directory, exist_ok=True)
        if not self._acquire_counters_lock():
            return
        try:
            merged = self.persisted_counters()
            merged["hits"] += delta_hits
            merged["misses"] += delta_misses
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(merged, handle)
                os.replace(tmp, self._counters_path())
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        finally:
            self._release_counters_lock()
        self._flushed_hits = self.hits
        self._flushed_misses = self.misses

    def prune(self, older_than_seconds: Optional[float] = None) -> int:
        """Delete entries older than the cutoff (every entry when no
        cutoff is given); returns the number removed.

        Age is measured by file modification time, which ``put``
        refreshes on rewrite; cache *reads* do not refresh it, so the
        cutoff bounds entry age, not recency of use.  Stale-version
        entries are unreferenced by construction (the key embeds
        ``CACHE_VERSION``), making periodic pruning the intended
        hygiene for reclaiming their disk space.
        """
        cutoff = None
        if older_than_seconds is not None:
            if older_than_seconds < 0:
                raise ValueError(
                    f"older_than_seconds must be >= 0, got {older_than_seconds}"
                )
            cutoff = time.time() - older_than_seconds
        removed = 0
        for path in list(self._entries()):
            try:
                if cutoff is not None and os.stat(path).st_mtime >= cutoff:
                    continue
                os.unlink(path)
                removed += 1
            except FileNotFoundError:
                # Lost the race with a concurrent prune (the entry was
                # deleted between listing and stat/unlink).  The entry
                # is gone, which is exactly what this call wanted, so
                # count it as pruned rather than crashing or silently
                # under-reporting.
                removed += 1
            except OSError:
                pass
        return removed
