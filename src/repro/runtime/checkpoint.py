"""Persistent on-disk checkpointing of flow results.

A bench session regenerates ~20 tables/figures that share the same
underlying layout runs.  The in-process memo caches in
:mod:`repro.experiments.runner` make that cheap *within* a session; this
module makes it cheap *across* sessions: every completed flow run's
``LayoutResult`` — and every completed *flow stage* (see
:mod:`repro.flow.stagecache`) — is written to disk keyed by a versioned
hash of its actual inputs, so a killed session resumes instead of
recomputing and a one-parameter change recomputes only the stages that
read the parameter.

Design points:

* **Canonical keys** — :func:`canonical_key` reduces any configuration
  (dataclasses, dicts, lists, tuples, sets, scalars) to a canonical JSON
  string with sorted keys, and :func:`config_key` hashes it (SHA-256)
  together with :data:`SCHEMA_VERSION`.  This replaces the old
  ``tuple(sorted(asdict(config).items()))`` keys, which raised
  ``TypeError`` as soon as a config grew a dict- or list-valued field.
* **Atomic writes** — entries are written to a temp file in the store
  directory and ``os.replace``d into place, so a killed session never
  leaves a half-written entry under a valid name.
* **Advisory write locking** — writers take a per-key ``flock`` on
  ``<key>.lock`` (POSIX advisory, auto-released on process death) so two
  live writers of the same key serialize instead of burning duplicate
  temp files.  Locking is best-effort: an unacquirable or stale lock is
  abandoned after a bounded patience (``store.lock_timeouts`` metric)
  and the create-rename write proceeds safely without it.
* **Corruption detection** — each entry embeds a SHA-256 checksum of its
  pickled payload; a mismatch (or any unpickling failure — the footprint
  of a torn write or a flipped bit) quarantines the entry to
  ``<name>.corrupt`` and reports a miss.
* **Self-healing** — :meth:`CheckpointStore.fsck` proactively verifies
  every entry (magic, schema version, checksum), quarantines corrupt
  ones, evicts entries written under other schema versions, and sweeps
  stale ``.tmp``/``.lock`` leftovers of killed sessions;
  :meth:`CheckpointStore.gc` applies a size/entry budget with
  least-recently-used eviction (loads refresh an entry's recency).
  Repairs and evictions surface as ``store.repairs`` /
  ``store.evictions`` metrics.
* **Graceful degradation** — a write failing with ``ENOSPC`` (or
  ``EDQUOT``/``EROFS``/``EIO``) flips the store to **cache-off**: later
  writes become silent no-ops (``try_store``) instead of failing the
  run, reads still serve whatever is on disk, and the condition is
  visible in :meth:`stats` and the ``store.degraded`` metric.  A
  computed result is never lost to a sick disk.
* **Schema versioning** — :data:`SCHEMA_VERSION` participates in the key
  hash, so changing the result schema silently invalidates every old
  entry instead of unpickling stale objects.
* **Cross-process safety** — one store directory may be shared by any
  number of concurrent readers and writers (the parallel engine's
  workers exchange results and stage checkpoints through it).  Writes
  are create-rename (unique temp names from :func:`tempfile.mkstemp`,
  then ``os.replace``), so two writers of the same key race benignly:
  one complete entry wins.  Readers only ever see absent or complete
  entries; maintenance calls (:meth:`CheckpointStore.stats`,
  :meth:`CheckpointStore.clear`, :meth:`CheckpointStore.fsck`,
  :meth:`CheckpointStore.gc`, quarantine) tolerate entries unlinked
  between directory listing and file access.

Every failure path above has a deterministic test driven by the
filesystem fault injection in :mod:`repro.runtime.faults`
(:class:`~repro.runtime.faults.FsFaultSpec`: torn write, partial rename,
ENOSPC, IO error, stale lock, bit flip).
"""

from __future__ import annotations

import dataclasses
import errno as errno_mod
import hashlib
import json
import logging
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:                       # non-POSIX: locking is a no-op
    fcntl = None                          # type: ignore[assignment]

from repro.errors import CheckpointError
from repro.obs.trace import counter
from repro.runtime import faults

logger = logging.getLogger(__name__)

# Bump when LayoutResult (or anything it embeds) changes shape: every
# existing checkpoint entry becomes invisible.
# 3: FlowConfig.router_detour_coeff + stage entries.
# 4: the kernel-backend field left FlowConfig (one implementation per
#    kernel), so every config and stage digest changed.
# 5: a pickled Module carries its pin table; a module stored before it
#    would load without one and read as unconnected.
# 6: a TraceBundle carries its task's run-journal rows in place of the
#    profile rows and stage walls; an older bundle has no ``journal``.
# 7: a TraceBundle carries its task's counts (``counts``) in place of a
#    metrics-registry snapshot (``metrics``).
# 8: whole runs are keyed on the stage-digest chain (stagecache.run_key),
#    whose 2D digests drop the knobs 2D runs ignore, and LayoutResult
#    carries ``crossing_nets``.
# 9: one FlowState is the payload of the synthesis, placement-attempt and
#    sign-off entries; the layout and post-route entries are gone.
SCHEMA_VERSION = 9

_MAGIC = b"repro-ckpt"

# Default store location: $REPRO_CHECKPOINT_DIR, else a per-user cache.
ENV_VAR = "REPRO_CHECKPOINT_DIR"

# clear()/fsck() sweep .tmp and .lock files older than this as leftovers
# of killed sessions; younger ones belong to live concurrent writers.
STALE_TMP_S = 3600.0

# Advisory write-lock patience: how long a writer waits for the per-key
# lock before abandoning it and proceeding lock-free (create-rename
# writes stay safe without the lock; the lock only serializes live
# same-key writers).
LOCK_PATIENCE_S = 5.0
LOCK_RETRY_S = 0.05

# OS errors that flip the store to cache-off instead of being retried:
# a full, read-only, or sick disk will not heal within a run.
_DEGRADE_ERRNOS = frozenset({
    errno_mod.ENOSPC, errno_mod.EDQUOT, errno_mod.EROFS, errno_mod.EIO})


def default_store_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "checkpoints"


def canonical_payload(obj: object) -> object:
    """Reduce ``obj`` to JSON-serializable form with deterministic order."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical_payload(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canonical_payload(v)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(str(canonical_payload(v)) for v in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def canonical_key(obj: object) -> str:
    """Canonical JSON text for ``obj`` (stable across key ordering)."""
    return json.dumps(canonical_payload(obj), sort_keys=True,
                      separators=(",", ":"))


def config_key(kind: str, config: object,
               schema_version: int = SCHEMA_VERSION) -> str:
    """Versioned content hash naming one checkpoint entry."""
    text = f"{kind}|v{schema_version}|{canonical_key(config)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class FsckReport:
    """Outcome of one :meth:`CheckpointStore.fsck` pass."""

    root: str
    scanned: int = 0              # .ckpt entries examined
    ok: int = 0                   # entries that verified clean
    quarantined: int = 0          # corrupt entries moved to .corrupt
    evicted_stale_schema: int = 0  # entries of other schema versions removed
    swept_tmp: int = 0            # stale orphaned .tmp files removed
    swept_locks: int = 0          # stale .lock files removed
    purged_corrupt: int = 0       # quarantined files deleted (opt-in)
    corrupt_pending: int = 0      # quarantined files still on disk
    io_errors: int = 0            # paths that could not be read or repaired

    @property
    def repairs(self) -> int:
        """Actions taken: quarantines, evictions, and sweeps."""
        return (self.quarantined + self.evicted_stale_schema
                + self.swept_tmp + self.swept_locks + self.purged_corrupt)

    @property
    def clean(self) -> bool:
        """True when the pass found nothing wrong and repaired nothing."""
        return self.repairs == 0 and self.io_errors == 0 \
            and self.corrupt_pending == 0

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["repairs"] = self.repairs
        out["clean"] = self.clean
        return out


@dataclasses.dataclass
class GcReport:
    """Outcome of one :meth:`CheckpointStore.gc` pass."""

    root: str
    entries_before: int = 0
    bytes_before: int = 0
    evicted: int = 0
    freed_bytes: int = 0
    entries: int = 0
    bytes: int = 0

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class CheckpointStore:
    """A directory of atomically-written, checksummed pickle entries."""

    def __init__(self, root: Optional[Path] = None,
                 schema_version: int = SCHEMA_VERSION):
        self.root = Path(root) if root is not None else default_store_dir()
        self.schema_version = schema_version
        self.root.mkdir(parents=True, exist_ok=True)
        # Non-empty once a write failed on a full/read-only/sick disk:
        # the store is cache-off and try_store becomes a silent no-op.
        self._degraded: str = ""

    # -- paths -------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.ckpt"

    def lock_path_for(self, key: str) -> Path:
        return self.root / f"{key}.lock"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob("*.ckpt")):
            yield path.stem

    # -- degradation -------------------------------------------------------

    @property
    def degraded(self) -> str:
        """Why the store is cache-off, or ``""`` while healthy."""
        return self._degraded

    def _maybe_degrade(self, exc: BaseException) -> None:
        if not isinstance(exc, OSError) or exc.errno not in _DEGRADE_ERRNOS:
            return
        if self._degraded:
            return
        name = errno_mod.errorcode.get(exc.errno, str(exc.errno))
        self._degraded = f"{name}: {exc}"
        counter("store.degraded").inc()
        logger.warning(
            "checkpoint store %s degraded to cache-off (%s); results stay "
            "in memory, completed work is not lost", self.root, name)

    # -- locking -----------------------------------------------------------

    def _acquire_lock(self, key: str) -> Optional[object]:
        """Advisory per-key write lock; ``None`` when proceeding lock-free.

        Lock-free operation is always safe (writes are create-rename);
        the lock only keeps two live same-key writers from duplicating
        work.  A lock unacquired within :data:`LOCK_PATIENCE_S` — e.g. a
        holder stuck on a dead NFS mount, or the injected ``stale_lock``
        fault — is abandoned and counted in ``store.lock_timeouts``.
        """
        if fcntl is None or self._degraded:
            return None
        if faults.fs_fault("lock", key) == "stale_lock":
            counter("store.lock_timeouts").inc()
            logger.warning("stale lock on %s: writing lock-free",
                           self.lock_path_for(key))
            return None
        try:
            handle = open(self.lock_path_for(key), "ab")
        except OSError:
            return None
        deadline = time.monotonic() + LOCK_PATIENCE_S
        while True:
            try:
                fcntl.flock(handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
                return handle
            except OSError:
                if time.monotonic() >= deadline:
                    handle.close()
                    counter("store.lock_timeouts").inc()
                    logger.warning(
                        "could not lock %s within %.1f s: writing "
                        "lock-free", self.lock_path_for(key),
                        LOCK_PATIENCE_S)
                    return None
                time.sleep(LOCK_RETRY_S)

    @staticmethod
    def _release_lock(handle: Optional[object]) -> None:
        if handle is None:
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except OSError:
            pass
        finally:
            handle.close()

    # -- IO ----------------------------------------------------------------

    def store(self, key: str, value: object) -> Path:
        """Atomically persist ``value`` under ``key``."""
        if self._degraded:
            raise CheckpointError(
                f"store is cache-off ({self._degraded}); "
                f"not writing {key}")
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"cannot pickle checkpoint value for {key}: {exc}") from exc
        wrapper = {
            "magic": _MAGIC,
            "schema_version": self.schema_version,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }
        data = pickle.dumps(wrapper, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.path_for(key)
        fault = faults.fs_fault("store", key)
        lock = self._acquire_lock(key)
        try:
            return self._write_entry(key, path, data, fault)
        finally:
            self._release_lock(lock)

    def _write_entry(self, key: str, path: Path, data: bytes,
                     fault: Optional[str]) -> Path:
        # A concurrent clear() may sweep our in-flight temp file between
        # mkstemp and replace (it only skips *young* temps, but clock skew
        # happens); losing that race costs a retry, not the result.
        for attempt in (1, 2):
            try:
                fd, tmp_name = tempfile.mkstemp(dir=self.root,
                                                suffix=".tmp")
            except OSError as exc:
                self._maybe_degrade(exc)
                raise CheckpointError(
                    f"cannot write checkpoint {path}: {exc}") from exc
            try:
                with os.fdopen(fd, "wb") as stream:
                    if fault == "enospc":
                        raise OSError(errno_mod.ENOSPC,
                                      "injected: no space left on device")
                    if fault == "io_error":
                        raise OSError(errno_mod.EIO,
                                      "injected: input/output error")
                    if fault == "torn_write":
                        # Half the bytes land, then the writer "dies";
                        # the rename still happens (the kernel reordered
                        # it ahead of the data), leaving a corrupt entry
                        # under a valid name — the worst torn-write case.
                        stream.write(data[:max(1, len(data) // 2)])
                    else:
                        stream.write(data)
                if fault == "partial_rename":
                    # The writer dies between write and rename: the
                    # complete temp file stays orphaned, no entry
                    # appears.  The caller believes the write happened —
                    # exactly what a kill at this point looks like.
                    return path
                os.replace(tmp_name, path)
            except FileNotFoundError as exc:
                if attempt == 1:
                    continue
                raise CheckpointError(
                    f"cannot write checkpoint {path}: {exc}") from exc
            except Exception as exc:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                self._maybe_degrade(exc)
                raise CheckpointError(
                    f"cannot write checkpoint {path}: {exc}") from exc
            if fault == "bit_flip":
                self._flip_byte(path)
            return path

    @staticmethod
    def _flip_byte(path: Path) -> None:
        """Injected silent media corruption: flip one mid-file bit."""
        try:
            with open(path, "r+b") as stream:
                stream.seek(0, os.SEEK_END)
                size = stream.tell()
                offset = size // 2
                stream.seek(offset)
                byte = stream.read(1)
                stream.seek(offset)
                stream.write(bytes([byte[0] ^ 0x40]))
        except OSError:
            pass

    def try_store(self, key: str, value: object) -> Optional[Path]:
        """Best-effort :meth:`store`: ``None`` instead of raising.

        Concurrent sessions treat the store as a shared cache, not a
        ledger — a disk-write failure must never discard an
        already-computed result, so callers that hold the value in
        memory use this and carry on.  Once the store has degraded to
        cache-off (ENOSPC and friends) this returns ``None`` without
        touching the disk or logging again.
        """
        if self._degraded:
            return None
        try:
            return self.store(key, value)
        except CheckpointError as exc:
            logger.warning("keeping result for %s in memory only: %s",
                           key, exc)
            return None

    def load(self, key: str) -> Optional[object]:
        """Load ``key``; ``None`` on miss, stale schema, or corruption.

        Corrupt entries are quarantined to ``<key>.ckpt.corrupt`` so the
        session recomputes them instead of failing forever.  A hit
        refreshes the entry's modification time, which is the recency
        :meth:`gc` ranks by.
        """
        path = self.path_for(key)
        if not path.exists():
            counter("checkpoint.misses").inc()
            return None
        try:
            with open(path, "rb") as stream:
                wrapper = pickle.load(stream)
            if not isinstance(wrapper, dict) or wrapper.get("magic") != _MAGIC:
                raise CheckpointError(f"bad header in {path}")
            if wrapper.get("schema_version") != self.schema_version:
                logger.info("checkpoint %s has schema v%s (want v%s); "
                            "ignoring", path, wrapper.get("schema_version"),
                            self.schema_version)
                counter("checkpoint.misses").inc()
                return None
            payload = wrapper["payload"]
            if hashlib.sha256(payload).hexdigest() != wrapper["sha256"]:
                raise CheckpointError(f"checksum mismatch in {path}")
            value = pickle.loads(payload)
            counter("checkpoint.hits").inc()
            self._touch(path)
            return value
        except CheckpointError as exc:
            self._quarantine(path, str(exc))
            counter("checkpoint.misses").inc()
            return None
        except Exception as exc:
            self._quarantine(path, f"unreadable checkpoint: {exc}")
            counter("checkpoint.misses").inc()
            return None

    def _touch(self, path: Path) -> None:
        """Refresh LRU recency on a hit; never worth failing a load."""
        if self._degraded:
            return
        try:
            os.utime(path)
        except OSError:
            pass

    def _quarantine(self, path: Path, reason: str) -> None:
        logger.warning("quarantining corrupt checkpoint %s: %s", path, reason)
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass

    # -- maintenance --------------------------------------------------------

    def _entry_stats(self) -> List[Tuple[Path, int, float]]:
        """(path, size, mtime) for every entry, tolerant of mid-scan
        unlinks by concurrent clear/quarantine."""
        out: List[Tuple[Path, int, float]] = []
        for path in self.root.glob("*.ckpt"):
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            out.append((path, stat.st_size, stat.st_mtime))
        return out

    def fsck(self, purge_corrupt: bool = False,
             stale_age_s: float = STALE_TMP_S) -> FsckReport:
        """Verify and repair the store; returns an :class:`FsckReport`.

        Every entry is read end to end: bad magic, an unreadable pickle
        (torn write), or a checksum mismatch (bit flip) quarantines the
        entry; a foreign schema version evicts it (its key hash makes it
        unreachable anyway).  Stale ``.tmp`` and ``.lock`` files older
        than ``stale_age_s`` are swept; quarantined ``.corrupt`` files
        are counted (and with ``purge_corrupt`` deleted).  Repairs land
        in the ``store.repairs`` metric.
        """
        report = FsckReport(root=str(self.root))
        for path, _size, _mtime in self._entry_stats():
            report.scanned += 1
            try:
                with open(path, "rb") as stream:
                    wrapper = pickle.load(stream)
            except FileNotFoundError:
                report.scanned -= 1
                continue
            except OSError:
                report.io_errors += 1
                continue
            except Exception:
                self._quarantine(path, "unreadable checkpoint (fsck)")
                report.quarantined += 1
                continue
            if not isinstance(wrapper, dict) or wrapper.get("magic") != _MAGIC:
                self._quarantine(path, "bad header (fsck)")
                report.quarantined += 1
                continue
            if wrapper.get("schema_version") != self.schema_version:
                try:
                    path.unlink()
                    report.evicted_stale_schema += 1
                except OSError:
                    report.io_errors += 1
                continue
            payload = wrapper.get("payload", b"")
            if hashlib.sha256(payload).hexdigest() != wrapper.get("sha256"):
                self._quarantine(path, "checksum mismatch (fsck)")
                report.quarantined += 1
                continue
            report.ok += 1
        now = time.time()
        for pattern, counter_name in (("*.tmp", "swept_tmp"),
                                      ("*.lock", "swept_locks")):
            for path in self.root.glob(pattern):
                try:
                    if now - path.stat().st_mtime < stale_age_s:
                        continue
                    path.unlink()
                except OSError:
                    continue
                setattr(report, counter_name,
                        getattr(report, counter_name) + 1)
        for path in self.root.glob("*.ckpt.corrupt"):
            if purge_corrupt:
                try:
                    path.unlink()
                    report.purged_corrupt += 1
                except OSError:
                    report.io_errors += 1
            else:
                report.corrupt_pending += 1
        if report.repairs:
            counter("store.repairs").inc(report.repairs)
        return report

    def gc(self, max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None) -> GcReport:
        """Evict least-recently-used entries down to the given budgets.

        Recency is the entry's mtime, which :meth:`load` refreshes on
        every hit — an actively reused entry survives a sweep that
        evicts a long-untouched one.  Evictions land in the
        ``store.evictions`` metric.
        """
        entries = self._entry_stats()
        report = GcReport(
            root=str(self.root),
            entries_before=len(entries),
            bytes_before=sum(size for _p, size, _m in entries),
        )
        total = report.bytes_before
        count = report.entries_before
        entries.sort(key=lambda e: e[2])          # oldest recency first
        for path, size, _mtime in entries:
            over_bytes = max_bytes is not None and total > max_bytes
            over_entries = max_entries is not None and count > max_entries
            if not over_bytes and not over_entries:
                break
            try:
                path.unlink()
            except OSError:
                continue
            report.evicted += 1
            report.freed_bytes += size
            total -= size
            count -= 1
        report.entries = count
        report.bytes = total
        if report.evicted:
            counter("store.evictions").inc(report.evicted)
        return report

    def clear(self) -> int:
        """Delete every entry (and quarantined entries); returns count.

        In-flight ``.tmp`` files (and ``.lock`` files) of *live*
        concurrent writers are left alone — only those older than
        :data:`STALE_TMP_S` are swept as leftovers of killed sessions —
        so clearing a shared store never makes another process's write
        fail.
        """
        n = 0
        for pattern in ("*.ckpt", "*.ckpt.corrupt"):
            for path in self.root.glob(pattern):
                try:
                    path.unlink()
                    n += 1
                except OSError:
                    pass
        now = time.time()
        for pattern in ("*.tmp", "*.lock"):
            for path in self.root.glob(pattern):
                try:
                    if now - path.stat().st_mtime < STALE_TMP_S:
                        continue
                    path.unlink()
                    n += 1
                except OSError:
                    pass
        return n

    def stats(self) -> Dict[str, object]:
        """Store inventory, including reclaimable orphaned temp space."""
        entries = self._entry_stats()
        now = time.time()
        tmp_files = tmp_bytes = 0
        orphaned_tmp_files = orphaned_tmp_bytes = 0
        for path in self.root.glob("*.tmp"):
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            tmp_files += 1
            tmp_bytes += stat.st_size
            if now - stat.st_mtime >= STALE_TMP_S:
                orphaned_tmp_files += 1
                orphaned_tmp_bytes += stat.st_size
        corrupt_files = corrupt_bytes = 0
        for path in self.root.glob("*.ckpt.corrupt"):
            try:
                corrupt_bytes += path.stat().st_size
            except FileNotFoundError:
                continue
            corrupt_files += 1
        lock_files = sum(1 for _ in self.root.glob("*.lock"))
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _p, size, _m in entries),
            "tmp_files": tmp_files,
            "tmp_bytes": tmp_bytes,
            "orphaned_tmp_files": orphaned_tmp_files,
            "orphaned_tmp_bytes": orphaned_tmp_bytes,
            "corrupt_files": corrupt_files,
            "corrupt_bytes": corrupt_bytes,
            "lock_files": lock_files,
            "degraded": self._degraded,
            "schema_version": self.schema_version,
        }
