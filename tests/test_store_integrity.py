"""Self-healing checkpoint store: every injected filesystem fault class
is detected, repaired or quarantined, and never aborts the caller."""

import os
import time

import pytest

from repro.errors import CheckpointError
from repro.obs import Tracer
from repro.runtime import faults
from repro.runtime.checkpoint import STALE_TMP_S, CheckpointStore
from repro.runtime.faults import ALWAYS, FsFaultSpec
from repro.runtime.session import override


def _backdate(path, age_s):
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))


# -- torn write -------------------------------------------------------------

def test_torn_write_lands_corrupt_and_load_quarantines(tmp_path):
    store = CheckpointStore(tmp_path)
    with faults.inject(FsFaultSpec(kind="torn_write")) as plan:
        store.store("k1", {"value": 1})
    assert plan.fs_fired("torn_write") == 1
    assert "k1" in store                     # a valid name, torn content
    assert store.load("k1") is None          # detected -> miss
    assert not store.path_for("k1").exists()  # quarantined away
    assert list(tmp_path.glob("*.ckpt.corrupt"))


def test_fsck_quarantines_torn_write_proactively(tmp_path):
    store = CheckpointStore(tmp_path)
    with faults.inject(FsFaultSpec(kind="torn_write")):
        store.store("k1", {"value": 1})
    report = store.fsck()
    assert report.quarantined == 1
    assert report.corrupt_pending == 1
    assert not report.clean
    # Purging reclaims the quarantined file; the next pass is clean.
    report = store.fsck(purge_corrupt=True)
    assert report.purged_corrupt == 1
    assert store.fsck().clean


# -- partial rename ---------------------------------------------------------

def test_partial_rename_orphans_tmp_and_fsck_sweeps(tmp_path):
    store = CheckpointStore(tmp_path)
    with faults.inject(FsFaultSpec(kind="partial_rename")):
        store.store("k1", {"value": 1})
    assert "k1" not in store                 # the entry never appeared
    tmps = list(tmp_path.glob("*.tmp"))
    assert len(tmps) == 1                    # the dead writer's leftover
    # Young temps belong to live writers: fsck leaves them alone.
    assert store.fsck().swept_tmp == 0
    _backdate(tmps[0], STALE_TMP_S + 10)
    report = store.fsck()
    assert report.swept_tmp == 1
    assert not list(tmp_path.glob("*.tmp"))


def test_stats_reports_orphaned_tmp_reclaimable_space(tmp_path):
    store = CheckpointStore(tmp_path)
    with faults.inject(FsFaultSpec(kind="partial_rename", op="store",
                                   times=2)):
        store.store("k1", {"value": 1})
        store.store("k2", {"value": 2})
    tmps = sorted(tmp_path.glob("*.tmp"))
    assert len(tmps) == 2
    _backdate(tmps[0], STALE_TMP_S + 10)     # one stale, one young
    stats = store.stats()
    assert stats["tmp_files"] == 2
    assert stats["orphaned_tmp_files"] == 1
    assert stats["orphaned_tmp_bytes"] == tmps[0].stat().st_size
    assert stats["tmp_bytes"] >= stats["orphaned_tmp_bytes"]


# -- bit flip ---------------------------------------------------------------

def test_bit_flip_caught_by_checksum(tmp_path):
    store = CheckpointStore(tmp_path)
    with faults.inject(FsFaultSpec(kind="bit_flip")):
        store.store("k1", {"value": list(range(100))})
    report = store.fsck()
    assert report.quarantined == 1           # checksum mismatch
    assert store.load("k1") is None


# -- ENOSPC / IO degradation ------------------------------------------------

@pytest.mark.parametrize("kind", ["enospc", "io_error"])
def test_write_errors_degrade_to_cache_off(tmp_path, kind):
    store = CheckpointStore(tmp_path)
    store.store("old", {"value": 0})         # healthy write first
    with faults.inject(FsFaultSpec(kind=kind, op="store", times=ALWAYS)):
        with pytest.raises(CheckpointError):
            store.store("k1", {"value": 1})
        assert store.degraded
        # Cache-off: silent no-ops instead of failures, reads still work.
        assert store.try_store("k2", {"value": 2}) is None
        with pytest.raises(CheckpointError):
            store.store("k3", {"value": 3})
        assert store.load("old") == {"value": 0}
    stats = store.stats()
    assert stats["degraded"]
    # No leftover temp files from the failed write.
    assert stats["tmp_files"] == 0


def test_try_store_survives_single_enospc_without_degrading_reads(tmp_path):
    store = CheckpointStore(tmp_path)
    with faults.inject(FsFaultSpec(kind="enospc", op="store")):
        assert store.try_store("k1", {"value": 1}) is None
    assert store.degraded
    # A fresh store object over the same directory is healthy again
    # (degradation is per-session, not persisted).
    fresh = CheckpointStore(tmp_path)
    assert not fresh.degraded
    fresh.store("k1", {"value": 1})
    assert fresh.load("k1") == {"value": 1}


# -- stale lock -------------------------------------------------------------

def test_stale_lock_proceeds_lock_free_and_counts(tmp_path):
    store = CheckpointStore(tmp_path)
    tracer = Tracer()
    with override(tracer=tracer):
        with faults.inject(FsFaultSpec(kind="stale_lock", op="lock")):
            store.store("k1", {"value": 1})
    assert store.load("k1") == {"value": 1}  # the write still landed
    assert tracer.counts()["store.lock_timeouts"] == 1


def test_fsck_sweeps_stale_lock_files(tmp_path):
    store = CheckpointStore(tmp_path)
    store.store("k1", {"value": 1})
    locks = list(tmp_path.glob("*.lock"))
    assert locks
    assert store.fsck().swept_locks == 0     # young: a live writer's
    for lock in locks:
        _backdate(lock, STALE_TMP_S + 10)
    assert store.fsck().swept_locks == len(locks)


# -- fsck: schema eviction, metrics, counters -------------------------------

def test_fsck_evicts_foreign_schema_entries(tmp_path):
    old = CheckpointStore(tmp_path, schema_version=1)
    old.store("k1", {"value": 1})
    store = CheckpointStore(tmp_path)
    report = store.fsck()
    assert report.evicted_stale_schema == 1
    assert "k1" not in store


def test_fsck_repairs_surface_as_metric(tmp_path):
    store = CheckpointStore(tmp_path)
    with faults.inject(FsFaultSpec(kind="bit_flip")):
        store.store("k1", {"value": 1})
    tracer = Tracer()
    with override(tracer=tracer):
        store.fsck()
    assert tracer.counts()["store.repairs"] == 1


def test_fsck_clean_on_healthy_store(tmp_path):
    store = CheckpointStore(tmp_path)
    for i in range(3):
        store.store(f"k{i}", {"value": i})
    report = store.fsck()
    assert report.clean
    assert report.scanned == report.ok == 3


# -- gc: LRU eviction -------------------------------------------------------

def test_gc_evicts_least_recently_used_first(tmp_path):
    store = CheckpointStore(tmp_path)
    for i in range(4):
        store.store(f"k{i}", {"value": i})
        _backdate(store.path_for(f"k{i}"), 1000 - i * 100)
    store.load("k0")                         # a hit refreshes recency
    tracer = Tracer()
    with override(tracer=tracer):
        report = store.gc(max_entries=2)
    assert report.evicted == 2
    # k0 was oldest but freshly hit; k1 and k2 were the stalest left.
    assert "k0" in store and "k3" in store
    assert "k1" not in store and "k2" not in store
    assert tracer.counts()["store.evictions"] == 2


def test_gc_byte_budget(tmp_path):
    store = CheckpointStore(tmp_path)
    for i in range(3):
        store.store(f"k{i}", {"value": "x" * 1000})
        _backdate(store.path_for(f"k{i}"), 1000 - i)
    size = store.path_for("k0").stat().st_size
    report = store.gc(max_bytes=size * 2)
    assert report.evicted == 1
    assert report.bytes <= size * 2
    assert store.gc(max_bytes=size * 2).evicted == 0   # already within


def test_gc_noop_without_budget(tmp_path):
    store = CheckpointStore(tmp_path)
    store.store("k1", {"value": 1})
    report = store.gc()
    assert report.evicted == 0
    assert "k1" in store


# -- concurrent-writer locking ---------------------------------------------

def test_same_key_writers_serialize_via_lock(tmp_path):
    import threading

    store = CheckpointStore(tmp_path)
    errors = []

    def write(i):
        try:
            store.store("shared", {"value": i})
        except Exception as exc:             # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    value = store.load("shared")
    assert value in [{"value": i} for i in range(8)]
    assert store.fsck().quarantined == 0     # one complete entry won
