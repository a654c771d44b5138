"""Checkpoint-store tests: canonical keys, atomicity, corruption, schema."""

import pickle
from dataclasses import dataclass, field, replace
from typing import Dict, List

import pytest

from repro.errors import TechnologyError
from repro.flow.design_flow import FlowConfig
from repro.flow.stagecache import run_key, stage_digests
from repro.runtime.checkpoint import (
    SCHEMA_VERSION,
    CheckpointStore,
    canonical_key,
    config_key,
)


# -- canonical keys -------------------------------------------------------

def test_canonical_key_is_order_insensitive():
    assert canonical_key({"b": 1, "a": 2}) == canonical_key({"a": 2, "b": 1})


def test_canonical_key_handles_nested_unhashable_values():
    # The old tuple(sorted(...)) keys raised TypeError on dict/list values.
    obj = {"kwargs": {"activities": {"pi": 0.2, "seq": 0.1},
                      "stack": ["m1", "m2"]},
           "scale": 0.1}
    key = canonical_key(obj)
    assert "activities" in key
    assert canonical_key(obj) == key


def test_canonical_key_dataclasses_and_sets():
    @dataclass
    class Cfg:
        name: str
        knobs: Dict[str, float] = field(default_factory=dict)
        tags: List[str] = field(default_factory=list)

    a = Cfg(name="x", knobs={"b": 1.0, "a": 2.0}, tags=["t"])
    b = Cfg(name="x", knobs={"a": 2.0, "b": 1.0}, tags=["t"])
    assert canonical_key(a) == canonical_key(b)
    assert canonical_key({1, 2, 3}) == canonical_key({3, 2, 1})


def test_config_key_versioned_and_kind_scoped():
    cfg = {"scale": 0.1}
    assert config_key("flow", cfg) != config_key("comparison", cfg)
    assert config_key("flow", cfg) != config_key("flow", cfg,
                                                 schema_version=99)
    assert config_key("flow", cfg) == config_key("flow", dict(cfg))


# Knobs a 2D run ignores (tests/test_flow.py proves it), each off its
# default.
KNOBS_2D_IGNORES = ({"tiers": 4}, {"fold_style": "interleave"},
                    {"miv_koz_diameters": 2.0}, {"metal_stack": "tmi+m"},
                    {"use_tmi_wlm": False})


def test_run_key_accepts_full_flow_config():
    key1 = run_key(FlowConfig(circuit="fpu", scale=0.06))
    key2 = run_key(FlowConfig(circuit="fpu", scale=0.06))
    key3 = run_key(FlowConfig(circuit="fpu", scale=0.06,
                              pin_cap_scale=0.5))
    assert key1 == key2
    assert key1 != key3
    # Namespaced apart from the power stage's own entry.
    assert key1 != stage_digests(FlowConfig(circuit="fpu",
                                            scale=0.06))["power"]


def test_run_key_rejects_a_malformed_fold():
    # A 2D run ignores the fold, but a memo hit must not skip the check
    # a cold run makes.
    with pytest.raises(TechnologyError):
        run_key(FlowConfig(circuit="fpu", scale=0.06, tiers=9))


@pytest.mark.parametrize("knob", KNOBS_2D_IGNORES)
def test_run_key_drops_the_knobs_2d_ignores(knob):
    base_2d = FlowConfig(circuit="aes", scale=0.05)
    assert stage_digests(replace(base_2d, **knob)) == \
        stage_digests(base_2d)
    assert run_key(replace(base_2d, **knob)) == run_key(base_2d)
    # A T-MI run reads every one of them.
    base_3d = replace(base_2d, is_3d=True)
    assert stage_digests(replace(base_3d, **knob))["power"] != \
        stage_digests(base_3d)["power"]
    assert run_key(replace(base_3d, **knob)) != run_key(base_3d)


# -- store IO -------------------------------------------------------------

def test_store_roundtrip(tmp_path):
    store = CheckpointStore(tmp_path)
    key = config_key("flow", {"x": 1})
    assert key not in store
    assert store.load(key) is None
    store.store(key, {"power_mw": 1.25, "cells": [1, 2, 3]})
    assert key in store
    assert store.load(key) == {"power_mw": 1.25, "cells": [1, 2, 3]}
    assert list(store.keys()) == [key]


def test_store_leaves_no_temp_files(tmp_path):
    store = CheckpointStore(tmp_path)
    for i in range(5):
        store.store(config_key("flow", {"i": i}), i)
    assert not list(tmp_path.glob("*.tmp"))
    assert len(list(tmp_path.glob("*.ckpt"))) == 5


def test_corrupt_entry_is_quarantined(tmp_path):
    store = CheckpointStore(tmp_path)
    key = config_key("flow", {"x": 1})
    store.store(key, "value")
    path = store.path_for(key)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    assert store.load(key) is None
    assert not path.exists()
    assert list(tmp_path.glob("*.ckpt.corrupt"))
    # The key reports a miss afterwards, so callers recompute.
    assert key not in store


def test_truncated_entry_is_quarantined(tmp_path):
    store = CheckpointStore(tmp_path)
    key = config_key("flow", {"x": 2})
    store.store(key, list(range(100)))
    path = store.path_for(key)
    path.write_bytes(path.read_bytes()[:10])
    assert store.load(key) is None
    assert not path.exists()


def test_foreign_pickle_is_rejected(tmp_path):
    store = CheckpointStore(tmp_path)
    key = config_key("flow", {"x": 3})
    store.path_for(key).write_bytes(pickle.dumps({"no": "magic"}))
    assert store.load(key) is None


def test_schema_version_invalidates_entries(tmp_path):
    old = CheckpointStore(tmp_path, schema_version=SCHEMA_VERSION)
    key = config_key("flow", {"x": 4})
    old.store(key, "old-schema-value")
    new = CheckpointStore(tmp_path, schema_version=SCHEMA_VERSION + 1)
    assert new.load(key) is None        # stale schema ignored, not loaded
    assert old.load(key) == "old-schema-value"   # and not destroyed


def test_clear_removes_everything(tmp_path):
    store = CheckpointStore(tmp_path)
    k1, k2 = config_key("a", 1), config_key("a", 2)
    store.store(k1, 1)
    store.store(k2, 2)
    path = store.path_for(k1)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    store.load(k1)                       # quarantines k1
    assert store.clear() == 2            # one entry + one quarantined
    assert store.stats()["entries"] == 0


def test_stats(tmp_path):
    store = CheckpointStore(tmp_path)
    store.store(config_key("a", 1), "v")
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    assert stats["schema_version"] == SCHEMA_VERSION


def test_stats_tolerates_entry_unlinked_mid_scan(tmp_path, monkeypatch):
    # A concurrent clear()/quarantine can unlink an entry between stats()'s
    # directory listing and its stat() call; the scan skips it.
    from pathlib import Path

    store = CheckpointStore(tmp_path)
    store.store(config_key("a", 1), "v")
    ghost = tmp_path / ("f" * 64 + ".ckpt")
    real_glob = Path.glob

    def racing_glob(self, pattern):
        paths = list(real_glob(self, pattern))
        if self == store.root and pattern == "*.ckpt":
            paths.append(ghost)          # listed, then unlinked by a peer
        return iter(paths)

    monkeypatch.setattr(Path, "glob", racing_glob)
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0


def test_clear_spares_live_writers_tmp_files(tmp_path):
    # A fresh .tmp belongs to an in-flight concurrent store(); only stale
    # temps (killed sessions) are swept.
    import os
    import time as _time

    from repro.runtime.checkpoint import STALE_TMP_S

    store = CheckpointStore(tmp_path)
    store.store(config_key("a", 1), "v")
    live = tmp_path / "live-writer.tmp"
    live.write_bytes(b"half-written")
    stale = tmp_path / "killed-session.tmp"
    stale.write_bytes(b"leftover")
    old = _time.time() - STALE_TMP_S - 60.0
    os.utime(stale, (old, old))

    assert store.clear() == 2            # the entry + the stale temp
    assert live.exists()
    assert not stale.exists()
