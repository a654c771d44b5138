"""Experiment-runner cache tests."""

from dataclasses import replace

import pytest

from repro.experiments.runner import (
    cached_comparison,
    cached_flow,
    clear_caches,
    default_scale,
    DEFAULT_SCALES,
)
from repro.flow.design_flow import FlowConfig


def test_default_scales_cover_all_benchmarks():
    assert set(DEFAULT_SCALES) == {"fpu", "aes", "ldpc", "des", "m256",
                                   "noc"}
    assert default_scale("unknown") == 0.1
    assert default_scale("LDPC") == DEFAULT_SCALES["ldpc"]


def test_comparison_cache_hits():
    clear_caches()
    first = cached_comparison("fpu", scale=0.06)
    second = cached_comparison("fpu", scale=0.06)
    assert first is second
    third = cached_comparison("fpu", scale=0.07)
    assert third is not first
    clear_caches()


def test_flow_cache_keyed_by_config():
    clear_caches()
    config = FlowConfig(circuit="fpu", scale=0.06)
    first = cached_flow(config)
    # Dataclass equality: an identical config hits the cache.
    second = cached_flow(FlowConfig(circuit="fpu", scale=0.06))
    assert first is second
    different = cached_flow(FlowConfig(circuit="fpu", scale=0.06,
                                       pin_cap_scale=0.5))
    assert different is not first
    clear_caches()


def test_flow_cache_hit_returns_the_callers_config():
    # A 2D run ignores tiers, so a tiers=4 request hits the tiers=2
    # entry; drivers that replace() the result's config keep their knob.
    clear_caches()
    config = FlowConfig(circuit="fpu", scale=0.06)
    first = cached_flow(config)
    hit = cached_flow(replace(config, tiers=4))
    assert hit.config.tiers == 4
    assert hit.power is first.power
    assert cached_flow(config).config.tiers == 2
    clear_caches()


def test_kwargs_distinguish_cache_entries():
    clear_caches()
    a = cached_comparison("fpu", scale=0.06, seq_activity=0.1)
    b = cached_comparison("fpu", scale=0.06, seq_activity=0.3)
    assert a is not b
    assert b.result_2d.power.total_mw > a.result_2d.power.total_mw
    clear_caches()


def test_cache_insert_survives_checkpoint_write_failure(tmp_path):
    # With --resume active, a value the store cannot persist (here:
    # unpicklable) must still land in the in-process memo — a disk
    # problem never discards a computed result.
    from repro.experiments import runner
    from repro.runtime.session import current_session

    clear_caches()
    runner.use_persistent_cache(tmp_path)
    try:
        unpicklable = lambda: None       # noqa: E731
        flows = current_session().flows
        runner._cache_insert(flows, "some-key", unpicklable)
        assert flows["some-key"] is unpicklable
        assert runner.persistent_store().stats()["entries"] == 0
    finally:
        runner.disable_persistent_cache()
        clear_caches()
