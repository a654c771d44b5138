"""Stage-level incremental memoization: digest chains, warm-store
reuse, partial recompute on a router-only change, and whatif reports."""

import dataclasses
import json

import pytest

from repro.experiments import runner
from repro.flow import stagecache
from repro.flow.design_flow import FlowConfig, run_flow
from repro.obs import Tracer
from repro.runtime.session import override

SMALL = dict(circuit="fpu", scale=0.06)

# The supervised stages whose payloads persist (placement persists via
# per-attempt keys inside the layout loop).
PERSISTED = ("synthesis", "layout", "post_route", "signoff", "power")


pytestmark = pytest.mark.usefixtures("fresh_session")


def _row_bytes(result):
    return json.dumps(result.summary_row(), sort_keys=True, default=str)


def _stage_counters(tracer):
    return {name: value for name, value in tracer.counts().items()
            if name.startswith("checkpoint.stage_")}


# -- digest chain ----------------------------------------------------------

def test_every_config_field_reaches_the_digest_chain():
    """Adding a FlowConfig field without wiring it into STAGE_PARAMS
    would silently serve stale checkpoints for runs varying it."""
    fields = {f.name for f in dataclasses.fields(FlowConfig)}
    covered = {name for params in stagecache.STAGE_PARAMS.values()
               for name in params}
    assert covered == fields


def test_digest_chain_isolates_parameters():
    base = stagecache.stage_digests(FlowConfig(**SMALL))

    # A power-only knob leaves everything up to signoff intact.
    power_only = stagecache.stage_digests(
        FlowConfig(pi_activity=0.3, **SMALL))
    for stage in ("prepare", "synthesis", "placement", "layout",
                  "post_route", "signoff"):
        assert power_only[stage] == base[stage]
    assert power_only["power"] != base["power"]

    # A router-only knob invalidates layout onward, placement survives.
    routed = stagecache.stage_digests(
        FlowConfig(router_detour_coeff=0.5, **SMALL))
    for stage in ("prepare", "synthesis", "placement"):
        assert routed[stage] == base[stage]
    for stage in ("layout", "post_route", "signoff", "power"):
        assert routed[stage] != base[stage]

    # A library knob at the chain root invalidates everything.
    scaled = stagecache.stage_digests(
        FlowConfig(pin_cap_scale=1.1, **SMALL))
    assert all(scaled[stage] != base[stage] for stage in base)


def test_placement_attempt_keys_distinguish_attempts():
    digest = stagecache.stage_digests(FlowConfig(**SMALL))["placement"]
    k1 = stagecache.placement_attempt_key(digest, 0.80, 1)
    k2 = stagecache.placement_attempt_key(digest, 0.52, 2)
    assert k1 != k2
    assert k1 == stagecache.placement_attempt_key(digest, 0.80, 1)


# -- warm-store reuse ------------------------------------------------------

def test_warm_rerun_hits_every_persisted_stage(tmp_path):
    runner.use_persistent_cache(tmp_path)
    first = run_flow(FlowConfig(**SMALL))
    tracer = Tracer()
    with override(tracer=tracer):
        second = run_flow(FlowConfig(**SMALL))
    counters = _stage_counters(tracer)
    for stage in PERSISTED:
        assert counters.get(f"checkpoint.stage_hits.{stage}") == 1
    assert counters.get("checkpoint.stage_misses", 0) == 0
    assert _row_bytes(second) == _row_bytes(first)


def test_router_param_change_reuses_synthesis_and_placement(tmp_path):
    """The acceptance scenario: with a warm base run, changing only a
    router parameter re-executes routing/STA/power but reuses the
    synthesis and placement checkpoints, with rows byte-identical to a
    fresh sequential run."""
    changed_config = FlowConfig(router_detour_coeff=0.50, **SMALL)

    # Reference: the changed config, fresh and sequential (no store).
    reference = _row_bytes(run_flow(changed_config))

    runner.use_persistent_cache(tmp_path)
    run_flow(FlowConfig(**SMALL))            # warm base run
    tracer = Tracer()
    with override(tracer=tracer):
        incremental = run_flow(changed_config)

    counters = _stage_counters(tracer)
    assert counters.get("checkpoint.stage_hits.synthesis") == 1
    assert counters.get("checkpoint.stage_hits.placement") == 1
    for stage in ("layout", "post_route", "signoff", "power"):
        assert counters.get(f"checkpoint.stage_misses.{stage}") == 1
        assert f"checkpoint.stage_hits.{stage}" not in counters
    assert _row_bytes(incremental) == reference


def test_without_store_is_pass_through():
    tracer = Tracer()
    with override(tracer=tracer):
        run_flow(FlowConfig(**SMALL))
    assert not _stage_counters(tracer)


# -- whatif ----------------------------------------------------------------

def test_whatif_reports_reuse_boundary_and_warmth(tmp_path):
    store = runner.use_persistent_cache(tmp_path)
    base = FlowConfig(**SMALL)
    changed = FlowConfig(router_detour_coeff=0.5, **SMALL)
    run_flow(base)                           # warm the base stages

    rows = {row["stage"]: row
            for row in stagecache.whatif(base, changed, store=store)}
    assert rows["synthesis"]["reused"] and rows["synthesis"]["warm"]
    assert rows["placement"]["reused"] and rows["placement"]["warm"]
    for stage in ("layout", "post_route", "signoff", "power"):
        assert not rows[stage]["reused"]
        assert rows[stage]["warm"] is False  # changed digests: cold
    assert rows["prepare"]["warm"] is None   # never persisted
    assert not rows["audit"]["reused"]       # always re-verified

    # After actually running the changed config, its stages are warm.
    run_flow(changed)
    rows = {row["stage"]: row
            for row in stagecache.whatif(base, changed, store=store)}
    assert all(rows[stage]["warm"] for stage in PERSISTED)
