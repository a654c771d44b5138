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
from repro.runtime.supervisor import StageSupervisor

SMALL = dict(circuit="fpu", scale=0.06)

# The supervised stages whose payloads persist (placement persists via
# per-attempt keys inside the layout loop).
PERSISTED = ("synthesis", "signoff", "power")


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

def test_warm_rerun_hits_only_signoff_and_power(tmp_path):
    """A warm rerun restores its sign-off state in one load: the stages
    that state covers are neither fetched nor run."""
    runner.use_persistent_cache(tmp_path)
    first = run_flow(FlowConfig(**SMALL))
    tracer = Tracer()
    with override(tracer=tracer):
        second = run_flow(FlowConfig(**SMALL))
    assert _stage_counters(tracer) == {
        "checkpoint.stage_hits": 2,
        "checkpoint.stage_hits.signoff": 1,
        "checkpoint.stage_hits.power": 1,
    }
    assert _row_bytes(second) == _row_bytes(first)


def test_power_knob_rerun_restores_the_signoff_state(tmp_path):
    """Changing only an activity fetches sign-off (a hit) and power (a
    miss) and nothing else; only prepare, power and the audit run, and
    the row equals a cold run's made with no store."""
    changed_config = FlowConfig(pi_activity=0.3, **SMALL)
    reference = _row_bytes(run_flow(changed_config))

    runner.use_persistent_cache(tmp_path)
    run_flow(FlowConfig(**SMALL))            # warm base run
    tracer = Tracer()
    supervisor = StageSupervisor()
    with override(tracer=tracer, supervisor=supervisor):
        incremental = run_flow(changed_config)

    assert _stage_counters(tracer) == {
        "checkpoint.stage_hits": 1,
        "checkpoint.stage_hits.signoff": 1,
        "checkpoint.stage_misses": 1,
        "checkpoint.stage_misses.power": 1,
    }
    assert [record.stage for record in supervisor.journal.records] == \
        ["prepare", "power", "audit"]
    assert _row_bytes(incremental) == reference


def test_cold_flow_leaves_state_and_power_entries_only(tmp_path):
    """Synthesis, each placement attempt, sign-off and power persist,
    under the digest chain's keys; layout and post-route leave no entry
    of their own."""
    store = runner.use_persistent_cache(tmp_path)
    config = FlowConfig(**SMALL)
    result = run_flow(config)
    assert result.utilization_target == config.target_utilization

    digests = stagecache.stage_digests(config)
    assert set(store.keys()) == {
        digests["synthesis"],
        stagecache.placement_attempt_key(
            digests["placement"], config.target_utilization, 1),
        digests["signoff"],
        digests["power"],
    }
    assert digests["layout"] not in store
    assert digests["post_route"] not in store


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

    # Sign-off's digest moved, so the run falls back to the states it
    # finds: synthesis and placement hit, sign-off and power miss, and
    # layout and post-route have no entries to look up.
    assert _stage_counters(tracer) == {
        "checkpoint.stage_hits": 2,
        "checkpoint.stage_hits.synthesis": 1,
        "checkpoint.stage_hits.placement": 1,
        "checkpoint.stage_misses": 2,
        "checkpoint.stage_misses.signoff": 1,
        "checkpoint.stage_misses.power": 1,
    }
    assert _row_bytes(incremental) == reference


def test_corrupt_signoff_entry_falls_back_to_placement(tmp_path):
    """A bit-flipped sign-off entry is quarantined and reads as a miss:
    the rerun restores the synthesis and placement states, recomputes
    from there, and gives the same row."""
    store = runner.use_persistent_cache(tmp_path)
    config = FlowConfig(**SMALL)
    first = run_flow(config)
    path = store.path_for(stagecache.stage_digests(config)["signoff"])
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))

    tracer = Tracer()
    with override(tracer=tracer):
        second = run_flow(config)
    assert list(tmp_path.glob("*.ckpt.corrupt"))
    assert _stage_counters(tracer) == {
        "checkpoint.stage_hits": 3,
        "checkpoint.stage_hits.synthesis": 1,
        "checkpoint.stage_hits.placement": 1,
        "checkpoint.stage_hits.power": 1,
        "checkpoint.stage_misses": 1,
        "checkpoint.stage_misses.signoff": 1,
    }
    assert _row_bytes(second) == _row_bytes(first)


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
    for stage in ("signoff", "power"):
        assert rows[stage]["warm"] is False  # changed digests: cold
    for stage in ("prepare", "layout", "post_route"):
        assert rows[stage]["warm"] is None   # never persisted
    assert not rows["audit"]["reused"]       # always re-verified

    # After actually running the changed config, its stages are warm.
    run_flow(changed)
    rows = {row["stage"]: row
            for row in stagecache.whatif(base, changed, store=store)}
    assert all(rows[stage]["warm"] for stage in PERSISTED)
    assert rows["placement"]["warm"]
