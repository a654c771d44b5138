"""The DSE engine: grid/adaptive strategies, dedup, budget, provenance,
and deterministic frontier reports.

The sweeps here vary ``pi_activity``/``seq_activity`` — power-stage-only
knobs — so after the first full flow every further point restores the
sign-off state in one load and only recomputes the power stage.  That
keeps a multi-point exploration barely more expensive than one flow
run.
"""

import json

import pytest

from repro.dse import (
    AdaptiveStrategy,
    Axis,
    DseEngine,
    GridStrategy,
    SweepSpace,
    make_strategy,
)
from repro.errors import DseError, FlowError
from repro.experiments import runner
from repro.flow.design_flow import FlowConfig

BASE = FlowConfig(circuit="fpu", scale=0.06)


pytestmark = pytest.mark.usefixtures("fresh_session")


def _space(values=(0.1, 0.3)):
    return SweepSpace(BASE, [Axis(name="pi_activity", values=values)])


def test_grid_explore_evaluates_every_point_and_replays_the_front():
    engine = DseEngine(_space(), objectives=("power", "leakage"))
    result = engine.explore()
    assert len(result.points) == 2
    assert result.rounds == 1
    assert result.front, "some point must be non-dominated"
    # Provenance: every frontier member replays entirely from the warm
    # stage store — the sign-off state and the power report hit,
    # nothing recomputed.
    assert result.provenance
    for row in result.provenance:
        assert row["stage_hits"] == 2
        assert row["stage_misses"] == 0
        assert row["replay_ok"]
        assert len(row["trace_digest"]) == 64
    assert result.cache_hits == 2 * len(result.front)


def test_stage_cached_points_equal_cold_isolated_flows():
    """A layout knob crossed with a power knob: the points share the
    synthesis and placement checkpoints, and two of them only the power
    stage apart.  Each point's objectives must still equal a cold,
    isolated ``run_flow`` of its config (no store, empty memos)."""
    from repro.dse.cost import resolve_objectives
    from repro.flow.design_flow import run_flow

    names = ("power", "wirelength")
    space = SweepSpace(BASE, [
        Axis(name="router_detour_coeff", values=(0.3, 0.7)),
        Axis(name="pi_activity", values=(0.1, 0.3)),
    ])
    result = DseEngine(space, objectives=names).explore()
    assert len(result.points) == space.size == 4
    objectives = resolve_objectives(names)
    for point in result.points:
        runner.clear_caches()
        runner.disable_persistent_cache()
        cold = run_flow(space.config_for(point.assignment))
        assert [point.objectives[name] for name in names] == \
            [objective.value(cold) for objective in objectives]


def test_reports_are_byte_identical_across_cold_sessions():
    first = DseEngine(_space(), objectives=("power", "leakage")).explore()
    runner.clear_caches()
    second = DseEngine(_space(), objectives=("power", "leakage")).explore()
    assert first.to_json() == second.to_json()
    # The canonical document must not leak run-environment facts.
    document = json.loads(first.to_json())
    for key in ("wall_s", "jobs", "pid", "root"):
        assert key not in document


def test_duplicate_points_collapse_before_running():
    engine = DseEngine(_space(values=(0.2, 0.2)),
                       objectives=("power", "leakage"))
    result = engine.explore()
    assert len(result.points) == 1
    assert result.dedup_skips == 1


def test_knobs_2d_ignores_collapse_to_one_evaluation():
    space = SweepSpace(BASE, [Axis(name="tiers", values=(2, 4))])
    result = DseEngine(space, objectives=("power", "leakage")).explore()
    assert len(result.points) == 1
    assert result.dedup_skips == 1


def test_budget_caps_evaluations():
    engine = DseEngine(_space(values=(0.1, 0.2, 0.3)),
                       objectives=("power", "leakage"), budget=2)
    result = engine.explore()
    assert len(result.points) == 2
    assert result.budget == 2
    with pytest.raises(DseError):
        DseEngine(_space(), budget=0)


def test_adaptive_strategy_bisects_toward_the_frontier():
    space = _space(values=(0.1, 0.2, 0.3))
    engine = DseEngine(space, objectives=("power", "leakage"),
                       strategy=AdaptiveStrategy(), budget=5)
    result = engine.explore()
    assert result.rounds >= 2
    refined = [point for point in result.points
               if point.source == "refine"]
    assert refined, "adaptive exploration must propose refinements"
    for point in refined:
        value = point.assignment["pi_activity"]
        assert 0.1 <= value <= 0.3, "refinement stays inside the hull"
        assert value not in (0.1, 0.2, 0.3), "refinement is a new value"
    assert len(result.points) <= 5


def test_adaptive_initial_subgrid_is_coarse():
    space = SweepSpace(BASE, [
        Axis(name="pi_activity", values=(0.1, 0.15, 0.2, 0.25, 0.3)),
        Axis(name="metal_stack", values=("M6",)),
    ])
    initial = AdaptiveStrategy().initial(space)
    # 5 declared values collapse to endpoints + median.
    assert [a["pi_activity"] for a in initial] == [0.1, 0.2, 0.3]
    assert all(a["metal_stack"] == "M6" for a in initial)


def test_make_strategy():
    assert isinstance(make_strategy("grid"), GridStrategy)
    assert isinstance(make_strategy("adaptive"), AdaptiveStrategy)
    with pytest.raises(DseError, match="unknown strategy"):
        make_strategy("simulated-annealing")


def test_jobs_do_not_change_the_report():
    sequential = DseEngine(_space(), objectives=("power", "delay"),
                           jobs=1).explore()
    runner.clear_caches()
    parallel = DseEngine(_space(), objectives=("power", "delay"),
                         jobs=2).explore()
    assert sequential.to_json() == parallel.to_json()


def test_keep_going_records_failures_as_rows(monkeypatch):
    calls = {"n": 0}
    real = runner.cached_flow

    def flaky(config):
        calls["n"] += 1
        if config.pi_activity == 0.3:
            raise FlowError("injected point failure")
        return real(config)

    monkeypatch.setattr(runner, "cached_flow", flaky)
    runner.set_keep_going(True)
    result = DseEngine(_space(), objectives=("power", "leakage")).explore()
    assert len(result.points) == 1
    assert len(result.failures) == 1
    assert result.failures[0].error == "FlowError"
    assert result.failures[0].assignment == {"pi_activity": 0.3}
    document = json.loads(result.to_json())
    assert document["failures"][0]["error"] == "FlowError"


def test_failures_abort_without_keep_going(monkeypatch):
    def broken(config):
        raise FlowError("injected point failure")

    monkeypatch.setattr(runner, "cached_flow", broken)
    with pytest.raises(FlowError):
        DseEngine(_space(), objectives=("power", "leakage")).explore()


def test_engine_reuses_a_bound_persistent_store(tmp_path):
    runner.use_persistent_cache(tmp_path / "store")
    first = DseEngine(_space(), objectives=("power", "leakage")).explore()
    assert first.cache_hits == 2 * len(first.front)
    # Second exploration in a fresh process-state: every evaluation is
    # already warm in the store.
    runner.clear_caches()
    runner.use_persistent_cache(tmp_path / "store")
    engine = DseEngine(_space(), objectives=("power", "leakage"))
    second = engine.explore()
    assert engine.prewarm_hits == len(second.points)
    assert first.to_json() == second.to_json()


def test_engine_rejects_bad_setup():
    with pytest.raises(DseError):
        DseEngine(_space(), objectives=("power",))
    with pytest.raises(DseError):
        DseEngine(_space(), objectives=("power", "sparkle"))
