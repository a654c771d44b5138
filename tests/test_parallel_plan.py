"""Task-graph tests: dedup, key discipline, deferrals, plan building."""

from dataclasses import replace

import pytest

from repro.experiments.runner import comparison_key, default_scale
from repro.flow.design_flow import FlowConfig
from repro.flow.stagecache import run_key
from repro.parallel import (
    KIND_COMPARISON,
    KIND_FLOW,
    DeferredTasks,
    TaskGraph,
    build_plan,
    comparison_task,
    flow_task,
)


# -- spec builders ---------------------------------------------------------

def test_comparison_task_resolves_default_scale():
    spec = comparison_task("ldpc")
    assert spec.kind == KIND_COMPARISON
    assert spec.payload.scale == default_scale("ldpc")
    assert spec.key == comparison_key("ldpc", "45nm",
                                      default_scale("ldpc"), {})


def test_comparison_task_key_matches_cached_call_site():
    # The worker computes exactly the cache entry the driver later reads:
    # the spec key must equal the cached_comparison key for the same call.
    spec = comparison_task("des", node_name="7nm", scale=0.08,
                           pin_cap_scale=0.6, target_clock_ns=1.5)
    assert spec.key == comparison_key(
        "des", "7nm", 0.08,
        {"pin_cap_scale": 0.6, "target_clock_ns": 1.5})
    assert "pin_cap_scale=0.6" in spec.label


def test_flow_task_key_matches_run_key():
    config = FlowConfig(circuit="m256", node_name="7nm", is_3d=True,
                        scale=0.05, metal_stack="tmi+m")
    spec = flow_task(config)
    assert spec.kind == KIND_FLOW
    assert spec.key == run_key(config)
    assert spec.payload is config
    # The metal stack is a T-MI input, but a 2D run ignores it.
    assert spec.key != flow_task(replace(config, metal_stack="default")).key
    planar = replace(config, is_3d=False)
    assert flow_task(planar).key == \
        flow_task(replace(planar, metal_stack="default")).key


def test_task_keys_stable_across_builds():
    a = comparison_task("aes", scale=0.1, target_utilization=0.6)
    b = comparison_task("aes", scale=0.1, target_utilization=0.6)
    assert a.key == b.key
    assert a.label == b.label


# -- TaskGraph -------------------------------------------------------------

def test_graph_dedups_identical_declarations():
    graph = TaskGraph()
    graph.add([comparison_task("fpu"), comparison_task("fpu"),
               [comparison_task("aes"), None]])
    assert len(graph) == 2
    assert comparison_task("fpu").key in graph


def test_graph_registers_deferral_requires():
    base = comparison_task("aes", scale=0.05)
    graph = TaskGraph([DeferredTasks(requires=(base,),
                                     derive=lambda values: [])])
    # The required base spec is pulled into the executable task set.
    assert base.key in graph
    assert len(graph.deferred) == 1


def test_graph_rejects_foreign_objects():
    with pytest.raises(TypeError):
        TaskGraph().add(object())


# -- build_plan ------------------------------------------------------------

def test_bench_group_dedups_to_five_45nm_comparisons():
    # Tables 4, 13, 16 and Fig. 3 declare 14 comparisons between them but
    # share the same five 45 nm runs — the whole point of the task graph.
    graph = build_plan(["table4", "table13", "table16", "fig3"])
    assert len(graph) == 5
    assert not graph.deferred
    circuits = {spec.payload.circuit for spec in graph.tasks.values()}
    assert circuits == {"fpu", "aes", "ldpc", "des", "m256"}
    assert all(spec.payload.node_name == "45nm"
               for spec in graph.tasks.values())


def test_single_experiment_plan_is_subset_of_group_plan():
    solo = build_plan(["table4"])
    group = build_plan(["table4", "table13"])
    assert set(solo.tasks) == set(group.tasks)


def test_sweep_drivers_declare_deferrals():
    graph = build_plan(["fig4", "table8", "table9", "table17"])
    # Base comparisons are immediate; every sweep grid waits on its base
    # (the derived clocks/utilizations are only known after closure).
    assert len(graph.deferred) == 6
    for deferral in graph.deferred:
        assert all(req.key in graph for req in deferral.requires)


def test_build_plan_rejects_unknown_id():
    with pytest.raises(KeyError):
        build_plan(["table99"])


def test_drivers_without_hook_contribute_nothing():
    # table2 is a characterization table with no flow runs behind it.
    graph = build_plan(["table2"])
    assert len(graph) == 0 and not graph.deferred
