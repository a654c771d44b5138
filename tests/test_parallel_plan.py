"""Task-graph tests: dedup, key discipline, deferrals, plan building."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.experiments.runner import comparison_config, default_scale
from repro.flow.compare import paired_config
from repro.flow.design_flow import FlowConfig
from repro.flow.stagecache import run_key
from repro.parallel import (
    DeferredTasks,
    TaskGraph,
    build_plan,
    comparison_task,
    flow_task,
)

# Stands in for a closed 2D run: all a pairing reads of it.
CLOSED_2D = SimpleNamespace(clock_ns=1.25, utilization_target=0.7)


def _derived(deferral, value=CLOSED_2D):
    """The tasks a deferral derives once its bases returned ``value``."""
    return TaskGraph(deferral.derive([value] * len(deferral.requires)))


# -- spec builders ---------------------------------------------------------

def test_comparison_task_resolves_default_scale():
    (spec,) = comparison_task("ldpc").requires
    assert spec.config.scale == default_scale("ldpc")
    assert not spec.config.is_3d
    assert spec.key == run_key(FlowConfig(circuit="ldpc",
                                          scale=default_scale("ldpc")))


def test_comparison_task_key_matches_cached_call_site():
    # The workers compute exactly the cache entries the experiment driver later
    # reads: the 2D key, and the T-MI key paired with the closed 2D run,
    # must equal cached_comparison's for the same call.
    deferral = comparison_task("des", node_name="7nm", scale=0.08,
                               pin_cap_scale=0.6, target_clock_ns=1.5)
    config_2d = comparison_config("des", "7nm", 0.08, pin_cap_scale=0.6,
                                  target_clock_ns=1.5)
    assert [spec.key for spec in deferral.requires] == [run_key(config_2d)]
    (spec_3d,) = _derived(deferral).tasks.values()
    assert spec_3d.config == paired_config(config_2d, CLOSED_2D)
    assert spec_3d.key == run_key(spec_3d.config)
    assert "pin_cap_scale=0.6" in deferral.label


def test_comparison_task_pairs_its_own_2d_config():
    # Requests differing only in fold knobs share one 2D task; each
    # derives its T-MI task from its own config, not the shared result's.
    paper = comparison_task("aes", scale=0.05)
    quad = comparison_task("aes", scale=0.05, tiers=4)
    assert paper.requires[0].key == quad.requires[0].key
    shared = SimpleNamespace(config=paper.requires[0].config,
                             clock_ns=1.25, utilization_target=0.7)
    (tmi_paper,) = _derived(paper, shared).tasks.values()
    (tmi_quad,) = _derived(quad, shared).tasks.values()
    assert tmi_paper.config.tiers == 2 and tmi_quad.config.tiers == 4
    assert tmi_paper.key != tmi_quad.key


def test_flow_task_key_matches_run_key():
    config = FlowConfig(circuit="m256", node_name="7nm", is_3d=True,
                        scale=0.05, metal_stack="tmi+m")
    spec = flow_task(config)
    assert spec.key == run_key(config)
    assert spec.config is config
    # The metal stack is a T-MI input, but a 2D run ignores it.
    assert spec.key != flow_task(replace(config, metal_stack="default")).key
    planar = replace(config, is_3d=False)
    assert flow_task(planar).key == \
        flow_task(replace(planar, metal_stack="default")).key


def test_task_keys_stable_across_builds():
    a = comparison_task("aes", scale=0.1, target_utilization=0.6)
    b = comparison_task("aes", scale=0.1, target_utilization=0.6)
    assert [spec.key for spec in a.requires] == \
        [spec.key for spec in b.requires]
    assert a.label == b.label
    assert set(_derived(a).tasks) == set(_derived(b).tasks)


# -- TaskGraph -------------------------------------------------------------

def test_graph_dedups_identical_declarations():
    graph = TaskGraph()
    graph.add([comparison_task("fpu"), comparison_task("fpu"),
               [comparison_task("aes"), None]])
    assert len(graph) == 2
    assert len(graph.deferred) == 3
    assert comparison_task("fpu").requires[0].key in graph


def test_graph_registers_deferral_requires():
    base = flow_task(FlowConfig(circuit="aes", scale=0.05))
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
    # share the same five 45 nm comparisons — the whole point of the task
    # graph: five 2D tasks at plan time, ten flow tasks once the T-MI
    # runs are derived.
    graph = build_plan(["table4", "table13", "table16", "fig3"])
    assert len(graph) == 5
    assert len(graph.deferred) == 14
    configs = [spec.config for spec in graph.tasks.values()]
    assert {c.circuit for c in configs} == {"fpu", "aes", "ldpc", "des",
                                            "m256"}
    assert all(c.node_name == "45nm" and not c.is_3d for c in configs)
    keys = set(graph.tasks)
    for deferral in graph.deferred:
        keys |= set(_derived(deferral).tasks)
    assert len(keys) == 10


def test_single_experiment_plan_is_subset_of_group_plan():
    solo = build_plan(["table4"])
    group = build_plan(["table4", "table13"])
    assert set(solo.tasks) == set(group.tasks)


def test_sweep_drivers_declare_deferrals():
    graph = build_plan(["fig4", "table8", "table9", "table17"])
    # Base 2D runs are immediate; their six T-MI pairings and every
    # sweep grid wait on them (the derived clocks/utilizations are only
    # known after closure).
    assert len(graph.deferred) == 12
    for deferral in graph.deferred:
        assert all(req.key in graph for req in deferral.requires)


def test_build_plan_rejects_unknown_id():
    with pytest.raises(KeyError):
        build_plan(["table99"])


def test_drivers_without_hook_contribute_nothing():
    # table2 is a characterization table with no flow runs behind it.
    graph = build_plan(["table2"])
    assert len(graph) == 0 and not graph.deferred
