"""G-MI (gate-level monolithic) extension tests."""

import pytest

from repro.cells.folding import FoldSpec
from repro.circuits.generators import generate_benchmark
from repro.errors import TechnologyError
from repro.experiments import runner
from repro.flow import design_flow
from repro.flow.design_flow import FlowConfig, library_for, run_flow
from repro.flow.gmi import (
    partition_tiers,
    crossing_nets,
    GMI_AREA_OVERHEAD,
)
from repro.obs import Tracer
from repro.runtime.session import override

GMI = dict(is_3d=True, fold_style="gate")


@pytest.fixture(scope="module")
def gmi_result():
    return run_flow(FlowConfig(circuit="fpu", scale=0.1, **GMI))


def test_partition_balanced(lib45_2d):
    module = generate_benchmark("fpu", scale=0.08)
    tier = partition_tiers(module, lib45_2d)
    assert set(tier.values()) == {0, 1}
    areas = [0.0, 0.0]
    for idx, t in tier.items():
        areas[t] += lib45_2d.cell(module.instances[idx].cell_name).area_um2
    balance = min(areas) / max(areas)
    assert balance > 0.6


def test_partition_beats_random_cut(lib45_2d):
    module = generate_benchmark("des", scale=0.08)
    tier = partition_tiers(module, lib45_2d)
    crossing = len(crossing_nets(module, tier))
    random_tier = {i: i % 2 for i in range(len(module.instances))}
    random_crossing = len(crossing_nets(module, random_tier))
    # Connectivity-driven partitioning cuts far fewer nets than an
    # arbitrary alternation (clustered circuits especially).
    assert crossing < random_crossing * 0.5


def test_gmi_footprint_near_paper_quote(gmi_result, lib45_2d):
    # Paper Section 4.2: G-MI-like [2] reaches ~30 % footprint reduction.
    module = generate_benchmark("fpu", scale=0.1)
    total_area = sum(lib45_2d.cell(i.cell_name).area_um2
                     for i in module.instances)
    base_2d_footprint = total_area / 0.80
    reduction = 1.0 - gmi_result.footprint_um2 / base_2d_footprint
    assert 0.15 < reduction < 0.45


def test_gmi_result_sane(gmi_result):
    assert gmi_result.power.total_mw > 0.0
    assert gmi_result.total_wirelength_um > 0.0
    assert gmi_result.crossing_nets > 0
    assert 0.0 < gmi_result.crossing_nets / gmi_result.n_cells < 0.6
    assert gmi_result.wns_ps > -80.0
    # A G-MI run is audited like every other run.
    assert gmi_result.audit is not None
    assert gmi_result.audit.n_checks > 0


def test_overhead_constant_documented():
    assert 1.0 < GMI_AREA_OVERHEAD < 2.0


def test_gate_fold_is_two_tiers_only():
    assert FoldSpec(tiers=2, style="gate").tiers == 2
    with pytest.raises(TechnologyError):
        FoldSpec(tiers=4, style="gate")


def test_gate_fold_gets_the_planar_library(monkeypatch):
    # Built first into an empty cache, the gate fold's library must be
    # the planar one that later 2D runs share.
    monkeypatch.setattr(design_flow, "_LIBRARY_CACHE", {})
    library = library_for("45nm", True, fold=FoldSpec(style="gate"))
    assert not library.is_3d
    assert library_for("45nm", False) is library


def test_gmi_rerun_replays_from_the_stage_store(fresh_session, tmp_path):
    runner.use_persistent_cache(tmp_path)
    config = FlowConfig(circuit="fpu", scale=0.06, **GMI)
    first = run_flow(config)
    tracer = Tracer()
    with override(tracer=tracer):
        second = run_flow(config)
    counts = tracer.counts()
    assert counts.get("checkpoint.stage_misses", 0) == 0
    assert counts["checkpoint.stage_hits"] == 2
    assert counts["checkpoint.stage_hits.signoff"] == 1
    assert second.power == first.power
    assert second.crossing_nets == first.crossing_nets
