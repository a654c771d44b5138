"""End-to-end flow tests (small scales; the heavy runs live in benches)."""

from dataclasses import replace

import pytest

from repro.flow.design_flow import FlowConfig, run_flow
from repro.flow.reports import format_table, percentage_diff


def test_iso_performance_comparison(aes_comparison_small):
    cmp = aes_comparison_small
    r2, r3 = cmp.result_2d, cmp.result_3d
    # Iso-performance: same clock, both timing-closed (small grace).
    assert r3.clock_ns == pytest.approx(r2.clock_ns)
    assert r2.wns_ps > -80.0
    assert r3.wns_ps > -80.0


def test_footprint_reduction_shape(aes_comparison_small):
    diff = aes_comparison_small.diff("footprint_um2")
    # Paper: -40.9 .. -43.4 % at 45 nm.
    assert -55.0 < diff < -33.0


def test_wirelength_reduction_shape(aes_comparison_small):
    diff = aes_comparison_small.diff("total_wirelength_um")
    # Paper: -21.5 .. -33.6 %.
    assert -45.0 < diff < -8.0


def test_power_breakdown_direction(aes_comparison_small):
    cmp = aes_comparison_small
    # Net power must fall (shorter wires); wire power falls more than
    # pin power.
    assert cmp.power_diff("net_mw") < 0.0
    assert cmp.power_diff("net_wire_mw") < cmp.power_diff("net_pin_mw")


def test_result_rows_render(aes_comparison_small):
    cmp = aes_comparison_small
    text = format_table(cmp.detail_rows(), "detail")
    assert "2D" in text and "3D" in text
    summary = cmp.summary_row()
    assert summary["circuit"] == "AES"
    assert summary["footprint"].endswith("%")


def test_flow_config_knobs_run():
    # Each study knob exercises a distinct code path; smoke them tiny.
    result = run_flow(FlowConfig(circuit="fpu", scale=0.08,
                                 pin_cap_scale=0.6))
    assert result.power.total_mw > 0.0
    result = run_flow(FlowConfig(circuit="fpu", scale=0.08, is_3d=True,
                                 metal_stack="tmi+m"))
    assert result.power.total_mw > 0.0
    result = run_flow(FlowConfig(circuit="fpu", scale=0.08,
                                 local_resistivity_scale=0.5))
    assert result.power.total_mw > 0.0


@pytest.fixture(scope="module")
def aes_2d_small():
    return run_flow(FlowConfig(circuit="aes", scale=0.05))


@pytest.mark.parametrize("knob", [
    {"tiers": 4},
    {"fold_style": "interleave"},
    {"miv_koz_diameters": 2.0},
    {"metal_stack": "tmi+m"},
    {"use_tmi_wlm": False},
])
def test_2d_runs_ignore_the_3d_only_knobs(aes_2d_small, knob):
    # 2D run keys leave these knobs out; that holds only while a 2D
    # flow gives bit-identical results whatever their values.
    def outcome(result):
        return (result.summary_row(), result.power, result.clock_ns,
                result.routing.lengths_um)

    knobbed = run_flow(replace(aes_2d_small.config, **knob))
    assert outcome(knobbed) == outcome(aes_2d_small)


def test_explicit_clock_respected():
    result = run_flow(FlowConfig(circuit="fpu", scale=0.08,
                                 target_clock_ns=30.0))
    assert result.clock_ns == 30.0
    assert result.wns_ps >= 0.0


def test_percentage_diff():
    assert percentage_diff(58.3, 100.0) == pytest.approx(-41.7)
    assert percentage_diff(0.0, 0.0) == 0.0
