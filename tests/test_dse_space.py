"""Sweep-space declaration, registry validation, and value coercion."""

import dataclasses
import json

import pytest

from repro.dse.cost import CostFunction, resolve_objectives
from repro.dse.space import Axis, SweepSpace, coerce_field_value
from repro.errors import DseError
from repro.flow import stagecache
from repro.flow.design_flow import FlowConfig

BASE = FlowConfig(circuit="fpu", scale=0.06)


# -- registry queries ------------------------------------------------------

def test_sweepable_fields_cover_every_config_field():
    """The DSE axis registry is STAGE_PARAMS itself — same invariant as
    the digest chain: every FlowConfig field is sweepable."""
    fields = {f.name for f in dataclasses.fields(FlowConfig)}
    assert set(stagecache.sweepable_fields()) == fields


def test_invalidated_stages_match_the_digest_chain():
    """``invalidated_stages`` must agree with what actually changes in
    ``stage_digests`` when the field changes value."""
    base_digests = stagecache.stage_digests(BASE)
    probes = {
        "pi_activity": 0.31,
        "router_detour_coeff": 0.77,
        "pin_cap_scale": 0.83,
        "target_utilization": 0.61,
        "seed": 1234,
        "is_3d": True,
    }
    for name, value in probes.items():
        changed = stagecache.stage_digests(
            dataclasses.replace(BASE, **{name: value}))
        actually_changed = {stage for stage in base_digests
                            if base_digests[stage] != changed[stage]}
        assert actually_changed == set(stagecache.invalidated_stages(name)), \
            name


def test_invalidated_stages_rejects_unknown_field():
    with pytest.raises(KeyError):
        stagecache.invalidated_stages("not_a_field")


def test_field_report_lists_every_field_once():
    rows = stagecache.field_report()
    assert [row["field"] for row in rows] == \
        sorted(stagecache.sweepable_fields())
    for row in rows:
        assert row["read by"]
        assert row["invalidates"]


# -- axes ------------------------------------------------------------------

def test_axis_parse_and_coercion():
    axis = Axis.parse("pin_cap_scale=0.6, 0.8 ,1")
    assert axis.name == "pin_cap_scale"
    assert axis.values == (0.6, 0.8, 1.0)
    assert all(isinstance(v, float) for v in axis.values)
    assert axis.refinable
    assert axis.lo == 0.6 and axis.hi == 1.0


def test_axis_rejects_unknown_field():
    with pytest.raises(DseError, match="not a registered flow input"):
        Axis.parse("frobnication=1,2")


def test_axis_rejects_empty_values():
    with pytest.raises(DseError):
        Axis.parse("pin_cap_scale=")
    with pytest.raises(DseError):
        Axis.parse("pin_cap_scale")


def test_axis_type_mismatch():
    with pytest.raises(DseError, match="expected a float"):
        Axis.parse("pin_cap_scale=0.6,banana")
    with pytest.raises(DseError, match="boolean"):
        Axis(name="is_3d", values=("0.5",))


def test_int_and_categorical_axes_are_not_refinable():
    assert not Axis(name="seed", values=(1, 2, 3)).refinable
    assert not Axis(name="metal_stack", values=("M4", "M6")).refinable
    assert not Axis(name="pin_cap_scale", values=(1.0,)).refinable


def test_coercion_unifies_text_and_json_scalars():
    """'0.8', 0.8, and 8e-1 must produce one canonical config key —
    the planner's dedup depends on it."""
    from repro.flow.stagecache import run_key

    keys = {run_key(dataclasses.replace(
        BASE, pin_cap_scale=coerce_field_value("pin_cap_scale", raw)))
        for raw in ("0.8", 0.8, "8e-1", 0.8 + 0.0)}
    assert len(keys) == 1


def test_coerce_none_and_bool():
    assert coerce_field_value("target_clock_ns", "none") is None
    assert coerce_field_value("target_clock_ns", None) is None
    assert coerce_field_value("is_3d", "true") is True
    assert coerce_field_value("is_3d", False) is False
    assert coerce_field_value("seed", "7") == 7
    with pytest.raises(DseError):
        coerce_field_value("seed", 7.5)


# -- spaces ----------------------------------------------------------------

def _space():
    return SweepSpace(BASE, [
        Axis(name="target_clock_ns", values=(2.0, 2.5)),
        Axis(name="pin_cap_scale", values=(0.8, 1.0, 1.2)),
    ])


def test_assignments_are_the_cartesian_product_in_order():
    space = _space()
    assert space.size == 6
    assignments = space.assignments()
    assert len(assignments) == 6
    assert assignments[0] == {"target_clock_ns": 2.0,
                              "pin_cap_scale": 0.8}
    # itertools.product: the last axis varies fastest.
    assert assignments[1] == {"target_clock_ns": 2.0,
                              "pin_cap_scale": 1.0}
    assert assignments[-1] == {"target_clock_ns": 2.5,
                               "pin_cap_scale": 1.2}


def test_config_for_replaces_base_fields():
    space = _space()
    config = space.config_for({"target_clock_ns": 2.5,
                               "pin_cap_scale": 0.8})
    assert config.circuit == BASE.circuit
    assert config.scale == BASE.scale
    assert config.target_clock_ns == 2.5
    assert config.pin_cap_scale == 0.8


def test_contains_enforces_the_declared_hull():
    space = _space()
    assert space.contains({"target_clock_ns": 2.25,
                           "pin_cap_scale": 1.0})
    assert not space.contains({"target_clock_ns": 3.0,
                               "pin_cap_scale": 1.0})
    assert not space.contains({"target_clock_ns": 2.0})


def test_duplicate_axes_rejected():
    with pytest.raises(DseError, match="duplicate"):
        SweepSpace(BASE, [Axis(name="seed", values=(1,)),
                          Axis(name="seed", values=(2,))])


def test_space_round_trips_through_dict():
    space = _space()
    clone = SweepSpace.from_dict(space.to_dict())
    assert clone.to_dict() == space.to_dict()
    assert clone.base == space.base


def test_space_from_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "base": {"circuit": "ldpc", "scale": 0.04},
        "axes": {"pin_cap_scale": [0.8, 1.0]},
    }))
    space = SweepSpace.from_file(path)
    assert space.base.circuit == "ldpc"
    assert space.axes[0].values == (0.8, 1.0)


def test_space_file_base_overrides_cli_base(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "base": {"scale": 0.05},
        "axes": {"pin_cap_scale": [0.8, 1.0]},
    }))
    space = SweepSpace.from_file(path, base=BASE)
    assert space.base.circuit == "fpu"
    assert space.base.scale == 0.05


def test_space_document_errors(tmp_path):
    with pytest.raises(DseError, match="axes"):
        SweepSpace.from_dict({"base": {"circuit": "fpu"}})
    with pytest.raises(DseError, match="circuit"):
        SweepSpace.from_dict({"axes": {"pin_cap_scale": [1.0]}})
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(DseError, match="not valid JSON"):
        SweepSpace.from_file(bad)
    with pytest.raises(DseError, match="cannot read"):
        SweepSpace.from_file(tmp_path / "missing.json")


# -- objectives / cost -----------------------------------------------------

def test_resolve_objectives_validation():
    names = [o.name for o in resolve_objectives(["power", "delay"])]
    assert names == ["power", "delay"]
    with pytest.raises(DseError, match="at least two"):
        resolve_objectives(["power"])
    with pytest.raises(DseError, match="unknown objective"):
        resolve_objectives(["power", "smell"])
    with pytest.raises(DseError, match="twice"):
        resolve_objectives(["power", "power"])


def test_cost_function_modes():
    vectors = [(2.0, 4.0), (1.0, 8.0)]
    product = CostFunction().score_all(vectors, ["power", "delay"],
                                       reference=(1.0, 4.0))
    assert product == pytest.approx([2.0, 2.0])
    weighted = CostFunction({"power": 2.0}).score_all(
        vectors, ["power", "delay"], reference=(1.0, 4.0))
    assert weighted == pytest.approx([4.0, 2.0])
    summed = CostFunction(mode="sum", normalization="none").score_all(
        vectors, ["power", "delay"])
    assert summed == pytest.approx([6.0, 9.0])
    minmax = CostFunction(normalization="minmax").score_all(
        vectors, ["power", "delay"])
    assert minmax == pytest.approx([2.0 * 1.0, 1.0 * 2.0])


def test_cost_function_validation():
    with pytest.raises(DseError, match="unknown cost mode"):
        CostFunction(mode="geometric")
    with pytest.raises(DseError, match="unknown normalization"):
        CostFunction(normalization="zscore")
    with pytest.raises(DseError, match="unknown objective"):
        CostFunction({"smell": 1.0})
    with pytest.raises(DseError, match="not finite"):
        CostFunction({"power": float("nan")})
    with pytest.raises(DseError, match="reference"):
        CostFunction().score_all([(1.0, 2.0)], ["power", "delay"])
    with pytest.raises(DseError, match="negative"):
        CostFunction(normalization="none").score_all(
            [(-1.0, 2.0)], ["slack", "delay"])
