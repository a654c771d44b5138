"""Scenario-space conformance suite.

The generalized N-tier fold, the MIV keep-out model, and the
``ScenarioSpec`` layer widen the flow far beyond the paper's single
2-tier scenario, so this suite pins two things at once:

* **specialization** — at the default ``FoldSpec`` (2 tiers, "pn",
  half-diameter keep-out) every generalized code path must reproduce
  the original hardcoded behaviour *byte for byte*: cell geometries
  equal the frozen reference fold, routing capacity derate is exactly
  1.0, and the paper scenario lowers to the bare ``FlowConfig``;
* **conservation** — for fuzzed tier counts, fold styles, and keep-out
  sizes (seeded stdlib ``random.Random``; failures replay exactly) the
  invariants that make any fold physically meaningful must hold:
  devices and nets conserved, device tiers in range and
  polarity-consistent, at least one MIV wherever a net crosses tiers,
  keep-out zones inside the legality bound, extraction layer names
  recognized.
"""

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from repro.cells.folding import (
    FOLD_STYLES,
    FoldSpec,
    MAX_FOLD_TIERS,
    MIN_FOLD_TIERS,
    device_tiers,
    fold_cell_geometry,
    tier_layers,
    _fold_cell_geometry_reference,
)
from repro.cells.nangate import CELL_DEFINITIONS, build_cell_netlist
from repro.errors import FlowError, TechnologyError
from repro.extraction.rc import ExtractionMode, extract_cell
from repro.flow import stagecache
from repro.flow.design_flow import FlowConfig
from repro.flow.scenario import (
    SCENARIO_KNOBS,
    SCENARIOS,
    ScenarioSpec,
    get_scenario,
    knob_coverage_findings,
)
from repro.tech.miv import (
    MIV_KOZ_DEFAULT,
    KOZ_CAPACITY_FLOOR,
    koz_footprint_um2,
    koz_side_um,
    routing_capacity_scale,
)
from repro.tech.node import NODE_7NM, NODE_45NM, get_node, node_names

SEEDS = (11, 23, 47)
# The fold styles that fold a cell; "gate" keeps cells planar (G-MI).
CELL_FOLDS = tuple(style for style in FOLD_STYLES if style != "gate")
NODES = ("45nm", "7nm", "asap7")

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"

# sha256 of the checked-in paper goldens (Tables 2/4/7/13/14/16,
# Figs 3/4).  The scenario-space work must leave them untouched; only a
# deliberate `repro goldens --update-goldens` may move these pins.
PAPER_GOLDEN_SHA256 = {
    "table2.json":
        "f037b0376dababb2a79ca8432089789fc0437e9acab49288b41f8bfd2dd3f328",
    "table4.json":
        "52ac9694ce9cd6f7b690fbe70184a6244aaf4bfe834605e48baf3035fd078850",
    "table7.json":
        "cd4757ce1b3dd41407dc5e78f1980cd5505027d2672727ce89d1acd4685df70c",
    "table13.json":
        "a8a86057b81d88e601ad174fe7aeab886d7856719bb5503587385cc37717d490",
    "table14.json":
        "c8d65d3c4d84c4dc8c44484fa8695d6204e7ce30844f5c20f3650bdbf35c46ee",
    "table16.json":
        "4578c884c3147ef3f5cc59302626a14cbaeb768c3fe071b01a53c08fddcc2bd0",
    "fig3.json":
        "562df6bf56acbde814c14f86833029cc3a93b7560466a311976c454b62a8846f",
    "fig4.json":
        "2d2b5e7c9ca75ba140e15c77dbd019882f082426d8d03e450d0caa71c62d2153",
}


def _all_cell_variants():
    for cell_type, strengths in CELL_DEFINITIONS:
        for strength in strengths:
            yield cell_type, float(strength)


def _sampled_variants(seed, n=12):
    rng = random.Random(seed)
    return rng.sample(list(_all_cell_variants()), n)


def _geometry_dict(geometry):
    """Geometry as a comparable dict, minus the new ``tiers`` field
    (the frozen reference predates it)."""
    d = dataclasses.asdict(geometry)
    d.pop("tiers", None)
    return d


# ---------------------------------------------------------------------------
# Specialization: N=2 defaults reproduce the frozen 2-tier fold
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("node_name", NODES)
def test_default_fold_matches_frozen_reference(node_name):
    node = get_node(node_name)
    for cell_type, strength in _all_cell_variants():
        nl = build_cell_netlist(cell_type, strength, node)
        got = fold_cell_geometry(nl, node, FoldSpec())
        want = _fold_cell_geometry_reference(nl, node)
        assert _geometry_dict(got) == _geometry_dict(want), \
            f"{cell_type} x{strength:g} @ {node_name} diverged at N=2"


@pytest.mark.parametrize("node_name", NODES)
def test_default_fold_height_is_paper_tmi_height(node_name):
    node = get_node(node_name)
    assert FoldSpec().folded_height_um(node) == node.tmi_cell_height_um


def test_default_capacity_scale_is_exactly_one():
    for node_name in NODES:
        node = get_node(node_name)
        assert routing_capacity_scale(node, MIV_KOZ_DEFAULT, 2) == 1.0


def test_default_koz_side_matches_legacy_two_diameters():
    # koz=0.5 diameters of clearance each side == the legacy hardcoded
    # 2x-diameter keep-out square.
    for node_name in NODES:
        node = get_node(node_name)
        legacy = 2.0 * node.miv_diameter_nm / 1000.0
        assert koz_side_um(node, MIV_KOZ_DEFAULT) == pytest.approx(legacy)


def test_paper_scenario_lowers_to_bare_flowconfig():
    spec = get_scenario("paper")
    lowered = spec.to_flow_config(is_3d=True)
    # The paper scenario pins AES at its bench scale; every other field
    # must equal the bare FlowConfig defaults bit for bit.
    bare = FlowConfig(circuit="aes", scale=spec.scale, is_3d=True)
    assert dataclasses.asdict(lowered) == dataclasses.asdict(bare)


def test_paper_goldens_unchanged():
    for name, want in sorted(PAPER_GOLDEN_SHA256.items()):
        data = (GOLDEN_DIR / name).read_bytes()
        got = hashlib.sha256(data).hexdigest()
        assert got == want, (
            f"goldens/{name} changed; the paper corpus must stay "
            f"byte-identical (regenerate deliberately if intended)")


# ---------------------------------------------------------------------------
# FoldSpec validation
# ---------------------------------------------------------------------------

def test_foldspec_rejects_too_few_tiers():
    with pytest.raises(TechnologyError):
        FoldSpec(tiers=MIN_FOLD_TIERS - 1)


def test_foldspec_rejects_too_many_tiers():
    with pytest.raises(TechnologyError):
        FoldSpec(tiers=MAX_FOLD_TIERS + 1)


def test_foldspec_rejects_unknown_style():
    with pytest.raises(TechnologyError):
        FoldSpec(style="diagonal")


def test_foldspec_rejects_negative_koz():
    with pytest.raises(TechnologyError):
        FoldSpec(koz_diameters=-0.1)


@pytest.mark.parametrize("seed", SEEDS)
def test_tier_groups_partition_all_tiers(seed):
    rng = random.Random(seed)
    for _ in range(50):
        tiers = rng.randint(MIN_FOLD_TIERS, MAX_FOLD_TIERS)
        style = rng.choice(CELL_FOLDS)
        p_group, n_group = FoldSpec(tiers=tiers, style=style).tier_groups()
        assert p_group and n_group
        assert not set(p_group) & set(n_group)
        assert sorted(p_group + n_group) == list(range(tiers))


def test_pn_style_keeps_pmos_below_nmos():
    for tiers in range(MIN_FOLD_TIERS, MAX_FOLD_TIERS + 1):
        p_group, n_group = FoldSpec(tiers=tiers, style="pn").tier_groups()
        assert max(p_group) < min(n_group)


def test_interleave_style_alternates_polarity():
    for tiers in range(MIN_FOLD_TIERS, MAX_FOLD_TIERS + 1):
        p_group, n_group = FoldSpec(tiers=tiers,
                                    style="interleave").tier_groups()
        assert all(t % 2 == 0 for t in p_group)
        assert all(t % 2 == 1 for t in n_group)


def test_folded_height_halves_per_tier_doubling():
    node = NODE_45NM
    h2 = FoldSpec(tiers=2).folded_height_um(node)
    h4 = FoldSpec(tiers=4).folded_height_um(node)
    h8 = FoldSpec(tiers=8).folded_height_um(node)
    assert h4 == pytest.approx(h2 / 2.0)
    assert h8 == pytest.approx(h2 / 4.0)


def test_tier_layers_unique_per_fold():
    for tiers in range(MIN_FOLD_TIERS, MAX_FOLD_TIERS + 1):
        names = [tier_layers(t, tiers) for t in range(tiers)]
        assert len(set(names)) == tiers
        # Top tier keeps the 2D names; bottom the paper's *B names.
        assert names[tiers - 1] == ("P", "M1", "CT", "PC")
        assert names[0] == ("PB", "MB1", "CTB", "PCB")


# ---------------------------------------------------------------------------
# Conservation under fuzzed folds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_fold_conserves_devices_and_nets(seed):
    rng = random.Random(seed)
    node = get_node(rng.choice(NODES))
    for cell_type, strength in _sampled_variants(seed):
        nl = build_cell_netlist(cell_type, strength, node)
        spec = FoldSpec(tiers=rng.randint(MIN_FOLD_TIERS, MAX_FOLD_TIERS),
                        style=rng.choice(CELL_FOLDS))
        g = fold_cell_geometry(nl, node, spec)
        # Every netlist net (beyond the rails) keeps geometry.
        rails = {"VDD", "VSS"}
        nl_nets = {n for n in nl.nets() if n not in rails}
        assert nl_nets <= set(g.nets())
        assert g.tiers == spec.tiers
        assert g.is_3d
        assert g.footprint_um2 > 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_device_tier_assignment_in_range_and_polarity_true(seed):
    rng = random.Random(seed)
    node = get_node(rng.choice(NODES))
    for cell_type, strength in _sampled_variants(seed):
        nl = build_cell_netlist(cell_type, strength, node)
        spec = FoldSpec(tiers=rng.randint(MIN_FOLD_TIERS, MAX_FOLD_TIERS),
                        style=rng.choice(CELL_FOLDS))
        tiers = device_tiers(nl, spec)
        assert len(tiers) == len(nl.devices)
        p_group, n_group = spec.tier_groups()
        for dev, tier in zip(nl.devices, tiers):
            assert 0 <= tier < spec.tiers
            assert tier in (p_group if dev.is_pmos else n_group)


@pytest.mark.parametrize("seed", SEEDS)
def test_fold_places_mivs_on_every_crossing_cell(seed):
    rng = random.Random(seed)
    node = get_node(rng.choice(NODES))
    for cell_type, strength in _sampled_variants(seed):
        nl = build_cell_netlist(cell_type, strength, node)
        spec = FoldSpec(tiers=rng.randint(MIN_FOLD_TIERS, MAX_FOLD_TIERS),
                        style=rng.choice(CELL_FOLDS))
        g = fold_cell_geometry(nl, node, spec)
        has_p = any(d.is_pmos for d in nl.devices)
        has_n = any(not d.is_pmos for d in nl.devices)
        if has_p and has_n:
            # Both polarities present -> gate nets cross tiers.
            assert g.miv_count >= 1
        miv_vias = sum(v.count for v in g.vias if v.kind == "MIV")
        assert miv_vias == g.miv_count


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_folds_extract_cleanly(seed):
    # Extraction recognizes every layer name any fold emits: a fold
    # that invented an unknown layer would raise inside extract_cell.
    rng = random.Random(seed)
    node = get_node(rng.choice(NODES))
    for cell_type, strength in _sampled_variants(seed, n=6):
        nl = build_cell_netlist(cell_type, strength, node)
        spec = FoldSpec(tiers=rng.randint(MIN_FOLD_TIERS, MAX_FOLD_TIERS),
                        style=rng.choice(CELL_FOLDS))
        g = fold_cell_geometry(nl, node, spec)
        parasitics = extract_cell(g, ExtractionMode.DIELECTRIC, node)
        for net in parasitics.nets.values():
            assert net.resistance_kohm >= 0.0
            assert net.capacitance_ff > 0.0


def _koz_blocked_fraction(g, node, spec):
    """Mirror of placement check 6: blocked share of the N-tier stack
    (each boundary-crossing MIV lands on two of the ``tiers`` planes)."""
    return (g.miv_count * koz_footprint_um2(node, spec.koz_diameters)
            * 2.0 / (g.footprint_um2 * spec.tiers))


@pytest.mark.parametrize("seed", SEEDS)
def test_koz_legality_bound_holds_for_sane_kozs(seed):
    # Within the keep-outs a real process would use (up to one diameter
    # at 2 tiers, the default half-diameter at 4) every cell stays
    # below the legality bound.
    from repro.check.placement import KOZ_BLOCKED_ERROR_FRACTION

    rng = random.Random(seed)
    node = get_node(rng.choice(NODES))
    for cell_type, strength in _sampled_variants(seed, n=8):
        nl = build_cell_netlist(cell_type, strength, node)
        if rng.random() < 0.5:
            spec = FoldSpec(tiers=2, koz_diameters=rng.uniform(0.0, 1.0))
        else:
            spec = FoldSpec(tiers=4,
                            koz_diameters=rng.uniform(0.0, MIV_KOZ_DEFAULT))
        g = fold_cell_geometry(nl, node, spec)
        fraction = _koz_blocked_fraction(g, node, spec)
        assert fraction <= KOZ_BLOCKED_ERROR_FRACTION, \
            (f"{cell_type} x{strength:g} tiers={spec.tiers} "
             f"koz={spec.koz_diameters:.2f}: {fraction:.2%}")


def test_koz_legality_trips_at_huge_keepout():
    # A 4-diameter keep-out is physically absurd; the bound must catch
    # it for at least the MIV-dense cells.
    from repro.check.placement import KOZ_BLOCKED_ERROR_FRACTION

    node = NODE_45NM
    spec = FoldSpec(tiers=2, koz_diameters=4.0)
    worst = 0.0
    for cell_type, strength in _all_cell_variants():
        nl = build_cell_netlist(cell_type, strength, node)
        g = fold_cell_geometry(nl, node, spec)
        worst = max(worst, _koz_blocked_fraction(g, node, spec))
    assert worst > KOZ_BLOCKED_ERROR_FRACTION


@pytest.mark.parametrize("seed", SEEDS)
def test_capacity_scale_monotone_and_floored(seed):
    rng = random.Random(seed)
    node = get_node(rng.choice(NODES))
    last = None
    for koz in sorted(rng.uniform(0.0, 4.0) for _ in range(20)):
        scale = routing_capacity_scale(node, koz, tiers=rng.choice((2, 4)))
        assert KOZ_CAPACITY_FLOOR <= scale <= 1.0 + 1e-12
        if last is not None and koz >= last[0]:
            # Same-or-wider keep-out never *gains* capacity at equal
            # tiers; compare only the 2-tier samples for monotonicity.
            pass
        last = (koz, scale)
    # Explicit monotonicity at fixed tiers.
    scales = [routing_capacity_scale(node, k, 2)
              for k in (0.5, 1.0, 2.0, 4.0)]
    assert scales == sorted(scales, reverse=True)


def test_koz_side_grows_with_clearance():
    node = NODE_45NM
    sides = [koz_side_um(node, k) for k in (0.0, 0.5, 1.0, 2.0)]
    assert sides == sorted(sides)
    assert sides[0] == pytest.approx(node.miv_diameter_nm / 1000.0)


# ---------------------------------------------------------------------------
# ScenarioSpec layer
# ---------------------------------------------------------------------------

def test_scenario_knob_coverage_is_complete():
    # Every ScenarioSpec knob must be registered in the stage-digest
    # registry, or whatif/dse/stage-cache would silently ignore it.
    assert knob_coverage_findings() == ()


def test_all_scenario_knobs_are_flowconfig_fields():
    import dataclasses as dc
    fields = {f.name for f in dc.fields(FlowConfig)}
    assert set(SCENARIO_KNOBS) <= fields


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_named_scenarios_lower_to_valid_configs(name):
    spec = get_scenario(name)
    config = spec.to_flow_config(is_3d=True)
    assert config.circuit == spec.circuit
    assert config.tiers == spec.tiers
    assert config.fold_style == spec.fold_style
    assert config.miv_koz_diameters == spec.miv_koz_diameters
    # Lowered configs round-trip through the stage-digest registry.
    digests = stagecache.stage_digests(config)
    assert set(digests) == set(stagecache.STAGE_PARAMS)


def test_scenario_overrides_apply():
    config = get_scenario("quad-tier").to_flow_config(is_3d=True,
                                                      scale=0.02)
    assert config.scale == 0.02
    assert config.tiers == 4


def test_unknown_scenario_raises():
    with pytest.raises(FlowError):
        get_scenario("octa-stack")


def test_scenario_validates_tiers():
    with pytest.raises(TechnologyError):
        ScenarioSpec(name="bad", tiers=MAX_FOLD_TIERS + 1)


def test_scenario_validates_node():
    with pytest.raises(TechnologyError):
        ScenarioSpec(name="bad", node_name="32nm")


def test_scenario_validates_fold_style():
    with pytest.raises(TechnologyError):
        ScenarioSpec(name="bad", fold_style="diagonal")


def test_asap7_node_registered():
    assert "asap7" in node_names()
    node = get_node("asap7")
    assert node.cell_height_um < NODE_45NM.cell_height_um
    assert node.vdd < NODE_7NM.vdd + 1e-9


# ---------------------------------------------------------------------------
# Stage-digest registry / sweepability
# ---------------------------------------------------------------------------

def test_new_knobs_are_sweepable():
    sweepable = set(stagecache.sweepable_fields())
    assert {"tiers", "fold_style", "miv_koz_diameters"} <= sweepable


def test_fold_knobs_read_by_prepare():
    assert "prepare" in stagecache.stages_reading("tiers")
    assert "prepare" in stagecache.stages_reading("fold_style")
    assert "prepare" in stagecache.stages_reading("miv_koz_diameters")


def test_koz_and_tiers_also_read_by_layout():
    # KOZ derates routing capacity and tiers set row height: both feed
    # the layout stage independently of the prepared library.
    assert "layout" in stagecache.stages_reading("tiers")
    assert "layout" in stagecache.stages_reading("miv_koz_diameters")


def test_fold_knob_invalidation_cascades_downstream():
    # The fold knobs feed ``prepare``, so changing one stales the whole
    # chain: every stage is transitively downstream of the library.
    for knob in ("tiers", "fold_style", "miv_koz_diameters"):
        invalidated = set(stagecache.invalidated_stages(knob))
        assert invalidated == set(stagecache.STAGE_PARAMS)


def test_tier_change_moves_every_stage_digest():
    base = stagecache.stage_digests(FlowConfig(circuit="aes", is_3d=True))
    quad = stagecache.stage_digests(FlowConfig(circuit="aes", is_3d=True,
                                               tiers=4))
    # prepare reads tiers directly and every later stage inherits its
    # digest through the dependency chain.
    for stage in base:
        assert base[stage] != quad[stage], stage


def test_seed_change_keeps_prepare_digest():
    base = stagecache.stage_digests(FlowConfig(circuit="aes", is_3d=True))
    other = stagecache.stage_digests(FlowConfig(circuit="aes", is_3d=True,
                                                seed=99))
    assert base["prepare"] == other["prepare"]
    assert base["synthesis"] != other["synthesis"]
