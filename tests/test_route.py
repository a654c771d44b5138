"""Routing tests: Steiner estimation, grid capacity, global routing."""

import pytest
from hypothesis import given, strategies as st

from repro.circuits.generators import generate_benchmark
from repro.place.placer import Placer
from repro.route.steiner import rsmt_length_um, rsmt_edges
from repro.route.grid import RoutingGrid
from repro.route.router import GlobalRouter
from repro.tech.interconnect import InterconnectModel
from repro.tech.metal import LayerClass, build_stack_2d, build_stack_tmi
from repro.tech.node import NODE_45NM
from tests.kernel_oracle import add_edge_demand


class TestSteiner:
    def test_two_pins_manhattan(self):
        assert rsmt_length_um([(0, 0), (3, 4)]) == pytest.approx(7.0)

    def test_single_pin_zero(self):
        assert rsmt_length_um([(1, 1)]) == 0.0
        assert rsmt_length_um([]) == 0.0

    def test_steiner_below_star(self):
        # 4 corners of a square: star from center = 4 * 1.0; RSMT ~ 3.
        points = [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert rsmt_length_um(points) < 4.0

    def test_edges_form_spanning_tree(self):
        points = [(0, 0), (5, 1), (2, 7), (9, 9), (4, 4)]
        edges = rsmt_edges(points)
        assert len(edges) == len(points) - 1
        seen = {0}
        for a, b in edges:
            seen.add(a)
            seen.add(b)
        assert seen == set(range(len(points)))

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100)),
        min_size=2, max_size=12))
    def test_length_at_least_hpwl_fraction(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        hpwl = max(xs) - min(xs) + max(ys) - min(ys)
        length = rsmt_length_um(points)
        # RSMT >= HPWL/... for any point set the MST*0.88 >= HPWL/2.
        assert length >= hpwl * 0.49 - 1e-9


class TestGrid:
    def test_tmi_has_more_local_capacity(self):
        g2 = RoutingGrid.for_core(100.0, 100.0, build_stack_2d(NODE_45NM))
        g3 = RoutingGrid.for_core(100.0, 100.0, build_stack_tmi(NODE_45NM))
        assert g3.tile_capacity_um[LayerClass.LOCAL] > \
            g2.tile_capacity_um[LayerClass.LOCAL] * 2.0
        # Intermediate capacity identical at equal core size (3 layers).
        assert g3.tile_capacity_um[LayerClass.INTERMEDIATE] == \
            pytest.approx(g2.tile_capacity_um[LayerClass.INTERMEDIATE])

    def test_demand_booking(self):
        grid = RoutingGrid.for_core(100.0, 100.0,
                                    build_stack_2d(NODE_45NM))
        add_edge_demand(grid, LayerClass.LOCAL, 10.0, 10.0, 60.0, 10.0)
        total = grid.demand[LayerClass.LOCAL].sum()
        assert total == pytest.approx(50.0, rel=0.05)

    def test_overflow_metrics(self):
        grid = RoutingGrid.for_core(100.0, 100.0,
                                    build_stack_2d(NODE_45NM))
        assert grid.overflow_ratio(LayerClass.LOCAL) == 0.0
        for _ in range(2000):
            add_edge_demand(grid, LayerClass.LOCAL, 0.0, 50.0, 100.0, 50.0)
        assert grid.peak_overflow_ratio(LayerClass.LOCAL) > 0.0
        assert grid.worst_overflow() >= \
            grid.peak_overflow_ratio(LayerClass.LOCAL)


@pytest.fixture(scope="module")
def routed_aes(lib45_2d):
    module = generate_benchmark("aes", scale=0.06)
    placement = Placer(lib45_2d, 0.80).run(module)
    interconnect = InterconnectModel(build_stack_2d(NODE_45NM))
    router = GlobalRouter(lib45_2d, interconnect, placement.floorplan)
    return module, router.run(module)


class TestRouter:
    def test_every_net_routed(self, routed_aes):
        module, result = routed_aes
        for net in module.nets:
            assert net.index in result.lengths_um

    def test_total_wirelength_consistent(self, routed_aes):
        _module, result = routed_aes
        assert result.total_wirelength_um == pytest.approx(
            sum(result.lengths_um.values()), rel=1e-6)
        assert result.total_wirelength_um == pytest.approx(
            sum(result.wirelength_by_class.values()), rel=1e-6)

    def test_rc_proportional_to_length(self, routed_aes):
        _module, result = routed_aes
        for net_idx, length in list(result.lengths_um.items())[:100]:
            if length == 0.0:
                assert result.capacitances_ff[net_idx] == 0.0
            else:
                assert result.resistances_kohm[net_idx] > 0.0
                assert result.capacitances_ff[net_idx] > 0.0

    def test_short_nets_prefer_local(self, routed_aes):
        _module, result = routed_aes
        routed = [(l, result.layer_class[i])
                  for i, l in result.lengths_um.items() if l > 0]
        routed.sort()
        shortest_quarter = routed[:len(routed) // 4]
        local_share = sum(1 for _l, c in shortest_quarter
                          if c == LayerClass.LOCAL) / len(shortest_quarter)
        assert local_share > 0.9

    def test_mb1_only_for_3d(self, routed_aes, lib45_3d):
        _module, result_2d = routed_aes
        assert result_2d.mb1_wirelength_um == 0.0
        module = generate_benchmark("aes", scale=0.06)
        placement = Placer(lib45_3d, 0.80).run(module)
        interconnect = InterconnectModel(build_stack_tmi(NODE_45NM))
        result_3d = GlobalRouter(lib45_3d, interconnect,
                                 placement.floorplan).run(module)
        # Section 3.3: MB1 carries a sliver of net wirelength (~0.3 %).
        assert 0.0 < result_3d.mb1_share() < 0.03
