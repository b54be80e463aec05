"""Tests for the Fig. 9 on-chip network model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import models
from repro.arch import (
    MeshNocSpec,
    YolocSystem,
    map_layers_to_tiles,
    noc_share_of_compute,
)


@pytest.fixture(scope="module")
def vgg_profile():
    model = models.build_model("vgg8", rng=np.random.default_rng(0))
    return models.profile_model(model, (1, 3, 32, 32))


class TestMeshSpec:
    def test_tile_count(self):
        assert MeshNocSpec(rows=3, cols=5).n_tiles == 15

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError, match="mesh"):
            MeshNocSpec(rows=0, cols=4)

    def test_coord_round_trip(self):
        spec = MeshNocSpec(rows=4, cols=4)
        assert spec.tile_coord(0) == (0, 0)
        assert spec.tile_coord(5) == (1, 1)
        assert spec.tile_coord(15) == (3, 3)

    def test_coord_out_of_range(self):
        with pytest.raises(IndexError):
            MeshNocSpec(rows=2, cols=2).tile_coord(4)

    def test_hops_manhattan(self):
        spec = MeshNocSpec(rows=4, cols=4)
        assert spec.hops(0, 0) == 0
        assert spec.hops(0, 3) == 3
        assert spec.hops(0, 15) == 6

    def test_route_is_xy(self):
        spec = MeshNocSpec(rows=3, cols=3)
        # 0=(0,0) -> 8=(2,2): X first to (0,2)=2, then Y through 5 to 8.
        assert spec.route(0, 8) == [0, 1, 2, 5, 8]

    def test_route_length_matches_hops(self):
        spec = MeshNocSpec(rows=4, cols=5)
        for src in (0, 7, 19):
            for dst in (0, 12, 19):
                assert len(spec.route(src, dst)) == spec.hops(src, dst) + 1

    def test_graph_is_connected_mesh(self):
        import networkx as nx

        spec = MeshNocSpec(rows=3, cols=4)
        graph = spec.graph()
        assert graph.number_of_nodes() == 12
        assert nx.is_connected(graph)
        # Interior nodes have degree 4, corners 2.
        degrees = dict(graph.degree())
        assert degrees[5] == 4
        assert degrees[0] == 2

    def test_graph_distance_equals_hops(self):
        import networkx as nx

        spec = MeshNocSpec(rows=3, cols=3)
        graph = spec.graph()
        for src in range(9):
            for dst in range(9):
                assert (
                    nx.shortest_path_length(graph, src, dst) == spec.hops(src, dst)
                )

    def test_zero_hop_transfer_free(self):
        spec = MeshNocSpec()
        assert spec.transfer_energy_pj(1e6, 3, 3) == 0.0

    def test_energy_linear_in_bits_and_hops(self):
        spec = MeshNocSpec(rows=4, cols=4)
        one = spec.transfer_energy_pj(100, 0, 1)
        assert spec.transfer_energy_pj(200, 0, 1) == pytest.approx(2 * one)
        assert spec.transfer_energy_pj(100, 0, 3) == pytest.approx(3 * one)

    def test_average_hops_grows_with_mesh(self):
        """Mean XY distance under uniform-random traffic."""

        def average_hops(spec):
            tiles = range(spec.n_tiles)
            return sum(spec.hops(a, b) for a in tiles for b in tiles) / spec.n_tiles**2

        assert average_hops(MeshNocSpec(rows=6, cols=6)) > average_hops(
            MeshNocSpec(rows=2, cols=2)
        )

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 35), st.integers(0, 35))
    @settings(max_examples=50, deadline=None)
    def test_hops_symmetric_and_triangle(self, rows, cols, a, b):
        spec = MeshNocSpec(rows=rows, cols=cols)
        a %= spec.n_tiles
        b %= spec.n_tiles
        assert spec.hops(a, b) == spec.hops(b, a)
        assert spec.hops(a, b) <= spec.hops(a, 0) + spec.hops(0, b)


class TestTrafficMapping:
    def test_flows_cover_layer_chain(self, vgg_profile):
        report = map_layers_to_tiles(vgg_profile)
        assert len(report.flows) == len(vgg_profile.weight_layers()) - 1
        assert report.total_bits > 0

    def test_serpentine_keeps_neighbors_adjacent(self, vgg_profile):
        report = map_layers_to_tiles(vgg_profile, MeshNocSpec(rows=4, cols=4))
        hop_counts = [
            report.spec.hops(src, dst) for _, src, dst, _ in report.flows
        ]
        # A feed-forward chain on a serpentine floorplan: every flow
        # between distinct tiles is exactly one hop.
        assert all(h <= 1 for h in hop_counts)

    def test_link_loads_positive(self, vgg_profile):
        report = map_layers_to_tiles(vgg_profile)
        loads = report.link_loads()
        assert all(load > 0 for load in loads.values())
        assert report.max_link_load_bits == max(loads.values())

    def test_tiny_mesh_wraps(self, vgg_profile):
        report = map_layers_to_tiles(vgg_profile, MeshNocSpec(rows=1, cols=2))
        assert report.total_energy_pj >= 0

    def test_share_of_compute_small(self, vgg_profile):
        """The Fig. 9 simplification: NoC is a few percent of compute."""
        compute_pj = YolocSystem().evaluate(vgg_profile).energy.compute_pj
        share = noc_share_of_compute(vgg_profile, compute_pj)
        assert 0 < share < 0.10

    def test_share_requires_positive_compute(self, vgg_profile):
        with pytest.raises(ValueError, match="compute energy"):
            noc_share_of_compute(vgg_profile, 0.0)
