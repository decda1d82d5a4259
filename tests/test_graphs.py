import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from poirec.data import Poi, catalog_rows
from poirec.graphs import (build_global_spatial, build_global_temporal,
                           build_trajectory_graph, haversine, haversine_matrix,
                           save_spatial_graph, save_temporal_graph)
import oracles
from oracles import MASTER, add_master_node, adjacency_from_pairs, all_pairs_spd
from conftest import (augmented_graphs, catalog_of, category_vocab, make_traj,
                      stacked, traj_graph)


def temporal_by_id(trajs, n_neighbors, catalog=None):
    """`build_global_temporal` over `catalog` (default: the trajectories'
    POIs), keyed by poi_id like `oracles.global_temporal`."""
    g = build_global_temporal(trajs, n_neighbors, catalog_rows(catalog or catalog_of(trajs)))
    ids = g.nodes
    neighbors = {v: [] for v in ids}
    for a, b in g.neighbors.tolist():
        neighbors[ids[a]].append(ids[b])
    return oracles.TemporalGraph(
        list(ids), {(ids[a], ids[b]): n for (a, b), n in zip(g.pairs.tolist(), g.counts.tolist())},
        neighbors, *({v: n for v, n in zip(ids, a.tolist())}
                     for a in (g.in_degree, g.out_degree, g.visits)))


def spatial_by_id(g):
    """{(a, b): km} of a `GlobalSpatialGraph`, keyed by poi_id pairs."""
    return {(g.nodes[a], g.nodes[b]): km for (a, b), km in zip(g.edges.tolist(), g.km.tolist())}


class TestTrajectoryGraph:
    def test_repeat_visit_sequence(self):
        g = build_trajectory_graph(make_traj(["c", "b", "c", "a"]), {"a": 0, "b": 1, "c": 2})
        assert g.nodes == [2, 1, 0]  # catalog rows, first-visit order
        non_loops = {e for e in g.edges if e[0] != e[1]}
        assert non_loops == {(2, 1), (1, 2), (2, 0)}
        assert {(n, n) for n in g.nodes} <= g.edges
        assert g.last_step == [3, 2, 4]
        assert g.last_node == 0 and g.seq_len == 4

    def test_single_node(self):
        g = build_trajectory_graph(make_traj(["a"]), {"z": 0, "a": 1})
        assert g.nodes == [1] and g.edges == {(1, 1)}

    def test_repeated_same_poi_merges_into_self_loop(self):
        g = traj_graph(["a", "a", "a"])
        assert g.nodes == [0] and g.edges == {(0, 0)}
        assert g.last_step == [3]

    def test_poi_outside_the_row_map_fatal(self):
        with pytest.raises(KeyError):
            build_trajectory_graph(make_traj(["a", "b"]), {"a": 0})

    def test_node_and_edge_counts(self, rng):
        for _ in range(25):
            seq = [f"p{i}" for i in rng.integers(0, 6, size=rng.integers(1, 12))]
            g = traj_graph(seq)
            assert len(g.nodes) == len(set(seq))
            non_loops = [e for e in g.edges if e[0] != e[1]]
            assert len(non_loops) <= len(seq) - 1

    def test_edge_categories_are_unordered_pairs(self):
        cats = {"a": "z_cat", "b": "a_cat"}
        g = traj_graph(["a", "b"], categories=cats)
        assert category_vocab([g], cats) == {
            ("a_cat", "a_cat"): 1, ("a_cat", "z_cat"): 2, ("z_cat", "z_cat"): 3}


class TestGlobalTemporal:
    def test_top_n_by_descending_count(self):
        trajs = []
        for nb, reps in (("b", 5), ("c", 3), ("d", 1)):
            trajs += [make_traj(["a", nb])] * reps
        g = temporal_by_id(trajs, n_neighbors=2)
        assert g.neighbors["a"] == ["b", "c"]

    def test_single_pair(self):
        g = temporal_by_id([make_traj(["a", "b"])], n_neighbors=3)
        assert g.cooccurrence == {("a", "b"): 1}

    def test_n_larger_than_degree_keeps_all(self):
        g = temporal_by_id([make_traj(["a", "b", "c", "a"])], n_neighbors=99)
        assert set(g.neighbors["a"]) == {"b", "c"}

    def test_tie_break_ascending_poi_id(self):
        trajs = [make_traj(["a", "z"]), make_traj(["a", "b"])]
        g = temporal_by_id(trajs, n_neighbors=1)
        assert g.neighbors["a"] == ["b"]

    def test_order_insensitive_aggregation(self, rng):
        trajs = [make_traj([f"p{i}" for i in rng.integers(0, 5, size=6)])
                 for _ in range(10)]
        a = temporal_by_id(trajs, 3)
        b = temporal_by_id(trajs[::-1], 3)
        assert a.cooccurrence == b.cooccurrence and a.neighbors == b.neighbors

    def test_directed_degrees_and_visits(self):
        g = temporal_by_id([make_traj(["a", "b", "c", "b"])], 5)
        assert g.out_degree["a"] == 1 and g.in_degree["b"] == 2
        assert g.visits["b"] == 2

    @given(st.data())
    def test_rows_equal_the_poi_id_reference(self, data):
        # a small id alphabet and short walks: ties in the top-N are common,
        # and some catalog POIs are never visited
        ids = data.draw(st.lists(st.text("abz09", min_size=1, max_size=3), min_size=1,
                                 max_size=12, unique=True))
        trajs = [make_traj(seq) for seq in data.draw(st.lists(
            st.lists(st.sampled_from(ids), max_size=10), max_size=8))]
        catalog = [Poi(p, "c", 0.0, 0.0) for p in sorted(ids)]
        n = data.draw(st.integers(1, 5))
        assert temporal_by_id(trajs, n, catalog) == oracles.global_temporal(trajs, n, catalog)

    def test_poi_outside_the_catalog_fatal(self):
        with pytest.raises(KeyError):
            build_global_temporal([make_traj(["a", "b"])], 3, {"a": 0})


class TestHaversine:
    def test_zero_identity(self):
        assert haversine(0, 0, 0, 0) == 0.0

    def test_quarter_circumference(self):
        assert haversine(0, 0, 0, 90) == pytest.approx(10007.5, abs=1.0)

    def test_half_circumference(self):
        assert haversine(0, 0, 0, 180) == pytest.approx(20015.1, abs=1.0)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = rng.uniform(-90, 90), rng.uniform(-180, 180)
            b = rng.uniform(-90, 90), rng.uniform(-180, 180)
            assert haversine(*a, *b) == pytest.approx(haversine(*b, *a), abs=1e-9)


class TestGlobalSpatial:
    def test_identical_coordinates_connected(self):
        catalog = [Poi("a", "c", 10.0, 20.0), Poi("b", "c", 10.0, 20.0)]
        g = build_global_spatial(catalog, alpha_km=2.0)
        assert ("a", "b") in spatial_by_id(g)

    def test_antipodal_not_connected(self):
        catalog = [Poi("a", "c", 0.0, 0.0), Poi("b", "c", 0.0, 90.0)]
        g = build_global_spatial(catalog, alpha_km=2.0)
        assert g.edges.shape == (0, 2) and g.km.shape == (0,)

    def test_collinear_chain(self):
        # three POIs ~1.5 km apart along a meridian: adjacent pairs only
        step = 1.5 / 111.19493
        catalog = [Poi(f"p{i}", "c", i * step, 0.0) for i in range(3)]
        g = build_global_spatial(catalog, alpha_km=2.0)
        assert set(spatial_by_id(g)) == {("p0", "p1"), ("p1", "p2")}

    def test_symmetric_irreflexive(self, rng):
        catalog = [Poi(f"p{i}", "c", float(rng.uniform(0, 0.05)),
                       float(rng.uniform(0, 0.05))) for i in range(15)]
        g = build_global_spatial(catalog, alpha_km=3.0)
        assert len(g.edges) and (g.edges[:, 0] < g.edges[:, 1]).all()  # once per pair

    @staticmethod
    def random_catalog(rng, n):
        # clustered coordinates with some exact duplicates, in catalog
        # (poi_id) order
        ids = sorted(f"q{k}" for k in range(n))
        lat = rng.uniform(40.0, 40.06, size=n)
        lon = rng.uniform(-74.0, -73.94, size=n)
        dup = n // 10
        lat[:dup], lon[:dup] = lat[n - dup:], lon[n - dup:]
        return [Poi(pid, "c", float(a), float(b)) for pid, a, b in zip(ids, lat, lon)]

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (64, 2), (65, 3), (150, 4), (150, 5)])
    def test_matches_scalar_scan_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        catalog = self.random_catalog(rng, n)
        g = build_global_spatial(catalog, alpha_km=2.5)
        ref = oracles.global_spatial_edges(catalog, 2.5)
        got = spatial_by_id(g)
        assert g.nodes == [p.poi_id for p in catalog]
        assert set(got) == set(ref)
        assert list(got) == sorted(got)
        for e, d in ref.items():
            assert got[e] == pytest.approx(d, rel=0, abs=1e-9)

    def test_alpha_equal_to_a_pair_distance(self, rng):
        # alpha exactly at a pair's scalar distance: the scalar form keeps
        # no edge there, whatever the last bits of the blocked distance
        catalog = self.random_catalog(rng, 40)
        for _ in range(25):
            a, b = (catalog[k] for k in rng.choice(len(catalog), 2, replace=False))
            alpha = haversine(a.lat, a.lon, b.lat, b.lon)
            if alpha == 0:
                continue
            got = spatial_by_id(build_global_spatial(catalog, alpha_km=alpha))
            assert set(got) == set(oracles.global_spatial_edges(catalog, alpha))
            assert tuple(sorted((a.poi_id, b.poi_id))) not in got

    @given(st.data())
    def test_rows_equal_the_scalar_scan(self, data):
        n = data.draw(st.integers(1, 80))
        coords = data.draw(st.lists(st.tuples(st.floats(40.0, 40.05), st.floats(-74.0, -73.95)),
                                    min_size=n, max_size=n))
        coords += coords[:data.draw(st.integers(0, n // 4))]  # exact duplicates
        catalog = [Poi(f"q{k:03d}", "c", lat, lon) for k, (lat, lon) in enumerate(coords)]
        alpha = data.draw(st.floats(0.1, 4.0))
        got = spatial_by_id(build_global_spatial(catalog, alpha))
        ref = oracles.global_spatial_edges(catalog, alpha)
        assert list(got) == sorted(ref)
        assert all(got[e] == pytest.approx(d, rel=0, abs=1e-9) for e, d in ref.items())


class TestShortestPaths:
    def test_path_graph(self):
        nodes = ["a", "b", "c"]
        adj = adjacency_from_pairs(nodes, {("a", "b"), ("b", "c")})
        spd = all_pairs_spd(nodes, adj, cap=5)
        assert spd[("a", "c")] == 2

    def test_matches_floyd_warshall_on_random_graphs(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 21))
            nodes = [f"v{i}" for i in range(n)]
            pairs = {(nodes[i], nodes[j])
                     for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.2}
            adj = adjacency_from_pairs(nodes, pairs)
            cap = 5
            spd = all_pairs_spd(nodes, adj, cap)

            # Floyd-Warshall oracle
            INF = 10**9
            dist = {(a, b): 0 if a == b else INF for a in nodes for b in nodes}
            for (a, b) in pairs:
                dist[(a, b)] = dist[(b, a)] = 1
            for k, i, j in itertools.product(nodes, nodes, nodes):
                alt = dist[(i, k)] + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
            for key, hops in spd.items():
                assert hops == min(dist[key], cap)

    def test_symmetric_zero_diagonal_triangle(self, rng):
        nodes = [f"v{i}" for i in range(10)]
        pairs = {(nodes[i], nodes[i + 1]) for i in range(9)}
        spd = all_pairs_spd(nodes, adjacency_from_pairs(nodes, pairs), cap=20)
        for a in nodes:
            assert spd[(a, a)] == 0
            for b in nodes:
                assert spd[(a, b)] == spd[(b, a)]
                for c in nodes:
                    assert spd[(a, c)] <= spd[(a, b)] + spd[(b, c)]


def master_graphs(graphs, ids=None, coords=None):
    """[(graph, hops, adj, geo)] of each graph, from one `stack_graphs` call
    over a catalog of the sorted `ids` (default: as many rows as the graphs
    use) with coordinates from a poi_id -> (lat, lon) dict; geo is all NaN
    without coordinates."""
    ids = ids or range(1 + max(max(g.nodes) for g in graphs))
    return [(g, *m) for g, m in zip(graphs, stacked(graphs, sorted(ids), coords))]


class TestMasterNode:
    """The master node of `stack_graphs`: its adjacency, hop counts and
    distances."""

    def test_single_node_graph(self):
        [(_, hops, _, _)] = master_graphs([traj_graph(["a"])])
        assert hops.shape == (2, 2)
        assert hops[1, 0] == 1

    def test_disconnected_base_bridged(self):
        g = traj_graph(["a", "b"])
        g.edges = {(0, 0), (1, 1)}  # sever the base connection
        [(_, hops, adj, _)] = master_graphs([g])
        assert hops[0, 1] == 2
        assert adj[0, 2] and adj[1, 2]  # the path runs through the master

    def test_eight_visit_six_unique_sequence(self):
        seq = ["p1", "p2", "p3", "p4", "p5", "p3", "p6", "p4"]
        [(_, hops, _, _)] = master_graphs([traj_graph(seq)])
        assert len(hops) == 7  # 6 unique POIs + master
        master = len(hops) - 1
        off_diag = ~np.eye(len(hops), dtype=bool)
        on_master = np.zeros_like(off_diag)
        on_master[master, :] = on_master[:, master] = True
        master_edges = (on_master & off_diag & (hops == 1)).sum()
        assert master_edges == 12  # 6 undirected edges, both directions

    def test_spd_bounded_by_two(self, rng):
        ids = [f"p{i}" for i in range(8)]
        graphs = [traj_graph([f"p{i}" for i in rng.integers(0, 8, size=rng.integers(1, 15))],
                             ids) for _ in range(20)]
        for _, hops, _, _ in master_graphs(graphs):
            assert (hops <= 2).all()
            master_row = np.delete(hops[-1], -1)
            master_col = np.delete(hops[:, -1], -1)
            assert (master_row == 1).all() and (master_col == 1).all()

    def test_geo_distances_present_for_base_pairs(self):
        coords = {"a": (0.0, 0.0), "b": (0.0, 1.0)}
        g = traj_graph(["a", "b"], coords=coords)
        [(_, _, _, geo)] = master_graphs([g], "ab", coords)
        assert geo[0, 1] == pytest.approx(111.19, abs=0.1)
        assert np.isnan(geo[2]).all() and np.isnan(geo[:, 2]).all()  # master

    def test_geo_matches_scalar_haversine(self, rng):
        coords = {f"p{i}": (rng.uniform(-80, 80), rng.uniform(-180, 180))
                  for i in range(9)}
        del coords["p3"]
        seq = [f"p{i}" for i in range(9)]
        [(g, _, _, geo)] = master_graphs([traj_graph(seq)], seq, coords)
        assert geo.shape == (10, 10)
        labels = [seq[r] for r in g.nodes] + [MASTER]
        for a, i in enumerate(labels):
            for b, j in enumerate(labels):
                if i in coords and j in coords:
                    assert geo[a, b] == pytest.approx(
                        haversine(*coords[i], *coords[j]), rel=1e-12, abs=1e-9)
                else:
                    assert np.isnan(geo[a, b])

    def test_no_coords_no_geo(self):
        [(_, _, _, geo)] = master_graphs([traj_graph(["a", "b"])])
        assert geo.shape == (3, 3) and np.isnan(geo).all()

    def test_stacked_haversine_has_the_bits_of_its_slices(self, rng):
        xy = np.column_stack([rng.uniform(-89, 89, 40), rng.uniform(-180, 180, 40)])
        xy[rng.random(40) < 0.2] = np.nan
        for n in (1, 2, 5, 13):
            sets = xy[:(len(xy) // n) * n].reshape(-1, n, 2)
            got = haversine_matrix(sets)
            other = sets[::-1, :max(1, n - 1)]
            cross = haversine_matrix(sets, other)
            for k, one in enumerate(sets):
                assert got[k].tobytes() == haversine_matrix(one).tobytes()
                assert cross[k].tobytes() == haversine_matrix(one, other[k]).tobytes()


class TestMasterNodeOracle:
    def test_hops_equal_bfs_on_augmented_graph(self, rng):
        for g, hops, _, _ in master_graphs(augmented_graphs(rng, 40)):
            nodes, adjacency = oracles.master_adjacency(g)
            spd = all_pairs_spd(nodes, adjacency, cap=len(nodes) + 1)
            expected = np.array([[spd[(i, j)] for j in nodes] for i in nodes])
            assert np.array_equal(hops, expected)

    def test_midpoints_equal_bfs_canonical_paths(self, rng):
        # the reference master graph the plan tests compare the program to
        for g in augmented_graphs(rng, 40):
            mg = add_master_node(g)
            paths = oracles.canonical_paths(*oracles.master_adjacency(g))
            order = {p: k for k, p in enumerate(mg.nodes)}
            for (i, j), path in paths.items():
                assert mg.mid[order[i], order[j]] == order[path[min(1, len(path) - 1)]]

    def test_adjacency_ignores_direction_and_self_loops(self, rng):
        for g, _, adj, _ in master_graphs(augmented_graphs(rng, 10)):
            nodes, adjacency = oracles.master_adjacency(g)
            expected = np.array([[j in adjacency[i] for j in nodes] for i in nodes])
            assert np.array_equal(adj, expected)


class TestSerialization:
    def test_edge_list_headers(self, tmp_path):
        trajs = [make_traj(["a", "b", "c"])]
        gt = build_global_temporal(trajs, 5, catalog_rows(catalog_of(trajs)))
        save_temporal_graph(gt, tmp_path / "gt.edges")
        head = (tmp_path / "gt.edges").read_text().splitlines()[0]
        assert head == "temporal 3 2"

        catalog = [Poi("a", "c", 0.0, 0.0), Poi("b", "c", 0.0, 0.001)]
        gs = build_global_spatial(catalog, 3.0)
        save_spatial_graph(gs, tmp_path / "gs.edges")
        lines = (tmp_path / "gs.edges").read_text().splitlines()
        assert lines[0] == "spatial 2 1"
        assert len(lines[1].split("\t")[2].split(".")[1]) == 6  # 6 decimals
