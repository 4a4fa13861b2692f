from __future__ import annotations

import random
from fractions import Fraction

import pytest

from balattack import (
    SignedGraph,
    TwoPathTable,
    balance_degree,
    count_signed_triangles,
    select_candidates,
)
from oracles import (
    adjacency_matrix,
    census_by_listing,
    d3_from_traces,
    epoch_ranking_scan,
    flip_delta,
    table_consistent,
    table_items,
    trace_a3_of,
    traces_cubed,
    triangle_census_triples,
    two_path_sum,
    two_path_table_per_edge,
    two_paths_dense,
)
from util import clustered_signed_graph, random_signed_graph

K3 = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]


def test_k3_all_positive_is_balanced():
    rep = balance_degree(SignedGraph(3, K3))
    assert (rep.balanced, rep.unbalanced) == (1, 0)
    assert rep.d3 == 1
    assert rep.triangles == 1


def test_single_negative_edge_unbalances_k3():
    rep = balance_degree(SignedGraph(3, [(0, 1, -1), (0, 2, 1), (1, 2, 1)]))
    assert (rep.balanced, rep.unbalanced) == (0, 1)
    assert rep.d3 == 0


def test_all_negative_triangle_is_unbalanced():
    b, u = count_signed_triangles(SignedGraph(3, [(0, 1, -1), (0, 2, -1), (1, 2, -1)]))
    assert (b, u) == (0, 1)


def test_two_negative_edges_balance_k3():
    rep = balance_degree(SignedGraph(3, [(0, 1, -1), (0, 2, -1), (1, 2, 1)]))
    assert rep.d3 == 1


def test_mixed_four_node_graph():
    # triangles: {0,1,2} balanced, {0,1,3} has one negative edge
    g = SignedGraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, -1), (1, 3, 1)])
    rep = balance_degree(g)
    assert (rep.balanced, rep.unbalanced) == (1, 1)
    assert rep.d3 == Fraction(1, 2)
    assert rep.as_record()["d3"] == 0.5


def test_triangle_free_graph_has_undefined_d3():
    star = SignedGraph(5, [(0, i, 1 if i % 2 else -1) for i in range(1, 5)])
    rep = balance_degree(star)
    assert rep.triangles == 0
    assert rep.d3 is None
    assert rep.d3_float() is None
    assert rep.as_record()["d3"] is None


def test_empty_graph():
    rep = balance_degree(SignedGraph(0))
    assert rep.n == 0 and rep.m == 0 and rep.d3 is None


def test_census_matches_all_triples_oracle():
    rng = random.Random(42)
    for _ in range(40):
        g = random_signed_graph(rng, rng.randint(2, 45), rng.uniform(0.05, 0.4))
        assert count_signed_triangles(g) == triangle_census_triples(g)


def test_census_matches_trace_identities():
    # every triangle contributes 6 to tr(|A|^3), +-6 to tr(A^3)
    rng = random.Random(7)
    for _ in range(25):
        g = random_signed_graph(rng, rng.randint(3, 40), 0.25)
        b, u = count_signed_triangles(g)
        t3, tabs = traces_cubed(g)
        assert t3 == 6 * (b - u)
        assert tabs == 6 * (b + u)
        assert balance_degree(g).d3 == d3_from_traces(t3, tabs)


def test_d3_stays_in_unit_interval():
    rng = random.Random(3)
    for _ in range(30):
        g = clustered_signed_graph(rng, communities=3, size=6, noise=rng.random() * 0.5)
        d3 = balance_degree(g).d3
        if d3 is not None:
            assert 0 <= d3 <= 1


class TestTwoPaths:
    def test_two_path_sum_matches_dense(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_signed_graph(rng, rng.randint(2, 35), 0.3)
            p2 = two_paths_dense(g)
            for u in range(g.node_count):
                for v in range(u + 1, g.node_count):
                    assert two_path_sum(g, u, v) == p2[u, v]

    def test_symmetry_and_degree_bound(self):
        rng = random.Random(17)
        g = random_signed_graph(rng, 40, 0.25)
        for u, v, _ in g.edges():
            p = two_path_sum(g, u, v)
            assert p == two_path_sum(g, v, u)
            assert abs(p) <= min(len(g.adjacency(u)), len(g.adjacency(v)))

    def test_table_built_for_every_edge(self):
        rng = random.Random(19)
        g = random_signed_graph(rng, 30, 0.3)
        t = TwoPathTable.from_graph(g)
        assert sum(map(len, t.rows)) == g.edge_count
        p2 = two_paths_dense(g)
        for (u, v), p in table_items(t):
            assert p == p2[u, v]
        assert t.get(v, u) == t.get(u, v)  # order-insensitive lookup

    def test_missing_edge_lookup_fails(self):
        t = TwoPathTable.from_graph(SignedGraph(3, K3))
        with pytest.raises(KeyError):
            t.get(0, 3)

    def test_only_from_graph_makes_a_table(self):
        # Rows and a census are only right beside the graph they were walked on.
        with pytest.raises(TypeError):
            TwoPathTable(SignedGraph(3, K3), [], (0, 0))

    def test_every_non_edge_lookup_is_a_key_error(self):
        # Node 4's row holds node 2, so get(-1, 2) would read edge {4, 2}
        # if the id wrapped around the list of rows.
        g = SignedGraph(5, [*K3, (2, 3, 1), (2, 4, -1), (3, 4, 1), (1, 4, 1)])
        t = TwoPathTable.from_graph(g)
        assert 2 in t.rows[4]
        for u, v in ((0, 3), (3, 0), (0, 5), (5, 0), (-1, 2), (2, -1), (-1, -3), (1, 1), (7, 9)):
            with pytest.raises(KeyError):
                t.get(u, v)


class TestTrianglePass:
    """The one-walk table and census against per-edge intersection and
    triangle-by-triangle classification."""

    @staticmethod
    def check(g):
        t = TwoPathTable.from_graph(g)
        assert table_items(t) == list(two_path_table_per_edge(g).items())
        assert t.census == census_by_listing(g) == count_signed_triangles(g)
        return t

    def test_matches_references_on_seeded_graphs(self):
        rng = random.Random(53)
        for i in range(120):
            if i % 3:
                g = random_signed_graph(rng, rng.randint(1, 40), rng.uniform(0, 0.6),
                                        neg_frac=rng.random())
            else:
                g = clustered_signed_graph(rng, communities=rng.randint(1, 3),
                                           size=rng.randint(2, 9), noise=rng.random() / 2)
            self.check(g)

    def test_triangle_free(self):
        bipartite = [(u, v, 1 if (u + v) % 3 else -1) for u in range(4) for v in range(4, 9)]
        t = self.check(SignedGraph(9, bipartite))
        # A two-path between an edge's ends would close a triangle.
        assert t.census == (0, 0) and sum(map(len, t.rows)) == 20
        assert all(p == 0 for _, p in table_items(t))

    def test_all_unbalanced(self):
        k5 = [(u, v, -1) for u in range(5) for v in range(u + 1, 5)]
        t = self.check(SignedGraph(5, k5))
        assert t.census == (0, 10)
        assert all(p == 3 for _, p in table_items(t))

    def test_isolated_nodes(self):
        g = SignedGraph(12, [(3, 7, 1), (7, 10, -1), (3, 10, -1), (10, 11, 1)])
        t = self.check(g)
        assert t.census == (1, 0)
        assert dict(table_items(t)) == {(3, 7): 1, (3, 10): -1, (7, 10): -1, (10, 11): 0}

    def test_census_follows_flips_and_copies(self):
        rng = random.Random(59)
        g = clustered_signed_graph(rng, communities=3, size=7, noise=0.2)
        t = TwoPathTable.from_graph(g)
        pairs = [(u, v) for u, v, _ in g.edges()]
        for u, v in rng.sample(pairs, 40):
            t.apply_flip(u, v)
            assert t.census == census_by_listing(g)
        twin = TwoPathTable.from_graph(g.copy())
        assert twin.census == t.census and table_consistent(twin)


class TestRankOrientedRows:
    """The table's storage: one dict per node over its forward neighbours,
    patched by flips on a table and on tables built on copies of its graph."""

    @staticmethod
    def check(t):
        g = t.graph
        rank = {u: (len(g.adjacency(u)), u) for u in range(g.node_count)}
        assert all(rank[u] < rank[v] for u, row in enumerate(t.rows) for v in row)
        assert sum(map(len, t.rows)) == g.edge_count
        assert table_consistent(t)
        scan = {(u, v) for u, v, _p in epoch_ranking_scan(g, t)}
        assert select_candidates(g, t) == scan

    def test_random_flips_on_tables_and_their_copies(self):
        rng = random.Random(67)
        graphs = 0
        while graphs < 110:
            if graphs % 2:
                g = random_signed_graph(rng, rng.randint(2, 22), rng.uniform(0.1, 0.7),
                                        neg_frac=rng.random())
            else:
                g = clustered_signed_graph(rng, communities=rng.randint(1, 3),
                                           size=rng.randint(2, 7), noise=rng.random() / 2)
            if g.edge_count == 0:
                continue
            graphs += 1
            edges = [(u, v) for u, v, _ in g.edges()]
            tables = [TwoPathTable.from_graph(g)]
            self.check(tables[0])
            for _ in range(rng.randint(1, 10)):
                if rng.random() < 0.3:
                    tables.append(TwoPathTable.from_graph(rng.choice(tables).graph.copy()))
                rng.choice(tables).apply_flip(*rng.choice(edges))
                for t in tables:
                    self.check(t)
                rows = [id(row) for t in tables for row in t.rows]
                assert len(set(rows)) == len(rows)  # no two tables share a row
                assert len({id(t.graph) for t in tables}) == len(tables)


class TestFlipDelta:
    def test_k3(self):
        g = SignedGraph(3, K3)
        assert flip_delta(g, 0, 1) == -12

    def test_matches_dense_recompute(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_signed_graph(rng, rng.randint(3, 30), 0.3)
            a = adjacency_matrix(g)
            before = trace_a3_of(a)
            for u, v, s in g.edges():
                flipped = a.copy()
                flipped[u, v] = flipped[v, u] = -s
                assert flip_delta(g, u, v) == trace_a3_of(flipped) - before

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            flip_delta(SignedGraph(3, K3), 0, 3)


class TestIncrementalTable:
    def test_apply_flip_tracks_rebuild(self):
        rng = random.Random(29)
        g = random_signed_graph(rng, 30, 0.25)
        t = TwoPathTable.from_graph(g)
        edges = [(u, v) for u, v, _ in g.edges()]
        for _ in range(150):
            u, v = rng.choice(edges)
            old = g.sign(u, v)
            returned = t.apply_flip(u, v)
            assert returned == old
            assert g.sign(u, v) == -old
            fresh = TwoPathTable.from_graph(g)
            assert dict(table_items(t)) == dict(table_items(fresh))

    def test_own_entry_unchanged_by_flip(self):
        g = SignedGraph(3, K3)
        t = TwoPathTable.from_graph(g)
        before = t.get(0, 1)
        t.apply_flip(0, 1)
        assert t.get(0, 1) == before

    def test_non_edge_raises_and_changes_nothing(self):
        g = SignedGraph(4, K3)
        t = TwoPathTable.from_graph(g)
        for u, v in ((0, 3), (3, 0), (0, 9), (1, 1)):
            with pytest.raises(ValueError, match="not an edge"):
                t.apply_flip(u, v)
        assert g == SignedGraph(4, K3) and table_consistent(t)

    def test_check_consistent_detects_drift(self):
        g = SignedGraph(3, K3)
        t = TwoPathTable.from_graph(g)
        assert table_consistent(t)
        g.flip_edge(0, 1)  # mutate behind the table's back
        assert not table_consistent(t)

    def test_flip_then_unflip_restores_table(self):
        rng = random.Random(31)
        g = clustered_signed_graph(rng, communities=2, size=8)
        t = TwoPathTable.from_graph(g)
        snapshot = dict(table_items(t))
        edges = [(u, v) for u, v, _ in g.edges()]
        picks = [rng.choice(edges) for _ in range(20)]
        for u, v in picks:
            t.apply_flip(u, v)
        for u, v in reversed(picks):
            t.apply_flip(u, v)
        assert dict(table_items(t)) == snapshot

    def test_flips_on_a_copy_leave_the_original_untouched(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_signed_graph(rng, rng.randint(4, 16), rng.uniform(0.2, 0.7))
            if g.edge_count == 0:
                continue
            t = TwoPathTable.from_graph(g)
            graph_before, table_before = g.copy(), dict(table_items(t))
            twin = TwoPathTable.from_graph(g.copy())
            assert twin.graph is not g and twin.graph == g
            edges = [(u, v) for u, v, _ in g.edges()]
            for u, v in rng.sample(edges, rng.randint(1, len(edges))):
                twin.apply_flip(u, v)
            assert twin.graph != g
            assert g == graph_before and dict(table_items(t)) == table_before
            assert table_consistent(t) and table_consistent(twin)
