"""Triangle census, balance degree, and the two-path table that makes
single-edge sign flips cheap to score and apply."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graph import SignedGraph


class BalanceReport(NamedTuple):
    """Graph-level balance summary.

    `d3` is balanced/(balanced+unbalanced) as an exact Fraction, or None
    for a triangle-free graph where the ratio is undefined.
    """

    n: int
    m: int
    pos_edges: int
    neg_edges: int
    balanced: int
    unbalanced: int
    d3: Fraction | None

    @property
    def triangles(self) -> int:
        return self.balanced + self.unbalanced

    def d3_float(self) -> float | None:
        return None if self.d3 is None else float(self.d3)

    def as_record(self) -> dict:
        """JSON-friendly dict of the fields in order; d3 reported as float
        (None if undefined)."""
        return {**self._asdict(), "d3": self.d3_float()}


def count_signed_triangles(
    g: SignedGraph, fill: list[dict[int, int]] | None = None
) -> tuple[int, int]:
    """Exact (balanced, unbalanced) triangle counts.

    A triangle is balanced when its sign product is +1. Runs in O(m^1.5)
    as the compact-forward listing (Chiba & Nishizeki 1985; Latapy 2008):
    edges point up a (degree, id) rank, so every triangle is met once, at
    its lowest corner, and no node has more than O(sqrt(m)) out-edges.

    Given `fill`, an empty list, the walk appends one dict per node u, in
    id order, from each of u's forward neighbours v (ranked above u) to
    (A^2)_uv: every edge once, in the orientation the walk met it. All
    three edges of a triangle point forward from its lower corners, so
    each triangle adds its two-paths a_xz*a_zy into those dicts in place.
    """
    adj = g.adjacencies()
    pos = [0] * len(adj)
    for i, u in enumerate(sorted(range(len(adj)), key=lambda x: len(adj[x]))):
        pos[u] = i
    if fill is None:
        fwd = [{v for v in d if pos[v] > pos[u]} for u, d in enumerate(adj)]
    else:  # the dicts' own keys are the forward sets
        fill.extend({v: 0 for v in d if pos[v] > pos[u]} for u, d in enumerate(adj))
        fwd = [row.keys() for row in fill]
    triangles = signed = 0  # signed: balanced - unbalanced
    for u, fwd_u in enumerate(fwd):
        adj_u = adj[u]
        for v in fwd_u:
            common = fwd_u & fwd[v]
            if not common:
                continue
            adj_v = adj[v]
            a_uv = adj_u[v]
            s = 0
            if fill is None:
                for w in common:
                    s += adj_u[w] * adj_v[w]
            else:
                p_u, p_v = fill[u], fill[v]
                for w in common:
                    a_uw = adj_u[w]
                    a_vw = adj_v[w]
                    s += a_uw * a_vw
                    p_u[w] += a_uv * a_vw
                    p_v[w] += a_uv * a_uw
                p_u[v] += s
            triangles += len(common)
            signed += a_uv * s
    balanced = (triangles + signed) // 2
    return balanced, triangles - balanced


def census_d3(census: tuple[int, int]) -> Fraction | None:
    """The balance degree b/(b+u) of a (balanced, unbalanced) census as an
    exact Fraction, or None when there are no triangles."""
    b, u = census
    return Fraction(b, b + u) if b + u else None


def balance_degree(g: SignedGraph) -> BalanceReport:
    """Full balance summary of g.

    The ratio equals (tr(A^3) + tr(|A|^3)) / (2 tr(|A|^3)) on the signed
    adjacency matrix, computed here from exact triangle counts: every
    triangle contributes 6 to tr(|A|^3) and +-6 to tr(A^3).
    """
    b, u = count_signed_triangles(g)
    return BalanceReport(
        n=g.node_count,
        m=g.edge_count,
        pos_edges=g.pos_edge_count,
        neg_edges=g.neg_edge_count,
        balanced=b,
        unbalanced=u,
        d3=census_d3((b, u)),
    )


class TwoPathTable:
    """(A^2)_uv cached for every edge {u,v} of a graph, with the graph's
    (balanced, unbalanced) triangle census.

    This is the quantity the greedy attack ranks by, and it can be
    maintained under a sign flip in O(deg(u)+deg(v)) instead of being
    recomputed. Each edge is stored once, in the triangle walk's rank
    orientation: `rows[u][v]` for the end v ranked above u (see
    `count_signed_triangles`). `rows` is the table's own list of dicts,
    indexed by id, so flips show in it; treat it as read-only. Only
    `from_graph` makes a table, so it tracks the one graph object its rows
    and census were walked on, `graph`; `apply_flip` mutates both in
    lock-step and keeps `census` exact. A run that must leave its input
    alone builds the table on a copy of the graph.
    """

    __slots__ = ("graph", "rows", "census")

    @classmethod
    def from_graph(cls, g: SignedGraph) -> "TwoPathTable":
        """Build the table and the census in one triangle walk: every
        two-path of an edge closes a triangle through it."""
        table = cls.__new__(cls)
        table.graph, table.rows = g, []
        table.census = count_signed_triangles(g, fill=table.rows)
        return table

    def get(self, u: int, v: int) -> int:
        """p_uv of edge {u,v}, in either order; KeyError for a non-edge."""
        rows = self.rows
        if u < 0 or v < 0:  # a list index would wrap around
            raise KeyError((u, v))
        try:
            row = rows[u]
            return row[v] if v in row else rows[v][u]
        except IndexError:
            raise KeyError((u, v)) from None

    def apply_flip(self, u: int, v: int) -> int:
        """Flip edge {u,v} in the tracked graph and patch the table.

        For a common update rule, note that p_wx sums a_wy*a_yx over
        middle nodes y; flipping a_uv only touches entries where the
        flipped edge is one of the two hops. p_uv itself uses {u,v} as
        endpoints, never as a hop, so it is unchanged. The triangles
        through {u,v} sum to a_uv*p_uv balanced minus unbalanced, and the
        flip swaps the two. Returns the pre-flip sign.
        """
        g = self.graph
        a = g.flip_edge(u, v)
        rows = self.rows
        p_u, p_v = rows[u], rows[v]
        d = a * (p_u[v] if v in p_u else p_v[u])
        self.census = (self.census[0] - d, self.census[1] + d)
        adj_u = g.adjacency(u)
        adj_v = g.adjacency(v)
        step = 2 * a
        for w in adj_u.keys() & adj_v.keys():
            p_w = rows[w]
            # paths w - u - v: hop a_uv changed by -2a, scaled by a_wu
            if v in p_w:
                p_w[v] -= step * adj_u[w]
            else:
                p_v[w] -= step * adj_u[w]
            # paths u - v - w, symmetric
            if u in p_w:
                p_w[u] -= step * adj_v[w]
            else:
                p_u[w] -= step * adj_v[w]
        return a
