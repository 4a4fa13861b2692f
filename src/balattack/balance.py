"""Triangle census, balance degree, and the two-path table that makes
single-edge sign flips cheap to score and apply."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterator

from .graph import SignedGraph


@dataclass(frozen=True)
class BalanceReport:
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
        return {**asdict(self), "d3": self.d3_float()}


def count_signed_triangles(
    g: SignedGraph, fill: dict[tuple[int, int], int] | None = None
) -> tuple[int, int]:
    """Exact (balanced, unbalanced) triangle counts.

    A triangle is balanced when its sign product is +1. Runs in O(m^1.5)
    as the compact-forward listing (Chiba & Nishizeki 1985; Latapy 2008):
    edges point up a (degree, id) rank, so every triangle is met once, at
    its lowest corner, and no node has more than O(sqrt(m)) out-edges.

    Given `fill`, a dict holding every edge (min, max) of g, the same walk
    adds each triangle's two-path a_xz*a_zy into the entry of its edge
    {x,y}, for all three edges; entries that start at 0 end at (A^2)_xy.
    """
    adj = g.adjacencies()
    pos = [0] * len(adj)
    for i, u in enumerate(sorted(range(len(adj)), key=lambda x: len(adj[x]))):
        pos[u] = i
    fwd = [{v for v in d if pos[v] > pos[u]} for u, d in enumerate(adj)]
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
                for w in common:
                    a_uw = adj_u[w]
                    a_vw = adj_v[w]
                    s += a_uw * a_vw
                    fill[(u, w) if u < w else (w, u)] += a_uv * a_vw
                    fill[(v, w) if v < w else (w, v)] += a_uv * a_uw
                fill[(u, v) if u < v else (v, u)] += s
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
    recomputed. Keys are ordered pairs (min, max), in `g.edges()` order.
    The table tracks one specific graph object; `apply_flip` mutates both
    in lock-step and keeps `census` exact.
    """

    __slots__ = ("graph", "_p", "census")

    def __init__(
        self, graph: SignedGraph, table: dict[tuple[int, int], int], census: tuple[int, int]
    ):
        self.graph = graph
        self._p = table
        self.census = census

    @classmethod
    def from_graph(cls, g: SignedGraph) -> "TwoPathTable":
        """Build the table and the census in one triangle walk: every
        two-path of an edge closes a triangle through it."""
        p = dict.fromkeys([(u, v) for u, v, _s in g.edges()], 0)
        census = count_signed_triangles(g, fill=p)
        return cls(g, p, census)

    def copy(self) -> "TwoPathTable":
        """An independent table that tracks a copy of the graph."""
        return TwoPathTable(self.graph.copy(), dict(self._p), self.census)

    def get(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self._p[key]

    def pairs(self) -> list[tuple[int, int]]:
        """Every edge as (min, max), in `g.edges()` order."""
        return list(self._p)

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(self._p.items())

    def __len__(self) -> int:
        return len(self._p)

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
        p = self._p
        d = a * p[(u, v) if u < v else (v, u)]
        self.census = (self.census[0] - d, self.census[1] + d)
        adj_u = g.adjacency(u)
        adj_v = g.adjacency(v)
        step = 2 * a
        for w in adj_u.keys() & adj_v.keys():
            # paths w - u - v: hop a_uv changed by -2a, scaled by a_wu
            p[(w, v) if w < v else (v, w)] -= step * adj_u[w]
            # paths u - v - w, symmetric
            p[(w, u) if w < u else (u, w)] -= step * adj_v[w]
        return a
