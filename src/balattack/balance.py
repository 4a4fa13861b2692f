"""Triangle census, balance degree, and the two-path table that makes
single-edge sign flips cheap to score and apply."""

from __future__ import annotations

from dataclasses import dataclass
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
        """JSON-friendly dict; d3 reported as float (None if undefined)."""
        return {
            "n": self.n,
            "m": self.m,
            "pos_edges": self.pos_edges,
            "neg_edges": self.neg_edges,
            "balanced": self.balanced,
            "unbalanced": self.unbalanced,
            "d3": self.d3_float(),
        }


def _forward_order(g: SignedGraph) -> tuple[list[int], list[list[int]]]:
    # Rank nodes by (degree, id); keep only edges pointing up-rank. Every
    # triangle then appears exactly once, at its lowest-ranked corner.
    n = g.node_count
    rank = sorted(range(n), key=lambda u: (g.degree(u), u))
    pos = [0] * n
    for i, u in enumerate(rank):
        pos[u] = i
    fwd: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        pu = pos[u]
        fwd[u] = [v for v in g.adjacency(u) if pos[v] > pu]
    return pos, fwd


def iter_triangles(g: SignedGraph) -> Iterator[tuple[int, int, int]]:
    """Yield each triangle of g exactly once as a node triple."""
    _, fwd = _forward_order(g)
    for u in range(g.node_count):
        out = fwd[u]
        for i, v in enumerate(out):
            adj_v = g.adjacency(v)
            for w in out[i + 1 :]:
                if w in adj_v:
                    yield u, v, w


def count_signed_triangles(g: SignedGraph) -> tuple[int, int]:
    """Exact (balanced, unbalanced) triangle counts.

    A triangle is balanced when its sign product is +1. Runs in
    O(m^1.5) by orienting edges along a degree order, so dense-matrix
    blowup on large sparse graphs is avoided.
    """
    balanced = 0
    unbalanced = 0
    for u, v, w in iter_triangles(g):
        adj_u = g.adjacency(u)
        if adj_u[v] * adj_u[w] * g.adjacency(v)[w] > 0:
            balanced += 1
        else:
            unbalanced += 1
    return balanced, unbalanced


def balance_degree(g: SignedGraph) -> BalanceReport:
    """Full balance summary of g.

    The ratio equals (tr(A^3) + tr(|A|^3)) / (2 tr(|A|^3)) on the signed
    adjacency matrix, computed here from exact triangle counts: every
    triangle contributes 6 to tr(|A|^3) and +-6 to tr(A^3).
    """
    b, u = count_signed_triangles(g)
    d3 = Fraction(b, b + u) if b + u else None
    return BalanceReport(
        n=g.node_count,
        m=g.edge_count,
        pos_edges=g.pos_edge_count,
        neg_edges=g.neg_edge_count,
        balanced=b,
        unbalanced=u,
        d3=d3,
    )


def two_path_sum(g: SignedGraph, u: int, v: int) -> int:
    """(A^2)_uv: signed count of length-2 paths between u and v."""
    adj_u = g.adjacency(u)
    adj_v = g.adjacency(v)
    if len(adj_v) < len(adj_u):
        adj_u, adj_v = adj_v, adj_u
    return sum(s * adj_v[w] for w, s in adj_u.items() if w in adj_v)


def flip_delta(g: SignedGraph, u: int, v: int) -> int:
    """Exact change of tr(A^3) caused by flipping the sign of edge {u,v}.

    Flipping a_uv from a to -a changes each triangle through the edge by
    -2a * (product of its other two signs); over both trace orientations
    and the three diagonal positions that is -12 * a_uv * (A^2)_uv.
    tr(|A|^3) is unaffected, so this is the whole balance-degree story.
    """
    return -12 * g.sign(u, v) * two_path_sum(g, u, v)


class TwoPathTable:
    """(A^2)_uv cached for every edge {u,v} of a graph.

    This is the quantity the greedy attack ranks by, and it can be
    maintained under a sign flip in O(deg(u)+deg(v)) instead of being
    recomputed. Keys are ordered pairs (min, max). The table tracks one
    specific graph object; `apply_flip` mutates both in lock-step.
    """

    __slots__ = ("graph", "_p")

    def __init__(self, graph: SignedGraph, table: dict[tuple[int, int], int]):
        self.graph = graph
        self._p = table

    @classmethod
    def from_graph(cls, g: SignedGraph) -> "TwoPathTable":
        """Build the table by shared-neighbor intersection per edge."""
        p: dict[tuple[int, int], int] = {}
        for u, v, _s in g.edges():
            p[(u, v)] = two_path_sum(g, u, v)
        return cls(g, p)

    def copy(self) -> "TwoPathTable":
        """An independent table that tracks a copy of the graph."""
        return TwoPathTable(self.graph.copy(), dict(self._p))

    def get(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self._p[key]

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(self._p.items())

    def __len__(self) -> int:
        return len(self._p)

    def apply_flip(self, u: int, v: int) -> int:
        """Flip edge {u,v} in the tracked graph and patch the table.

        For a common update rule, note that p_wx sums a_wy*a_yx over
        middle nodes y; flipping a_uv only touches entries where the
        flipped edge is one of the two hops. p_uv itself uses {u,v} as
        endpoints, never as a hop, so it is unchanged. Returns the
        pre-flip sign.
        """
        g = self.graph
        a = g.sign(u, v)
        g.flip_edge(u, v)
        p = self._p
        adj_u = g.adjacency(u)
        adj_v = g.adjacency(v)
        step = 2 * a
        for w in adj_u.keys() & adj_v.keys():
            # paths w - u - v: hop a_uv changed by -2a, scaled by a_wu
            p[(w, v) if w < v else (v, w)] -= step * adj_u[w]
            # paths u - v - w, symmetric
            p[(w, u) if w < u else (u, w)] -= step * adj_v[w]
        return a

    def check_consistent(self) -> bool:
        """Recompute every entry from scratch; True iff nothing drifted."""
        g = self.graph
        if len(self._p) != g.edge_count:
            return False
        for (u, v), val in self._p.items():
            if not g.has_edge(u, v) or two_path_sum(g, u, v) != val:
                return False
        return True
