"""Random graph builders shared across the test modules."""

from __future__ import annotations

import random

from balattack import SignedGraph


def random_signed_graph(
    rng: random.Random, n: int, p: float, neg_frac: float = 0.3
) -> SignedGraph:
    """Erdos-Renyi support with independent random signs."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, -1 if rng.random() < neg_frac else 1))
    return SignedGraph(n, edges)


def clustered_signed_graph(
    rng: random.Random,
    communities: int = 2,
    size: int = 10,
    p_in: float = 0.7,
    p_out: float = 0.2,
    noise: float = 0.0,
) -> SignedGraph:
    """Community graph: positive inside, negative across, optional sign noise.

    With two communities and zero noise every triangle is balanced, which
    gives attack tests a well-understood starting point (and triangles to
    spare, unlike sparse uniform graphs).
    """
    n = communities * size
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            same = u // size == v // size
            if rng.random() < (p_in if same else p_out):
                s = 1 if same else -1
                if noise and rng.random() < noise:
                    s = -s
                edges.append((u, v, s))
    return SignedGraph(n, edges)


def graph_with_triangles(rng: random.Random, **kwargs) -> SignedGraph:
    """A clustered graph that is guaranteed to contain a triangle."""
    for _ in range(50):
        g = clustered_signed_graph(rng, **kwargs)
        for u in range(g.node_count):
            nbrs = list(g.adjacency(u))
            for i, v in enumerate(nbrs):
                for w in nbrs[i + 1 :]:
                    if w in g.adjacency(v):
                        return g
    raise AssertionError("could not generate a graph with triangles")
