"""Seeded, stdlib-only input generator for the benchmark.

Graphs come from the Holme-Kim model (Holme & Kim, PRE 2002): preferential
attachment with a triad-formation step, which gives the heavy-tailed degrees
and the triangle density of real trust networks. Each edge is negative with
probability `neg_frac`. The same arguments always give the same bytes.
"""

from __future__ import annotations

import random

# Rating dumps: the share of pairs rated in both directions, and the share
# of those whose second rating has the opposite sign.
RECIPROCAL = 0.30
DISAGREE = 0.03


def holme_kim(
    n: int, k: int, p_triad: float, neg_frac: float, rng: random.Random
) -> list[tuple[int, int, int]]:
    """Signed Holme-Kim graph as sorted `(u, v, sign)` triples with u < v.

    Starts from a complete graph on k+1 nodes; every later node attaches k
    edges, so m = k(k+1)/2 + k(n-k-1) exactly. The first target of a new
    node is drawn by preferential attachment; each further one is, with
    probability p_triad, a random neighbour of the previous target (closing
    a triangle), and otherwise another preferential draw.
    """
    if n <= k + 1:
        raise ValueError(f"need n > k + 1, got n={n}, k={k}")
    adj: list[set[int]] = [set() for _ in range(n)]
    # Every edge end appears once, so a uniform draw is degree-proportional.
    ends: list[int] = []

    def link(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)
        ends.append(u)
        ends.append(v)

    for u in range(k + 1):
        for v in range(u + 1, k + 1):
            link(u, v)
    for v in range(k + 1, n):
        target = rng.choice(ends)
        link(v, target)
        for _ in range(k - 1):
            if rng.random() < p_triad:
                closing = sorted(adj[target] - adj[v] - {v})
                if closing:
                    link(v, rng.choice(closing))
                    continue
            target = rng.choice(ends)
            while target == v or target in adj[v]:
                target = rng.choice(ends)
            link(v, target)
    return [
        (u, v, -1 if rng.random() < neg_frac else 1)
        for u in range(n)
        for v in sorted(adj[u])
        if v > u
    ]


def edge_list_text(n: int, edges: list[tuple[int, int, int]]) -> str:
    """The package's canonical edge-list format."""
    lines = [f"# nodes={n}\n"]
    lines.extend(f"{u} {v} {'+1' if s > 0 else '-1'}\n" for u, v, s in edges)
    return "".join(lines)


def rating_csv_text(edges: list[tuple[int, int, int]], rng: random.Random) -> str:
    """A directed rating dump (`source,target,rating,time`) whose merged
    signs are mostly those of `edges`.

    Each edge gets one rating in a random direction with magnitude 1..10.
    A share RECIPROCAL of pairs also gets the reverse rating. Of those, a
    share DISAGREE has the opposite sign: half of them cancel exactly, so
    the loader drops the pair, and the rest flip or keep the merged sign.
    Rows are shuffled and node labels are 1-based, as in rating dumps.
    """
    rows: list[tuple[int, int, int]] = []
    for u, v, s in edges:
        if rng.random() < 0.5:
            u, v = v, u
        r = s * rng.randint(1, 10)
        rows.append((u, v, r))
        if rng.random() < RECIPROCAL:
            if rng.random() < DISAGREE:
                back = -r if rng.random() < 0.5 else -s * rng.randint(1, 10)
            else:
                back = s * rng.randint(1, 10)
            rows.append((v, u, back))
    rng.shuffle(rows)
    lines = ["source,target,rating,time\n"]
    lines.extend(
        f"{u + 1},{v + 1},{r},{1_300_000_000 + 600 * t}\n"
        for t, (u, v, r) in enumerate(rows)
    )
    return "".join(lines)
