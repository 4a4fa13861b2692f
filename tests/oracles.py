"""Brute-force reference implementations used only by tests.

Everything here is deliberately independent of the package's algorithms:
triangle classification walks all node triples, traces come from dense
matrix powers, the two-path table intersects adjacencies per edge and the
census lists triangles one by one, greedy selection rescans the whole
two-path table for every pick and follows tr(A^3) by per-flip deltas in
place of the table's census, F1 goes through explicit precision/recall,
the attack-evaluation sweep runs every budget on its own, the split
shuffles every edge, and the rating loader is the plain per-row loop with
a validating graph constructor.

Three references stand in for package paths that batch their work:
`two_path_sum` intersects two adjacencies for one pair, where the two-path
table fills every edge in one triangle pass; `triad_vote_predict` votes on
one pair, where `evaluate_on_split` votes on a whole test split; and
`run_attack` attacks at one budget, where `run_attack_budgets` serves every
budget from one run.
"""

from __future__ import annotations

import csv
import random
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from balattack import (
    MODE_BALANCE_SEQUENTIAL,
    MODE_RANDOM,
    STATUS_ALREADY_MINIMAL,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_NO_CANDIDATES,
    AttackConfig,
    AttackTrace,
    EdgeSplit,
    FlipRecord,
    LoadStats,
    ParseError,
    PipelineRow,
    SignedGraph,
    TwoPathTable,
    balance_degree,
    run_balance_attack,
    run_random_attack,
)
from balattack.attack import as_fraction
from balattack.prediction import evaluate_on_split


def adjacency_matrix(g: SignedGraph) -> np.ndarray:
    a = np.zeros((g.node_count, g.node_count), dtype=np.int64)
    for u, v, s in g.edges():
        a[u, v] = s
        a[v, u] = s
    return a


def triangle_census_triples(g: SignedGraph) -> tuple[int, int]:
    """(balanced, unbalanced) by checking every node triple i<j<k."""
    n = g.node_count
    adj = [g.adjacency(u) for u in range(n)]
    bal = unb = 0
    for i in range(n - 2):
        di = adj[i]
        for j in range(i + 1, n - 1):
            sij = di.get(j)
            if sij is None:
                continue
            dj = adj[j]
            for k in range(j + 1, n):
                sik = di.get(k)
                if sik is None:
                    continue
                sjk = dj.get(k)
                if sjk is None:
                    continue
                if sij * sik * sjk > 0:
                    bal += 1
                else:
                    unb += 1
    return bal, unb


def traces_cubed(g: SignedGraph) -> tuple[int, int]:
    """(tr(A^3), tr(|A|^3)) from dense integer matrix products."""
    a = adjacency_matrix(g)
    t3 = int(np.trace(a @ a @ a))
    ab = np.abs(a)
    tabs = int(np.trace(ab @ ab @ ab))
    return t3, tabs


def d3_from_traces(trace_a3: int, trace_abs: int) -> Fraction | None:
    if trace_abs == 0:
        return None
    return Fraction(trace_a3 + trace_abs, 2 * trace_abs)


def census_from_traces(trace_a3: int, trace_abs: int) -> tuple[int, int]:
    """(balanced, unbalanced): each triangle adds 6 to tr(|A|^3) and +-6,
    by its sign product, to tr(A^3)."""
    return (trace_abs + trace_a3) // 12, (trace_abs - trace_a3) // 12


def trace_a3_of(matrix: np.ndarray) -> int:
    return int(np.trace(matrix @ matrix @ matrix))


def two_paths_dense(g: SignedGraph) -> np.ndarray:
    a = adjacency_matrix(g)
    return a @ a


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


def two_path_table_per_edge(g: SignedGraph) -> dict[tuple[int, int], int]:
    """{(u, v): (A^2)_uv} for every edge in `g.edges()` order, one
    adjacency intersection per edge."""
    return {(u, v): two_path_sum(g, u, v) for u, v, _ in g.edges()}


def table_items(table: TwoPathTable) -> list[tuple[tuple[int, int], int]]:
    """((min, max), p) for every edge of the table's graph, in `g.edges()`
    order, read one entry at a time through `get`."""
    return [((u, v), table.get(u, v)) for u, v, _ in table.graph.edges()]


def table_consistent(table: TwoPathTable) -> bool:
    """True iff every entry and the census of `table` equal a fresh
    recomputation on its graph."""
    g = table.graph
    return (
        dict(table_items(table)) == two_path_table_per_edge(g)
        and table.census == census_by_listing(g)
    )


def _forward_neighbours(g: SignedGraph) -> list[list[int]]:
    # Rank nodes by (degree, id); keep only edges pointing up-rank.
    n = g.node_count
    rank = sorted(range(n), key=lambda u: (len(g.adjacency(u)), u))
    pos = [0] * n
    for i, u in enumerate(rank):
        pos[u] = i
    return [[v for v in g.adjacency(u) if pos[v] > pos[u]] for u in range(n)]


def iter_triangles(g: SignedGraph) -> Iterator[tuple[int, int, int]]:
    """Yield each triangle of g exactly once as a node triple."""
    fwd = _forward_neighbours(g)
    for u in range(g.node_count):
        out = fwd[u]
        for i, v in enumerate(out):
            adj_v = g.adjacency(v)
            for w in out[i + 1 :]:
                if w in adj_v:
                    yield u, v, w


def census_by_listing(g: SignedGraph) -> tuple[int, int]:
    """(balanced, unbalanced), classifying each listed triangle."""
    balanced = unbalanced = 0
    for u, v, w in iter_triangles(g):
        adj_u = g.adjacency(u)
        if adj_u[v] * adj_u[w] * g.adjacency(v)[w] > 0:
            balanced += 1
        else:
            unbalanced += 1
    return balanced, unbalanced


def _parse_number(text: str) -> int | Fraction:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)  # "a/0" escapes as ZeroDivisionError
    except ValueError:
        float(text)
        raise ParseError(f"non-finite rating {text!r}") from None


def reference_load_rating_csv(stream: Iterable[str]) -> tuple[SignedGraph, LoadStats]:
    """`load_rating_csv` as a plain per-row loop: a blank-row test and a
    full parse of every row, stats kept in local counters, and the graph
    built through the validating constructor."""
    sums: dict[tuple[str, str], int | Fraction] = {}
    rows = self_loop_rows = zero_rating_rows = merged_rows = zero_sum_pairs = 0
    header_skipped = False
    for lineno, row in enumerate(csv.reader(stream), 1):
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) < 3:
            if lineno == 1:
                header_skipped = True
                continue
            raise ParseError(f"expected source,target,rating[,time], got {len(row)} fields", lineno)
        try:
            rating = _parse_number(row[2])
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        except ValueError:
            if lineno == 1:
                header_skipped = True
                continue
            raise ParseError(f"non-numeric rating {row[2]!r}", lineno) from None
        rows += 1
        src = row[0].strip()
        dst = row[1].strip()
        if src == dst:
            self_loop_rows += 1
            continue
        if rating == 0:
            zero_rating_rows += 1
            continue
        key = (src, dst) if src <= dst else (dst, src)
        if key in sums:
            merged_rows += 1
            sums[key] += rating
        else:
            sums[key] = rating
    if rows == 0:
        raise ParseError("empty input: no data rows")
    ids: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int, int]] = []
    for (a, b), total in sums.items():
        if total == 0:
            zero_sum_pairs += 1
            continue
        for x in (a, b):
            if x not in ids:
                ids[x] = len(labels)
                labels.append(x)
        edges.append((ids[a], ids[b], 1 if total > 0 else -1))
    g = SignedGraph(len(labels), edges, labels)
    return g, LoadStats(
        rows=rows,
        header_skipped=header_skipped,
        zero_rating_rows=zero_rating_rows,
        self_loop_rows=self_loop_rows,
        merged_rows=merged_rows,
        zero_sum_pairs=zero_sum_pairs,
    )


def confusion_brute(preds: Sequence[int], labels: Sequence[int]) -> tuple[int, int, int, int]:
    tp = sum(1 for p, y in zip(preds, labels) if y == 1 and p == 1)
    fn = sum(1 for p, y in zip(preds, labels) if y == 1 and p == -1)
    tn = sum(1 for p, y in zip(preds, labels) if y == -1 and p == -1)
    fp = sum(1 for p, y in zip(preds, labels) if y == -1 and p == 1)
    return tp, fp, tn, fn


def triad_vote_predict(train: SignedGraph, u: int, v: int) -> int:
    """Predict the sign of pair (u, v) from the training graph.

    Each common neighbor w votes with A_uw * A_wv; positive total predicts
    +1, negative -1. A zero total (including no common neighbors at all)
    falls back to the majority training sign, +1 on an exact tie.
    """
    score = two_path_sum(train, u, v)
    if score > 0:
        return 1
    if score < 0:
        return -1
    return 1 if train.pos_edge_count >= train.neg_edge_count else -1


def _f1_from_prf(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def f1_brute(preds: Sequence[int], labels: Sequence[int]) -> tuple[float, float, float]:
    """(micro, binary, macro) F1 via the precision/recall route, in floats."""
    tp, fp, tn, fn = confusion_brute(preds, labels)
    micro = (tp + tn) / len(labels)
    pos = _f1_from_prf(tp, fp, fn)
    neg = _f1_from_prf(tn, fn, fp)
    return micro, pos, (pos + neg) / 2


def best_candidate_scan(g: SignedGraph, table: TwoPathTable) -> tuple[int, int, int] | None:
    """Candidate with the largest a_uv * p_uv as (u, v, p_uv), found by
    scanning every table entry; None if there are none. Ties go to the
    smallest (u, v) pair.
    """
    adj = [g.adjacency(x) for x in range(g.node_count)]
    best_score = 0
    best: tuple[int, int] | None = None
    for (u, v), p in table_items(table):
        score = adj[u][v] * p
        if score > best_score:
            best_score = score
            best = (u, v)
        elif score == best_score and score > 0 and (u, v) < best:  # type: ignore[operator]
            best = (u, v)
    if best is None:
        return None
    return best[0], best[1], best_score * adj[best[0]][best[1]]


def epoch_ranking_scan(g: SignedGraph, table: TwoPathTable) -> list[tuple[int, int, int]]:
    """Every candidate as (u, v, p_uv), sorted best-first by |p_uv| with
    ties by (u, v)."""
    adj = [g.adjacency(x) for x in range(g.node_count)]
    cands = [
        (u, v, p) for (u, v), p in table_items(table) if p != 0 and adj[u][v] * p > 0
    ]
    cands.sort(key=lambda t: (-abs(t[2]), t[0], t[1]))
    return cands


def scan_balance_attack(
    g: SignedGraph, cfg: AttackConfig
) -> tuple[SignedGraph, AttackTrace]:
    """`run_balance_attack` with a full table scan for every selection:
    O(m) per flip in sequential mode and a full sort per batched epoch.
    Its balance degrees and censuses come from tr(A^3), started from dense
    matrix powers and moved by each flip's delta, not from the table's
    census."""
    budget = cfg.budget_edges(g.edge_count)
    poisoned = g.copy()
    table = TwoPathTable.from_graph(poisoned)
    trace_a3, trace_abs = traces_cubed(poisoned)
    initial_d3 = d3_from_traces(trace_a3, trace_abs)
    records: list[FlipRecord] = []

    def flip(u: int, v: int, p_sel: int) -> None:
        nonlocal trace_a3
        delta = flip_delta(poisoned, u, v)
        a = table.apply_flip(u, v)
        trace_a3 += delta
        census = census_from_traces(trace_a3, trace_abs)
        records.append(FlipRecord(len(records) + 1, u, v, a, p_sel, delta, census))

    if trace_abs > 0 and trace_a3 == -trace_abs:
        return poisoned, AttackTrace(cfg.mode, budget, STATUS_ALREADY_MINIMAL, initial_d3, [])
    status = STATUS_BUDGET_EXHAUSTED
    if cfg.mode == MODE_BALANCE_SEQUENTIAL:
        while len(records) < budget:
            pick = best_candidate_scan(poisoned, table)
            if pick is None:
                status = STATUS_NO_CANDIDATES
                break
            flip(*pick)
    else:
        while len(records) < budget:
            ranking = epoch_ranking_scan(poisoned, table)
            if not ranking:
                status = STATUS_NO_CANDIDATES
                break
            for u, v, p_sel in ranking[: budget - len(records)][: cfg.batch_size]:
                flip(u, v, p_sel)
    return poisoned, AttackTrace(cfg.mode, budget, status, initial_d3, records)


def run_attack(g: SignedGraph, cfg: AttackConfig) -> tuple[SignedGraph, AttackTrace]:
    """One standalone attack at cfg's budget, dispatched on cfg.mode."""
    if cfg.mode == MODE_RANDOM:
        return run_random_attack(g, cfg)
    return run_balance_attack(g, cfg)


def reference_split_edges(
    g: SignedGraph, fraction: Fraction | float | str, seed: int
) -> EdgeSplit:
    """`split_edges` by its definition: shuffle every edge of `g.edges()`
    with `random.shuffle`, then build the first round(fraction*m) into the
    train graph through the validating constructor; the rest, in order,
    are the test edges."""
    edges = list(g.edges())
    n_train = round(as_fraction(fraction) * len(edges))
    random.Random(seed).shuffle(edges)
    return EdgeSplit(SignedGraph(g.node_count, edges[:n_train]), tuple(edges[n_train:]))


def reference_attack_eval_pipeline(
    g: SignedGraph,
    budgets: Sequence[Fraction | float | str],
    modes: Sequence[str],
    *,
    split_seed: int = 0,
    train_fraction: Fraction | float = Fraction(4, 5),
    attack_seed: int = 0,
    batch_size: int = 10,
    dataset: str = "graph",
) -> list[PipelineRow]:
    """`attack_eval_pipeline` with the reference split, one standalone
    `run_attack` per nonzero budget and a fresh triangle census of every
    row's graph."""
    split = reference_split_edges(g, train_fraction, split_seed)
    clean_train = split.train
    rows = []
    for mode in modes:
        for budget in map(as_fraction, budgets):
            poisoned = clean_train
            if budget > 0:
                cfg = AttackConfig(
                    budget_fraction=budget, mode=mode, batch_size=batch_size, seed=attack_seed
                )
                poisoned, _ = run_attack(clean_train, cfg)
            rows.append(PipelineRow(
                dataset, mode, budget, balance_degree(poisoned).d3,
                evaluate_on_split(poisoned, split.test_edges), split_seed, attack_seed,
            ))
    return rows
