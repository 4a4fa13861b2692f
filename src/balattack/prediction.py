"""Link sign prediction under attack: train/test splits, a balance-theory
vote predictor, exact F1 metrics, and the poisoning evaluation pipeline."""

from __future__ import annotations

import csv
import random
from collections import Counter
from fractions import Fraction
from typing import IO, Iterable, NamedTuple, Sequence

from .attack import AttackConfig, as_fraction, run_attack_budgets
from .balance import balance_degree
from .graph import SignedGraph

PIPELINE_CSV_SCHEMA = "attack-eval/1"
PIPELINE_CSV_COLUMNS = (
    "dataset,mode,budget_frac,d3,micro_f1,binary_f1,macro_f1,split_seed,attack_seed"
)


class EdgeSplit(NamedTuple):
    """Disjoint train/test partition of a graph's signed edges, as
    `split_edges` takes them: a train graph on all nodes, and test edges."""

    train: SignedGraph
    test_edges: tuple[tuple[int, int, int], ...]


def split_edges(
    g: SignedGraph, fraction: Fraction | float | str = Fraction(4, 5), seed: int = 0
) -> EdgeSplit:
    """Randomly partition edges into round(fraction*m) train and the rest
    test. Deterministic per seed, which must be an int >= 0 (`random.Random`
    drops its sign). Raises ValueError for any other seed or when either
    side would be empty.

    The test edges are the tail of `g.edges()` after `random.shuffle`, in
    its order. Shuffle is Fisher-Yates from the end, so its draws for
    positions m-1 down to n_train fix that tail; only those are drawn, and
    the train graph is g without the test edges.
    """
    if type(seed) is not int or seed < 0:
        raise ValueError(f"split seed must be >= 0 and an int, got {seed!r}")
    given, fraction = fraction, as_fraction(fraction, "train fraction", "(0, 1)")
    edges = list(g.edges())
    n_train = round(fraction * len(edges))
    if n_train == 0 or n_train == len(edges):
        raise ValueError(
            f"cannot split {len(edges)} edges at train fraction {given}: "
            "one side would be empty"
        )
    randrange = random.Random(seed).randrange
    for i in range(len(edges) - 1, n_train - 1, -1):
        j = randrange(i + 1)
        edges[i], edges[j] = edges[j], edges[i]
    test_edges = tuple(edges[n_train:])
    return EdgeSplit(train=g.without(test_edges), test_edges=test_edges)


class EvalReport(NamedTuple):
    """Binary confusion counts and the three F1 flavors, all exact.

    The positive class is sign +1. micro_f1 coincides with accuracy for
    single-label binary classification; binary_f1 is the positive-class
    F1; macro_f1 averages the per-class F1s, scoring a degenerate class
    (no true and no predicted members) as 0.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    micro_f1: Fraction
    binary_f1: Fraction
    macro_f1: Fraction

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _f1(tp: int, fp: int, fn: int) -> Fraction:
    denom = 2 * tp + fp + fn
    return Fraction(2 * tp, denom) if denom else Fraction(0)


def evaluate(predictions: Sequence[int], labels: Sequence[int]) -> EvalReport:
    """Score sign predictions against ground-truth signs."""
    if len(predictions) != len(labels):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions, {len(labels)} labels"
        )
    if not labels:
        raise ValueError("nothing to evaluate")
    counts = Counter(zip(predictions, labels))
    for pred, label in counts:
        if pred not in (1, -1) or label not in (1, -1):
            raise ValueError(f"signs must be +1 or -1, got ({pred}, {label})")
    tp, fp, tn, fn = counts[1, 1], counts[1, -1], counts[-1, -1], counts[-1, 1]
    pos_f1 = _f1(tp, fp, fn)
    neg_f1 = _f1(tn, fn, fp)
    return EvalReport(
        tp, fp, tn, fn, Fraction(tp + tn, len(labels)), pos_f1, (pos_f1 + neg_f1) / 2
    )


def evaluate_on_split(train: SignedGraph, test_edges: Iterable[tuple[int, int, int]]) -> EvalReport:
    """Predict every held-out edge with the triad vote and score it.

    Each pair (u, v) sums a_uw * a_wv over the common neighbours w of u and
    v; a positive total predicts +1, a negative one -1, and a zero total
    (no common neighbours included) the majority training sign, +1 on an
    exact tie. `triad_vote_predict` in tests/oracles.py is the per-pair
    reference vote."""
    adj = train.adjacencies()
    n = len(adj)
    majority = 1 if train.pos_edge_count >= train.neg_edge_count else -1
    preds: list[int] = []
    labels: list[int] = []
    for u, v, s in test_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"node id out of range: ({u}, {v})")
        adj_u = adj[u]
        adj_v = adj[v]
        score = 0
        for w in adj_u.keys() & adj_v.keys():
            score += adj_u[w] * adj_v[w]
        preds.append(majority if score == 0 else 1 if score > 0 else -1)
        labels.append(s)
    return evaluate(preds, labels)


class PipelineRow(NamedTuple):
    """One (budget, mode) cell of the attack-evaluation sweep."""

    dataset: str
    mode: str
    budget_frac: Fraction
    d3: Fraction | None
    report: EvalReport
    split_seed: int
    attack_seed: int


def attack_eval_pipeline(
    g: SignedGraph,
    budgets: Sequence[Fraction | float | str],
    modes: Sequence[str],
    *,
    split_seed: int = 0,
    train_fraction: Fraction | float | str = Fraction(4, 5),
    attack_seed: int = 0,
    batch_size: int = 10,
    dataset: str = "graph",
) -> list[PipelineRow]:
    """Poison the training edges at each (budget, mode), then measure link
    sign prediction on the untouched test edges.

    Budget 0 rows are clean baselines. The test split and its labels are
    fixed once up front and never attacked. Each mode attacks every
    nonzero budget in one `run_attack_budgets` sweep, and each row's d3 is
    its attack trace's exact final d3, so the clean graph gets a triangle
    census of its own only when no attack runs. A bad budget, mode, seed
    or batch size raises ValueError before the split.
    """
    budgets = [as_fraction(b, "budget fraction") for b in budgets]
    cfgs = [AttackConfig(budget_fraction=1, mode=m, batch_size=batch_size, seed=attack_seed)
            for m in dict.fromkeys(modes)]  # a repeated mode's rows share one sweep
    split = split_edges(g, train_fraction, split_seed)
    clean_report = evaluate_on_split(split.train, split.test_edges)
    # Largest first: the sweep serves it from its run instead of a replay.
    attacked = sorted({b for b in budgets if b > 0}, reverse=True)
    clean_d3 = None if attacked else balance_degree(split.train).d3

    cells: dict[tuple[str, Fraction], tuple[Fraction | None, EvalReport]] = {}
    for cfg in cfgs:
        for budget, poisoned, trace in run_attack_budgets(split.train, cfg, attacked):
            cells[cfg.mode, budget] = trace.final_d3, evaluate_on_split(poisoned, split.test_edges)
            clean_d3 = trace.initial_d3
            # Let go before the sweep builds the next budget's graph.
            del poisoned, trace
    rows: list[PipelineRow] = []
    for mode in modes:
        for budget in budgets:
            d3, report = cells[mode, budget] if budget else (clean_d3, clean_report)
            rows.append(PipelineRow(dataset, mode, budget, d3, report, split_seed, attack_seed))
    return rows


def write_pipeline_csv(rows: Iterable[PipelineRow], stream: IO[str]) -> None:
    """Serialize pipeline rows to the plot-ready CSV layout. Fields are
    quoted by CSV rules, which only a dataset name can ever need."""
    stream.write(f"# schema={PIPELINE_CSV_SCHEMA}\n")
    stream.write(PIPELINE_CSV_COLUMNS + "\n")
    out = csv.writer(stream, lineterminator="\n")
    for r in rows:
        out.writerow((
            r.dataset,
            r.mode,
            repr(float(r.budget_frac)),
            "" if r.d3 is None else repr(float(r.d3)),
            repr(float(r.report.micro_f1)),
            repr(float(r.report.binary_f1)),
            repr(float(r.report.macro_f1)),
            r.split_seed,
            r.attack_seed,
        ))
