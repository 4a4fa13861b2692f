"""Greedy sign-flip attacks on the balance degree, plus the random baseline.

All attacks operate on a private copy of the input graph, flip signs only
(the edge support and degrees never change), and emit a per-flip trace.
"""

from __future__ import annotations

import heapq
import logging
import random
from collections import namedtuple
from fractions import Fraction
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .balance import TwoPathTable, census_d3
from .graph import SignedGraph, parse_fraction

MODE_BALANCE_SEQUENTIAL = "balance_sequential"
MODE_BALANCE_BATCHED = "balance_batched"
MODE_RANDOM = "random"
MODES = (MODE_BALANCE_SEQUENTIAL, MODE_BALANCE_BATCHED, MODE_RANDOM)

STATUS_BUDGET_EXHAUSTED = "budget_exhausted"
STATUS_NO_CANDIDATES = "no_candidates"
STATUS_ALREADY_MINIMAL = "already_minimal"

TRACE_CSV_SCHEMA = "attack-trace/1"
TRACE_CSV_COLUMNS = "step,u,v,old_sign,p_uv,delta_trace,d3"

log = logging.getLogger(__name__)


def as_fraction(
    x: Fraction | float | int | str, what: str = "fraction", span: str = "[0, 1]"
) -> Fraction:
    """Exact value of a budget or split fraction, `what` naming it in
    errors. Text, and a float by its decimal repr (so 0.05 means 1/20, not
    the nearest binary double), goes through the rating loader's parse,
    exponent bound included. ValueError unless the value lies in `span`:
    "[0, 1]", "(0, 1]" or "(0, 1)", a parenthesis marking an open end."""
    frac = parse_fraction(str(x), what) if isinstance(x, (float, str)) else Fraction(x)
    if frac < 0 or frac > 1 or (frac == 0 and span[0] == "(") or (frac == 1 and span[-1] == ")"):
        raise ValueError(f"{what} must be in {span}, got {x}")
    return frac


class AttackConfig(namedtuple("AttackConfig", "budget_fraction mode batch_size seed")):
    """Attack parameters.

    budget_fraction is the attacked share of undirected edges; the edge
    budget is round(fraction * m), clamped to [1, m]. `seed` drives the
    random mode only and must be an int >= 0, since `random.Random` drops
    its sign; the greedy modes break ties to the lexicographically smallest
    pair. Every trace record carries the running balance degree,
    which is None only on a triangle-free graph. The constructor, `_make`
    and `_replace` all check the values and keep the fraction exact.
    """

    __slots__ = ()

    def __new__(cls, budget_fraction: Fraction | float | str, mode: str = MODE_BALANCE_SEQUENTIAL,
                batch_size: int = 10, seed: int = 0) -> "AttackConfig":
        frac = as_fraction(budget_fraction, "budget_fraction", "(0, 1]")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if type(batch_size) is not int or batch_size < 1:  # refuses True too
            raise ValueError(f"batch_size must be >= 1 and an int, got {batch_size!r}")
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed must be >= 0 and an int, got {seed!r}")
        return super().__new__(cls, frac, mode, batch_size, seed)

    @classmethod
    def _make(cls, iterable: Iterable) -> "AttackConfig":
        return cls(*iterable)

    def _replace(self, **changes) -> "AttackConfig":
        return type(self)(**{**self._asdict(), **changes})

    def budget_edges(self, edge_count: int) -> int:
        """Edge budget for a graph with `edge_count` edges."""
        if edge_count < 1:
            raise ValueError("graph has no edges to attack")
        return min(edge_count, max(1, round(self.budget_fraction * edge_count)))


class FlipRecord(NamedTuple):
    """One executed flip; immutable, so trace prefixes can share records.

    `p_uv` is the two-path sum the flip was selected on (in batched mode
    that is the epoch-frozen value). `delta_trace` is the realized change
    of tr(A^3), -12 * old_sign * the live p_uv. `census` is the graph's
    (balanced, unbalanced) triangle count after the flip, the two-path
    table's exactly kept tuple. `d3` is its balance degree as an exact
    Fraction, built only when read; None only on a triangle-free graph,
    where it is undefined.
    """

    step: int
    u: int
    v: int
    old_sign: int
    p_uv: int
    delta_trace: int
    census: tuple[int, int]

    @property
    def d3(self) -> Fraction | None:
        return census_d3(self.census)


class AttackTrace(NamedTuple):
    """The flips of one attack run, in order, with the balance degree
    before the first; every later balance degree is a record's `d3`."""

    mode: str
    budget: int
    status: str
    initial_d3: Fraction | None
    records: list[FlipRecord]

    @property
    def final_d3(self) -> Fraction | None:
        return self.records[-1].d3 if self.records else self.initial_d3

    def flipped_edges(self) -> list[tuple[int, int]]:
        return [(r.u, r.v) for r in self.records]

    def prefix(self, k: int) -> "AttackTrace":
        """The trace of a standalone greedy run at edge budget k <= budget.

        Greedy selection never looks at the budget, so that run makes
        exactly the first k flips of this one.
        """
        status = STATUS_BUDGET_EXHAUSTED if len(self.records) >= k else self.status
        return AttackTrace(self.mode, k, status, self.initial_d3, self.records[:k])

    def write_csv(self, stream: IO[str]) -> None:
        stream.write(f"# schema={TRACE_CSV_SCHEMA}\n")
        stream.write(TRACE_CSV_COLUMNS + "\n")
        for r in self.records:
            # Correctly rounded, as float(r.d3) is: the same rational.
            balanced, unbalanced = r.census
            total = balanced + unbalanced
            d3 = repr(balanced / total) if total else ""
            stream.write(
                f"{r.step},{r.u},{r.v},{r.old_sign},{r.p_uv},{r.delta_trace},{d3}\n"
            )


def _scored_candidates(table: TwoPathTable) -> list[tuple[int, int, int]]:
    """(-a_uv * p_uv, u, v) with u < v for every edge of the table's graph
    whose flip strictly lowers tr(A^3), i.e. a_uv * p_uv > 0 (which
    excludes p_uv = 0). Read from the table's rows, in no particular order."""
    adj = table.graph.adjacencies()
    return [
        (-s, u, v) if u < v else (-s, v, u)
        for u, row in enumerate(table.rows)
        for v, p in row.items()
        if (s := adj[u][v] * p) > 0
    ]


def select_candidates(g: SignedGraph, table: TwoPathTable) -> set[tuple[int, int]]:
    """Edges of g whose flip strictly lowers tr(A^3): those with
    a_uv * p_uv > 0. ValueError unless `table` was built on g itself.

    Zero two-path sums are excluded — flipping them changes nothing.
    """
    if table.graph is not g:
        raise ValueError("the two-path table was built on another graph")
    return {(u, v) for _, u, v in _scored_candidates(table)}


def _flip(
    table: TwoPathTable, records: list[FlipRecord], u: int, v: int, p_sel: int
) -> None:
    """Flip {u,v} through the table and append its record. `p_sel` is the
    two-path sum the flip was selected on. The realized delta comes from
    the census: the flip moves a_uv * p_uv triangles from balanced to
    unbalanced, and each triangle is 6 in tr(A^3), so the delta is 12
    times the change of the balanced count."""
    balanced = table.census[0]
    a = table.apply_flip(u, v)
    delta = 12 * (table.census[0] - balanced)
    records.append(FlipRecord(len(records) + 1, u, v, a, p_sel, delta, table.census))


class _CandidateHeap:
    """Lazy max-heap of flip candidates keyed (-a_uv * p_uv, u, v).

    Every edge with a positive score has an entry keyed by its live score;
    any other entry is stale and is dropped when popped. Flipping {u,v}
    changes only the score of {u,v} itself and of {w,u}, {w,v} for each
    common neighbour w (the entries `TwoPathTable.apply_flip` patches), so
    `flip` re-scores just those: the lazy greedy of CELF (Leskovec et al.,
    KDD 2007). Heap order is the greedy tie rule, smallest (u, v) at the
    maximal score. Both greedy modes take candidates through `pop_batch`.
    """

    def __init__(self, table: TwoPathTable):
        self.adj = table.graph.adjacencies()
        self.table = table
        self.heap = _scored_candidates(table)
        heapq.heapify(self.heap)
        self.pops = 0
        self.stale = 0

    def _push(self, u: int, v: int) -> None:
        score = self.adj[u][v] * self.table.get(u, v)
        if score > 0:
            heapq.heappush(self.heap, (-score, u, v))

    def flip(self, records: list[FlipRecord], u: int, v: int, p_sel: int) -> None:
        """Flip and record {u,v} as `_flip` does, then re-score every entry
        the flip changed."""
        _flip(self.table, records, u, v, p_sel)
        self._push(u, v)
        for w in self.adj[u].keys() & self.adj[v].keys():
            self._push(*((w, u) if w < u else (u, w)))
            self._push(*((w, v) if w < v else (v, w)))

    def pop_batch(self, k: int) -> list[tuple[int, int, int]]:
        """The top k distinct candidates as (u, v, p_uv), best first; fewer
        if the heap runs out. Every popped entry counts in `pops`, and one
        whose key is not its edge's live score is stale and dropped."""
        heap, adj, table = self.heap, self.adj, self.table
        batch: dict[tuple[int, int], int] = {}
        while heap and len(batch) < k:
            neg, u, v = heapq.heappop(heap)
            self.pops += 1
            p = table.get(u, v)
            if adj[u][v] * p == -neg:
                batch.setdefault((u, v), p)
            else:
                self.stale += 1
        return [(u, v, p) for (u, v), p in batch.items()]


def run_balance_attack(
    g: SignedGraph, cfg: AttackConfig
) -> tuple[SignedGraph, AttackTrace]:
    """Greedily flip signs to minimize the balance degree.

    One loop serves both greedy modes: each epoch takes the top k distinct
    candidates from the heap and flips them all with the ranking frozen,
    then re-ranks. Batched mode has k = batch_size; sequential mode is
    k = 1, re-selecting after every flip (exact greedy). The run stops
    when the budget is spent or an epoch finds no candidate. The input
    graph is not modified; at most `budget` signs differ in the returned
    copy. Raises ValueError for an edgeless graph or a random config.
    """
    if cfg.mode == MODE_RANDOM:
        raise ValueError("use run_random_attack for random mode")
    budget = cfg.budget_edges(g.edge_count)
    poisoned = g.copy()
    table = TwoPathTable.from_graph(poisoned)
    initial_d3 = census_d3(table.census)
    records: list[FlipRecord] = []
    heap = _CandidateHeap(table)
    k = 1 if cfg.mode == MODE_BALANCE_SEQUENTIAL else cfg.batch_size
    status = STATUS_BUDGET_EXHAUSTED
    while len(records) < budget:
        batch = heap.pop_batch(min(k, budget - len(records)))
        if not batch:
            # With every triangle unbalanced, every a_uv * p_uv is <= 0, so
            # the first epoch finds no candidate.
            status = STATUS_ALREADY_MINIMAL if initial_d3 == 0 else STATUS_NO_CANDIDATES
            break
        for u, v, p_sel in batch:
            # Selection used the frozen epoch ranking; the flip's delta
            # comes from the live table.
            heap.flip(records, u, v, p_sel)
    if log.isEnabledFor(logging.DEBUG):  # the count walks every record
        log.debug(
            "%s selection: %d heap pops, %d of them stale (%.1f%%), %d flips, %d raise tr(A^3)",
            cfg.mode, heap.pops, heap.stale, 100 * heap.stale / max(heap.pops, 1),
            len(records), sum(r.delta_trace > 0 for r in records),
        )
    return poisoned, AttackTrace(cfg.mode, budget, status, initial_d3, records)


def run_random_attack(
    g: SignedGraph, cfg: AttackConfig
) -> tuple[SignedGraph, AttackTrace]:
    """Flip a uniformly random budget-sized edge subset (the baseline).

    Deterministic for a given seed: the sample is drawn from g's edges in
    `g.edges()` order and flipped on a copy of g. The trace records the
    true two-path sums and trace deltas at each flip, as the greedy modes do.
    """
    if cfg.mode != MODE_RANDOM:
        raise ValueError(f"config mode is {cfg.mode!r}, expected {MODE_RANDOM!r}")
    budget = cfg.budget_edges(g.edge_count)
    chosen = random.Random(cfg.seed).sample([(u, v) for u, v, _ in g.edges()], budget)
    poisoned = g.copy()
    table = TwoPathTable.from_graph(poisoned)
    initial_d3 = census_d3(table.census)
    records: list[FlipRecord] = []
    for u, v in chosen:
        _flip(table, records, u, v, table.get(u, v))
    return poisoned, AttackTrace(cfg.mode, budget, STATUS_BUDGET_EXHAUSTED, initial_d3, records)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class PerturbationReport(NamedTuple):
    """Outcome of checking an attacked graph against the threat model."""

    ok: bool
    budget: int
    sign_differences: int
    changed_edges: tuple[tuple[int, int], ...]
    checks: tuple[CheckResult, ...]

    def __str__(self) -> str:
        return "\n".join(
            f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks
        )


def verify_perturbation(
    original: SignedGraph, attacked: SignedGraph, budget: int
) -> PerturbationReport:
    """Check that `attacked` is a permissible sign-only perturbation of
    `original`: same edge support, at most `budget` sign differences,
    identical degree sequence. Raises ValueError on mismatched node sets;
    everything else is reported, not raised.
    """
    if original.node_count != attacked.node_count:
        raise ValueError(
            f"node sets differ: {original.node_count} vs {attacked.node_count} nodes"
        )
    adj_a = attacked.adjacencies()
    missing = extra = 0  # each edge is met at both of its ends
    for nbrs_o, nbrs_a in zip(original.adjacencies(), adj_a):
        if nbrs_o.keys() != nbrs_a.keys():
            missing += len(nbrs_o.keys() - nbrs_a.keys())
            extra += len(nbrs_a.keys() - nbrs_o.keys())
    support_ok = not (missing or extra)
    if support_ok:
        support_detail = f"{original.edge_count} edges on both sides"
    else:
        support_detail = f"{missing // 2} edges missing, {extra // 2} edges added"

    changed = tuple((u, v) for u, v, s in original.edges() if adj_a[u].get(v, s) != s)
    budget_ok = support_ok and len(changed) <= budget
    degree_ok = original.degree_sequence() == attacked.degree_sequence()

    checks = (
        CheckResult("edge_support", support_ok, support_detail),
        CheckResult(
            "sign_budget",
            budget_ok,
            f"{len(changed)} sign differences, budget {budget}",
        ),
        CheckResult(
            "degree_sequence",
            degree_ok,
            "identical" if degree_ok else "degree sequences differ",
        ),
    )
    return PerturbationReport(
        ok=all(c.passed for c in checks),
        budget=budget,
        sign_differences=len(changed),
        changed_edges=changed,
        checks=checks,
    )


def _unshared_random_budgets(m: int, seed: int, top: int, ks: Iterable[int]) -> set[int]:
    """The edge budgets in ks whose own sample of m edges is not the first
    k of the sample at the largest budget `top`. `sample` reads a sequence
    only by len and index, so indices drawn from range(m) name the edges it
    would draw. CPython draws from a set or from a pool depending on k and
    m; the comparison decides whether two draws share a prefix, not that rule."""
    ks = {k for k in ks if k < top}
    if not ks:
        return ks
    full = random.Random(seed).sample(range(m), top)
    return {k for k in ks if random.Random(seed).sample(range(m), k) != full[:k]}


def run_attack_budgets(
    g: SignedGraph, cfg: AttackConfig, fractions: Sequence[Fraction | float | str]
) -> Iterator[tuple[Fraction, SignedGraph, AttackTrace]]:
    """Attack g at each budget fraction in turn; yield (fraction, poisoned,
    trace), each equal to a standalone run of cfg's mode at budget f.

    Every mode runs once, at the largest budget, and serves each budget
    from a prefix of that run's trace. Greedy selection never looks at the
    budget; a random budget is served only when its own sample is that
    prefix (decided before the run), and otherwise runs standalone.
    When the largest budget is listed first, its graph is the run's own;
    every other budget's graph is replayed when the caller asks for it.
    The run's graph is never held while another budget is served, so a
    caller that drops each yield before the next holds one at a time. No
    two yields are the same object, and g is not modified.
    """
    cfgs = [cfg._replace(budget_fraction=f) for f in fractions]
    if not cfgs:
        return
    top = max(cfgs, key=lambda c: c.budget_fraction)
    ks = [c.budget_edges(g.edge_count) for c in cfgs]
    standalone: set[int] = set()
    if cfg.mode == MODE_RANDOM:
        standalone = _unshared_random_budgets(g.edge_count, cfg.seed, max(ks), ks)
        poisoned, full = run_random_attack(g, top)
        alone = sum(k in standalone for k in ks)
        log.debug(
            "random sweep: one run of %d flips served %d budgets, %d ran standalone",
            len(full.records), len(ks) - alone, alone,
        )
    else:
        poisoned, full = run_balance_attack(g, top)
    if cfgs[0] is not top:
        poisoned = None  # replayed in its turn, not held through the budgets before it
    for c, k in zip(cfgs, ks):
        if k in standalone:
            yield (c.budget_fraction, *run_random_attack(g, c))
            continue
        trace = full.prefix(k)
        if poisoned is None:
            poisoned = apply_flips(g, trace.flipped_edges())
        yield c.budget_fraction, poisoned, trace
        poisoned = None


def apply_flips(g: SignedGraph, edges: Iterable[tuple[int, int]]) -> SignedGraph:
    """Copy g and flip the listed edges; used to replay trace prefixes."""
    out = g.copy()
    for u, v in edges:
        out.flip_edge(u, v)
    return out
