from __future__ import annotations

import io
import logging
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from balattack import (
    MODE_BALANCE_BATCHED,
    MODE_BALANCE_SEQUENTIAL,
    MODE_RANDOM,
    STATUS_ALREADY_MINIMAL,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_NO_CANDIDATES,
    AttackConfig,
    SignedGraph,
    TwoPathTable,
    run_attack_budgets,
    run_balance_attack,
    run_random_attack,
    select_candidates,
    load_edge_list,
    verify_perturbation,
    write_edge_list,
)
from balattack import attack as attack_module
from balattack.attack import apply_flips
from oracles import (
    adjacency_matrix,
    run_attack,
    scan_balance_attack,
    table_items,
    trace_a3_of,
    traces_cubed,
)
from util import clustered_signed_graph, graph_with_triangles, random_signed_graph

K3 = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
HK1000 = Path(__file__).parent / "fixtures" / "digests" / "hk1000.edges"


def k3() -> SignedGraph:
    return SignedGraph(3, K3)


def check_trace_honest(g: SignedGraph, poisoned: SignedGraph, trace) -> None:
    """Replay the trace against dense-matrix recomputation step by step."""
    a = adjacency_matrix(g)
    prev = trace_a3_of(a)
    _, tabs = traces_cubed(g)
    for step, rec in enumerate(trace.records, 1):
        assert rec.step == step
        s = int(a[rec.u, rec.v])
        assert s != 0, "flipped a non-edge"
        assert rec.old_sign == s
        a[rec.u, rec.v] = a[rec.v, rec.u] = -s
        cur = trace_a3_of(a)
        assert rec.delta_trace == cur - prev
        if rec.d3 is not None:
            assert rec.d3 == Fraction(cur + tabs, 2 * tabs)
        prev = cur
    assert (adjacency_matrix(poisoned) == a).all()


class TestConfig:
    def test_budget_rounding_and_clamping(self):
        assert AttackConfig(budget_fraction="0.05").budget_edges(10) == 1  # round(0.5) clamps up
        assert AttackConfig(budget_fraction=0.2).budget_edges(10) == 2
        assert AttackConfig(budget_fraction=1).budget_edges(7) == 7
        assert AttackConfig(budget_fraction=0.25).budget_edges(10) == 2  # round(2.5) -> 2
        assert AttackConfig(budget_fraction=0.35).budget_edges(10) == 4  # round(3.5) -> 4
        assert AttackConfig(budget_fraction=Fraction(1, 3)).budget_edges(9) == 3

    def test_float_budget_means_its_decimal_value(self):
        assert AttackConfig(budget_fraction=0.05).budget_fraction == Fraction(1, 20)

    @pytest.mark.parametrize("frac", [0, -0.1, 1.0001, "2", "2e4300", "1e100000"])
    def test_budget_range_enforced(self, frac):
        with pytest.raises(ValueError, match="budget_fraction"):
            AttackConfig(budget_fraction=frac)

    def test_other_validation(self):
        with pytest.raises(ValueError, match="mode"):
            AttackConfig(budget_fraction=0.1, mode="greedy")
        for size in (0, 2.5, True):
            with pytest.raises(ValueError, match="batch_size must be >= 1"):
                AttackConfig(budget_fraction=0.1, batch_size=size)
        for seed in (-3, 2.5, "7"):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                AttackConfig(budget_fraction=0.1, mode=MODE_RANDOM, seed=seed)

    def test_replace_and_make_check_like_the_constructor(self):
        cfg = AttackConfig(budget_fraction=0.1, mode=MODE_RANDOM, seed=3)
        half = cfg._replace(budget_fraction="1/2")
        assert type(half) is AttackConfig and type(half.budget_fraction) is Fraction
        assert half == (Fraction(1, 2), MODE_RANDOM, 10, 3)  # a tuple, equal to a plain one
        with pytest.raises(ValueError, match=r"budget_fraction must be in \(0, 1\], got 2"):
            cfg._replace(budget_fraction=2)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            cfg._replace(seed=-1)
        with pytest.raises(TypeError):
            cfg._replace(depth=3)
        assert AttackConfig._make(["1/4", MODE_RANDOM, 2, 0]) == (Fraction(1, 4), MODE_RANDOM, 2, 0)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            AttackConfig._make([0.5, MODE_RANDOM, 0, 0])


class TestSelectCandidates:
    def test_k3_all_edges(self):
        g = k3()
        assert select_candidates(g, TwoPathTable.from_graph(g)) == {(0, 1), (0, 2), (1, 2)}

    def test_k3_after_one_flip_empty(self):
        g = k3()
        t = TwoPathTable.from_graph(g)
        t.apply_flip(0, 1)
        assert select_candidates(g, t) == set()

    def test_star_empty(self):
        star = SignedGraph(5, [(0, i, 1) for i in range(1, 5)])
        assert select_candidates(star, TwoPathTable.from_graph(star)) == set()

    def test_table_of_another_graph_refused(self):
        # An equal copy too: its signs need not follow the table's flips.
        g = k3()
        with pytest.raises(ValueError, match="built on another graph"):
            select_candidates(g.copy(), TwoPathTable.from_graph(g))

    def test_matches_definition_on_random_graphs(self):
        rng = random.Random(37)
        for _ in range(10):
            g = random_signed_graph(rng, 25, 0.3)
            t = TwoPathTable.from_graph(g)
            expected = {
                (u, v)
                for (u, v), p in table_items(t)
                if p != 0 and g.sign(u, v) * p > 0
            }
            assert select_candidates(g, t) == expected


class TestSequential:
    def test_k3_one_flip_reaches_zero(self):
        g = k3()
        poisoned, trace = run_balance_attack(g, AttackConfig(budget_fraction=Fraction(2, 3)))
        assert trace.budget == 2
        assert len(trace.records) == 1
        assert trace.status == STATUS_NO_CANDIDATES
        assert trace.initial_d3 == 1
        assert trace.final_d3 == 0
        # lexicographic tie-break: all three edges tie at |p| = 1
        assert (trace.records[0].u, trace.records[0].v) == (0, 1)
        assert poisoned.sign(0, 1) == -1
        assert g.sign(0, 1) == 1  # input untouched

    def test_any_k3_signing_with_product_plus_reaches_zero(self):
        for signs in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]:
            g = SignedGraph(3, [(0, 1, signs[0]), (0, 2, signs[1]), (1, 2, signs[2])])
            _, trace = run_balance_attack(g, AttackConfig(budget_fraction=1))
            assert len(trace.records) == 1
            assert trace.final_d3 == 0
            assert trace.status == STATUS_NO_CANDIDATES

    def test_already_minimal(self):
        g = SignedGraph(3, [(0, 1, -1), (0, 2, 1), (1, 2, 1)])
        poisoned, trace = run_balance_attack(g, AttackConfig(budget_fraction=1))
        assert trace.status == STATUS_ALREADY_MINIMAL
        assert trace.records == []
        assert trace.initial_d3 == 0 and trace.final_d3 == 0
        assert poisoned == g

    def test_triangle_free_graph_stops_immediately(self):
        star = SignedGraph(5, [(0, i, -1) for i in range(1, 5)])
        poisoned, trace = run_balance_attack(star, AttackConfig(budget_fraction=0.5))
        assert trace.status == STATUS_NO_CANDIDATES
        assert trace.records == []
        assert trace.initial_d3 is None and trace.final_d3 is None
        assert poisoned == star

    def test_zero_edge_graph_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            run_balance_attack(SignedGraph(4), AttackConfig(budget_fraction=0.5))

    def test_random_mode_dispatch_rejected(self):
        with pytest.raises(ValueError, match="random"):
            run_balance_attack(k3(), AttackConfig(budget_fraction=0.5, mode=MODE_RANDOM))

    def test_monotone_strict_decrease(self):
        rng = random.Random(41)
        for _ in range(12):
            g = graph_with_triangles(rng, communities=2, size=7, noise=0.1)
            _, trace = run_balance_attack(g, AttackConfig(budget_fraction=rng.uniform(0.1, 1)))
            d3s = [trace.initial_d3] + [r.d3 for r in trace.records]
            for before, after in zip(d3s, d3s[1:]):
                assert after < before
            assert trace.status in (STATUS_BUDGET_EXHAUSTED, STATUS_NO_CANDIDATES,
                                    STATUS_ALREADY_MINIMAL)

    def test_each_step_picks_the_largest_gradient(self):
        """Replay with a freshly built table: every recorded flip must be
        the maximal a*p candidate, smallest pair on ties."""
        rng = random.Random(43)
        for _ in range(6):
            g = graph_with_triangles(rng, communities=2, size=6, noise=0.15)
            _, trace = run_balance_attack(g, AttackConfig(budget_fraction=0.5))
            h = g.copy()
            for rec in trace.records:
                t = TwoPathTable.from_graph(h)
                scores = {
                    (u, v): h.sign(u, v) * p
                    for (u, v), p in table_items(t)
                    if h.sign(u, v) * p > 0
                }
                best = max(scores.values())
                assert h.sign(rec.u, rec.v) * rec.p_uv == best
                assert (rec.u, rec.v) == min(e for e, s in scores.items() if s == best)
                h.flip_edge(rec.u, rec.v)

    def test_trace_honesty(self):
        rng = random.Random(47)
        for _ in range(8):
            g = graph_with_triangles(rng, communities=2, size=7, noise=0.2)
            poisoned, trace = run_balance_attack(g, AttackConfig(budget_fraction=0.6))
            check_trace_honest(g, poisoned, trace)

    def test_budget_respected_and_deterministic(self):
        rng = random.Random(53)
        g = clustered_signed_graph(rng, communities=3, size=8, noise=0.1)
        cfg = AttackConfig(budget_fraction=0.3)
        p1, t1 = run_balance_attack(g, cfg)
        p2, t2 = run_balance_attack(g, cfg)
        assert p1 == p2
        assert t1.records == t2.records
        assert len(t1.records) <= cfg.budget_edges(g.edge_count)
        assert verify_perturbation(g, p1, t1.budget).ok


class TestBatched:
    def test_batch_size_one_equals_sequential(self):
        rng = random.Random(61)
        for _ in range(8):
            g = graph_with_triangles(rng, communities=2, size=7, noise=0.15)
            frac = rng.uniform(0.1, 0.9)
            _, seq = run_balance_attack(g, AttackConfig(budget_fraction=frac))
            _, bat = run_balance_attack(
                g, AttackConfig(budget_fraction=frac, mode=MODE_BALANCE_BATCHED, batch_size=1)
            )
            assert seq.records == bat.records
            assert seq.status == bat.status

    def test_first_epoch_flips_top_of_initial_ranking(self):
        rng = random.Random(67)
        g = clustered_signed_graph(rng, communities=2, size=9, noise=0.1)
        t = TwoPathTable.from_graph(g)
        ranking = sorted(
            ((u, v, p) for (u, v), p in table_items(t) if p != 0 and g.sign(u, v) * p > 0),
            key=lambda e: (-abs(e[2]), e[0], e[1]),
        )
        k = 5
        _, trace = run_balance_attack(
            g, AttackConfig(budget_fraction=0.9, mode=MODE_BALANCE_BATCHED, batch_size=k)
        )
        got = [(r.u, r.v, r.p_uv) for r in trace.records[:k]]
        assert got == ranking[:k]

    def test_trace_honesty_with_interacting_batches(self):
        rng = random.Random(71)
        for _ in range(6):
            g = graph_with_triangles(rng, communities=2, size=8, noise=0.2)
            poisoned, trace = run_balance_attack(
                g, AttackConfig(budget_fraction=0.7, mode=MODE_BALANCE_BATCHED, batch_size=5)
            )
            check_trace_honest(g, poisoned, trace)

    def test_budget_cut_mid_epoch(self):
        rng = random.Random(73)
        g = clustered_signed_graph(rng, communities=2, size=9)
        cfg = AttackConfig(budget_fraction=Fraction(7, g.edge_count),
                           mode=MODE_BALANCE_BATCHED, batch_size=5)
        _, trace = run_balance_attack(g, cfg)
        assert trace.budget == 7
        assert len(trace.records) <= 7
        if trace.status == STATUS_BUDGET_EXHAUSTED:
            assert len(trace.records) == 7

    def test_verify_perturbation_passes(self):
        rng = random.Random(79)
        g = clustered_signed_graph(rng, communities=3, size=6, noise=0.1)
        poisoned, trace = run_balance_attack(
            g, AttackConfig(budget_fraction=0.4, mode=MODE_BALANCE_BATCHED)
        )
        assert verify_perturbation(g, poisoned, trace.budget).ok


def seeded_attack_graph(rng: random.Random, i: int) -> SignedGraph:
    """The i-th graph of a seeded mix: clustered, all-negative (every
    triangle starts unbalanced) or Erdos-Renyi; it may have no edges."""
    n = rng.randint(5, 18)
    if i % 4 == 0:
        return clustered_signed_graph(
            rng, communities=rng.randint(2, 3), size=rng.randint(3, 7),
            noise=rng.uniform(0, 0.3),
        )
    if i % 4 == 1:
        return random_signed_graph(rng, n, rng.uniform(0.3, 0.8), neg_frac=1.0)
    return random_signed_graph(rng, n, rng.uniform(0.2, 0.8), rng.uniform(0, 0.6))


def attack_outputs(g: SignedGraph, cfg: AttackConfig, attack=run_balance_attack):
    """(status, trace CSV, poisoned edge list) of one attack run."""
    poisoned, trace = attack(g, cfg)
    trace_csv, graph_txt = io.StringIO(), io.StringIO()
    trace.write_csv(trace_csv)
    write_edge_list(poisoned, graph_txt)
    return trace.status, trace_csv.getvalue(), graph_txt.getvalue()


class TestHeapMatchesScan:
    """The lazy heap against the per-flip full scan in tests/oracles.py."""

    GREEDY = (
        (MODE_BALANCE_SEQUENTIAL, 10),
        (MODE_BALANCE_BATCHED, 1),
        (MODE_BALANCE_BATCHED, 3),
        (MODE_BALANCE_BATCHED, 10),
    )

    def test_byte_identical_on_seeded_graphs(self):
        rng = random.Random(2309)
        statuses: Counter = Counter()
        graphs = 0
        for i in range(340):
            g = seeded_attack_graph(rng, i)
            if g.edge_count == 0:
                continue
            graphs += 1
            budget = 1 if i % 3 == 0 else Fraction(rng.randint(1, g.edge_count), g.edge_count)
            for mode, batch_size in self.GREEDY:
                cfg = AttackConfig(budget_fraction=budget, mode=mode, batch_size=batch_size)
                got = attack_outputs(g, cfg)
                assert got == attack_outputs(g, cfg, scan_balance_attack), (i, cfg)
                statuses[got[0]] += 1
        assert graphs >= 300
        assert set(statuses) == {
            STATUS_BUDGET_EXHAUSTED, STATUS_NO_CANDIDATES, STATUS_ALREADY_MINIMAL
        }

    def test_batch_holds_distinct_edges_after_p_changes_sign(self):
        # Flipping (3,4) turns p_03 negative before (0,3), a later member of
        # the same epoch, is flipped; (0,3) goes back on the heap, and the
        # next epoch meets (2,4) twice at one score.
        g = SignedGraph(
            5, [(0, 1, 1), (0, 3, 1), (0, 4, 1), (1, 2, -1), (2, 3, 1), (2, 4, 1), (3, 4, 1)]
        )
        cfg = AttackConfig(budget_fraction=1, mode=MODE_BALANCE_BATCHED, batch_size=4)
        _, trace = run_balance_attack(g, cfg)
        assert [(r.u, r.v, r.p_uv, r.delta_trace) for r in trace.records] == [
            (3, 4, 2, -24), (0, 3, 1, 12), (0, 4, 1, -12), (2, 3, 1, 12),
            (2, 3, -1, -12), (2, 4, 1, 12),
            (2, 3, 1, -12),
        ]
        assert trace.status == STATUS_BUDGET_EXHAUSTED
        assert attack_outputs(g, cfg) == attack_outputs(g, cfg, scan_balance_attack)

    def test_selection_counters_logged_at_debug(self, caplog):
        g = clustered_signed_graph(random.Random(7), communities=2, size=8, noise=0.2)
        cfg = AttackConfig(budget_fraction=0.5)
        with caplog.at_level(logging.DEBUG, logger="balattack"):
            _, trace = run_balance_attack(g, cfg)
        (line,) = [r.getMessage() for r in caplog.records if "heap pops" in r.getMessage()]
        pops, stale = map(int, re.search(r"(\d+) heap pops, (\d+) of them stale", line).groups())
        assert pops >= stale + len(trace.records)

    @pytest.mark.parametrize("mode", [MODE_BALANCE_SEQUENTIAL, MODE_BALANCE_BATCHED])
    def test_raising_flips_logged_at_debug(self, caplog, mode):
        """Exact greedy never raises tr(A^3); flips on a batch's frozen
        scores do (README, "Attack modes")."""
        with open(HK1000, encoding="utf-8") as f:
            g = load_edge_list(f)
        with caplog.at_level(logging.DEBUG, logger="balattack"):
            _, trace = run_balance_attack(g, AttackConfig(budget_fraction=0.2, mode=mode))
        (line,) = [r.getMessage() for r in caplog.records if "heap pops" in r.getMessage()]
        raising = int(re.search(r"(\d+) raise tr\(A\^3\)", line).group(1))
        assert raising == sum(r.delta_trace > 0 for r in trace.records)
        assert (raising > 0) == (mode == MODE_BALANCE_BATCHED)


@pytest.fixture
def random_runs(monkeypatch) -> list:
    """Counts run_random_attack calls (one list entry per call)."""
    calls: list = []
    real = attack_module.run_random_attack

    def counted(*args, **kwargs):
        calls.append(args[1].budget_fraction)
        return real(*args, **kwargs)

    monkeypatch.setattr(attack_module, "run_random_attack", counted)
    return calls


def graph_with_m_edges(rng: random.Random, n: int, m: int) -> SignedGraph:
    pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m)
    return SignedGraph(n, [(u, v, rng.choice((1, -1))) for u, v in pairs])


class TestBudgetSweep:
    """run_attack_budgets against one standalone run_attack per budget."""

    MODES = TestHeapMatchesScan.GREEDY + ((MODE_RANDOM, 10),)

    def test_matches_standalone_runs_on_seeded_graphs(self, random_runs):
        rng = random.Random(2402)
        statuses: Counter = Counter()
        # random sweeps over 2+ edge budgets: served by one run, or not
        random_sweeps: Counter = Counter()
        graphs = 0
        for i in range(340):
            g = seeded_attack_graph(rng, i)
            if g.edge_count == 0:
                continue
            graphs += 1
            snapshot = g.copy()
            m = g.edge_count
            # unsorted, sometimes with the whole graph or a repeated budget
            fractions = [Fraction(rng.randint(1, m), m) for _ in range(rng.randint(1, 3))]
            if i % 3 == 0:
                fractions.insert(rng.randint(0, len(fractions)), Fraction(1))
            if i % 7 == 0:
                fractions.append(fractions[0])
            for mode, batch_size in self.MODES:
                cfg = AttackConfig(
                    budget_fraction=1, mode=mode, batch_size=batch_size, seed=i
                )
                before = len(random_runs)
                got = list(run_attack_budgets(g, cfg, fractions))
                runs = len(random_runs) - before
                ks = {cfg._replace(budget_fraction=f).budget_edges(m) for f in fractions}
                if mode == MODE_RANDOM:
                    assert 1 <= runs <= len(ks)
                    if len(ks) > 1:
                        random_sweeps["one run" if runs == 1 else "fallback"] += 1
                else:
                    assert runs == 0
                assert [f for f, _, _ in got] == fractions
                for f, poisoned, trace in got:
                    want_graph, want_trace = run_attack(g, cfg._replace(budget_fraction=f))
                    assert trace == want_trace, (i, cfg, f)
                    assert poisoned == want_graph, (i, cfg, f)
                    statuses[trace.status] += 1
            assert g == snapshot
        assert graphs >= 300
        assert set(statuses) == {
            STATUS_BUDGET_EXHAUSTED, STATUS_NO_CANDIDATES, STATUS_ALREADY_MINIMAL
        }
        assert random_sweeps["one run"] >= 100 and random_sweeps["fallback"] >= 5, random_sweeps

    @pytest.mark.parametrize("small, large, runs", [(10, 20, 1), (10, 40, 2)])
    def test_random_prefix_depends_on_how_sample_draws(
        self, random_runs, caplog, small, large, runs
    ):
        # With 200 pairs, sample() draws 10 and 20 edges from a set but 40
        # from a pool. Draws taken the same way share their prefix; at seed 1
        # the pool's first 10 picks differ from the set's.
        g = graph_with_m_edges(random.Random(41), 30, 200)
        pairs = [(u, v) for u, v, _ in g.edges()]
        # sample() reads the pairs only by len and index, so sampled indices
        # name the sampled pairs, by a set draw (10, 20) and a pool draw (40)
        for k in (10, 20, 40):
            indices = random.Random(1).sample(range(200), k)
            assert [pairs[i] for i in indices] == random.Random(1).sample(pairs, k)
        prefix = random.Random(1).sample(pairs, large)[:small]
        assert (prefix == random.Random(1).sample(pairs, small)) == (runs == 1)
        cfg = AttackConfig(budget_fraction=1, mode=MODE_RANDOM, seed=1)
        fractions = [Fraction(small, 200), Fraction(large, 200)]
        with caplog.at_level(logging.DEBUG, logger="balattack"):
            got = list(run_attack_budgets(g, cfg, fractions))
        assert random_runs == [fractions[1]] + [fractions[0]] * (runs - 1)
        (line,) = [r.getMessage() for r in caplog.records if "random sweep" in r.getMessage()]
        assert f"one run of {large} flips served {3 - runs} budgets, {runs - 1} ran standalone" in line
        for f, poisoned, trace in got:
            want_graph, want_trace = run_random_attack(g, cfg._replace(budget_fraction=f))
            assert (poisoned, trace) == (want_graph, want_trace)

    def test_every_yield_is_its_own_replay(self, random_runs):
        # Unsorted budget lists with repeats. On the 200-edge graph at seed
        # 1 the largest budget is listed first and repeated, and the 10-edge
        # budget runs standalone in random mode (its sample is not a prefix
        # of the 40-edge one).
        rng = random.Random(918)
        cases = [(graph_with_m_edges(random.Random(41), 30, 200), 1,
                  [Fraction(40, 200), Fraction(10, 200), Fraction(40, 200), Fraction(10, 200)])]
        for i in range(60):
            g = seeded_attack_graph(rng, i)
            m = g.edge_count
            if m:
                fractions = [Fraction(rng.randint(1, m), m) for _ in range(rng.randint(1, 3))]
                fractions += rng.sample(fractions, rng.randint(1, len(fractions)))
                rng.shuffle(fractions)
                cases.append((g, i, fractions))
        for g, seed, fractions in cases:
            snapshot = g.copy()
            for mode, batch_size in self.MODES:
                cfg = AttackConfig(budget_fraction=1, mode=mode, batch_size=batch_size, seed=seed)
                got = list(run_attack_budgets(g, cfg, fractions))
                assert [f for f, _, _ in got] == fractions
                graphs = [poisoned for _, poisoned, _ in got]
                assert len({id(x) for x in graphs + [g]}) == len(graphs) + 1, (seed, cfg)
                for _, poisoned, trace in got:
                    assert poisoned == apply_flips(g, trace.flipped_edges()), (seed, cfg)
                assert g == snapshot
        assert Fraction(10, 200) in random_runs  # the standalone path ran

    def test_only_a_largest_budget_listed_first_skips_its_replay(self, monkeypatch):
        replays: list = []
        real = attack_module.apply_flips
        monkeypatch.setattr(attack_module, "apply_flips",
                            lambda g, edges: replays.append(edges) or real(g, edges))
        # 10 and 20 of 200 edges: random.sample draws both from a set, so
        # the random run serves both budgets too.
        g = graph_with_m_edges(random.Random(41), 30, 200)
        for mode, batch_size in self.MODES:
            cfg = AttackConfig(budget_fraction=1, mode=mode, batch_size=batch_size, seed=1)
            for fractions, want in ((["0.1", "0.05", "0.1"], 2), (["0.05", "0.1"], 2), (["0.1"], 0)):
                replays.clear()
                list(run_attack_budgets(g, cfg, fractions))
                assert len(replays) == want, (mode, fractions)

    def test_empty_budget_list_runs_nothing(self):
        assert list(run_attack_budgets(SignedGraph(2), AttackConfig(budget_fraction=1), [])) == []


class TestRandomAttack:
    def test_requires_random_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_random_attack(k3(), AttackConfig(budget_fraction=0.5))

    def test_deterministic_per_seed(self):
        rng = random.Random(83)
        g = clustered_signed_graph(rng, communities=2, size=8)
        cfg = AttackConfig(budget_fraction=0.3, mode=MODE_RANDOM, seed=123)
        p1, t1 = run_random_attack(g, cfg)
        p2, t2 = run_random_attack(g, cfg)
        assert p1 == p2 and t1.records == t2.records

    def test_flips_exactly_budget_edges(self):
        rng = random.Random(89)
        g = clustered_signed_graph(rng, communities=2, size=8)
        cfg = AttackConfig(budget_fraction=0.25, mode=MODE_RANDOM, seed=5)
        poisoned, trace = run_random_attack(g, cfg)
        assert trace.status == STATUS_BUDGET_EXHAUSTED
        assert len(trace.records) == trace.budget == cfg.budget_edges(g.edge_count)
        rep = verify_perturbation(g, poisoned, trace.budget)
        assert rep.ok and rep.sign_differences == trace.budget

    def test_k3_any_seed_reaches_zero(self):
        for seed in range(10):
            _, trace = run_random_attack(
                k3(), AttackConfig(budget_fraction=Fraction(1, 3), mode=MODE_RANDOM, seed=seed)
            )
            assert trace.final_d3 == 0

    def test_uniform_selection_frequency(self):
        # 5-edge path, budget 1: each edge should be hit ~1/5 of the time
        g = SignedGraph(6, [(i, i + 1, 1) for i in range(5)])
        cfg_frac = Fraction(1, 5)
        counts: Counter = Counter()
        for seed in range(10_000):
            _, trace = run_random_attack(
                g, AttackConfig(budget_fraction=cfg_frac, mode=MODE_RANDOM, seed=seed)
            )
            (edge,) = trace.flipped_edges()
            counts[edge] += 1
        assert sum(counts.values()) == 10_000
        for edge in [(i, i + 1) for i in range(5)]:
            assert 0.18 <= counts[edge] / 10_000 <= 0.22

    def test_trace_honesty(self):
        rng = random.Random(97)
        g = graph_with_triangles(rng, communities=2, size=8, noise=0.3)
        poisoned, trace = run_random_attack(
            g, AttackConfig(budget_fraction=0.5, mode=MODE_RANDOM, seed=11)
        )
        check_trace_honest(g, poisoned, trace)


class TestVerifyPerturbation:
    def test_identity_passes(self):
        g = k3()
        rep = verify_perturbation(g, g, 0)
        assert rep.ok and rep.sign_differences == 0 and rep.changed_edges == ()

    def test_sign_budget_violation(self):
        g = k3()
        h = g.copy()
        h.flip_edge(0, 1)
        h.flip_edge(0, 2)
        rep = verify_perturbation(g, h, 1)
        assert not rep.ok
        assert rep.sign_differences == 2
        assert {c.name for c in rep.checks if not c.passed} == {"sign_budget"}
        assert "FAIL" in str(rep)

    def test_edge_support_mismatch(self):
        g = k3()
        h = SignedGraph(3, [(0, 1, 1), (0, 2, 1)])  # one edge removed
        rep = verify_perturbation(g, h, 3)
        failed = {c.name for c in rep.checks if not c.passed}
        assert "edge_support" in failed and "degree_sequence" in failed

    def test_node_set_mismatch_raises(self):
        with pytest.raises(ValueError, match="node sets"):
            verify_perturbation(k3(), SignedGraph(4, K3), 1)

    def test_support_detail_counts_missing_and_added_edges(self):
        g = SignedGraph(4, K3)
        # {1,2} removed, {1,3} added, {0,1} flipped
        h = SignedGraph(4, [(0, 1, -1), (0, 2, 1), (1, 3, 1)])
        rep = verify_perturbation(g, h, 3)
        assert str(rep) == (
            "[FAIL] edge_support: 1 edges missing, 1 edges added\n"
            "[FAIL] sign_budget: 1 sign differences, budget 3\n"
            "[FAIL] degree_sequence: degree sequences differ"
        )
        assert rep.changed_edges == ((0, 1),)
        assert str(verify_perturbation(g, g.copy(), 0)).startswith(
            "[PASS] edge_support: 3 edges on both sides\n"
        )

    def test_matches_support_sets_on_seeded_graphs(self):
        rng = random.Random(29)
        for _ in range(60):
            g = random_signed_graph(rng, rng.randint(2, 14), 0.4)
            edges = list(g.edges())
            kept = [e for e in edges if rng.random() < 0.8]
            fresh = [(u, v, rng.choice((1, -1))) for u in range(g.node_count)
                     for v in range(u + 1, g.node_count)
                     if v not in g.adjacency(u) and rng.random() < 0.1]
            if rng.random() < 0.5:
                kept, fresh = edges, []
            h = SignedGraph(g.node_count, [(u, v, s if rng.random() < 0.7 else -s)
                                           for u, v, s in kept + fresh])
            support_g = {(u, v) for u, v, _ in edges}
            support_h = {(u, v) for u, v, _ in h.edges()}
            budget = rng.randint(0, len(edges))
            rep = verify_perturbation(g, h, budget)
            assert rep.changed_edges == tuple(
                (u, v) for u, v, s in edges if (u, v) in support_h and h.sign(u, v) != s
            )
            detail = dict((c.name, c.detail) for c in rep.checks)["edge_support"]
            if support_g == support_h:
                assert detail == f"{len(edges)} edges on both sides"
            else:
                assert detail == (f"{len(support_g - support_h)} edges missing, "
                                  f"{len(support_h - support_g)} edges added")
            assert rep.ok == (support_g == support_h and len(rep.changed_edges) <= budget)


def test_flip_record_rejects_assignment():
    # AttackTrace.prefix shares record objects between traces.
    _, trace = run_balance_attack(k3(), AttackConfig(budget_fraction=1))
    rec = trace.records[0]
    with pytest.raises(AttributeError):
        rec.census = (0, 0)
    with pytest.raises(AttributeError):
        rec.d3 = None
    assert rec._replace(census=(0, 0)).d3 is None and rec.census == (0, 1) and rec.d3 == 0


def test_trace_csv_format():
    g = k3()
    _, trace = run_balance_attack(g, AttackConfig(budget_fraction=1))
    import io

    buf = io.StringIO()
    trace.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# schema=attack-trace/1"
    assert lines[1] == "step,u,v,old_sign,p_uv,delta_trace,d3"
    assert lines[2] == "1,0,1,1,1,-12,0.0"
    assert len(lines) == 3
