from __future__ import annotations

import csv
import io
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from balattack import (
    MODE_BALANCE_BATCHED,
    MODE_BALANCE_SEQUENTIAL,
    MODE_RANDOM,
    AttackConfig,
    SignedGraph,
    attack_eval_pipeline,
    balance_degree,
    evaluate,
    load_edge_list,
    run_balance_attack,
    split_edges,
    write_pipeline_csv,
)
from balattack import attack as attack_module
from balattack import prediction
from balattack.prediction import evaluate_on_split
from oracles import (
    f1_brute,
    reference_attack_eval_pipeline,
    reference_split_edges,
    triad_vote_predict,
)
from util import clustered_signed_graph, random_signed_graph

FIXTURES = Path(__file__).parent / "fixtures"


class TestSplitEdges:
    def test_sizes_and_partition(self):
        rng = random.Random(1)
        g = random_signed_graph(rng, 30, 0.3)
        split = split_edges(g, Fraction(4, 5), seed=3)
        assert split.train.edge_count == round(Fraction(4, 5) * g.edge_count)
        assert split.train.edge_count + len(split.test_edges) == g.edge_count
        train = set(split.train.edges())
        test = set(split.test_edges)
        assert not train & test
        assert train | test == set(g.edges())

    def test_ten_edges_default_fraction(self):
        g = SignedGraph(11, [(i, i + 1, 1) for i in range(10)])
        split = split_edges(g, seed=0)
        assert split.train.edge_count == 8
        assert len(split.test_edges) == 2

    def test_deterministic_and_seed_sensitive(self):
        rng = random.Random(2)
        g = random_signed_graph(rng, 60, 0.3)  # ~500 edges
        assert g.edge_count > 400
        a = split_edges(g, seed=7)
        b = split_edges(g, seed=7)
        c = split_edges(g, seed=8)
        assert a == b
        assert a != c

    def test_train_graph_keeps_all_nodes(self):
        g = SignedGraph(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, 1), (0, 2, 1)])
        split = split_edges(g, seed=1)
        t = split.train
        assert t.node_count == 4
        assert t.edge_count + len(split.test_edges) == g.edge_count

    @staticmethod
    def assert_split_as_reference(g: SignedGraph, fraction: Fraction, seed: int) -> None:
        got = split_edges(g, fraction, seed)
        want = reference_split_edges(g, fraction, seed)
        assert got.test_edges == want.test_edges, (g.edge_count, fraction, seed)
        assert got.train == want.train
        assert (got.train.edge_count, got.train.pos_edge_count) == (
            want.train.edge_count, want.train.pos_edge_count
        )

    def test_matches_the_full_shuffle_reference(self):
        # Only the test side is drawn; it must be random.shuffle's tail.
        rng = random.Random(3)
        pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
        for m in [*range(2, 33), *range(33, 300, 16), 300]:
            g = SignedGraph(30, [(u, v, rng.choice((1, -1))) for u, v in rng.sample(pairs, m)])
            for seed in range(30):
                for n_train in (1, m - 1):
                    self.assert_split_as_reference(g, Fraction(n_train, m), seed)

    def test_matches_the_full_shuffle_reference_on_the_digest_fixture(self):
        with open(FIXTURES / "digests" / "hk1000.edges", encoding="utf-8") as f:
            g = load_edge_list(f)
        m = g.edge_count
        for fraction, seed in [(Fraction(4, 5), 0), (Fraction(4, 5), 7), (Fraction(1, m), 1),
                               (Fraction(m - 1, m), 2), (Fraction(1, 2), 3)]:
            self.assert_split_as_reference(g, fraction, seed)

    def test_too_small_to_split(self):
        g = SignedGraph(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="one side would be empty"):
            split_edges(g, 0.8, seed=0)
        with pytest.raises(ValueError, match="at train fraction 1e-4300: one side"):
            split_edges(SignedGraph(3, [(0, 1, 1), (1, 2, 1)]), "1e-4300")

    def test_seed_must_be_a_non_negative_int(self):
        # random.Random(-3) shuffles as random.Random(3) does
        g = SignedGraph(11, [(i, i + 1, 1) for i in range(10)])
        for seed in (-3, 2.5):
            with pytest.raises(ValueError, match="split seed must be >= 0"):
                split_edges(g, seed=seed)

    @pytest.mark.parametrize("frac", [0, 1, 1.2, -0.5])
    def test_fraction_range(self, frac):
        g = SignedGraph(11, [(i, i + 1, 1) for i in range(10)])
        with pytest.raises(ValueError, match=rf"^train fraction must be in \(0, 1\), got {frac}$"):
            split_edges(g, frac, seed=0)


class TestTriadVote:
    def test_single_wedge(self):
        train = SignedGraph(4, [(1, 3, 1), (2, 3, 1)])
        assert triad_vote_predict(train, 1, 2) == 1

    def test_negative_wedge(self):
        train = SignedGraph(4, [(1, 3, 1), (2, 3, -1)])
        assert triad_vote_predict(train, 1, 2) == -1

    def test_canceling_wedges_fall_back_to_majority(self):
        train = SignedGraph(5, [(1, 3, 1), (2, 3, 1), (1, 4, 1), (2, 4, -1)])
        # wedges through 3 (+1) and 4 (-1) cancel; 3 of 4 train edges are +
        assert triad_vote_predict(train, 1, 2) == 1

    def test_isolated_pair_majority_negative(self):
        train = SignedGraph(6, [(0, 1, -1), (1, 2, -1), (2, 3, -1)])
        assert triad_vote_predict(train, 4, 5) == -1

    def test_exact_majority_tie_predicts_positive(self):
        train = SignedGraph(4, [(0, 1, 1), (2, 3, -1)])
        assert triad_vote_predict(train, 0, 3) == 1

    def test_unknown_node(self):
        train = SignedGraph(3, [(0, 1, 1)])
        with pytest.raises(ValueError):
            triad_vote_predict(train, 0, 9)


def signed_graph_with_balanced_signs(rng: random.Random, n: int, p: float) -> SignedGraph:
    """As many negative edges as positive ones (an even edge count)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    pairs = pairs[: len(pairs) // 2 * 2]
    signs = [1, -1] * (len(pairs) // 2)
    rng.shuffle(signs)
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(pairs, signs)])


class TestEvaluateOnSplit:
    """The bound-adjacency vote against per-pair triad_vote_predict."""

    def test_matches_per_pair_vote_on_seeded_graphs(self):
        rng = random.Random(1907)
        cases: Counter = Counter()
        for i in range(150):
            n = rng.randint(3, 24)
            if i % 3 == 0:
                train = signed_graph_with_balanced_signs(rng, n, rng.uniform(0.1, 0.7))
            else:
                train = random_signed_graph(rng, n, rng.uniform(0.05, 0.7), rng.uniform(0, 1))
            test = [(u, v, rng.choice((1, -1)))
                    for u, v in (rng.sample(range(n), 2) for _ in range(rng.randint(1, 40)))]
            want = evaluate([triad_vote_predict(train, u, v) for u, v, _ in test],
                            [s for _, _, s in test])
            assert evaluate_on_split(train, test) == want, i
            tied_signs = train.pos_edge_count == train.neg_edge_count
            for u, v, _ in test:
                common = train.adjacency(u).keys() & train.adjacency(v).keys()
                if not common:
                    cases["no common neighbour"] += 1
                elif not sum(train.sign(u, w) * train.sign(w, v) for w in common):
                    cases["zero score" + (", pos = neg" if tied_signs else "")] += 1
                if tied_signs and train.edge_count:
                    cases["pos = neg"] += 1
        assert min(cases.values()) >= 20 and len(cases) == 4, cases

    def test_unknown_node(self):
        train = SignedGraph(3, [(0, 1, 1)])
        for pair in ((0, 9, 1), (-1, 1, 1)):
            with pytest.raises(ValueError, match="out of range"):
                evaluate_on_split(train, [pair])


class TestEvaluate:
    def test_worked_example(self):
        rep = evaluate([1, 1, -1, -1], [1, 1, 1, -1])
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 0, 1, 1)
        assert rep.micro_f1 == Fraction(3, 4)
        assert rep.binary_f1 == Fraction(4, 5)
        assert rep.macro_f1 == Fraction(11, 15)
        assert rep.total == 4

    def test_perfect(self):
        rep = evaluate([1, -1, 1], [1, -1, 1])
        assert rep.micro_f1 == rep.binary_f1 == rep.macro_f1 == 1

    def test_everything_wrong(self):
        rep = evaluate([-1, -1], [1, 1])
        assert rep.micro_f1 == rep.binary_f1 == rep.macro_f1 == 0

    def test_degenerate_negative_class_scores_zero(self):
        rep = evaluate([1, 1], [1, 1])
        assert rep.micro_f1 == 1
        assert rep.binary_f1 == 1
        assert rep.macro_f1 == Fraction(1, 2)

    def test_errors(self):
        with pytest.raises(ValueError, match="length"):
            evaluate([1], [1, -1])
        with pytest.raises(ValueError, match="nothing"):
            evaluate([], [])
        with pytest.raises(ValueError, match="signs"):
            evaluate([0], [1])

    def test_identities_against_brute_force(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(1, 40)
            labels = [rng.choice((1, -1)) for _ in range(n)]
            preds = [rng.choice((1, -1)) for _ in range(n)]
            rep = evaluate(preds, labels)
            micro, binary, macro = f1_brute(preds, labels)
            assert abs(float(rep.micro_f1) - micro) < 1e-12
            assert abs(float(rep.binary_f1) - binary) < 1e-12
            assert abs(float(rep.macro_f1) - macro) < 1e-12
            assert rep.micro_f1 == Fraction(rep.tp + rep.tn, n)
            assert rep.total == n


class TestPipeline:
    @staticmethod
    def _graph(seed=7):
        rng = random.Random(seed)
        return clustered_signed_graph(rng, communities=2, size=12, p_in=0.6,
                                      p_out=0.25, noise=0.05)

    def test_budget_zero_equals_clean_eval(self):
        g = self._graph()
        rows = attack_eval_pipeline(
            g, [0], [MODE_BALANCE_SEQUENTIAL, MODE_RANDOM], split_seed=3
        )
        assert len(rows) == 2
        assert rows[0].report == rows[1].report
        assert rows[0].d3 == rows[1].d3
        assert rows[0].budget_frac == 0

    def test_deterministic(self):
        g = self._graph()
        kwargs = dict(split_seed=1, attack_seed=2)
        a = attack_eval_pipeline(g, [0, 0.1], [MODE_RANDOM], **kwargs)
        b = attack_eval_pipeline(g, [0, 0.1], [MODE_RANDOM], **kwargs)
        assert a == b

    def test_test_set_is_never_touched(self):
        g = self._graph()
        snapshot = list(g.edges())
        split_before = split_edges(g, seed=5)
        attack_eval_pipeline(
            g, [0, 0.2, 0.5], [MODE_BALANCE_SEQUENTIAL, MODE_RANDOM], split_seed=5
        )
        assert list(g.edges()) == snapshot
        split_after = split_edges(g, seed=5)
        assert split_after.test_edges == split_before.test_edges

    def test_sequential_d3_column_monotone_in_budget(self):
        g = self._graph()
        budgets = [0, 0.05, 0.1, 0.2, 0.4]
        rows = attack_eval_pipeline(g, budgets, [MODE_BALANCE_SEQUENTIAL], split_seed=2)
        d3s = [r.d3 for r in rows]
        assert all(b <= a for a, b in zip(d3s, d3s[1:]))

    def test_sequential_prefix_rows_match_standalone_runs(self):
        g = self._graph()
        rows = attack_eval_pipeline(g, [0.1, 0.3], [MODE_BALANCE_SEQUENTIAL], split_seed=4)
        train = split_edges(g, seed=4).train
        for row in rows:
            poisoned, _ = run_balance_attack(
                train, AttackConfig(budget_fraction=row.budget_frac)
            )
            assert row.d3 == balance_degree(poisoned).d3

    def test_balance_attack_hurts_d3_more_than_random(self):
        g = self._graph()
        rows = attack_eval_pipeline(
            g, [0.2], [MODE_BALANCE_SEQUENTIAL, MODE_RANDOM], split_seed=6, attack_seed=1
        )
        by_mode = {r.mode: r for r in rows}
        assert by_mode[MODE_BALANCE_SEQUENTIAL].d3 < by_mode[MODE_RANDOM].d3

    def test_batched_mode_runs(self):
        g = self._graph()
        rows = attack_eval_pipeline(
            g, [0.15], [MODE_BALANCE_BATCHED], split_seed=1, batch_size=4
        )
        assert len(rows) == 1
        assert rows[0].d3 is not None

    def test_rows_match_reference_on_seeded_graphs(self):
        rng = random.Random(2403)
        modes = [MODE_BALANCE_SEQUENTIAL, MODE_BALANCE_BATCHED, MODE_RANDOM]
        graphs = 0
        for i in range(120):
            if i % 2:
                g = clustered_signed_graph(
                    rng, communities=rng.randint(2, 3), size=rng.randint(3, 6),
                    noise=rng.uniform(0, 0.3),
                )
            else:
                g = random_signed_graph(rng, rng.randint(5, 16), rng.uniform(0.2, 0.7))
            if g.edge_count < 4:
                continue
            graphs += 1
            # the clean row first, last, twice or alone; sometimes the whole graph
            budgets = [Fraction(rng.randint(1, 10), 20) for _ in range(rng.randint(1, 3))]
            budgets.insert(rng.randint(0, len(budgets)), 0)
            if i % 3 == 0:
                budgets.append(1)
            if i % 5 == 0:
                budgets.append(0)
            if i % 11 == 0:
                budgets = [0, 0] if i % 2 else [0]
            rng.shuffle(modes)
            kwargs = dict(
                split_seed=i, attack_seed=rng.randint(0, 9),
                batch_size=rng.choice([1, 3, 10]), dataset=f"g{i}",
            )
            got = attack_eval_pipeline(g, budgets, modes, **kwargs)
            assert got == reference_attack_eval_pipeline(g, budgets, modes, **kwargs), i
        assert graphs >= 100

    def test_repeated_mode_runs_one_sweep(self, monkeypatch):
        g = self._graph()
        runs = []
        real = attack_module.run_random_attack
        monkeypatch.setattr(attack_module, "run_random_attack",
                            lambda *a, **kw: runs.append(a) or real(*a, **kw))
        budgets, modes = [0, Fraction(1, 5)], [MODE_RANDOM, MODE_RANDOM]
        rows = attack_eval_pipeline(g, budgets, modes, split_seed=1)
        assert len(runs) == 1
        assert [r.mode for r in rows] == [MODE_RANDOM] * 4
        assert rows == reference_attack_eval_pipeline(g, budgets, modes, split_seed=1)

    def test_validation(self):
        g = self._graph()
        with pytest.raises(ValueError, match="budget"):
            attack_eval_pipeline(g, [1.5], [MODE_RANDOM])
        with pytest.raises(ValueError, match=r"\[0, 1\], got 2e4300"):
            attack_eval_pipeline(g, ["2e4300"], [MODE_RANDOM])
        with pytest.raises(ValueError, match="mode"):
            attack_eval_pipeline(g, [0.1], ["bogus"])

    @pytest.mark.parametrize("kwargs,message", [
        ({"attack_seed": -3}, "seed must be >= 0"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"batch_size": 2.5}, "batch_size must be >= 1"),
        ({"modes": [MODE_RANDOM, "bogus"]}, r"^unknown mode 'bogus'; expected one of \("),
    ], ids=["seed", "batch-size-0", "batch-size-2.5", "mode"])
    def test_attack_arguments_are_checked_before_the_split(self, monkeypatch, kwargs, message):
        splits = []
        real = prediction.split_edges
        monkeypatch.setattr(prediction, "split_edges", lambda *a: splits.append(a) or real(*a))
        with pytest.raises(ValueError, match=message):
            attack_eval_pipeline(self._graph(), [0, 0.1], **{"modes": [MODE_RANDOM], **kwargs})
        assert splits == []

    def test_row_fields(self):
        g = self._graph()
        rows = attack_eval_pipeline(
            g, [0.1], [MODE_RANDOM], split_seed=9, attack_seed=4, dataset="toy"
        )
        row = rows[0]
        assert row.dataset == "toy"
        assert row.split_seed == 9 and row.attack_seed == 4
        assert 0 <= row.report.micro_f1 <= 1


def test_pipeline_csv_layout():
    import io

    from balattack import write_pipeline_csv

    rng = random.Random(11)
    g = clustered_signed_graph(rng, communities=2, size=10, p_in=0.6, p_out=0.3)
    rows = attack_eval_pipeline(g, [0, 0.2], [MODE_RANDOM], split_seed=1)
    buf = io.StringIO()
    write_pipeline_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# schema=attack-eval/1"
    assert lines[1] == (
        "dataset,mode,budget_frac,d3,micro_f1,binary_f1,macro_f1,split_seed,attack_seed"
    )
    assert len(lines) == 2 + len(rows)
    first = lines[2].split(",")
    assert first[1] == MODE_RANDOM
    assert float(first[2]) == 0.0
    float(first[4])  # metrics parse as floats


def test_pipeline_csv_quotes_the_dataset_name():
    g = clustered_signed_graph(random.Random(11), communities=2, size=10, p_in=0.6, p_out=0.3)
    rows = attack_eval_pipeline(g, [0, 0.2], [MODE_RANDOM], split_seed=1)
    for name in ("a,b", 'say "hi"', "two\nlines"):
        buf = io.StringIO()
        write_pipeline_csv([r._replace(dataset=name) for r in rows], buf)
        parsed = list(csv.reader(io.StringIO(buf.getvalue())))[2:]
        assert [len(r) for r in parsed] == [9] * len(rows)
        assert {r[0] for r in parsed} == {name}
    plain = io.StringIO()
    write_pipeline_csv(rows, plain)
    assert plain.getvalue().splitlines()[2].startswith("graph,random,0.0,")
