"""Acceptance gate: one test per shipping criterion.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion; each test also prints its measured numbers. Criteria C4, C7 and
the real-dataset half of C9 need the Bitcoin-Alpha trust graph (see
conftest.py for how it is located); without it they fail with instructions
rather than skipping, because the published numbers they check are part of
the contract.
"""

from __future__ import annotations

import io
import random
import time
from fractions import Fraction

from balattack import (
    MODE_BALANCE_BATCHED,
    MODE_BALANCE_SEQUENTIAL,
    MODE_RANDOM,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_NO_CANDIDATES,
    AttackConfig,
    TwoPathTable,
    attack_eval_pipeline,
    balance_degree,
    evaluate,
    load_edge_list,
    run_balance_attack,
    run_random_attack,
    verify_perturbation,
    write_edge_list,
)
from conftest import require_bitcoin_alpha
from oracles import (
    adjacency_matrix,
    f1_brute,
    flip_delta,
    table_items,
    trace_a3_of,
    triangle_census_triples,
)
from util import clustered_signed_graph, graph_with_triangles, random_signed_graph


def test_c1_balance_degree_matches_all_triples_oracle():
    """200 random signed graphs (n <= 60): exact agreement, < 10 s."""
    rng = random.Random(20260817)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        g = random_signed_graph(
            rng, rng.randint(20, 60), rng.uniform(0.03, 0.35), neg_frac=0.5
        )
        rep = balance_degree(g)
        b, u = triangle_census_triples(g)
        assert (rep.balanced, rep.unbalanced) == (b, u)
        expected = Fraction(b, b + u) if b + u else None
        assert rep.d3 == expected
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.2f}s (limit 10s)"
    print(f"[C1] PASS: {checked} graphs agree exactly with the all-triples "
          f"oracle in {elapsed:.2f}s (< 10s)")


def test_c2_flip_delta_matches_recomputed_trace():
    """50 random graphs (n <= 60), every edge: exact delta, < 30 s."""
    rng = random.Random(8254)
    t0 = time.perf_counter()
    flips = 0
    for _ in range(50):
        g = random_signed_graph(rng, rng.randint(3, 60), rng.uniform(0.05, 0.3))
        a = adjacency_matrix(g)
        before = trace_a3_of(a)
        for u, v, s in g.edges():
            flipped = a.copy()
            flipped[u, v] = flipped[v, u] = -s
            assert flip_delta(g, u, v) == trace_a3_of(flipped) - before
            flips += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"flip-delta sweep took {elapsed:.2f}s (limit 30s)"
    print(f"[C2] PASS: {flips} edge flips across 50 graphs match dense "
          f"recomputation exactly in {elapsed:.2f}s (< 30s)")


def test_c3_incremental_table_equals_rebuild():
    """500 flips on an n=100 graph: table never drifts from a fresh build."""
    rng = random.Random(314)
    g = random_signed_graph(rng, 100, 0.08)
    table = TwoPathTable.from_graph(g)
    edges = [(u, v) for u, v, _ in g.edges()]
    for step in range(500):
        u, v = rng.choice(edges)
        table.apply_flip(u, v)
        fresh = TwoPathTable.from_graph(g)
        assert table_items(table) == table_items(fresh), f"drift at flip {step + 1}"
    print(f"[C3] PASS: 500 incremental flips on n=100, m={g.edge_count} "
          f"identical to rebuilds at every step")


def test_c4_bitcoin_alpha_attack_curve():
    """Clean D3, greedy D3 at 5%/20%, random-attack D3 at 20%, runtime."""
    g, _ = require_bitcoin_alpha()
    rep = balance_degree(g)
    clean = float(rep.d3)
    assert 0.85 <= clean <= 0.92, f"clean D3 {clean:.4f} outside [0.85, 0.92]"

    t0 = time.perf_counter()
    _, trace = run_balance_attack(g, AttackConfig(budget_fraction="0.2"))
    runtime = time.perf_counter() - t0
    assert runtime < 300.0, f"sequential 20% attack took {runtime:.0f}s (limit 300s)"

    k5 = AttackConfig(budget_fraction="0.05").budget_edges(g.edge_count)
    d3_5 = trace.records[k5 - 1].d3 if len(trace.records) >= k5 else trace.final_d3
    assert 0.30 <= float(d3_5) <= 0.60, f"D3 at 5% = {float(d3_5):.4f} outside [0.30, 0.60]"
    d3_20 = float(trace.final_d3)
    assert d3_20 <= 0.25, f"D3 at 20% = {d3_20:.4f} above 0.25"

    finals = []
    for seed in range(5):
        _, rtrace = run_random_attack(
            g, AttackConfig(budget_fraction="0.2", mode=MODE_RANDOM, seed=seed)
        )
        finals.append(float(rtrace.final_d3))
    mean_random = sum(finals) / len(finals)
    assert 0.55 <= mean_random <= 0.75, (
        f"random 20% mean D3 {mean_random:.4f} outside [0.55, 0.75]"
    )
    print(f"[C4] PASS: clean={clean:.4f}, greedy 5%={float(d3_5):.4f}, "
          f"greedy 20%={d3_20:.4f} in {runtime:.0f}s, "
          f"random 20% mean={mean_random:.4f}")


def test_c5_sequential_traces_strictly_decrease():
    """Every recorded flip lowers D3; terminal status is one of the two
    run-to-completion statuses."""
    rng = random.Random(555)
    traces = 0
    for _ in range(25):
        g = graph_with_triangles(rng, communities=2, size=rng.randint(5, 9),
                                 noise=rng.uniform(0.0, 0.25))
        if not balance_degree(g).d3:
            continue  # already at the minimum; nothing to attack
        _, trace = run_balance_attack(
            g, AttackConfig(budget_fraction=rng.uniform(0.05, 1.0))
        )
        assert trace.status in (STATUS_BUDGET_EXHAUSTED, STATUS_NO_CANDIDATES)
        series = [trace.initial_d3] + [r.d3 for r in trace.records]
        assert all(b < a for a, b in zip(series, series[1:])), "D3 did not strictly drop"
        traces += 1
    assert traces >= 20
    print(f"[C5] PASS: {traces} sequential traces strictly decreasing, "
          f"statuses confined to budget_exhausted/no_candidates")


def test_c6_threat_model_constraints_hold():
    """verify_perturbation passes on every output of a 20-run random sweep."""
    rng = random.Random(666)
    modes = [MODE_BALANCE_SEQUENTIAL, MODE_BALANCE_BATCHED, MODE_RANDOM]
    for run in range(20):
        g = clustered_signed_graph(rng, communities=rng.randint(2, 3),
                                   size=rng.randint(5, 9), noise=rng.uniform(0, 0.4))
        mode = modes[run % 3]
        cfg = AttackConfig(
            budget_fraction=rng.uniform(0.05, 1.0),
            mode=mode,
            batch_size=rng.randint(1, 8),
            seed=rng.randrange(2**32),
        )
        poisoned, trace = (
            run_random_attack(g, cfg) if mode == MODE_RANDOM else run_balance_attack(g, cfg)
        )
        report = verify_perturbation(g, poisoned, trace.budget)
        assert report.ok, f"run {run} ({mode}) violated the threat model:\n{report}"
        assert len(trace.records) <= trace.budget
    print("[C6] PASS: 20/20 randomized attack runs satisfy edge-support, "
          "budget, and degree-sequence constraints")


def test_c7_balance_attack_damages_prediction_most():
    """Poisoned-training micro-F1: balance < random and balance < clean at
    a 20% budget for at least 4 of 5 split seeds."""
    g, _ = require_bitcoin_alpha()
    wins = 0
    details = []
    for split_seed in range(5):
        rows = attack_eval_pipeline(
            g, [0, "0.2"], [MODE_BALANCE_SEQUENTIAL, MODE_RANDOM],
            split_seed=split_seed, attack_seed=split_seed,
        )
        clean = next(r for r in rows if r.budget_frac == 0)
        bal = next(r for r in rows
                   if r.mode == MODE_BALANCE_SEQUENTIAL and r.budget_frac != 0)
        rnd = next(r for r in rows if r.mode == MODE_RANDOM and r.budget_frac != 0)
        ok = (bal.report.micro_f1 < rnd.report.micro_f1
              and bal.report.micro_f1 < clean.report.micro_f1)
        wins += ok
        details.append(
            f"seed {split_seed}: clean={float(clean.report.micro_f1):.4f} "
            f"random={float(rnd.report.micro_f1):.4f} "
            f"balance={float(bal.report.micro_f1):.4f} {'ok' if ok else 'MISS'}"
        )
    print("[C7] " + ("PASS" if wins >= 4 else "FAIL") + f": {wins}/5 seeds ordered "
          "balance < random, balance < clean; " + "; ".join(details))
    assert wins >= 4, "\n".join(details)


def test_c8_f1_matches_brute_force_confusion():
    """1,000 random prediction/label vectors, agreement within 1e-12."""
    rng = random.Random(888)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 200)
        labels = [rng.choice((1, -1)) for _ in range(n)]
        if rng.random() < 0.2:  # exercise degenerate one-class vectors too
            preds = [labels[0]] * n
        else:
            preds = [rng.choice((1, -1)) for _ in range(n)]
        rep = evaluate(preds, labels)
        micro, binary, macro = f1_brute(preds, labels)
        worst = max(
            worst,
            abs(float(rep.micro_f1) - micro),
            abs(float(rep.binary_f1) - binary),
            abs(float(rep.macro_f1) - macro),
        )
    assert worst <= 1e-12, f"max |difference| {worst:e} exceeds 1e-12"
    print(f"[C8] PASS: 1000 vectors, max |difference| = {worst:.2e} (<= 1e-12)")


def test_c9_loader_fidelity_bitcoin_alpha():
    """Node and sign counts within 1% of the published 3,784 / 22,650 / 1,536."""
    g, stats = require_bitcoin_alpha()
    expected = {"nodes": 3784, "pos": 22650, "neg": 1536}
    got = {"nodes": g.node_count, "pos": g.pos_edge_count, "neg": g.neg_edge_count}
    for key, want in expected.items():
        deviation = abs(got[key] - want) / want
        assert deviation <= 0.01, (
            f"{key}: loaded {got[key]} vs published {want} "
            f"({deviation:.2%} off, merged {stats.merged_rows} reciprocal rows)"
        )
    print(f"[C9] PASS: loaded {got['nodes']} nodes, +{got['pos']}/-{got['neg']} "
          f"edges, all within 1% of the published counts")


def test_c9_loader_roundtrip_synthetic():
    """Rating-CSV ingestion vs an independent merge, then an exact
    edge-list round trip, over 30 randomized synthetic datasets."""
    from balattack import load_rating_csv

    rng = random.Random(999)
    for _ in range(30):
        n_ids = rng.randint(3, 25)
        rows = []
        for _ in range(rng.randint(1, 120)):
            a = rng.randrange(n_ids)
            b = rng.randrange(n_ids)
            rows.append((a, b, rng.randint(-10, 10)))
        text = "".join(f"{a},{b},{r}\n" for a, b, r in rows)

        # independent merge: sum ratings per unordered pair
        sums: dict[tuple[int, int], int] = {}
        for a, b, r in rows:
            if a == b or r == 0:
                continue
            key = (min(a, b), max(a, b))
            sums[key] = sums.get(key, 0) + r
        expected_edges = {k: (1 if v > 0 else -1) for k, v in sums.items() if v != 0}

        g, _ = load_rating_csv(io.StringIO(text))
        labels = g.node_labels
        got_edges = {
            (min(int(labels[u]), int(labels[v])), max(int(labels[u]), int(labels[v]))): s
            for u, v, s in g.edges()
        }
        assert got_edges == expected_edges

        buf = io.StringIO()
        write_edge_list(g, buf)
        assert load_edge_list(io.StringIO(buf.getvalue())) == g
    print("[C9] PASS: 30 synthetic rating CSVs merge exactly and round-trip "
          "through the edge-list format")
