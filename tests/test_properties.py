"""Property tests on random signed graphs.

The evaluation sweep reports each row's d3 from its attack trace instead
of a fresh triangle census, and serves smaller greedy budgets from a trace
prefix. These properties check both against the direct computation.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from balattack import (
    MODE_BALANCE_BATCHED,
    MODE_BALANCE_SEQUENTIAL,
    MODE_RANDOM,
    AttackConfig,
    SignedGraph,
    balance_degree,
    run_attack,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def signed_graphs(draw) -> SignedGraph:
    """A graph on 3..11 nodes with at least one edge, biased toward dense
    supports so that most draws have triangles."""
    n = draw(st.integers(3, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(chosen), max_size=len(chosen)))
    return SignedGraph(n, [(u, v, s) for (u, v), s in zip(chosen, signs)])


attack_configs = st.builds(
    AttackConfig,
    budget_fraction=st.fractions(Fraction(1, 50), 1),
    mode=st.sampled_from((MODE_BALANCE_SEQUENTIAL, MODE_BALANCE_BATCHED, MODE_RANDOM)),
    batch_size=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    shuffle_ties=st.booleans(),
)


@PROPERTY_SETTINGS
@given(g=signed_graphs(), cfg=attack_configs)
def test_every_trace_d3_equals_a_census_of_the_replayed_graph(g, cfg):
    poisoned, trace = run_attack(g, cfg)
    replay = g.copy()
    assert trace.initial_d3 == balance_degree(replay).d3
    for rec in trace.records:
        replay.flip_edge(rec.u, rec.v)
        assert rec.d3 == balance_degree(replay).d3
    assert trace.final_d3 == balance_degree(replay).d3
    assert replay == poisoned


@PROPERTY_SETTINGS
@given(
    g=signed_graphs(),
    cfg=attack_configs.filter(lambda c: c.mode != MODE_RANDOM),
    data=st.data(),
)
def test_trace_prefix_equals_a_standalone_run(g, cfg, data):
    m = g.edge_count
    _, full = run_attack(g, cfg)
    k = data.draw(st.integers(1, cfg.budget_edges(m)), label="k")
    _, alone = run_attack(g, replace(cfg, budget_fraction=Fraction(k, m)))
    assert full.prefix(k) == alone
