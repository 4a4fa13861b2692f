"""Property tests on random signed graphs, rating files and edge lists.

The evaluation sweep reports each row's d3 from its attack trace instead
of a fresh triangle census, and serves smaller greedy budgets from a trace
prefix. These properties check both against the direct computation, check
that the trace CSV prints each census's exact d3 rounded once, and
check that every budget the sweep serves is a sign-only perturbation
within that budget. The rating loader's integer fast path is checked
against the plain per-row reference loader. The edge list round-trips,
and a malformed edge-list line fails with its line number instead of
becoming an edge.
"""

from __future__ import annotations

import io
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from balattack import (
    MODE_BALANCE_BATCHED,
    MODE_BALANCE_SEQUENTIAL,
    MODE_RANDOM,
    STATUS_BUDGET_EXHAUSTED,
    AttackConfig,
    AttackTrace,
    FlipRecord,
    ParseError,
    SignedGraph,
    balance_degree,
    load_edge_list,
    load_rating_csv,
    run_attack_budgets,
    verify_perturbation,
    write_edge_list,
)
from balattack.balance import census_d3
from oracles import reference_load_rating_csv, run_attack

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
@given(census=st.tuples(st.integers(0, 2**80), st.integers(0, 2**80)))
@example(census=(0, 0))  # triangle-free: no d3
@example(census=(0, 7))
@example(census=(2**53 + 1, 2**53 - 1))
@example(census=(3**40, 2**64 + 1))
@example(census=(10**30 + 1, 1))
def test_trace_d3_text_is_the_float_of_the_exact_census_d3(census):
    buf = io.StringIO()
    record = FlipRecord(1, 0, 1, 1, 1, -12, census)
    AttackTrace(MODE_RANDOM, 1, STATUS_BUDGET_EXHAUSTED, None, [record]).write_csv(buf)
    d3 = census_d3(census)
    assert buf.getvalue().splitlines()[2].rsplit(",", 1)[1] == (
        "" if d3 is None else repr(float(d3))
    )


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
    _, alone = run_attack(g, cfg._replace(budget_fraction=Fraction(k, m)))
    assert full.prefix(k) == alone


# Budget lists with repeats and in any order, given as Fractions, floats,
# ints and text.
_SWEEP_FRACTIONS = st.lists(
    st.sampled_from([Fraction(1, 50), "0.1", 0.25, "1/3", Fraction(1, 2), 1])
    | st.fractions(Fraction(1, 50), 1),
    min_size=1, max_size=5,
)


@PROPERTY_SETTINGS
@given(g=signed_graphs(), cfg=attack_configs, fractions=_SWEEP_FRACTIONS)
def test_every_sweep_yield_is_a_permitted_perturbation(g, cfg, fractions):
    before = g.copy()
    yielded = []
    for f, poisoned, _ in run_attack_budgets(g, cfg, fractions):
        k = cfg._replace(budget_fraction=f).budget_edges(g.edge_count)
        assert verify_perturbation(g, poisoned, k).ok
        yielded.append(f)
    assert yielded == [cfg._replace(budget_fraction=f).budget_fraction for f in fractions]
    assert g == before


def _written(g: SignedGraph) -> str:
    buf = io.StringIO()
    write_edge_list(g, buf)
    return buf.getvalue()


@PROPERTY_SETTINGS
@given(g=signed_graphs(), isolated=st.integers(0, 3))
def test_edge_list_round_trips(g, isolated):
    g = SignedGraph(g.node_count + isolated, g.edges())
    text = _written(g)
    back = load_edge_list(io.StringIO(text))
    assert back == g and back.node_count == g.node_count
    assert _written(back) == text


_SIGN_SPELLINGS = {1: ("+1", "1", "+"), -1: ("-1", "-")}
# Whitespace that str.split() and str.strip() know but the format refuses.
_FOREIGN_SPACES = ("\x1c", "\u2003", "\u3000", "\x85", "\x0c", "\x0b")
# Id tokens that are not ASCII digits: ones int() reads, negative ones, and
# plain garbage.
_BAD_IDS = ("1_0", "\u0663", "\uff11", "+1", "-1", "-3", "x", "1.0")


@st.composite
def edge_lines(draw) -> tuple[str, tuple[int, int, int] | None, bool]:
    """One edge-list line as (text, the edge it gives or None, malformed).
    A well-formed edge line gives its pair the one sign (u + v) % 3 picks,
    so two such lines never conflict."""
    kind = draw(st.sampled_from(
        ("edge",) * 8 + ("blank", "comment", "id", "fields", "sign", "loop", "space")
    ))
    u, v = draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True))
    s = 1 if (u + v) % 3 else -1
    fields = [str(u), str(v), draw(st.sampled_from(_SIGN_SPELLINGS[s]))]
    join = draw(st.sampled_from((" ", "\t", "  "))).join
    if kind == "edge":
        return join(fields), (u, v, s), False
    if kind == "blank":
        return draw(st.sampled_from(("", "  ", "\t"))), None, False
    if kind == "comment":
        return draw(st.sampled_from(("# note", "#nodes", "# u v s"))), None, False
    if kind == "id":
        fields[draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_IDS))
    elif kind == "fields":
        fields = draw(st.sampled_from((fields[:2], fields + ["0"])))
    elif kind == "sign":
        fields[2] = "2"
    elif kind == "space":
        # a near miss: a well-formed edge or comment but for one space
        bad = draw(st.sampled_from(_FOREIGN_SPACES))
        line = join(fields) if draw(st.booleans()) else "# note"
        i = draw(st.integers(0, len(line)))
        return line[:i] + bad + line[i:], None, True
    else:
        fields[1] = fields[0]  # self-loop
    return join(fields), None, True


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(lines=st.lists(edge_lines(), max_size=12))
def test_a_malformed_edge_list_line_never_becomes_an_edge(lines):
    bad = [lineno for lineno, (_, _, malformed) in enumerate(lines, 1) if malformed]
    try:
        g = load_edge_list(io.StringIO("".join(text + "\n" for text, _, _ in lines)))
    except ParseError as exc:
        assert bad and exc.line == bad[0], (str(exc), bad)
        return
    assert not bad
    edges = [edge for _, edge, _ in lines if edge]
    assert g == SignedGraph(max((max(u, v) + 1 for u, v, _ in edges), default=0), edges)


# Ids and rating fields with padding (ASCII, an em space, a file separator),
# signs, underscores, decimals and ratios that cancel, and, one field in
# ten, a zero denominator or non-finite or non-numeric text.
_IDS = st.sampled_from(["1", "2", " 2", "10 ", "b\u2003", "\t1"])
_RATINGS = st.sampled_from([
    "5", "-5", " +3 ", "-3", "0", "-0", "1_0", "\u20037\u2003", "\x1c-7", "0.5",
    "-1/2", " 2e1", "-20", "1/3", "-2/6", "0/5",
])
_ZERO_DENOMINATORS = ("1/0", " -3/0 ")
_BAD_RATINGS = st.sampled_from([
    "nan", "-inf", "Infinity", "zebra", "", " ", "rating", *_ZERO_DENOMINATORS,
])


@st.composite
def rating_rows(draw) -> list[str]:
    """One row, or a rated pair and the reverse pair's cancelling rating."""
    kind = draw(st.sampled_from(("data",) * 10 + ("cancel", "blank", "header", "short")))
    if kind == "blank":
        return [draw(st.sampled_from(("", " ", ",,", " , ,\t")))]
    if kind == "header":
        return [draw(st.sampled_from(("source,target,rating", "src,dst,rating,time")))]
    if kind == "short":
        return [",".join(draw(st.lists(_IDS, min_size=1, max_size=2)))]
    src, dst = draw(_IDS), draw(_IDS)
    if kind == "cancel":
        a, b = draw(st.sampled_from((("5", "-5"), (" 1/3", "-2/6 "), ("0.5", "-1/2"))))
        return [f"{src},{dst},{a}", f"{dst},{src},{b},1300000000"]
    rating = draw(_RATINGS if draw(st.integers(0, 9)) else _BAD_RATINGS)
    fields = [src, dst, rating]
    if draw(st.booleans()):
        fields.append("1300000000")
    return [",".join(fields)]


def _load(loader, text: str):
    try:
        g, stats = loader(io.StringIO(text))
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return "ok", g, g.node_labels, stats


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(groups=st.lists(rating_rows(), max_size=20))
def test_rating_loader_matches_the_reference_on_row_soups(groups):
    rows = [row for group in groups for row in group]
    text = "".join(row + "\n" for row in rows)
    got = _load(load_rating_csv, text)
    try:
        want = _load(reference_load_rating_csv, text)
    except ZeroDivisionError:
        # The reference lets "a/0" escape; the loader names its line.
        line = next(
            i for i, row in enumerate(rows, 1)
            if row.count(",") >= 2 and row.split(",")[2] in _ZERO_DENOMINATORS
        )
        assert got[:2] == ("error", line)
        assert "zero denominator" in got[2]
        return
    assert got == want
