from __future__ import annotations

import io
import random
import tracemalloc
from pathlib import Path

import pytest

from balattack import (
    ParseError,
    SignedGraph,
    load_edge_list,
    load_rating_csv,
    write_edge_list,
)
from balattack.graph import MAX_NODES_PER_EDGE
from util import random_signed_graph

K3_EDGES = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
HK1000 = Path(__file__).parent / "fixtures" / "digests" / "hk1000.edges"


class TestSignedGraph:
    def test_basic_counts(self):
        g = SignedGraph(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1)])
        assert g.node_count == 4
        assert g.edge_count == 3
        assert g.pos_edge_count == 2
        assert g.neg_edge_count == 1
        assert g.sign(1, 2) == -1
        assert g.sign(2, 1) == -1
        assert 1 in g.adjacency(0) and 2 not in g.adjacency(0)
        assert len(g.adjacency(1)) == 2
        assert g.degree_sequence() == [1, 1, 2, 2]

    def test_edges_sorted(self):
        g = SignedGraph(4, [(2, 3, 1), (1, 0, -1), (3, 0, 1)])
        assert list(g.edges()) == [(0, 1, -1), (0, 3, 1), (2, 3, 1)]

    def test_duplicate_same_sign_collapses(self):
        g = SignedGraph(3, [(0, 1, 1), (1, 0, 1)])
        assert g.edge_count == 1

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(0, 0, 1)], "self-loop"),
            ([(0, 1, 2)], "sign"),
            ([(0, 1, 0)], "sign"),
            ([(0, 5, 1)], "out of range"),
            ([(0, 1, 1), (1, 0, -1)], "conflicting"),
        ],
    )
    def test_construction_errors(self, edges, message):
        with pytest.raises(ValueError, match=message):
            SignedGraph(3, edges)

    def test_negative_node_count(self):
        with pytest.raises(ValueError):
            SignedGraph(-1)

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            SignedGraph(2, [], node_labels=["a"])

    def test_flip_edge_is_involution(self):
        g = SignedGraph(3, K3_EDGES)
        assert g.flip_edge(0, 1) == 1  # the sign before the flip
        assert g.sign(0, 1) == -1
        assert g.pos_edge_count == 2
        assert g.flip_edge(1, 0) == -1
        assert g.sign(0, 1) == 1
        assert g.pos_edge_count == 3

    def test_flip_nonexistent_edge(self):
        g = SignedGraph(3, K3_EDGES)
        with pytest.raises(ValueError, match="not an edge"):
            g.flip_edge(0, 3)

    def test_degree_sequence_invariant_under_flips(self):
        rng = random.Random(11)
        g = random_signed_graph(rng, 30, 0.2)
        before = g.degree_sequence()
        for u, v, _ in list(g.edges())[::3]:
            g.flip_edge(u, v)
        assert g.degree_sequence() == before

    def test_copy_is_independent(self):
        g = SignedGraph(3, K3_EDGES, node_labels=["a", "b", "c"])
        h = g.copy()
        h.flip_edge(0, 1)
        assert g.sign(0, 1) == 1
        assert h.sign(0, 1) == -1
        assert h.node_labels == ["a", "b", "c"]

    def test_without_drops_listed_edges_and_reads_signs_from_the_graph(self):
        labels = ["a", "b", "c", "d", "e"]
        g = SignedGraph(5, [(0, 1, 1), (0, 2, -1), (1, 2, 1), (2, 3, -1)], labels)
        before = list(g.edges())
        # the triples' signs are ignored: the graph's own are dropped
        h = g.without([(0, 2, 1), (2, 3, 1)])
        assert h.node_count == 5 and h.node_labels is None
        assert list(h.edges()) == [(0, 1, 1), (1, 2, 1)]
        assert (h.edge_count, h.pos_edge_count, h.neg_edge_count) == (2, 2, 0)
        assert list(g.edges()) == before and g.node_labels == labels
        assert g.without([]) == g

    def test_equality_ignores_labels(self):
        g = SignedGraph(3, K3_EDGES, node_labels=["a", "b", "c"])
        h = SignedGraph(3, K3_EDGES)
        assert g == h
        h.flip_edge(0, 1)
        assert g != h

    def test_label_fallback(self):
        # Without labels a node is known by its id alone.
        g = SignedGraph(2, [(0, 1, 1)])
        assert g.node_labels is None and g.copy().node_labels is None
        h = SignedGraph(2, [(0, 1, 1)], node_labels=["x", "y"])
        assert h.node_labels[1] == "y"


class TestLoadRatingCsv:
    def test_simple(self):
        text = "1,2,5\n2,3,-4\n"
        g, stats = load_rating_csv(io.StringIO(text))
        assert g.node_count == 3
        assert g.edge_count == 2
        assert g.node_labels == ["1", "2", "3"]
        assert g.sign(0, 1) == 1
        assert g.sign(1, 2) == -1
        assert stats.rows == 2
        assert not stats.header_skipped

    def test_header_detected(self):
        text = "source,target,rating,time\n1,2,5,100\n"
        g, stats = load_rating_csv(io.StringIO(text))
        assert stats.header_skipped
        assert g.edge_count == 1

    def test_reciprocal_rows_merge_by_sum(self):
        # 7->9 rates 4, 9->7 rates 2: one undirected edge, sign of 4+2
        text = "7,9,4\n9,7,2\n7,12,-3\n"
        g, stats = load_rating_csv(io.StringIO(text))
        assert g.edge_count == 2
        assert stats.merged_rows == 1
        assert g.sign(0, 1) == 1
        assert g.sign(0, 2) == -1

    def test_sum_can_flip_sign(self):
        g, _ = load_rating_csv(io.StringIO("1,2,-5\n2,1,9\n"))
        assert g.sign(0, 1) == 1

    def test_zero_sum_pair_dropped(self):
        g, stats = load_rating_csv(io.StringIO("1,2,3\n2,1,-3\n3,4,1\n"))
        assert stats.zero_sum_pairs == 1
        assert g.edge_count == 1
        # nodes 1 and 2 survive only through dropped rows -> not in graph
        assert g.node_labels == ["3", "4"]

    def test_zero_rating_and_self_loops_dropped(self):
        g, stats = load_rating_csv(io.StringIO("1,2,0\n3,3,5\n1,4,2\n"))
        assert stats.zero_rating_rows == 1
        assert stats.self_loop_rows == 1
        assert g.edge_count == 1

    def test_float_ratings_accepted(self):
        g, _ = load_rating_csv(io.StringIO("a,b,0.5\nb,c,-1.5\n"))
        assert g.sign(0, 1) == 1
        assert g.sign(1, 2) == -1

    def test_decimal_ratings_sum_exactly(self):
        # 0.1 + 0.2 - 0.3 is about 5.6e-17 in floats; exactly it is 0
        g, stats = load_rating_csv(io.StringIO("a,b,0.1\nb,a,0.2\na,b,-0.3\nc,d,1\n"))
        assert stats.zero_sum_pairs == 1
        assert g.node_labels == ["c", "d"]

    @pytest.mark.parametrize("text,line", [
        ("a,b,1\na,b,nan\n", 2),
        ("a,b,inf\nb,a,-inf\n", 1),
        ("a,b,2\nc,d,1\nd,c,-Infinity\n", 3),
    ])
    def test_non_finite_rating_rejected_with_line_number(self, text, line):
        with pytest.raises(ParseError, match="non-finite rating") as exc:
            load_rating_csv(io.StringIO(text))
        assert exc.value.line == line

    @pytest.mark.parametrize("text,line", [
        ("source,target,rating\n1,2,5\n2,3,1/0\n", 3),
        ("a,b,1/0\n", 1),
        ("a,b,2\nb,c, -3/0 \n", 2),
    ])
    def test_zero_denominator_rejected_with_line_number(self, text, line):
        with pytest.raises(ParseError, match="zero denominator") as exc:
            load_rating_csv(io.StringIO(text))
        assert exc.value.line == line

    @pytest.mark.parametrize("text, line", [
        ("a,b,1\nc,d,1e100000\n", 2),
        ("a,b,-2.5E-100000\n", 1),
        ("x,y,2\nb,c,3\na,b,  7_0.5e4_301 \n", 3),
        ("a,b,1e00010000\n", 1),
        # more digits than the bound, whatever their value
        ("a,b,1e" + "1" * 5000 + "\n", 1),
        ("a,b,1e" + "0" * 4297 + "4300\n", 1),
    ])
    def test_exponent_beyond_bound_rejected_with_line_number(self, text, line):
        with pytest.raises(ParseError, match="exponent") as exc:
            load_rating_csv(io.StringIO(text))
        assert exc.value.line == line

    @pytest.mark.parametrize("text, line", [
        ("a,b," + "1" * 5000 + "\n", 1),
        ("a,b,1\nc,d,0." + "0" * 5000 + "1\n", 2),
    ], ids=["5000-ones", "5000-zeros-then-1"])
    def test_too_many_digits_rejected_with_line_number(self, text, line):
        with pytest.raises(ParseError, match="has too many digits") as exc:
            load_rating_csv(io.StringIO(text))
        assert exc.value.line == line

    def test_exponent_at_bound_accepted(self):
        text = "a,b,1e4300\nb,c,-1e-4300\nc,d,1E" + "0" * 4296 + "4300\n"
        g, stats = load_rating_csv(io.StringIO(text))
        assert stats.rows == 3 and g.pos_edge_count == 2 and g.neg_edge_count == 1

    def test_ratio_ratings_sum_exactly(self):
        g, stats = load_rating_csv(io.StringIO("a,b,1/3\nb,a,-2/6\nc,d,-1/7\n"))
        assert stats.zero_sum_pairs == 1
        assert g.node_labels == ["c", "d"] and g.sign(0, 1) == -1

    def test_int_ratings_with_padding_take_the_fast_path_exactly(self):
        g, stats = load_rating_csv(io.StringIO(" a , b , 7 \nb,a,-3\nb,c,+0\n"))
        assert (stats.rows, stats.merged_rows, stats.zero_rating_rows) == (3, 1, 1)
        assert g.node_labels == ["a", "b"] and g.sign(0, 1) == 1

    @pytest.mark.parametrize("text, message", [
        ("\ufeff1,2,1\n2,3,1\n3,1,1\n1,3,1\n", r"node id '\\ufeff1' is not printable UTF-8 text"),
        ("a,b,1\nc\x00,d,1\n", r"node id 'c\\x00' is not printable UTF-8 text"),
        # \x1c is padding to str.strip(), as in a rating, but not inside an id
        ("a,b,1\nc\x1cd,e\x1c,1\n", r"node id 'c\\x1cd' is not printable UTF-8 text"),
        # a byte that is not UTF-8, as errors="surrogateescape" reads it
        ("a,b,1\nc\udcff,d,1\n", r"node id 'c\\udcff' is not printable UTF-8 text"),
    ], ids=["byte-order-mark", "nul", "file-separator-inside", "not-utf-8"])
    def test_unprintable_id_rejected_by_name(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$") as exc:
            load_rating_csv(io.StringIO(text))
        assert exc.value.line is None

    def test_stats_totals(self):
        g, _ = load_rating_csv(io.StringIO("1,2,1\n3,4,-2\n4,3,-2\n"))
        assert (g.node_count, g.edge_count, g.pos_edge_count, g.neg_edge_count) == (4, 2, 1, 1)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="empty input"):
            load_rating_csv(io.StringIO(""))
        with pytest.raises(ParseError, match="empty input"):
            load_rating_csv(io.StringIO("source,target,rating\n"))

    def test_bad_row_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_rating_csv(io.StringIO("1,2,3\n4,5\n"))
        with pytest.raises(ParseError, match="line 3"):
            load_rating_csv(io.StringIO("1,2,3\n4,5,1\n6,7,zebra\n"))
        # A quoted field may span lines; a row's line is the one it ends on.
        spanning = 'a,b,1\n"c\nd",e,1\n'
        with pytest.raises(ParseError, match="^line 4: non-numeric rating 'x'$"):
            load_rating_csv(io.StringIO(spanning + "f,g,x\n"))
        with pytest.raises(ParseError, match="^line 4: zero denominator in rating '1/0'$"):
            load_rating_csv(io.StringIO(spanning + "f,g,1/0\n"))
        with pytest.raises(ParseError, match=r"^line 2: field larger than field limit \(131072\)$"):
            load_rating_csv(io.StringIO("a,b,1\nc," + "x" * 200_000 + ",1\n"))

    def test_blank_lines_ignored(self):
        g, stats = load_rating_csv(io.StringIO("1,2,3\n\n\n2,3,1\n"))
        assert g.edge_count == 2
        assert stats.rows == 2


class TestTrustedConstruction:
    def test_matches_the_validating_constructor(self):
        # Edges in any order and orientation, some twice, fill the same graph.
        rng = random.Random(41)
        for _ in range(30):
            g = random_signed_graph(rng, rng.randint(0, 30), rng.uniform(0, 0.5))
            edges = [(v, u, s) if rng.random() < 0.5 else (u, v, s) for u, v, s in g.edges()]
            edges += rng.sample(edges, len(edges) // 3)
            rng.shuffle(edges)
            h = SignedGraph(g.node_count, edges, ["x"] * g.node_count)
            assert h == g
            assert (h.edge_count, h.pos_edge_count) == (g.edge_count, g.pos_edge_count)
            assert h.node_labels == ["x"] * g.node_count


class TestEdgeList:
    def test_round_trip_exact(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_signed_graph(rng, rng.randint(1, 40), 0.2)
            buf = io.StringIO()
            write_edge_list(g, buf)
            again = load_edge_list(io.StringIO(buf.getvalue()))
            assert again == g
            buf2 = io.StringIO()
            write_edge_list(again, buf2)
            assert buf2.getvalue() == buf.getvalue()

    def test_header_preserves_isolated_nodes(self):
        g = load_edge_list(io.StringIO("# nodes=5\n0 1 +1\n"))
        assert g.node_count == 5
        assert g.edge_count == 1

    def test_without_header_node_count_from_max_id(self):
        g = load_edge_list(io.StringIO("0 3 -1\n"))
        assert g.node_count == 4

    def test_bare_sign_tokens(self):
        g = load_edge_list(io.StringIO("0 1 +\n1 2 -\n"))
        assert g.sign(0, 1) == 1
        assert g.sign(1, 2) == -1

    def test_duplicate_same_sign_ok_conflict_fails(self):
        g = load_edge_list(io.StringIO("0 1 +1\n1 0 +1\n"))
        assert g.edge_count == 1
        with pytest.raises(ParseError, match="conflicting"):
            load_edge_list(io.StringIO("0 1 +1\n1 0 -1\n"))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0 1\n", "expected"),
            ("0 x +1\n", "non-integer"),
            ("0 0 +1\n", "self-loop"),
            ("0 1 5\n", "sign"),
            ("-1 2 +1\n", "non-negative"),
            # int() reads each of these ids, but none is ASCII digits alone
            ("0 1 +1\n0 1_0 +1\n", "^line 2: non-integer node id"),
            ("0 \u0663 +1\n", "^line 1: non-integer node id"),
            ("0 +1 -1\n", "^line 1: non-integer node id"),
            ("# nodes=\u0665\n0 1 +1\n", "^line 1: non-integer node count"),
            ("# nodes=2\n0 5 +1\n", "declares"),
            ("# nodes=2\n0 2 +1\n", "^line 1: header declares 2 nodes but ids reach 2$"),
            ("0 1 +1\n# nodes=2\n0 5 +1\n", "^line 2: header declares 2 nodes but ids reach 5$"),
            ("# nodes=3\n# nodes=9\n0 1 +1\n", r"^line 2: second nodes header \(first on line 1\)$"),
            # str.split() and str.strip() take each of these for whitespace
            ("0\x1c1\x1c+1\n", r"^line 1: character '\\x1c' is not allowed"),
            ("0 1 +1\n0\u20031\u2003+1\n", r"^line 2: character '\\u2003' is not allowed"),
            ("0\u30001\u3000+1\n", r"^line 1: character '\\u3000' is not allowed"),
            ("0 1 +1\x85\n", r"^line 1: character '\\x85' is not allowed"),
            ("\x0c0 1 +1\n", r"^line 1: character '\\x0c' is not allowed"),
            # a byte that is not UTF-8, as errors="surrogateescape" reads it
            ("0 1 +1\n2\udcff 3 +1\n", "^line 2: byte 0xff is not UTF-8$"),
            # past CPython's int-string digit limit, where int() raises
            pytest.param("# nodes=" + "9" * 5000 + "\n0 1 +1\n",
                         "^line 1: node count has too many digits$", id="count-5000-digits"),
            pytest.param("0 1 +1\n0 " + "9" * 5000 + " +1\n",
                         "^line 2: node id has too many digits$", id="id-5000-digits"),
        ],
    )
    def test_malformed_lines(self, text, message):
        with pytest.raises(ParseError, match=message):
            load_edge_list(io.StringIO(text))

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            load_edge_list(io.StringIO("0 1 +1\n1 2 -1\nbroken\n"))

    def test_comments_and_blanks_ignored(self):
        g = load_edge_list(io.StringIO("# a comment\n\n0 1 +1\n# another\n"))
        assert g.edge_count == 1

    def test_ascii_spaces_tabs_and_line_endings_pad_fields(self):
        text = "# nodes=4 \t\r\n \t0\t 1  +1\t\r\n\t\r\n2 3\t-\r\n"
        g = load_edge_list(io.StringIO(text))
        assert g == SignedGraph(4, [(0, 1, 1), (2, 3, -1)])

    def test_writer_emits_sorted_canonical_form(self):
        g = SignedGraph(3, [(2, 1, -1), (1, 0, 1)])
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue() == "# nodes=3\n0 1 +1\n1 2 -1\n"


    def test_load_peaks_near_the_graph_it_keeps(self):
        """The loader fills the graph's own dicts in its one pass, with no
        second copy of the edges: its peak stays below 1.6 times what it
        keeps (a tuple-keyed edge dict put it at 1.64 on this input)."""
        stream = io.StringIO(HK1000.read_text(encoding="utf-8"))
        tracemalloc.start()
        try:
            g = load_edge_list(stream)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (g.node_count, g.edge_count, g.pos_edge_count) == (1000, 5979, 5592)
        assert peak < 1.6 * kept


class TestNodeBound:
    """An edge list names at most MAX_NODES_PER_EDGE * (m + 1) nodes for m
    distinct edges, and a file past that is refused before its node dicts
    are allocated: a refused load peaks far below what 300,000 nodes take."""

    @staticmethod
    def refused_load_peak(text: str, line: int) -> int:
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                load_edge_list(io.StringIO(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.line == line
        assert f"at most {MAX_NODES_PER_EDGE} per edge" in str(exc.value)
        return peak

    @pytest.mark.parametrize(
        "text,line",
        [
            ("0 300000 +1\n", 1),
            ("0 1 +1\n1 2 -1\n0 300000 +1\n2 3 +1\n", 3),  # the largest id's line
            ("# nodes=300000\n0 1 +1\n", 1),
            ("0 1 +1\n# nodes=300000\n", 2),  # the header's line
            ("# nodes=300000\n", 1),
        ],
    )
    def test_past_the_bound_refused_before_allocating(self, text, line):
        assert self.refused_load_peak(text, line) < 1 << 20

    def test_at_the_bound_loads(self):
        at = MAX_NODES_PER_EDGE * 2  # one edge
        assert load_edge_list(io.StringIO(f"# nodes={at}\n0 1 +1\n")).node_count == at
        assert load_edge_list(io.StringIO(f"0 {at - 1} +1\n")).node_count == at
        assert load_edge_list(io.StringIO(f"# nodes={MAX_NODES_PER_EDGE}\n")).node_count == 64
        self.refused_load_peak(f"# nodes={at + 1}\n0 1 +1\n", 1)
        self.refused_load_peak(f"0 {at} +1\n", 1)
        self.refused_load_peak(f"# nodes={MAX_NODES_PER_EDGE + 1}\n", 1)

    def test_duplicate_lines_count_once(self):
        # two distinct edges allow ids below 64 * 3
        text = "0 1 +1\n" * 5 + f"2 {MAX_NODES_PER_EDGE * 3} +1\n"
        self.refused_load_peak(text, 6)

    def test_writer_refuses_what_the_loader_would(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="at most 64 per edge"):
            write_edge_list(SignedGraph(64 * 2 + 1, [(0, 1, 1)]), buf)
        assert buf.getvalue() == ""  # nothing half written
        g = SignedGraph(64 * 2, [(0, 1, 1)])
        write_edge_list(g, buf)
        assert load_edge_list(io.StringIO(buf.getvalue())) == g
