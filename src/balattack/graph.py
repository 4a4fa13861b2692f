"""Signed-graph container, dataset ingestion, and canonical serialization."""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from typing import IO, Iterable, Iterator, NamedTuple

_SIGN_TOKENS = {"+1": 1, "1": 1, "+": 1, "-1": -1, "-": -1}
_NODES_HEADER = re.compile(r"#\s*nodes\s*=\s*(\d+)\s*$")
# A decimal with an exponent, as Fraction reads it; group 1 is the exponent.
_DECIMAL_EXPONENT = re.compile(
    r"[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?[eE][-+]?(\d+(?:_\d+)*)"
)
# Fraction builds 10**exp exactly, so without a bound a few bytes of rating
# or fraction text could ask for any amount of memory and time. This is
# CPython's default int-string digit limit (sys.get_int_max_str_digits,
# which 3.10.6 and older lack and which can be switched off).
MAX_RATING_EXPONENT = 4300
# An edge list's header or largest id sets its node count, one dict each, so
# a few digits could ask for any amount of memory. Bounding the nodes by the
# distinct edges m, n <= MAX_NODES_PER_EDGE * (m + 1), bounds the memory by
# the file's size; the writer refuses a graph past it, so every file loads.
MAX_NODES_PER_EDGE = 64


class ParseError(ValueError):
    """Malformed input data. `line` is the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SignedGraph:
    """Undirected simple graph whose edges carry a sign, +1 or -1.

    Nodes are contiguous internal ids 0..n-1; `node_labels` optionally maps
    them back to the external ids of the source data. An absent edge means
    "no relation": sign 0 is never stored. The edge support is frozen at
    construction; the only permitted mutation is negating the sign of an
    existing edge, so the degree sequence is invariant for the lifetime of
    the object. Concurrent reads are safe, `flip_edge` needs exclusive
    access.

    Equality compares node count and signed adjacency. Labels are metadata
    and do not participate.
    """

    __slots__ = ("_adj", "_m", "_pos", "node_labels")

    def __init__(
        self,
        node_count: int,
        edges: Iterable[tuple[int, int, int]] = (),
        node_labels: list[str] | None = None,
    ):
        """Check each edge in turn (ids in range, no self-loop, sign +1 or
        -1, no conflict with an earlier sign for its pair; ValueError on the
        first failure) and fill the adjacency as it goes. A pair repeated
        with the same sign counts once."""
        if node_count < 0:
            raise ValueError("node_count must be >= 0")
        if node_labels is not None and len(node_labels) != node_count:
            raise ValueError("node_labels length must equal node_count")
        adj: list[dict[int, int]] = [{} for _ in range(node_count)]
        m = pos = 0
        for u, v, s in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"node id out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop not allowed: {u}")
            if s != 1 and s != -1:
                raise ValueError(f"edge sign must be +1 or -1, got {s}")
            if adj[u].setdefault(v, s) != s:
                raise ValueError(f"conflicting signs for edge ({u}, {v})")
            if u not in adj[v]:
                adj[v][u] = s
                m += 1
                pos += s > 0
        self._adj, self._m, self._pos, self.node_labels = adj, m, pos, node_labels

    @classmethod
    def _adopt(
        cls, adj: list[dict[int, int]], m: int, pos: int, labels: list[str] | None = None
    ) -> "SignedGraph":
        """A graph that takes over `adj`, a valid symmetric adjacency with
        m edges, pos of them positive. Checks nothing."""
        g = cls.__new__(cls)
        g._adj, g._m, g._pos, g.node_labels = adj, m, pos, labels
        return g

    def without(self, edges: Iterable[tuple[int, int, int]]) -> "SignedGraph":
        """A copy with the same node count, less the listed edges: each at
        most once, as `edges()` yields them, signs read from this graph. The
        copy carries no node labels, and this graph is left unchanged."""
        adj = [dict(d) for d in self._adj]
        m, pos = self._m, self._pos
        for u, v, _s in edges:
            del adj[v][u]
            m -= 1
            pos -= adj[u].pop(v) > 0
        return SignedGraph._adopt(adj, m, pos)

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._m

    @property
    def pos_edge_count(self) -> int:
        return self._pos

    @property
    def neg_edge_count(self) -> int:
        return self._m - self._pos

    def sign(self, u: int, v: int) -> int:
        """Sign of edge {u,v}; raises ValueError if the pair is not an edge."""
        if not (0 <= u < len(self._adj)) or v not in self._adj[u]:
            raise ValueError(f"not an edge: ({u}, {v})")
        return self._adj[u][v]

    def adjacency(self, u: int) -> dict[int, int]:
        """Neighbor -> sign mapping for u. Treat as read-only."""
        if not (0 <= u < len(self._adj)):
            raise ValueError(f"node id out of range: {u}")
        return self._adj[u]

    def adjacencies(self) -> list[dict[int, int]]:
        """Every node's neighbor -> sign mapping, indexed by id. The dicts
        are the graph's own, so flips show in them. Treat as read-only."""
        return list(self._adj)

    def degree_sequence(self) -> list[int]:
        """Unsigned degrees, ascending. Invariant under any sign flips."""
        return sorted(len(d) for d in self._adj)

    def flip_edge(self, u: int, v: int) -> int:
        """Negate the sign of existing edge {u,v}; an involution. Returns
        the sign before the flip."""
        a = self.sign(u, v)
        self._adj[u][v] = self._adj[v][u] = -a
        self._pos -= a
        return a

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, sign) with u < v in sorted pair order."""
        for u, nbrs in enumerate(self._adj):
            for v in sorted(nbrs):
                if v > u:
                    yield u, v, nbrs[v]

    def copy(self) -> "SignedGraph":
        labels = list(self.node_labels) if self.node_labels is not None else None
        return SignedGraph._adopt([dict(d) for d in self._adj], self._m, self._pos, labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return (
            f"<SignedGraph n={self.node_count} m={self._m} "
            f"+{self._pos}/-{self._m - self._pos}>"
        )


class LoadStats(NamedTuple):
    """What became of a rating CSV's rows; the graph keeps its own counts."""

    rows: int = 0
    header_skipped: bool = False
    zero_rating_rows: int = 0
    self_loop_rows: int = 0
    merged_rows: int = 0
    zero_sum_pairs: int = 0


def parse_fraction(text: str, what: str) -> Fraction:
    """Exact value of number text, `what` naming it in errors. ValueError
    on text that is no number; ParseError on a zero denominator, nan or an
    infinity, none of which may sum into a total and land on a sign, on a
    decimal exponent beyond +-MAX_RATING_EXPONENT, and on more digits than
    CPython converts to an int."""
    text = text.strip()
    exp = _DECIMAL_EXPONENT.fullmatch(text)
    if exp:
        digits = exp.group(1).replace("_", "")  # more digits than the bound: over it
        if len(digits) > MAX_RATING_EXPONENT or int(digits) > MAX_RATING_EXPONENT:
            raise ParseError(
                f"exponent of {what} {text!r} exceeds {MAX_RATING_EXPONENT} in magnitude"
            )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {what} {text!r}") from None
    except ValueError:
        float(text)  # ValueError on garbage
        if text.lstrip("+-").lower() in ("nan", "inf", "infinity"):
            raise ParseError(f"non-finite {what} {text!r}") from None
        # float() reads the rest, rounding to inf or 0.0; Fraction stops
        # at the int-string digit limit.
        raise ParseError(f"{what} {text[:20]!r}... has too many digits") from None


def load_rating_csv(stream: Iterable[str]) -> tuple[SignedGraph, LoadStats]:
    """Load a directed rating CSV (`source,target,rating[,time]`) as an
    undirected signed graph.

    A first row whose rating field is missing or non-numeric is treated as a
    header. Ratings are read exactly: integers as ints, anything else
    (decimals, exponents, `a/b`) as a Fraction, so float rounding never
    decides a sign. Self-loop rows and zero-rated rows are dropped (and
    counted). All surviving rows for one unordered pair are summed, and the
    edge takes the sign of the total; a total of exactly 0 drops the pair.
    External ids are compacted to 0..n-1 in first appearance order and kept
    in `node_labels`. Nodes seen only in dropped rows are omitted.

    Returns the graph and the load statistics. Raises ParseError for rows
    the csv module refuses (a field past `csv.field_size_limit()`), for
    malformed rows, for nan, infinite or zero-denominator ratings, exponents
    past MAX_RATING_EXPONENT and ratings with too many digits, each with the
    number of the line the row ends on; on input with no data rows; and,
    naming it but no line, for a node id of an edge that is not printable
    after stripping: a byte-order mark, a control character, or a byte that
    is not UTF-8 (as errors="surrogateescape" reads it).
    """
    import csv  # only rating CSVs need it
    sums: dict[tuple[str, str], int | Fraction] = {}
    get = sums.get
    rows = self_loops = zero_ratings = 0
    header_skipped = False
    reader = csv.reader(stream)  # its line_num counts the lines a quoted field spans
    try:
        for i, row in enumerate(reader, 1):
            try:
                rating: int | Fraction = int(row[2])
            except (IndexError, ValueError):
                if not any(f.strip() for f in row):
                    continue  # blank row
                try:
                    rating = parse_fraction(row[2], "rating")
                except ParseError as exc:
                    raise ParseError(str(exc), reader.line_num) from None
                except (IndexError, ValueError):
                    if i == 1:
                        header_skipped = True
                        continue
                    problem = (f"non-numeric rating {row[2]!r}" if len(row) >= 3 else
                               f"expected source,target,rating[,time], got {len(row)} fields")
                    raise ParseError(problem, reader.line_num) from None
            rows += 1
            src, dst = row[0].strip(), row[1].strip()
            if src == dst:
                self_loops += 1
                continue
            if not rating:
                zero_ratings += 1
                continue
            key = (src, dst) if src <= dst else (dst, src)
            sums[key] = get(key, 0) + rating
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise ParseError(str(exc), reader.line_num) from None
    if rows == 0:
        raise ParseError("empty input: no data rows")

    # Distinct unordered label pairs map to distinct id pairs: no checks needed.
    ids: dict[str, int] = {}
    adj: list[dict[int, int]] = []
    m = pos = 0
    for (a, b), total in sums.items():
        if total:
            u = ids.get(a)
            if u is None:
                u = ids[a] = len(adj)
                adj.append({})
            v = ids.get(b)
            if v is None:
                v = ids[b] = len(adj)
                adj.append({})
            adj[u][v] = adj[v][u] = s = 1 if total > 0 else -1
            m += 1
            pos += s > 0
    if not all(map(str.isprintable, ids)):  # once per distinct label, not per row
        label = next(x for x in ids if not x.isprintable())
        raise ParseError(f"node id {label!r} is not printable UTF-8 text")
    g = SignedGraph._adopt(adj, m, pos, list(ids))
    merged = rows - self_loops - zero_ratings - len(sums)  # each other row met its pair
    return g, LoadStats(rows, header_skipped, zero_ratings, self_loops, merged, len(sums) - m)


def load_edge_list(stream: Iterable[str]) -> SignedGraph:
    """Load the canonical edge-list format: `u v s` lines, s in {+1,-1}
    (also accepted: bare `+`/`-`), plus an optional `# nodes=<n>` header.
    Node ids and the header's n are ASCII digits, nothing else, and no
    more of them than CPython converts to an int. Fields are separated by
    ASCII spaces and tabs, and only those and a line ending (`\n`, `\r\n`)
    may pad a line: any other whitespace or control character, in a comment
    too, is a ParseError.

    Duplicate pairs with the same sign are tolerated; a conflicting
    duplicate, a self-loop, an invalid sign, a second `# nodes=` header, a
    header below the largest id, or more than MAX_NODES_PER_EDGE * (m + 1)
    nodes for m distinct edges is a ParseError. The last names the header's
    line, or else the largest id's, and comes before any node that no edge
    names is allocated.
    """
    declared_n: int | None = None
    header_line = max_line = 0
    named: defaultdict[int, dict[int, int]] = defaultdict(dict)  # the ids edges name
    max_id = -1
    for lineno, raw in enumerate(stream, 1):
        line = raw.strip(" \t\r\n")
        if not line:
            continue
        if not line.isprintable() and not line.replace("\t", " ").isprintable():
            # str.split() would take \x1c or U+3000 for a separator
            bad = next(c for c in line if c != "\t" and not c.isprintable())
            # errors="surrogateescape" reads a byte that is not UTF-8 as U+DC80..U+DCFF
            if "\udc80" <= bad <= "\udcff":
                raise ParseError(f"byte 0x{ord(bad) - 0xDC00:02x} is not UTF-8", lineno)
            raise ParseError(f"character {bad!r} is not allowed: fields are separated "
                             "by ASCII spaces and tabs", lineno)
        if line.startswith("#"):
            header = _NODES_HEADER.match(line)
            if header:
                digits = header.group(1)
                if not digits.isascii():
                    raise ParseError(f"non-integer node count {digits!r}", lineno)
                if declared_n is not None:
                    raise ParseError(f"second nodes header (first on line {header_line})", lineno)
                try:
                    declared_n, header_line = int(digits), lineno
                except ValueError:  # past CPython's int-string digit limit
                    raise ParseError("node count has too many digits", lineno) from None
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'u v s', got {len(parts)} fields", lineno)
        a, b, sign = parts
        if not (a.isdigit() and b.isdigit() and a.isascii() and b.isascii()):
            # int() would also read "1_0", "+1" and non-ASCII digits
            negative = any(t[:1] == "-" and t[1:].isdigit() and t.isascii() for t in (a, b))
            raise ParseError("node ids must be non-negative" if negative
                             else f"non-integer node id in {line!r}", lineno)
        try:
            u, v = int(a), int(b)
        except ValueError:  # past CPython's int-string digit limit
            raise ParseError("node id has too many digits", lineno) from None
        if u == v:
            raise ParseError(f"self-loop on node {u}", lineno)
        s = _SIGN_TOKENS.get(sign)
        if s is None:
            raise ParseError(f"sign must be +1 or -1, got {sign!r}", lineno)
        if named[u].setdefault(v, s) != s:
            raise ParseError(f"conflicting duplicate for edge {(min(u, v), max(u, v))}", lineno)
        named[v][u] = s
        if v > max_id or u > max_id:
            max_id, max_line = max(u, v), lineno
    if declared_n is not None and declared_n <= max_id:
        raise ParseError(f"header declares {declared_n} nodes but ids reach {max_id}", header_line)
    n = max_id + 1 if declared_n is None else declared_n
    m = sum(map(len, named.values())) // 2  # each edge is in both ends' dicts
    if n > MAX_NODES_PER_EDGE * (m + 1):
        raise ParseError(f"{n} nodes for {m} edges: at most {MAX_NODES_PER_EDGE} per edge, "
                         f"plus {MAX_NODES_PER_EDGE}", header_line or max_line)
    signs = sum(sum(nbrs.values()) for nbrs in named.values()) // 2  # pos - neg
    # A named id's dict is never empty; only the ids no edge names get a new one.
    return SignedGraph._adopt([named.get(u) or {} for u in range(n)], m, (m + signs) // 2)


def write_edge_list(g: SignedGraph, stream: IO[str]) -> None:
    """Write the canonical edge list: node-count header, then `u v s` with
    u < v in sorted order. Round-trips bit-exactly through load_edge_list.
    ValueError, before anything is written, for a graph that the loader
    would refuse: more than MAX_NODES_PER_EDGE * (m + 1) nodes."""
    if g.node_count > MAX_NODES_PER_EDGE * (g.edge_count + 1):
        raise ValueError(f"{g.node_count} nodes for {g.edge_count} edges: an edge list "
                         f"allows at most {MAX_NODES_PER_EDGE} per edge, plus {MAX_NODES_PER_EDGE}")
    stream.write(f"# nodes={g.node_count}\n")
    for u, v, s in g.edges():
        stream.write(f"{u} {v} {'+1' if s > 0 else '-1'}\n")
