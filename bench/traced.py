"""Run the balattack CLI with a timing span around each layer's public names.

    python3 bench/traced.py SPANS.json CLI_ARGS...

The package is imported unchanged. This script replaces the public names in
FUNCTIONS and METHODS with timing wrappers: functions on the defining module
and on every package module that imported them with `from ... import`,
since such a call would otherwise bypass the wrapper; methods on their
class. Spans are kept in memory and written to SPANS.json as
`[name, parent_index, start, end, counters]` rows once the command returns.
The exit code is the command's own, or 3 when a traced name is missing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

from balattack import attack, balance, cli, graph, prediction
from balattack.attack import AttackTrace
from balattack.balance import TwoPathTable
from balattack.graph import SignedGraph

MODULES = (graph, balance, attack, prediction, cli)


def _attack_counters(args, result) -> dict:
    records = result[1].records
    return {"flips": len(records), "useful": sum(r.delta_trace < 0 for r in records)}


# (defining module, public name, span name, counters(args, result) or None)
FUNCTIONS = (
    (graph, "load_edge_list", "graph.load", None),
    (graph, "load_rating_csv", "graph.load", None),
    (graph, "write_edge_list", "graph.write", None),
    (balance, "count_signed_triangles", "balance.census", None),
    (attack, "run_balance_attack", "attack.run", _attack_counters),
    (attack, "run_random_attack", "attack.run", _attack_counters),
    (attack, "apply_flips", "attack.replay", None),
    (prediction, "attack_eval_pipeline", "prediction.pipeline", None),
    (prediction, "split_edges", "prediction.split", None),
    (prediction, "evaluate_on_split", "prediction.eval",
     lambda args, report: {"test_edges": report.total}),
)
# (class, method name, span name); from_graph is a classmethod.
METHODS = (
    (SignedGraph, "copy", "graph.copy"),
    (TwoPathTable, "from_graph", "balance.table_build"),
    (TwoPathTable, "apply_flip", "balance.apply_flip"),
    (AttackTrace, "write_csv", "attack.trace_write"),
)


class Tracer:
    """In-memory span recorder. `patched` counts two-path table entries
    that `apply_flip` calls touch: two per common neighbour of u and v."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.patched = 0
        self._open: list[int] = []

    def wrap(self, span: str, fn, counters=None):
        """`fn` timed as `span`; `counters(args, result)` runs after the
        span's interval closes."""
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [span, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(row)
            row[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
            if counters is not None:
                row[4] = counters(args, result)
            return result

        return traced

    def wrap_loader(self, fn):
        """A loader whose span counts the lines it pulls from its stream."""
        rows = 0

        def lines(stream):
            nonlocal rows
            for line in stream:
                rows += 1
                yield line

        def load(stream, *args, **kwargs):
            nonlocal rows
            rows = 0
            return fn(lines(stream), *args, **kwargs)

        return self.wrap("graph.load", functools.wraps(fn)(load), lambda a, r: {"rows": rows})

    def wrap_apply_flip(self, fn):
        timed = self.wrap("balance.apply_flip", fn)

        @functools.wraps(fn)
        def apply_flip(table, u, v):
            g = table.graph
            self.patched += 2 * len(g.adjacency(u).keys() & g.adjacency(v).keys())
            return timed(table, u, v)

        return apply_flip


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced name; returns the names that could not be found."""
    missing = []
    for home, name, span, counters in FUNCTIONS:
        original = getattr(home, name, None)
        if original is None:
            missing.append(f"{home.__name__}.{name}")
            continue
        if span == "graph.load":
            wrapped = tracer.wrap_loader(original)
        else:
            wrapped = tracer.wrap(span, original, counters)
        for mod in MODULES:
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)
    for cls, name, span in METHODS:
        original = cls.__dict__.get(name)
        if original is None:
            missing.append(f"{cls.__name__}.{name}")
        elif isinstance(original, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(span, original.__func__)))
        elif span == "balance.apply_flip":
            setattr(cls, name, tracer.wrap_apply_flip(original))
        else:
            setattr(cls, name, tracer.wrap(span, original))
    return missing


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    missing = install(tracer)
    if missing:
        print(f"traced.py: not found: {', '.join(missing)}", file=sys.stderr)
        return 3
    try:
        return tracer.wrap("cli.main", cli.main)(argv[1:])
    finally:
        out.write_text(
            json.dumps({"spans": tracer.spans, "patched": tracer.patched}),
            encoding="utf-8",
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
