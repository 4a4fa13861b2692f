"""The package names the benchmark under bench/ relies on.

`bench/traced.py` wraps a fixed list of functions and methods with timing
spans, and `bench/run.py` calls the package directly to check outputs. A
renamed or moved name fails the benchmark only when it runs; these tests
fail first. Both scripts are read, never run: `traced.install` is not
called, so nothing is patched.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import balattack
from balattack import SignedGraph, balance, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_traced():
    spec = importlib.util.spec_from_file_location("bench_traced", BENCH / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = _load_traced()
    for module, name, _span, _counters in traced.FUNCTIONS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_every_traced_method_is_defined_on_its_class():
    traced = _load_traced()
    for cls, name, _span in traced.METHODS:
        assert name in cls.__dict__, f"{cls.__name__}.{name}"


def test_every_package_name_the_bench_calls_exists():
    source = (BENCH / "run.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bbalattack\.(\w+)", source))
    assert {"load_edge_list", "verify_perturbation", "select_candidates"} <= names
    for name in sorted(names):
        assert hasattr(balattack, name) or importlib.util.find_spec(f"balattack.{name}"), name
    assert callable(cli.main)  # the bench's entry runs balattack.cli.main


def test_a_table_build_runs_the_census_once_through_the_module_global(monkeypatch):
    # Every workload requires the `balance.census` span, which wraps the
    # module global: a table build that inlined the walk would not fire it.
    calls = []
    census = balance.count_signed_triangles

    def counting(*args, **kwargs):
        calls.append(args)
        return census(*args, **kwargs)

    monkeypatch.setattr(balance, "count_signed_triangles", counting)
    g = SignedGraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, -1), (2, 3, 1), (1, 3, 1)])
    table = balance.TwoPathTable.from_graph(g)
    assert len(calls) == 1 and calls[0][0] is g
    assert table.census == census(g) == (0, 2)
