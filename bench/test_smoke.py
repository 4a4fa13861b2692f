"""Smoke test of the benchmark at tiny scale (n=200).

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import gen
import run

TINY = 200
SEED = 3


def tiny(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], n=TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_passes_gate_and_reports_every_metric(name, trace):
    end_to_end, per_layer = run.benchmark_metrics()
    wanted = per_layer if trace else end_to_end
    # seconds=0 makes the fewest runs: MIN_RUNS full runs, or one traced pair.
    result = run.run_one(tiny(name), SEED, 0.0, trace, None, wanted)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= (2 if trace else run.SETUP_RUNS + run.MIN_RUNS)
    assert list(result["metrics"]) == wanted


def test_gate_rejects_an_extra_sign_change():
    w = tiny("attack-batched")
    s = run.Session(w, SEED, None)
    try:
        first = s.run("setup")
        assert first.ok, s.problems
        out = s.work / "out"
        trace_row = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[2]
        attacked = trace_row.split(",")[1:3]
        lines = (out / "graph.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines[1:], 1) if line.split()[:2] != attacked)
        u, v, sign = lines[i].split()
        lines[i] = f"{u} {v} {'-1' if sign == '+1' else '+1'}\n"
        (out / "graph.txt").write_text("".join(lines), encoding="utf-8")
        problems, _ = run.check_outputs(w, w.setup_budget, s.inputs, out, first)
        assert any("threat model" in p for p in problems), problems
    finally:
        s.close()


def test_generator_is_deterministic_and_sized():
    a = gen.holme_kim(TINY, 6, 0.6, 0.07, random.Random(SEED))
    b = gen.holme_kim(TINY, 6, 0.6, 0.07, random.Random(SEED))
    assert a == b
    assert len(a) == 6 * 7 // 2 + 6 * (TINY - 7)
    assert gen.rating_csv_text(a, random.Random(1)) == gen.rating_csv_text(b, random.Random(1))
