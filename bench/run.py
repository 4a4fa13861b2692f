"""Benchmark of balattack's `attack` and `eval` CLI commands.

One workload, with the result as a JSON object on the last stdout line:

    python3 bench/run.py --workload attack-seq --seed 1 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
`--trace 1` reports the per-layer metrics of a traced run (bench/traced.py).
Without `--workload` every workload runs in both modes and the report is
printed; `--record` does the same at the default seed and writes the output
digests, input shapes and per-layer self-time shares to bench/baseline.json.

Inputs are generated from the seed (bench/gen.py) outside every timed
region. Each command runs in its own child process, one at a time (a closed
loop, single client). Every run passes through a correctness gate outside
the timed region; at the default seed the output digests must also equal
the recorded ones. The exit code is non-zero when any run fails the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline.json"

sys.path.insert(0, str(SRC))
try:
    import balattack
except ImportError:  # main() reports it and exits non-zero
    balattack = None

DEFAULT_SEED = 1
SETUP_RUNS = 5  # at least; more until SETUP_SECONDS are used
SETUP_SECONDS = 5.0
MIN_RUNS = 2
CALIB_RUNS = 5
# Holme-Kim shape: k=6 edges per new node gives Bitcoin-Alpha's m at
# n=3,784. p_triad=0.6 leaves the 20% greedy attack candidates to spare on
# every seed tried; at 0.5 seed 1 ran out after 4,487 of 4,537 flips.
HK_K = 6
HK_P_TRIAD = 0.6
NEG_FRAC = 0.07

ENTRY = "import sys; from balattack.cli import main; sys.exit(main(sys.argv[1:]))"
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "BALATTACK_LOG": "WARNING",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    args: tuple[str, ...]  # the command without --input, --budget and outputs
    budget: str
    setup_budget: str  # the same command with its attack work removed
    spans: frozenset[str]  # spans the traced run must record

    @property
    def is_eval(self) -> bool:
        return self.args[0] == "eval"


_COMMON_SPANS = {
    "cli.main", "graph.load", "graph.copy", "balance.census",
    "balance.table_build", "balance.apply_flip", "attack.run",
}
# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "attack-seq", 3784, ("attack", "--mode", "balance"), "0.05,0.1,0.2", "0.00001",
            frozenset(_COMMON_SPANS | {"graph.write", "attack.trace_write", "attack.replay"}),
        ),
        Workload(
            "attack-batched", 3784, ("attack", "--mode", "balance-batched", "--batch-size", "10"),
            "0.2", "0.00001",
            frozenset(_COMMON_SPANS | {"graph.write", "attack.trace_write"}),
        ),
        Workload(
            "eval-random", 20000, ("eval", "--mode", "random"), "0,0.1,0.2", "0",
            frozenset(_COMMON_SPANS | {"prediction.pipeline", "prediction.split",
                                       "prediction.eval"}),
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    path: Path
    graph: object  # balattack.SignedGraph, as the CLI loads it
    shape: dict


def make_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    """Write the workload's input for `seed`; untimed."""
    rng = random.Random(seed)
    edges = gen.holme_kim(w.n, HK_K, HK_P_TRIAD, NEG_FRAC, rng)
    if w.is_eval:
        path = work / "ratings.csv"
        path.write_text(gen.rating_csv_text(edges, rng), encoding="utf-8")
        with path.open(encoding="utf-8", newline="") as f:
            g, stats = balattack.load_rating_csv(f)
        rows = stats.rows
    else:
        path = work / "graph.txt"
        path.write_text(gen.edge_list_text(w.n, edges), encoding="utf-8")
        with path.open(encoding="utf-8") as f:
            g = balattack.load_edge_list(f)
        rows = None
    rep = balattack.balance_degree(g)
    shape = {
        "n": g.node_count, "m": g.edge_count, "rating_rows": rows,
        "triangles": rep.triangles, "d3": rep.d3_float(),
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }
    return Inputs(path, g, shape)


# ---------------------------------------------------------------------------
# child runs


@dataclass
class Run:
    start: float  # perf_counter (CLOCK_MONOTONIC, shared with the child)
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    ok: bool = True


def run_child(cmd: list[str], work: Path) -> Run:
    """Run `cmd` to completion; wall time and peak RSS from wait4."""
    out_path, err_path = work / "child.out", work / "child.err"
    with out_path.open("w") as out, err_path.open("w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=CHILD_ENV, cwd=work, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        t0, wall, usage.ru_maxrss / 1024, proc.returncode,
        out_path.read_text(), err_path.read_text(),
    )


def cli_args(w: Workload, budget: str, inp: Path, out: Path) -> list[str]:
    args = [*w.args, "--input", str(inp), "--budget", budget]
    if w.is_eval:
        return args + ["--out-csv", str(out / "eval.csv")]
    return args + ["--out-graph", str(out / "graph.txt"), "--out-trace", str(out / "trace.csv")]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# correctness gate


def budget_edges(token: str, m: int) -> int:
    return min(m, max(1, round(Fraction(token) * m)))


def _budget_file(out: Path, name: str, token: str, multi: bool) -> Path:
    p = out / name
    return p.with_name(f"{p.stem}.b{token}{p.suffix}") if multi else p


def check_outputs(w: Workload, budget: str, inp: Inputs, out: Path, run: Run) -> tuple[list[str], dict]:
    """Problems found in one run's outputs, and the sha256 of each output
    file (manifests excluded: they carry timestamps and durations)."""
    if run.code != 0:
        return [f"exit code {run.code}: {run.stderr.strip()[-300:]}"], {}
    problems: list[str] = []
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if not p.name.endswith(".manifest.json")
    }
    tokens = budget.split(",")
    if w.is_eval:
        lines = (out / "eval.csv").read_text(encoding="utf-8").splitlines()[2:]
        cells = [tuple(line.split(",")[1:3]) for line in lines]
        expected = {(w.args[2], repr(float(Fraction(t)))) for t in tokens}
        if len(cells) != len(expected) or set(cells) != expected:
            problems.append(f"eval rows {sorted(cells)} != one per (mode, budget) {sorted(expected)}")
        return problems, digests

    status = {}
    for line in run.stdout.splitlines():
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        status[fields.get("budget")] = fields
    multi = len(tokens) > 1
    for token in tokens:
        k = budget_edges(token, inp.graph.edge_count)
        with _budget_file(out, "graph.txt", token, multi).open(encoding="utf-8") as f:
            poisoned = balattack.load_edge_list(f)
        report = balattack.verify_perturbation(inp.graph, poisoned, k)
        if not report.ok:
            problems.append(f"budget {token}: threat model violated\n{report}")
        line = status.get(token, {})
        if line.get("status") != "budget_exhausted":
            problems.append(f"budget {token}: status {line.get('status')!r}")
        rows = _budget_file(out, "trace.csv", token, multi).read_text(encoding="utf-8")
        rows = rows.splitlines()[2:]
        if len(rows) != k:
            problems.append(f"budget {token}: {len(rows)} trace rows, budget {k}")
        d3 = repr(float(balattack.balance_degree(poisoned).d3))
        if not rows or rows[-1].rsplit(",", 1)[1] != d3:
            problems.append(f"budget {token}: last trace d3 != census d3 {d3}")
    return problems, digests


# ---------------------------------------------------------------------------
# measurement


def calibrate() -> list[float]:
    """Times of a fixed pure-Python loop: a reading of host speed."""
    times = []
    for _ in range(CALIB_RUNS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Session:
    """One workload at one seed: its inputs, gate and run counts."""

    def __init__(self, w: Workload, seed: int, expected_digests: dict | None):
        self.w = w
        self.seed = seed
        self.expected = expected_digests
        self.work = fresh_dir(ROOT / ".bench_work" / f"{w.name}-{os.getpid()}")
        self.inputs = make_inputs(w, seed, self.work)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def run(self, variant: str, traced: Path | None = None) -> Run:
        """One gated run of `variant` ("setup" or "full"), traced when
        `traced` names the file for the spans."""
        budget = self.w.setup_budget if variant == "setup" else self.w.budget
        out = fresh_dir(self.work / "out")
        args = cli_args(self.w, budget, self.inputs.path, out)
        if traced is None:
            cmd = [sys.executable, "-c", ENTRY, *args]
        else:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(traced), *args]
        run = run_child(cmd, self.work)
        self.attempted += 1
        try:
            problems, digests = check_outputs(self.w, budget, self.inputs, out, run)
        except (OSError, ValueError, IndexError) as exc:
            problems, digests = [f"unreadable output: {exc!r}"], {}
        for name, digest in digests.items():
            key = f"{variant}/{name}"
            seen = self.digests.setdefault(key, digest)
            if seen != digest:
                problems.append(f"{key}: output differs between runs")
            if self.expected is not None and self.expected.get(key) != digest:
                problems.append(f"{key}: sha256 {digest[:12]} != recorded "
                                f"{str(self.expected.get(key))[:12]}")
        if self.expected is not None:
            made = {f"{variant}/{name}" for name in digests}
            absent = {k for k in self.expected if k.startswith(variant + "/")} - made
            problems += [f"{k}: output missing" for k in sorted(absent)]
        self.fail(f"{variant}{' traced' if traced else ''} run {self.attempted}", problems)
        run.ok = not problems
        return run

    def fail(self, tag: str, problems: list[str]) -> None:
        """Count the latest run as failed if `problems` is not empty."""
        if problems:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in problems]


def measure_end_to_end(s: Session, seconds: float) -> dict[str, list[float]]:
    """Samples of wall_s and peak_rss_mb from full runs filling `seconds`,
    and of setup_s from runs with the attack work removed, at least
    SETUP_RUNS and until SETUP_SECONDS are used."""
    setup: list[float] = []
    while len(setup) < SETUP_RUNS or sum(setup) < SETUP_SECONDS:
        setup.append(s.run("setup").wall_s)
    walls: list[float] = []
    rss: list[float] = []
    while len(walls) < MIN_RUNS or sum(walls) + statistics.median(walls) <= seconds:
        run = s.run("full")
        walls.append(run.wall_s)
        rss.append(run.rss_mb)
    return {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}


def span_table(doc: dict) -> tuple[dict, dict, Counter, Counter]:
    """Per span name: total time, self time, calls and summed counters."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _name, parent, start, end, _c in spans:
        if parent is not None:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counters: Counter = Counter()
    for i, (name, _parent, start, end, c) in enumerate(spans):
        total[name] += end - start
        self_s[name] += end - start - child[i]
        calls[name] += 1
        for key, value in (c or {}).items():
            counters[f"{name}.{key}"] += value
    return total, self_s, calls, counters


def layer_metrics(doc: dict, run: Run, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and each layer's self-time
    share of the traced wall time. The child's spans use the parent's
    clock, so the time before and after `main` splits off exactly."""
    total, self_s, calls, counters = span_table(doc)
    traced_wall = run.wall_s
    main_span = next(row for row in doc["spans"] if row[0] == "cli.main")
    startup = main_span[2] - run.start
    exit_s = traced_wall - startup - total["cli.main"]
    shares = {name: t / traced_wall for name, t in sorted(self_s.items())}
    shares["cli.startup"] = startup / traced_wall
    shares["cli.exit"] = exit_s / traced_wall
    flips = counters["attack.run.flips"]
    metrics = {
        "graph.load.s": total["graph.load"],
        "graph.load.rows": counters["graph.load.rows"],
        "graph.write.s": total["graph.write"],
        "graph.copy.s": total["graph.copy"],
        "balance.census.s": total["balance.census"],
        "balance.census.calls": calls["balance.census"],
        "balance.table_build.s": total["balance.table_build"],
        "balance.table_build.calls": calls["balance.table_build"],
        "balance.apply_flip.s": total["balance.apply_flip"],
        "balance.apply_flip.calls": calls["balance.apply_flip"],
        "balance.apply_flip.patched": doc["patched"],
        "attack.run.s": total["attack.run"],
        "attack.select.self_s": self_s["attack.run"],
        "attack.flips": flips,
        "attack.useful_flip_ratio": counters["attack.run.useful"] / flips if flips else 0.0,
        "attack.replay.s": total["attack.replay"],
        "attack.trace_write.s": total["attack.trace_write"],
        "prediction.pipeline.self_s": self_s["prediction.pipeline"],
        "prediction.split.s": total["prediction.split"],
        "prediction.eval.s": total["prediction.eval"],
        "prediction.eval.test_edges": counters["prediction.eval.test_edges"],
        "cli.self_s": self_s["cli.main"],
        "cli.startup_s": startup,
        "cli.exit_s": exit_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return metrics, shares


def measure_layers(s: Session, seconds: float) -> tuple[dict, dict, int]:
    """Alternate untraced and traced full runs until `seconds` are used;
    per-layer metrics come from the traced run with the median wall time.
    Returns metrics, self-time shares and the number of traced runs."""
    spans_path = s.work / "spans.json"
    untraced: list[float] = []
    traced: list[tuple[Run, dict]] = []
    pairs: list[float] = []
    while not pairs or sum(pairs) + statistics.median(pairs) <= seconds:
        untraced.append(s.run("full").wall_s)
        spans_path.unlink(missing_ok=True)
        run = s.run("full", traced=spans_path)
        if not run.ok:
            return {}, {}, 0
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        silent = s.w.spans - {row[0] for row in doc["spans"]}
        s.fail("traced run", [f"spans never fired: {sorted(silent)}"] if silent else [])
        traced.append((run, doc))
        pairs.append(untraced[-1] + run.wall_s)
    traced.sort(key=lambda t: t[0].wall_s)
    run, doc = traced[(len(traced) - 1) // 2]
    metrics, shares = layer_metrics(doc, run, statistics.median(untraced))
    g = s.inputs.graph
    metrics["attack.candidates0"] = len(
        balattack.select_candidates(g, balattack.TwoPathTable.from_graph(g))
    )
    return metrics, shares, len(traced)


# ---------------------------------------------------------------------------
# reporting


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def load_baseline() -> dict:
    if BASELINE.exists():
        return json.loads(BASELINE.read_text(encoding="utf-8"))
    return {}


def benchmark_metrics() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def describe_input(s: Session) -> str:
    shape = ", ".join(f"{k}={v}" for k, v in s.inputs.shape.items() if k != "sha256")
    return f"# {s.w.name} seed={s.seed} input: {shape}"


def describe_calib(times: list[float]) -> tuple[str, float]:
    q1, med, q3 = quartiles(times)
    return (f"# host.calib_s median={med:.4f} s iqr={q3 - q1:.4f} s "
            f"samples={len(times)} (host speed, information only)"), med


def run_one(w: Workload, seed: int, seconds: float, trace: bool,
            expected: dict | None, wanted: list[str] | None = None) -> dict:
    """Measure one workload in one mode and print its report. Returns the
    result object (correct, attempted, failed, metrics) plus extras."""
    s = Session(w, seed, expected)
    try:
        print(describe_input(s))
        calib_line, calib = describe_calib(calibrate())
        print(calib_line)
        if trace:
            values, shares, n = measure_layers(s, seconds)
            if values:
                values["host.calib_s"] = calib
            notes = {k: f"from the median-wall run of {n} traced runs" for k in values}
        else:
            samples = measure_end_to_end(s, seconds)
            values, notes, shares = {}, {}, {}
            for name, xs in samples.items():
                q1, values[name], q3 = quartiles(xs)
                notes[name] = f"samples={len(xs)} q1={q1:.6g} q3={q3:.6g}"
        if wanted is not None and not s.problems:
            values = {k: values[k] for k in wanted}
        for name, value in values.items():
            print(f"{name:28} {value:>14.6g} {unit_of(name):6} {notes[name]}")
        print(f"{'fail_rate':28} {s.failed / max(s.attempted, 1):>14.6g} ratio  "
              f"failed={s.failed} attempted={s.attempted}")
        if shares:
            print("# self-time shares of the traced wall time (they sum to 1): " + ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        for p in s.problems:
            print(f"# FAIL {p}", file=sys.stderr)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        return {
            "correct": not s.problems, "attempted": max(s.attempted, 1),
            "failed": s.failed, "metrics": metrics,
            "digests": s.digests, "input": s.inputs.shape, "shares": shares,
        }
    finally:
        s.close()


def expected_digests(w: Workload, seed: int, baseline: dict | None) -> dict | None:
    """Recorded digests apply to the default seed at full scale only."""
    if baseline is None or seed != DEFAULT_SEED or WORKLOADS.get(w.name) != w:
        return None
    return baseline.get("workloads", {}).get(w.name, {}).get("digests", {})


def baseline_entry(plain: dict, traced: dict) -> dict:
    layers = traced["metrics"]
    return {
        "input": plain["input"],
        "digests": plain["digests"],
        "wall_s": plain["metrics"]["wall_s"]["value"],
        "setup_s": plain["metrics"]["setup_s"]["value"],
        "traced_wall_s": layers["trace.wall_s"]["value"],
        "census_calls": layers["balance.census.calls"]["value"],
        "self_time_shares": {k: round(v, 4) for k, v in traced["shares"].items()},
    }


def record(entries: dict[str, dict]) -> None:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    doc = {
        "seed": DEFAULT_SEED,
        "commit": commit,
        "workloads": entries,
    }
    BASELINE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"# wrote {BASELINE.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true",
                        help="write bench/baseline.json from a run of every "
                        "workload at the default seed")
    args = parser.parse_args(argv)
    if balattack is None or not (SRC / "balattack").is_dir() or not (ROOT / "BENCHMARK.json").exists():
        print(f"error: no balattack package under {SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    if args.record and (args.workload or args.seed != DEFAULT_SEED):
        parser.error("--record runs every workload at the default seed")
    baseline = None if args.record else load_baseline()

    if args.workload:
        w = WORKLOADS[args.workload]
        trace = bool(args.trace)
        e2e, layers = benchmark_metrics()
        result = run_one(w, args.seed, args.seconds, trace,
                         expected_digests(w, args.seed, baseline), layers if trace else e2e)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    ok = True
    entries: dict[str, dict] = {}
    for w in WORKLOADS.values():
        expected = expected_digests(w, args.seed, baseline)
        plain = run_one(w, args.seed, args.seconds, False, expected)
        traced = run_one(w, args.seed, args.seconds, True, expected)
        ok = ok and plain["correct"] and traced["correct"]
        if ok:
            entries[w.name] = baseline_entry(plain, traced)
    if args.record:
        if not ok:
            print("error: not recorded: a run failed the gate", file=sys.stderr)
            return 1
        record(entries)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
