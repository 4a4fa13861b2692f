"""Compare one balattack CLI command between two source trees, run by run.

    python tests/child_usage.py OLD_ROOT NEW_ROOT --runs 11 --bench eval-random --seed 1
    python tests/child_usage.py OLD_ROOT NEW_ROOT --runs 11 -- \\
        eval --input ratings.csv --mode random --budget 0,0.1,0.2 --out-csv {out}/eval.csv

Each root is a checkout holding `src/balattack`. The command runs N times
per tree, the trees alternating and taking turns to go first, each run in
its own child process with a fresh output directory (`{out}` in the
arguments). The report gives, per tree, the median wall time with its
quartiles and the child's own peak RSS (`ru_maxrss` from `os.wait4`), the
rounds the new tree won, and whether every output file and stdout is
byte-equal across all runs of both trees. Manifests are left out of the
comparison: they carry timestamps and durations.

A child's `ru_maxrss` cannot be below its parent's RSS at the fork, so this
script imports nothing from balattack and keeps itself small. `--bench`
writes the input of a `bench/run.py` workload at `--seed` and runs that
workload's full command; the input is built in a separate process for the
same reason. The exit code is 1 when a run fails or the outputs differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
ENTRY = "import sys; from balattack.cli import main; sys.exit(main(sys.argv[1:]))"
# The bench's child environment: fixed hash seed, quiet log.
ENV = {**os.environ, "PYTHONHASHSEED": "0", "BALATTACK_LOG": "WARNING"}
MAKE_BENCH_INPUT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
w = run.WORKLOADS[sys.argv[2]]
inputs = run.make_inputs(w, int(sys.argv[3]), Path(sys.argv[4]))
print(json.dumps(run.cli_args(w, w.budget, inputs.path, Path("{out}"))))
"""


def bench_command(workload: str, seed: int, work: Path) -> list[str]:
    """Write the bench input of `workload` at `seed` into `work`; return
    the workload's full CLI arguments, `{out}` standing for the outputs."""
    proc = subprocess.run(
        [sys.executable, "-c", MAKE_BENCH_INPUT, str(BENCH), workload, str(seed), str(work)],
        env={**ENV, "PYTHONPATH": str(BENCH.parent / "src")},
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_once(root: Path, args: list[str], out: Path) -> tuple[float, float, dict[str, str]]:
    """One child run of the CLI from `root`: wall seconds, peak RSS in MB
    and the sha256 of stdout and of every output file but manifests."""
    out.mkdir(parents=True)
    stdout = out.parent / f"{out.name}.stdout"
    cmd = [sys.executable, "-c", ENTRY, *(a.replace("{out}", str(out)) for a in args)]
    with stdout.open("wb") as f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env={**ENV, "PYTHONPATH": str(root / "src")},
                                cwd=out, stdout=f)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{root}: exit code {code} from {' '.join(cmd[3:])}")
    files = {"stdout": stdout.read_bytes()}
    files.update((p.name, p.read_bytes()) for p in sorted(out.iterdir())
                 if not p.name.endswith(".manifest.json"))
    shutil.rmtree(out)
    stdout.unlink()
    return wall, usage.ru_maxrss / 1024, {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}


def describe(name: str, walls: list[float], rss: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    return (f"{name:4} wall_s median={statistics.median(walls):.4f} q1={q1:.4f} q3={q3:.4f}  "
            f"child ru_maxrss_mb median={statistics.median(rss):.1f} max={max(rss):.1f}")


def parse_options(argv: list[str] | None = None) -> argparse.Namespace:
    """The options of any documented form, the trees resolved. The parse is
    intermixed: plain `parse_args` would fill `old new args` at the first
    run of positionals, before the options after them, and then refuse the
    CLI arguments after `--`. Exits through the parser's usage error on a
    bad form or a root without `src/balattack`."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--runs", type=int, default=11, help="runs per tree")
    parser.add_argument("--bench", help="a bench/run.py workload, e.g. eval-random")
    parser.add_argument("--seed", type=int, default=1, help="the --bench input's seed")
    parser.add_argument("args", nargs="*", help="CLI arguments, after --")
    opts = parser.parse_intermixed_args(argv)
    if (opts.bench is None) == (not opts.args):
        parser.error("give either --bench or the CLI arguments")
    if opts.runs < 1:
        parser.error("--runs must be >= 1")
    opts.old, opts.new = opts.old.resolve(), opts.new.resolve()
    for root in (opts.old, opts.new):
        if not (root / "src" / "balattack").is_dir():
            parser.error(f"no src/balattack under {root}")
    return opts


def main(argv: list[str] | None = None) -> int:
    opts = parse_options(argv)
    trees = {"old": opts.old, "new": opts.new}

    with tempfile.TemporaryDirectory(prefix="child_usage-") as tmp:
        work = Path(tmp)
        args = bench_command(opts.bench, opts.seed, work) if opts.bench else opts.args
        walls: dict[str, list[float]] = {name: [] for name in trees}
        rss: dict[str, list[float]] = {name: [] for name in trees}
        outputs: dict[str, str] | None = None
        differs: set[str] = set()
        for i in range(opts.runs):
            for name in (("old", "new") if i % 2 == 0 else ("new", "old")):
                wall, peak, digests = run_once(trees[name], args, work / f"{name}-{i}")
                walls[name].append(wall)
                rss[name].append(peak)
                outputs = digests if outputs is None else outputs
                differs |= {k for k in outputs.keys() | digests.keys()
                            if outputs.get(k) != digests.get(k)}
    print(f"# {opts.runs} alternating runs per tree of: {' '.join(args)}")
    for name, root in trees.items():
        print(describe(name, walls[name], rss[name]), f" ({root})")
    won = sum(n < o for o, n in zip(walls["old"], walls["new"]))
    print(f"new faster in {won} of {opts.runs} rounds")
    if differs:
        print(f"outputs DIFFER: {', '.join(sorted(differs))}")
        return 1
    print(f"outputs equal: {', '.join(sorted(outputs or {}))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
