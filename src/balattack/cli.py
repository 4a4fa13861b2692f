"""Command-line entry point: dataset stats, attacks, evaluation sweeps, and
bit-exact reruns from saved manifests.

Every file-producing run drops a `<first-output>.manifest.json` sidecar that
records enough (input, format, config, seeds, version) for `balattack rerun`
to regenerate the outputs byte-for-byte.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import io
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__
from .attack import (
    MODE_BALANCE_BATCHED,
    MODE_BALANCE_SEQUENTIAL,
    MODE_RANDOM,
    AttackConfig,
    AttackTrace,
    run_attack_budgets,
)
from .balance import BalanceReport, balance_degree
from .graph import SignedGraph, load_edge_list, load_rating_csv, write_edge_list
from .prediction import attack_eval_pipeline, write_pipeline_csv

log = logging.getLogger("balattack")

CLI_MODES = {
    "balance": MODE_BALANCE_SEQUENTIAL,
    "balance-batched": MODE_BALANCE_BATCHED,
    "random": MODE_RANDOM,
}

STATS_CSV_SCHEMA = "balance-report/1"
STATS_CSV_COLUMNS = "n,m,pos_edges,neg_edges,balanced,unbalanced,d3"


# ---------------------------------------------------------------------------
# argument parsing helpers


def _fraction(
    token: str, what: str, lo_open: bool, hi_open: bool = False
) -> tuple[str, Fraction]:
    """The token and its exact value, which must lie in [0, 1] less the
    ends marked open."""
    token = token.strip()
    try:
        frac = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {token!r}") from None
    if frac < 0 or frac > 1 or (lo_open and frac == 0) or (hi_open and frac == 1):
        span = f"{'(' if lo_open else '['}0, 1{')' if hi_open else ']'}"
        raise argparse.ArgumentTypeError(f"{what} {token} outside {span}")
    return token, frac


def _budget_list(lo_open: bool):
    return lambda text: [_fraction(t, "budget", lo_open) for t in text.split(",")]


def _mode_list(text: str) -> list[str]:
    modes = []
    for t in text.split(","):
        t = t.strip()
        if t not in CLI_MODES:
            raise argparse.ArgumentTypeError(
                f"unknown mode {t!r}; pick from {', '.join(CLI_MODES)}"
            )
        modes.append(t)
    return modes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balattack",
        description="Balance-degree stats, sign-flip attacks, and link sign "
        "prediction evaluation on signed graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, metavar="PATH",
                       help="input graph (.gz transparently decompressed)")
        p.add_argument("--format", choices=("rating-csv", "edge-list"), default=None,
                       help="input format (default: rating-csv if the file name "
                       "contains .csv, else edge-list)")

    p = sub.add_parser("stats", help="print balance summary of a graph")
    add_input(p)
    p.add_argument("--out-csv", metavar="PATH", help="also write the summary as CSV")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("attack", help="flip edge signs to reduce the balance degree")
    add_input(p)
    p.add_argument("--mode", choices=tuple(CLI_MODES), default="balance")
    p.add_argument("--budget", required=True, type=_budget_list(True), metavar="FRAC[,FRAC...]",
                   help="edge fraction(s) in (0,1]; several budgets share one "
                   "greedy run in the balance modes")
    p.add_argument("--batch-size", type=int, default=10, metavar="N",
                   help="flips per epoch in balance-batched mode (default 10)")
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="rng seed for random mode (default 0)")
    p.add_argument("--out-graph", metavar="PATH", help="write the attacked graph here")
    p.add_argument("--out-trace", metavar="PATH", help="write the per-flip trace CSV here")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("eval", help="attack the train split and score link sign prediction")
    add_input(p)
    p.add_argument("--mode", type=_mode_list, default=["balance", "random"],
                   metavar="MODE[,MODE...]",
                   help="comma-separated attack modes (default balance,random)")
    p.add_argument("--budget", required=True, type=_budget_list(False), metavar="FRAC[,FRAC...]",
                   help="edge fraction(s) in [0,1]; a 0 clean-baseline row is "
                   "always included")
    p.add_argument("--batch-size", type=int, default=10, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="N", help="attack seed")
    p.add_argument("--split-seed", type=int, default=0, metavar="N")
    p.add_argument("--train-frac", type=lambda t: _fraction(t, "train fraction", True, True)[1],
                   default=Fraction(4, 5), metavar="F")
    p.add_argument("--out-csv", metavar="PATH", help="pipeline CSV (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rerun", help="re-execute a saved manifest and verify outputs")
    p.add_argument("--manifest", required=True, metavar="PATH")
    p.set_defaults(func=cmd_rerun)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _open_text(path: str):
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", newline="")
    return open(path, encoding="utf-8", newline="")


def _resolve_format(path: str, fmt: str | None) -> str:
    if fmt:
        return fmt
    inferred = "rating-csv" if ".csv" in Path(path).name.lower() else "edge-list"
    log.info("inferred --format %s for %s", inferred, path)
    return inferred


def _load_graph(path: str, fmt: str) -> SignedGraph:
    t0 = time.perf_counter()
    with _open_text(path) as f:
        if fmt == "rating-csv":
            g, stats = load_rating_csv(f)
            log.info(
                "loaded %s: %d rows -> n=%d m=%d (+%d/-%d); %d merged rows, "
                "%d zero ratings, %d self-loops, %d zero-sum pairs dropped",
                path, stats.rows, stats.nodes, stats.edges, stats.pos_edges,
                stats.neg_edges, stats.merged_rows, stats.zero_rating_rows,
                stats.self_loop_rows, stats.zero_sum_pairs,
            )
        else:
            g = load_edge_list(f)
            log.info("loaded %s: n=%d m=%d", path, g.node_count, g.edge_count)
    log.info("load took %.2fs", time.perf_counter() - t0)
    return g


def _dataset_name(path: str) -> str:
    return Path(path).name.partition(".")[0] or "graph"


def _fmt_d3(d3) -> str:
    return "undefined" if d3 is None else repr(float(d3))


def _render(write, obj) -> str:
    """What `write(obj, stream)` writes, as a string."""
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


def _render_stats_csv(rep: BalanceReport) -> str:
    d3 = "" if rep.d3 is None else repr(float(rep.d3))
    return (
        f"# schema={STATS_CSV_SCHEMA}\n"
        + STATS_CSV_COLUMNS + "\n"
        + f"{rep.n},{rep.m},{rep.pos_edges},{rep.neg_edges},"
        + f"{rep.balanced},{rep.unbalanced},{d3}\n"
    )


def _write_file(path: str, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8", newline="")
    log.info("wrote %s (%d bytes)", path, len(content))


@dataclass(frozen=True)
class RunManifest:
    """Sidecar record that makes a run repeatable: `balattack rerun
    --manifest X.manifest.json` regenerates every listed output and
    verifies it byte-for-byte."""

    command: str
    version: str
    input: str
    format: str
    config: dict
    outputs: dict
    duration_s: float
    created: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))


def _write_manifest(primary_output: str, manifest: RunManifest) -> None:
    _write_file(primary_output + ".manifest.json", manifest.to_json())


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args.input, args.format)
    t0 = time.perf_counter()
    g = _load_graph(args.input, fmt)
    if g.edge_count == 0:
        raise ValueError("empty input: graph has no edges")
    rep = balance_degree(g)
    for key in ("n", "m", "pos_edges", "neg_edges", "balanced", "unbalanced"):
        print(f"{key}={getattr(rep, key)}")
    print(f"d3={_fmt_d3(rep.d3)}")
    if args.out_csv:
        _write_file(args.out_csv, _render_stats_csv(rep))
        _write_manifest(args.out_csv, RunManifest(
            command="stats",
            version=__version__,
            input=args.input,
            format=fmt,
            config={},
            outputs={"csv": args.out_csv},
            duration_s=round(time.perf_counter() - t0, 3),
            created=_now(),
        ))
    return 0


# ---------------------------------------------------------------------------
# attack


def _budget_path(path: str, token: str, multi: bool) -> str:
    if not multi:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}.b{token}{p.suffix}"))


def cmd_attack(args: argparse.Namespace) -> int:
    if not args.out_graph and not args.out_trace:
        raise ValueError("attack needs --out-graph and/or --out-trace")
    fmt = _resolve_format(args.input, args.format)
    g = _load_graph(args.input, fmt)
    budgets: list[tuple[str, Fraction]] = args.budget
    multi = len(budgets) > 1
    cfg = AttackConfig(
        budget_fraction=max(f for _, f in budgets), mode=CLI_MODES[args.mode],
        batch_size=args.batch_size, seed=args.seed,
    )
    sweep = run_attack_budgets(g, cfg, [f for _, f in budgets])
    t0 = time.perf_counter()
    for (token, _), (_, poisoned, trace) in zip(budgets, sweep):
        outputs: dict[str, str] = {}
        if args.out_graph:
            path = _budget_path(args.out_graph, token, multi)
            _write_file(path, _render(write_edge_list, poisoned))
            outputs["graph"] = path
        if args.out_trace:
            path = _budget_path(args.out_trace, token, multi)
            _write_file(path, _render(AttackTrace.write_csv, trace))
            outputs["trace"] = path
        del poisoned  # before the sweep builds the next budget's graph
        _write_manifest(next(iter(outputs.values())), RunManifest(
            command="attack",
            version=__version__,
            input=args.input,
            format=fmt,
            config={
                "mode": args.mode,
                "budget": token,
                "batch_size": args.batch_size,
                "seed": args.seed,
            },
            outputs=outputs,
            duration_s=round(time.perf_counter() - t0, 3),
            created=_now(),
        ))
        print(
            f"budget={token} edges={trace.budget} flips={len(trace.records)} "
            f"status={trace.status} d3={_fmt_d3(trace.final_d3)}"
        )
        t0 = time.perf_counter()
    return 0


# ---------------------------------------------------------------------------
# eval


def _eval_rows(
    g: SignedGraph,
    dataset: str,
    budgets: list[tuple[str, Fraction]],
    cli_modes: list[str],
    seed: int,
    split_seed: int,
    train_frac: Fraction,
    batch_size: int,
):
    if all(f != 0 for _, f in budgets):
        budgets = [("0", Fraction(0))] + budgets
    return budgets, attack_eval_pipeline(
        g,
        [f for _, f in budgets],
        [CLI_MODES[m] for m in cli_modes],
        split_seed=split_seed,
        train_fraction=train_frac,
        attack_seed=seed,
        batch_size=batch_size,
        dataset=dataset,
    )


def cmd_eval(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args.input, args.format)
    g = _load_graph(args.input, fmt)
    dataset = _dataset_name(args.input)
    t0 = time.perf_counter()
    budgets, rows = _eval_rows(
        g, dataset, args.budget, args.mode, args.seed, args.split_seed,
        args.train_frac, args.batch_size,
    )
    content = _render(write_pipeline_csv, rows)
    if args.out_csv:
        _write_file(args.out_csv, content)
        _write_manifest(args.out_csv, RunManifest(
            command="eval",
            version=__version__,
            input=args.input,
            format=fmt,
            config={
                "modes": args.mode,
                "budgets": [t for t, _ in budgets],
                "seed": args.seed,
                "split_seed": args.split_seed,
                "train_frac": str(args.train_frac),
                "batch_size": args.batch_size,
            },
            outputs={"csv": args.out_csv},
            duration_s=round(time.perf_counter() - t0, 3),
            created=_now(),
        ))
    else:
        sys.stdout.write(content)
    return 0


# ---------------------------------------------------------------------------
# rerun


def cmd_rerun(args: argparse.Namespace) -> int:
    man = RunManifest.from_json(Path(args.manifest).read_text(encoding="utf-8"))
    g = _load_graph(man.input, man.format)
    contents: dict[str, str] = {}
    if man.command == "stats":
        if g.edge_count == 0:
            raise ValueError("empty input: graph has no edges")
        contents["csv"] = _render_stats_csv(balance_degree(g))
    elif man.command == "attack":
        cfg = AttackConfig(
            budget_fraction=man.config["budget"], mode=CLI_MODES[man.config["mode"]],
            batch_size=man.config["batch_size"], seed=man.config["seed"],
        )
        ((_, poisoned, trace),) = run_attack_budgets(g, cfg, [cfg.budget_fraction])
        contents["graph"] = _render(write_edge_list, poisoned)
        contents["trace"] = _render(AttackTrace.write_csv, trace)
    elif man.command == "eval":
        budgets = [(t, Fraction(t)) for t in man.config["budgets"]]
        _, rows = _eval_rows(
            g, _dataset_name(man.input), budgets, man.config["modes"],
            man.config["seed"], man.config["split_seed"],
            Fraction(man.config["train_frac"]), man.config["batch_size"],
        )
        contents["csv"] = _render(write_pipeline_csv, rows)
    else:
        raise ValueError(f"manifest has unknown command {man.command!r}")

    differs = 0
    for role, path in man.outputs.items():
        new = contents[role]
        p = Path(path)
        old = p.read_text(encoding="utf-8") if p.exists() else None
        p.write_text(new, encoding="utf-8", newline="")
        if old is None:
            verdict = "created"
        elif old == new:
            verdict = "reproduced"
        else:
            verdict = "DIFFERS"
            differs += 1
        print(f"{path} {verdict}")
    return 1 if differs else 0


# ---------------------------------------------------------------------------


def _configure_logging() -> None:
    level_name = os.environ.get("BALATTACK_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command. The cyclic garbage collector stays off meanwhile:
    the command's data (ints, tuples, dicts, Fractions) holds no cycles,
    so refcounting frees it, and a collection would only walk it. The
    caller's collector state is restored on the way out."""
    _configure_logging()
    args = build_parser().parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
