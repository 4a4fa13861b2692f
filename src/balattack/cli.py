"""Command-line entry point: dataset stats, attacks, evaluation sweeps, and
bit-exact reruns from saved manifests.

Each command is one generator of (role, text) outputs from a graph and the
config its manifest records. Every file-producing run drops one
`<first-output>.manifest.json` sidecar that records enough (input and its
digest, format, config, version) for `balattack rerun` to feed the same
config to the same generator and compare the outputs byte-for-byte.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple, Sequence

from . import __version__
from .attack import (
    MODE_BALANCE_BATCHED,
    MODE_BALANCE_SEQUENTIAL,
    MODE_RANDOM,
    AttackConfig,
    AttackTrace,
    as_fraction,
    run_attack_budgets,
)
from .balance import balance_degree
from .graph import ParseError, SignedGraph, load_edge_list, load_rating_csv, write_edge_list

log = logging.getLogger("balattack")

CLI_MODES = {
    "balance": MODE_BALANCE_SEQUENTIAL,
    "balance-batched": MODE_BALANCE_BATCHED,
    "random": MODE_RANDOM,
}

STATS_CSV_SCHEMA = "balance-report/1"


# ---------------------------------------------------------------------------
# argument parsing helpers: each returns the JSON value a manifest records


def _fraction(token: str, what: str, span: str) -> str:
    """The token, whose exact value must lie in `span` (see `as_fraction`)."""
    token = token.strip()
    try:
        as_fraction(token, what, span)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return token


def _budget_list(span: str):
    return lambda text: [_fraction(t, "budget", span) for t in text.split(",")]


def _eval_budgets(text: str) -> list[str]:
    """The budgets, led by a clean-baseline "0" unless they hold a zero."""
    tokens = _budget_list("[0, 1]")(text)
    return tokens if any(as_fraction(t) == 0 for t in tokens) else ["0", *tokens]


def _int_at_least(lo: int):
    """An int flag (a batch size or a seed), refused before the input is
    loaded if below `lo`."""

    def parse(token: str) -> int:
        try:
            n = int(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n

    return parse


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


class _ManifestParser(argparse.ArgumentParser):
    """Raises ValueError where the command line would print usage and exit,
    so that a manifest's config meets the flags' own checks."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser(cls=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = cls(
        prog="balattack",
        description="Balance-degree stats, sign-flip attacks, and link sign "
        "prediction evaluation on signed graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_command(name: str, summary: str, outputs, config_keys: tuple[str, ...]):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", required=True, metavar="PATH",
                       help="input graph (.gz transparently decompressed)")
        p.add_argument("--format", choices=("rating-csv", "edge-list"), default=None,
                       help="input format (default: rating-csv if the file name "
                       "contains .csv, else edge-list)")
        p.set_defaults(func=cmd_run, outputs=outputs, config_keys=config_keys)
        return p

    p = add_command("stats", "print balance summary of a graph", _stats_outputs, ())
    p.add_argument("--out-csv", metavar="PATH", help="also write the summary as CSV")

    p = add_command("attack", "flip edge signs to reduce the balance degree",
                    _attack_outputs, ("mode", "budgets", "batch_size", "seed"))
    p.add_argument("--mode", choices=tuple(CLI_MODES), default="balance")
    p.add_argument("--budget", dest="budgets", required=True, type=_budget_list("(0, 1]"),
                   metavar="FRAC[,FRAC...]",
                   help="edge fraction(s) in (0,1]; several budgets share one "
                   "greedy run in the balance modes")
    p.add_argument("--batch-size", type=_int_at_least(1), default=10, metavar="N",
                   help="flips per epoch in balance-batched mode (default 10)")
    p.add_argument("--seed", type=_int_at_least(0), default=0, metavar="N",
                   help="rng seed for random mode, >= 0 (default 0)")
    p.add_argument("--out-graph", metavar="PATH", help="write the attacked graph here")
    p.add_argument("--out-trace", metavar="PATH", help="write the per-flip trace CSV here")

    p = add_command("eval", "attack the train split and score link sign prediction",
                    _eval_outputs,
                    ("modes", "budgets", "seed", "split_seed", "train_frac", "batch_size"))
    p.add_argument("--mode", dest="modes", type=_mode_list, default=["balance", "random"],
                   metavar="MODE[,MODE...]",
                   help="comma-separated attack modes (default balance,random)")
    p.add_argument("--budget", dest="budgets", required=True, type=_eval_budgets,
                   metavar="FRAC[,FRAC...]",
                   help="edge fraction(s) in [0,1]; a 0 clean-baseline row is "
                   "always included")
    p.add_argument("--batch-size", type=_int_at_least(1), default=10, metavar="N")
    p.add_argument("--seed", type=_int_at_least(0), default=0, metavar="N",
                   help="attack seed, >= 0")
    p.add_argument("--split-seed", type=_int_at_least(0), default=0, metavar="N")
    p.add_argument("--train-frac", type=lambda t: _fraction(t, "train fraction", "(0, 1)"),
                   default="4/5", metavar="F")
    p.add_argument("--out-csv", metavar="PATH", help="pipeline CSV (default: stdout)")

    p = sub.add_parser("rerun", help="re-execute a saved manifest and verify outputs")
    p.add_argument("--manifest", required=True, metavar="PATH")
    p.set_defaults(func=cmd_rerun)

    parser.commands = sub.choices  # name -> subparser
    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve_format(path: str, fmt: str | None) -> str:
    if fmt:
        return fmt
    inferred = "rating-csv" if ".csv" in Path(path).name.lower() else "edge-list"
    log.info("inferred --format %s for %s", inferred, path)
    return inferred


def _load_graph(path: str, fmt: str) -> SignedGraph:
    """Load the graph at `path`. A truncated or corrupt .gz is a ParseError
    naming the path."""
    t0 = time.perf_counter()
    opener, corrupt = open, ()  # an empty tuple catches nothing
    if path.lower().endswith(".gz"):
        from gzip import BadGzipFile, open as opener  # only compressed inputs need these
        from zlib import error as zlib_error
        corrupt = (EOFError, BadGzipFile, zlib_error)
    try:
        with opener(path, "rt", encoding="utf-8", errors="surrogateescape", newline="") as f:
            if fmt == "rating-csv":
                g, stats = load_rating_csv(f)
                log.info(
                    "loaded %s: %d rows -> n=%d m=%d (+%d/-%d); %d merged rows, "
                    "%d zero ratings, %d self-loops, %d zero-sum pairs dropped",
                    path, stats.rows, g.node_count, g.edge_count, g.pos_edge_count,
                    g.neg_edge_count, stats.merged_rows, stats.zero_rating_rows,
                    stats.self_loop_rows, stats.zero_sum_pairs,
                )
            else:
                g = load_edge_list(f)
                log.info("loaded %s: n=%d m=%d", path, g.node_count, g.edge_count)
    except corrupt as exc:
        raise ParseError(f"{path}: truncated or corrupt gzip data: {exc}") from None
    log.info("load took %.2fs", time.perf_counter() - t0)
    return g


def _digest(path: str) -> tuple[str, int]:
    """The sha256 and byte size of a file as stored (a .gz undecompressed)."""
    import hashlib  # loads OpenSSL, about 3 MB of RSS; a run gets here after its peak
    sha = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            sha.update(chunk)
        return sha.hexdigest(), f.tell()


def _render(write, obj) -> str:
    """What `write(obj, stream)` writes, as a string."""
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


def _write_file(path: str, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8", newline="")
    log.info("wrote %s (%d bytes)", path, len(content))


# Config keys whose flag is not `--` plus the key with dashes.
_LIST_FLAGS = {"budgets": "--budget", "modes": "--mode"}


class RunManifest(NamedTuple):
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
    # Absent from manifests written before inputs were recorded.
    input_sha256: str | None = None
    input_bytes: int | None = None

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """ValueError on text that is no manifest."""
        try:
            man = cls(**json.loads(text))
        except TypeError as exc:
            raise ValueError(f"not a manifest: {exc}") from None
        if not (isinstance(man.config, dict) and isinstance(man.outputs, dict)
                and all(isinstance(s, str) for s in (man.command, man.input,
                                                     *man.outputs.values()))):
            raise ValueError("not a manifest: a field has the wrong type")
        return man

    def argv(self) -> list[str]:
        """The command's flags that give this run's config, a list as one
        comma-joined flag. The `budget` key of a manifest written per
        budget reads as `--budget`: a run with that one budget."""
        argv = [f"--input={self.input}", f"--format={self.format}"]
        for key, value in self.config.items():
            flag = _LIST_FLAGS.get(key, "--" + key.replace("_", "-"))
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv.append(f"{flag}={text}")
        return argv


# ---------------------------------------------------------------------------
# commands: each yields (role, text) pairs in output order from the graph
# and the config its manifest records. Only roles that `wanted(role)`
# accepts are rendered; the `stdout` role is always yielded.


def _stats_outputs(g: SignedGraph, config: dict, wanted, source: str):
    if g.edge_count == 0:
        raise ValueError("empty input: graph has no edges")
    record = balance_degree(g).as_record()  # d3 alone may be None
    yield "stdout", "".join(
        f"{key}={'undefined' if value is None else value}\n" for key, value in record.items()
    )
    if wanted("csv"):
        row = ",".join("" if value is None else str(value) for value in record.values())
        yield "csv", f"# schema={STATS_CSV_SCHEMA}\n{','.join(record)}\n{row}\n"


def _attack_outputs(g: SignedGraph, config: dict, wanted, source: str):
    """Each budget's roles are `graph` and `trace`, tagged `.b<token>` when
    the run has several budgets."""
    tokens = config["budgets"]
    cfg = AttackConfig(
        budget_fraction=max(tokens, key=as_fraction), mode=CLI_MODES[config["mode"]],
        batch_size=config["batch_size"], seed=config["seed"],
    )
    sweep = run_attack_budgets(g, cfg, tokens)
    for token in tokens:
        _, poisoned, trace = next(sweep)
        tag = f".b{token}" if len(tokens) > 1 else ""
        if wanted("graph" + tag):
            yield "graph" + tag, _render(write_edge_list, poisoned)
        del poisoned  # before the sweep builds the next budget's graph
        if wanted("trace" + tag):
            yield "trace" + tag, _render(AttackTrace.write_csv, trace)
        d3 = "undefined" if trace.final_d3 is None else repr(float(trace.final_d3))
        yield "stdout", (
            f"budget={token} edges={trace.budget} flips={len(trace.records)} "
            f"status={trace.status} d3={d3}\n"
        )


def _eval_outputs(g: SignedGraph, config: dict, wanted, source: str):
    # Here, so only eval loads the module; read at call time, so a wrapper on a name is called.
    from .prediction import attack_eval_pipeline, write_pipeline_csv

    rows = attack_eval_pipeline(
        g,
        config["budgets"],
        [CLI_MODES[m] for m in config["modes"]],
        split_seed=config["split_seed"],
        train_fraction=config["train_frac"],
        attack_seed=config["seed"],
        batch_size=config["batch_size"],
        dataset=Path(source).name.partition(".")[0] or "graph",
    )
    yield "csv" if wanted("csv") else "stdout", _render(write_pipeline_csv, rows)


def _output_path(args: argparse.Namespace, role: str) -> str | None:
    """The path of a file role: its `--out-<kind>` flag, with a budget tag
    put in front of the suffix. None for `stdout` and for unset flags."""
    kind, _, token = role.partition(".b")
    path = getattr(args, "out_" + kind, None)
    if path and token:
        p = Path(path)
        path = str(p.with_name(f"{p.stem}.b{token}{p.suffix}"))
    return path


def cmd_run(args: argparse.Namespace) -> int:
    """Run a command from its flags: write each file role, print `stdout`,
    and record one manifest named after the first output's flag."""
    if args.command == "attack" and not (args.out_graph or args.out_trace):
        raise ValueError("attack needs --out-graph and/or --out-trace")
    if args.command == "attack" and len(args.budgets) > 1:
        for token in args.budgets:  # each tags its file names; check before the load
            if "/" in token:
                raise ValueError(f"budget {token} cannot tag a file name; write it without '/'")
    t0 = time.perf_counter()
    fmt = _resolve_format(args.input, args.format)
    config = {key: getattr(args, key) for key in args.config_keys}
    g = _load_graph(args.input, fmt)
    outputs: dict[str, str] = {}
    wanted = lambda role: _output_path(args, role) is not None
    for role, text in args.outputs(g, config, wanted, args.input):
        path = _output_path(args, role)
        if path is None:
            sys.stdout.write(text)
        else:
            _write_file(path, text)
            outputs[role] = path
    if outputs:
        first = _output_path(args, next(iter(outputs)).partition(".b")[0])
        sha256, size = _digest(args.input)
        _write_file(first + ".manifest.json", RunManifest(
            command=args.command,
            version=__version__,
            input=args.input,
            format=fmt,
            config=config,
            outputs=outputs,
            duration_s=round(time.perf_counter() - t0, 3),
            created=time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
            input_sha256=sha256,
            input_bytes=size,
        ).to_json())
    return 0


def cmd_rerun(args: argparse.Namespace) -> int:
    """Feed a manifest's config through the flags' checks to the command
    that wrote it, and byte-compare each output the manifest lists."""
    try:
        man = RunManifest.from_json(Path(args.manifest).read_text(encoding="utf-8"))
        command = build_parser(_ManifestParser).commands.get(man.command)
        if command is None:
            raise ValueError(f"unknown command {man.command!r}")
        run = command.parse_args(man.argv())
    except ValueError as exc:
        raise ValueError(f"{args.manifest}: {exc}") from None
    if man.input_sha256 is not None and _digest(man.input) != (man.input_sha256, man.input_bytes):
        print(f"{man.input} INPUT CHANGED")
        return 1
    g = _load_graph(man.input, man.format)
    left = dict(man.outputs)
    differs = 0
    config = {key: getattr(run, key) for key in run.config_keys}
    for role, new in run.outputs(g, config, man.outputs.__contains__, man.input):
        path = left.pop(role, None)
        if path is None:
            continue  # stdout
        old = Path(path).read_text(encoding="utf-8") if Path(path).exists() else None
        _write_file(path, new)
        if old is None:
            verdict = "created"
        elif old == new:
            verdict = "reproduced"
        else:
            verdict = "DIFFERS"
            differs += 1
        print(f"{path} {verdict}")
    if left:
        raise ValueError(f"{args.manifest}: the command has no output {', '.join(left)}")
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
