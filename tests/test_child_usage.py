"""tests/child_usage.py reads each of its documented command forms.

Only the option parse runs here: no source tree is compared and no child
process is started."""

from __future__ import annotations

from pathlib import Path

import pytest

from child_usage import parse_options

ATTACK = ["attack", "--mode", "balance", "--budget", "0.2", "--out-graph", "{out}/g.edges"]


@pytest.fixture
def trees(tmp_path):
    for name in ("old", "new"):
        (tmp_path / name / "src" / "balattack").mkdir(parents=True)
    return str(tmp_path / "old"), str(tmp_path / "new")


def test_bench_form(trees):
    opts = parse_options([*trees, "--runs", "11", "--bench", "eval-random", "--seed", "7"])
    assert (opts.runs, opts.bench, opts.seed, opts.args) == (11, "eval-random", 7, [])


@pytest.mark.parametrize("options_first", [False, True], ids=["roots-first", "options-first"])
def test_cli_arguments_after_the_separator(trees, options_first):
    argv = ["--runs", "5", *trees] if options_first else [*trees, "--runs", "5"]
    opts = parse_options([*argv, "--", *ATTACK])
    assert (opts.runs, opts.bench, opts.args) == (5, None, ATTACK)
    assert [opts.old, opts.new] == [Path(t).resolve() for t in trees]


@pytest.mark.parametrize("tail", [[], ["--bench", "attack-seq", "--", *ATTACK]],
                         ids=["neither", "both"])
def test_bench_or_cli_arguments_exactly_one(trees, tail, capsys):
    with pytest.raises(SystemExit):
        parse_options([*trees, *tail])
    assert "give either --bench or the CLI arguments" in capsys.readouterr().err
