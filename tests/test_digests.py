"""Pinned sha256 digests of CLI outputs on two fixed inputs.

A byte gate for changes that must keep outputs identical: each case runs
`cli.main` in-process and compares the sha256 of every file it writes
(manifests aside, since they carry a time stamp) and of its stdout with
the values in DIGESTS. The inputs are committed in fixtures/digests/ and
described in its README.

The digests depend on CPython's `random` (the Holme-Kim generator that
wrote the inputs, `random.sample` and `shuffle`) and were taken with
CPython 3.11.7. A change that alters outputs on purpose updates them and
says so in CHANGES.md; `PYTHONPATH=src python tests/test_digests.py`
prints the current values in the layout of DIGESTS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import tempfile
from pathlib import Path

import pytest

from balattack.cli import main

INPUTS = Path(__file__).parent / "fixtures" / "digests"
INPUT_SHA256 = {
    "hk1000.edges": "d5583e20cc6eaa3284340473c423662ac27fc88c41b7bd7def6f307e0e0fbb4b",
    "hk1000.csv": "1f9f64622d5e2b3d73f5029c1a84f916bd2dcfb48e0a355a982fdb479c44cbe4",
}

# Case name -> argv; `{inputs}` is INPUTS and `{out}` the case's output
# directory.
_EDGES, _CSV = "{inputs}/hk1000.edges", "{inputs}/hk1000.csv"
_BUDGETS = "0.05,0.1,0.2,1"
_ATTACK_OUT = ["--out-graph", "{out}/attacked.edges", "--out-trace", "{out}/trace.csv"]
_EVAL = ["eval", "--input", _CSV, "--mode", "balance,balance-batched,random",
         "--budget", "0,0.05,0.1", "--seed", "3", "--out-csv", "{out}/eval.csv"]
CASES = {
    "stats-edges": ["stats", "--input", _EDGES, "--out-csv", "{out}/stats.csv"],
    "stats-csv": ["stats", "--input", _CSV, "--out-csv", "{out}/stats.csv"],
    "balance": ["attack", "--input", _EDGES, "--mode", "balance", "--budget", _BUDGETS,
                *_ATTACK_OUT],
    **{
        f"batched-{k}": ["attack", "--input", _EDGES, "--mode", "balance-batched",
                         "--batch-size", str(k), "--budget", _BUDGETS, *_ATTACK_OUT]
        for k in (1, 7, 10)
    },
    # 0.05 and 0.1 sample from a set, 0.25 and 0.3 from a pool: the 0.3 run
    # serves itself and 0.25, and 0.05 and 0.1 run standalone.
    "random": ["attack", "--input", _EDGES, "--mode", "random", "--seed", "3",
               "--budget", "0.05,0.3,0.1,0.25", *_ATTACK_OUT],
    "eval-split0": [*_EVAL, "--split-seed", "0"],
    "eval-split7": [*_EVAL, "--split-seed", "7"],
}

DIGESTS = {
    'stats-edges': {
        'stats.csv': '9bac83951d06cd8b88982bc5ede2c10d3dccd8dcb68cda21a07768cde393ed11',
        'stdout': 'df63f5a6f5b099e85f47e52c5b3533c27c1370ae7f42d3e31049eabe72129658',
    },
    'stats-csv': {
        'stats.csv': '9116c3ed2657dfac49c265f0462f273406b905c1ee54aea42098bc2943ec886d',
        'stdout': '0b7b3be8184faf8d6b6c4b14d33d745515d8cba9d6c3eba497abbb468f298863',
    },
    'balance': {
        'attacked.b0.05.edges': 'e3115e6a4981fe5464067a58e4123a043aab9af9cf4bfc5dce473a9430afcc9f',
        'attacked.b0.1.edges': '523780f262027caaa6c583ea43f248d74b2c277c763ede5d574e86478a586bcd',
        'attacked.b0.2.edges': '1aa233e8ea336bed90054ca80a4161633302e877990a5edb72ed5e46fd1dc87a',
        'attacked.b1.edges': '7b6625424f6e04997c66e081b50190b0a0dcab98f34237a470a947b4694ac75e',
        'trace.b0.05.csv': '21e4662b56850d35e4fd14af5fb97c34a9e3b486782362fc2cfbd7914d32265b',
        'trace.b0.1.csv': '76803eea55932c4195e40e1addec30c659eb720174c5b8004dafd03260b94785',
        'trace.b0.2.csv': 'e0ea8eaf5b45e24a7da06f22c785e6b7946fe0d3ba76f218ad0c7bf1488cee90',
        'trace.b1.csv': '3eb6be530e7b2710f8672049ac65cf8be7347869d6debbda95568347896dac9b',
        'stdout': '8eadff74edff73e5478e327a82ac1698791561e26d381f18d49521bbc8cbde81',
    },
    'batched-1': {
        'attacked.b0.05.edges': 'e3115e6a4981fe5464067a58e4123a043aab9af9cf4bfc5dce473a9430afcc9f',
        'attacked.b0.1.edges': '523780f262027caaa6c583ea43f248d74b2c277c763ede5d574e86478a586bcd',
        'attacked.b0.2.edges': '1aa233e8ea336bed90054ca80a4161633302e877990a5edb72ed5e46fd1dc87a',
        'attacked.b1.edges': '7b6625424f6e04997c66e081b50190b0a0dcab98f34237a470a947b4694ac75e',
        'trace.b0.05.csv': '21e4662b56850d35e4fd14af5fb97c34a9e3b486782362fc2cfbd7914d32265b',
        'trace.b0.1.csv': '76803eea55932c4195e40e1addec30c659eb720174c5b8004dafd03260b94785',
        'trace.b0.2.csv': 'e0ea8eaf5b45e24a7da06f22c785e6b7946fe0d3ba76f218ad0c7bf1488cee90',
        'trace.b1.csv': '3eb6be530e7b2710f8672049ac65cf8be7347869d6debbda95568347896dac9b',
        'stdout': '8eadff74edff73e5478e327a82ac1698791561e26d381f18d49521bbc8cbde81',
    },
    'batched-7': {
        'attacked.b0.05.edges': '2f6a988fd68e9bf88add4c8a5bf1d11cbe1d4f7e6c58bcb5867b55ecc52462e8',
        'attacked.b0.1.edges': '525c9d778cb29e16acdb46dd2478132cecdddb7cd54eee99d1ec8092f1191fc2',
        'attacked.b0.2.edges': 'fb5e62a0c8cb3fa2efba07a222fcac0c5766eadaf9c9481244204a4c4a3e44b3',
        'attacked.b1.edges': '69fab9f6da50a21ef05930bf8101fd724546ef73628818df49dfac1d166b900b',
        'trace.b0.05.csv': '5d7b98e3987042c305b0efc0591282b85f10de724f56089228aaff415e40fc18',
        'trace.b0.1.csv': '5a2fd00c00f01ab1e6fdb7617f1e2636b72301e10ec6cb3b5c4f60c1d47cde41',
        'trace.b0.2.csv': '92e9149c9c22db1d10d13dd0db3768b70147c046d5193d467f9d0e3706d334d0',
        'trace.b1.csv': '1a8fc4e095dee2f7f11cf718bbc90650ea4e7525571427546cf67c693be93051',
        'stdout': 'e7fe79cd126f8d3058f87c7786fb2378cc3353a4389e43f54e18a77973b3fd6b',
    },
    'batched-10': {
        'attacked.b0.05.edges': 'a935852a2f3e3d0d34843460bfeb7171c5e40cbb25b556d98d3b099e769a8d33',
        'attacked.b0.1.edges': '37f451f7f96aff002ed55e77824bf1e431715b71b934859a14dae4b96a04b310',
        'attacked.b0.2.edges': '6a5c2a31a2bc89d8478dca6b346a516edb703bdf8e7d47f8000e4eb7692dd319',
        'attacked.b1.edges': '360a05ac250635b745199337d16fdc78a16be005655aac29e7b9e6592f8e0d90',
        'trace.b0.05.csv': 'ed30c855165e6ef1db045d108164a5952ce93f8726b80fc947638d461b376b73',
        'trace.b0.1.csv': 'c81c58af7510a3cd80e5eaf700817a76e0d16b7fb935db4536040d3f816acc16',
        'trace.b0.2.csv': '824753d16049d4a89809bf762295892b4b2eb1298f5e1f7e2936204a3fec4781',
        'trace.b1.csv': '1a195c37d03441621c1ef57061ef413ff18e7a29f1f1c4c1b0d86ffd0b7fa39c',
        'stdout': '245286983a6470a34316adb83d9d3ccdb0b4948279e8cba7ea1b77147c70dae2',
    },
    'random': {
        'attacked.b0.05.edges': 'f37e675d49e0c2791763963e370f906fa6cc8a34bd325958af812aab51691ed9',
        'attacked.b0.1.edges': 'de346fabedcea7d82242bd606951eedbed10152367ee96f9b74a9d00b849259e',
        'attacked.b0.25.edges': 'afa4481f154b195658cf7208a3d3065da11710f1c8f1718d0a2fe83e1652aa8b',
        'attacked.b0.3.edges': '22f2e998b4d53c198e62653606c8ff6350016830b8d85e2383bba3ebca7437f4',
        'trace.b0.05.csv': '103e3d45385ad8f6c7d93fca866f70308fc6949360212d595485cf9e4d08cfe1',
        'trace.b0.1.csv': 'fc5adcce97b6bf99ec05b72e2bd8058dd26290d931be2bb49ac096cc3dac3bd6',
        'trace.b0.25.csv': '8d821a31a1eb52269ebc0fe66481c087b3524f1802c46527883c04e570ff8d9b',
        'trace.b0.3.csv': '3c426d1d2fc3a8ec787f4d62064daec7ccc34054e7758405332ba397431df8eb',
        'stdout': '20d02f573328a0ddbf776961428629563cce5fbd4739d4e1a433c0f9ff35f1bd',
    },
    'eval-split0': {
        'eval.csv': '0773f6879e7968667b7b84b404fdfe292d0589cb60ba2cb10b22c49df3315de4',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    'eval-split7': {
        'eval.csv': 'e48813f770bd1623d0bde762985702c4516b2649211562c131554b67c4e3bd54',
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, out: Path) -> tuple[dict[str, str], str]:
    """Run case `name` with its outputs in `out`; return the sha256 of each
    output file and of stdout by name, and stdout itself."""
    argv = [a.format(inputs=INPUTS, out=out) for a in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    digests = {
        p.name: _sha256(p.read_bytes())
        for p in sorted(out.iterdir())
        if not p.name.endswith(".manifest.json")
    }
    digests["stdout"] = _sha256(stdout.getvalue().encode())
    return digests, stdout.getvalue()


@pytest.mark.parametrize("name", sorted(INPUT_SHA256))
def test_input_is_unchanged(name):
    assert _sha256((INPUTS / name).read_bytes()) == INPUT_SHA256[name]


@pytest.mark.parametrize("name", list(CASES))
def test_output_digests(name, tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="balattack.attack")
    digests, stdout = run_case(name, tmp_path)
    assert digests == DIGESTS[name]
    if name in ("balance", "batched-1"):  # budget 1 runs out of candidates
        assert stdout.splitlines()[-1].split()[3] == "status=no_candidates"
    if name == "random":
        assert "served 2 budgets, 2 ran standalone" in caplog.text


if __name__ == "__main__":
    print("DIGESTS = {")
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests, _ = run_case(case, Path(tmp))
        print(f"    {case!r}: {{")
        for key, value in digests.items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
