"""Golden CLI outputs of ``rate`` (CSV/JSON), ``epsilon``, ``optimize-mu`` and ``simulate``.

Each case runs ``cli.main`` in-process and compares stdout with a file
captured from a known-good build; a session case also compares its exit
code, report JSON and transcript log.  The ``rate`` CSV goldens are the
benchmark's own (``perfbench/golden``, read only); everything else lives in
``tests/golden``.  A refactor of the rate engine, the reassignment solve or
the session pipeline has to leave every one of these unchanged.

To re-capture after a deliberate change of output:
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from passiveqkd import HashFamily, cli

ROOT = Path(__file__).resolve().parent.parent
BENCH_GOLDEN = ROOT / "perfbench" / "golden"
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> extra argv after "epsilon"; the last two are edge cases (empty
# block; a one-bit pool at a phase error that leaves no key).
EPSILON_CASES = {
    "toeplitz-noisy": ["--n-r", "2000", "--n-s", "1000", "--e-p-tilde", "0.11", "--e-b-tilde", "0"],
    "noiseless": ["--n-r", "2000", "--n-s", "1000", "--e-p-tilde", "0", "--e-b-tilde", "0"],
    "short-pool": ["--n-r", "1200", "--n-s", "1000", "--e-p-tilde", "0.08", "--e-b-tilde", "0.03"],
    "large-block": [
        "--n-r", "1000000", "--n-s", "500000", "--e-p-tilde", "0.06", "--e-b-tilde", "0.02",
        "--ec-efficiency", "1.2",
    ],
    "no-key": ["--n-r", "5000", "--n-s", "2500", "--e-p-tilde", "0.4", "--e-b-tilde", "0.1"],
    "empty": ["--n-r", "0", "--n-s", "0", "--e-p-tilde", "0.05", "--e-b-tilde", "0.01"],
    "one-bit-pool": ["--n-r", "300", "--n-s", "299", "--e-p-tilde", "0.3", "--e-b-tilde", "0.01"],
}

# name -> extra argv after "optimize-mu"; "dead" is a channel with no key at any
# pump in range, "singleton" a range of one pump.
OPTIMIZE_MU_CASES = {
    "default": [],
    "10db": ["--channel-loss-db", "10"],
    "dead": ["--channel-loss-db", "120"],
    "singleton": ["--mu-range", "0.1:0.1"],
    "narrow-20db": ["--mu-range", "0.01:0.1", "--channel-loss-db", "20"],
    "f3r-f4r-35db": ["--family", "f3r", "--channel-loss-db", "35"],
}

# name -> (extra argv after "simulate", exit code).  Small sessions: a
# lossless Toeplitz key, the same block under an accounting-only family, and
# a noisy block with double clicks whose penalized solve leaves no key.  The
# last two are the report's empty edges: a session with no detection (every
# bit string and transcript payload empty), and a pool that certifies no seed
# bit, so that the whole sifted key is reassigned and ``w_star`` is empty.
_LOSSLESS = [
    "--pulses", "60000", "--seed", "1", "--dark-count-prob", "0", "--detector-efficiency", "1",
    "--misalignment-error", "0.01", "--mean-pair-number", "0.05",
]
SESSION_CASES = {
    "toeplitz-ok": ([*_LOSSLESS, "--family", "toeplitz"], 0),
    "f1r-f2r-ok": ([*_LOSSLESS, "--family", "f1r-f2r"], 0),
    "toeplitz-no-key": ([
        "--pulses", "80000", "--seed", "1", "--family", "toeplitz", "--dark-count-prob", "1e-3",
        "--detector-efficiency", "0.9", "--misalignment-error", "0.015",
        "--mean-pair-number", "0.12",
    ], 3),
    "empty": (["--pulses", "10", "--seed", "1"], 3),
    "no-seed": (["--pulses", "1000", "--seed", "1", "--dark-count-prob", "1"], 3),
}
SESSION_SUFFIXES = (".stdout", ".report.json", ".transcript.log")


def _cases():
    """(argv, golden path) for every golden output."""
    out = []
    for fam in HashFamily:
        out.append((
            ["rate", "--loss", "0:40:2", "--family", fam.value],
            BENCH_GOLDEN / f"rate_{fam.value}.csv",
        ))
        out.append((
            ["rate", "--loss", "0:40:10", "--json", "--family", fam.value],
            GOLDEN / f"rate_{fam.value}.json",
        ))
    for name, extra in EPSILON_CASES.items():
        out.append((["epsilon", *extra], GOLDEN / f"epsilon_{name}.txt"))
    for name, extra in OPTIMIZE_MU_CASES.items():
        out.append((["optimize-mu", *extra], GOLDEN / f"optimize-mu_{name}.txt"))
    return out


@pytest.mark.parametrize("argv,path", [pytest.param(a, p, id=p.name) for a, p in _cases()])
def test_cli_output_matches_golden(argv, path, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


def _simulate(name: str, out_dir: Path) -> tuple[int, dict[str, str]]:
    """Run one session case; its exit code and output text by suffix."""
    extra, _ = SESSION_CASES[name]
    prefix = out_dir / name
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["simulate", *extra, "--out", str(prefix)])
    outputs = {".stdout": buf.getvalue()}
    for suffix in SESSION_SUFFIXES[1:]:
        outputs[suffix] = Path(f"{prefix}{suffix}").read_text(encoding="utf-8")
    return code, outputs


@pytest.mark.parametrize("name", list(SESSION_CASES))
def test_simulate_matches_golden(name, tmp_path):
    code, outputs = _simulate(name, tmp_path)
    assert code == SESSION_CASES[name][1]
    for suffix, text in outputs.items():
        assert text == (GOLDEN / f"session_{name}{suffix}").read_text(encoding="utf-8"), suffix


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for argv, path in _cases():
        if path.parent != GOLDEN:
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}")
        path.write_text(buf.getvalue(), encoding="utf-8")
        print(path.relative_to(ROOT))
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, expected_code) in SESSION_CASES.items():
            code, outputs = _simulate(name, Path(tmp))
            if code != expected_code:
                sys.exit(f"session {name} exited {code}, expected {expected_code}")
            for suffix, text in outputs.items():
                path = GOLDEN / f"session_{name}{suffix}"
                path.write_text(text, encoding="utf-8")
                print(path.relative_to(ROOT))
