"""Golden CLI outputs: ``rate`` CSV/JSON and ``epsilon`` tables, byte for byte.

Each case runs ``cli.main`` in-process and compares stdout with a file
captured from a known-good build.  The ``rate`` CSV goldens are the
benchmark's own (``perfbench/golden``, read only); the JSON sweeps and the
``epsilon`` tables live in ``tests/golden``.  A refactor of the rate engine
or the reassignment solve has to leave every one of these unchanged.

To re-capture after a deliberate change of output:
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

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
    return out


@pytest.mark.parametrize("argv,path", [pytest.param(a, p, id=p.name) for a, p in _cases()])
def test_cli_output_matches_golden(argv, path, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

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
