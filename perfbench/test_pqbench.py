"""The benchmark's checks catch wrong outputs, and its tracer adds up."""

import contextlib
import io
import json

import numpy as np
import pytest

from passiveqkd import cli
from passiveqkd.types import ProtocolParams
from pqbench.checks import check_rate, check_session, pa_rows
from pqbench.tracing import Tracer, layer_table
from pqbench.workloads import GOLDEN_DIR

LOSSLESS = {
    "dark_count_prob": 0.0,
    "detector_efficiency": 1.0,
    "misalignment_error": 0.01,
    "mean_pair_number": 0.05,
}
PULSES, SEED = 200_000, 3


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("session") / "run"
    flags = [x for k, v in LOSSLESS.items() for x in (f"--{k.replace('_', '-')}", str(v))]
    code, stdout = _main(
        ["simulate", *flags, "--pulses", str(PULSES), "--seed", str(SEED), "--out", str(prefix)]
    )
    expect = {
        "params": ProtocolParams(**LOSSLESS).to_json_dict(),
        "pulses": PULSES,
        "seed": SEED,
        "statuses": frozenset({"ok"}),
    }
    report = (prefix.parent / "run.report.json").read_text()
    transcript = (prefix.parent / "run.transcript.log").read_text()
    return code, stdout, report, transcript, expect


def _check(session, code=None, report=None, rng_seed=0):
    c, stdout, rep, transcript, expect = session
    return check_session(
        c if code is None else code, stdout, rep if report is None else report,
        transcript, expect, np.random.default_rng(rng_seed),
    )


def test_golden_sweep_passes_and_altered_field_fails():
    golden = (GOLDEN_DIR / "rate_toeplitz.csv").read_text()
    assert check_rate(0, golden, golden) == []
    lines = golden.splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-12))
    altered = "".join(lines[:5] + [",".join(fields)] + lines[6:])
    assert altered != golden
    assert check_rate(0, altered, golden) == ["rate CSV differs from golden output at line 6"]


def test_wrong_exit_code_fails(session):
    golden = (GOLDEN_DIR / "rate_f3r-f4r.csv").read_text()
    assert check_rate(1, golden, golden) == ["rate exited 1, expected 0"]
    assert session[0] == 0 and _check(session) == []
    assert _check(session, code=3) == ["exit code 3 does not match status 'ok'"]


def test_flipped_k_final_bit_fails(session):
    report = json.loads(session[2])
    n_f = report["n_f"]
    row = int(pa_rows(n_f, np.random.default_rng(0))[n_f // 2 if n_f <= 512 else 256])
    raw = bytearray(bytes.fromhex(report["k_final"]["hex"]))
    raw[row // 8] ^= 1 << (row % 8)
    report["k_final"]["hex"] = raw.hex()
    problems = _check(session, report=json.dumps(report, indent=2) + "\n")
    assert problems == [f"k_final differs from the PA oracle at rows [{row}]"]


def test_self_times_partition_the_traced_call():
    tracer = Tracer()
    with tracer.installed(0), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["rate", "--loss", "0:2:2", "--family", "f3r"]) == 0
    table = layer_table(tracer.spans)
    assert table["cli.main"]["calls"] == 1
    assert table["optimize.optimize_mu"]["calls"] == 2
    assert table["rates.rate_point"]["calls"] == table["channel.coincidence_gain_qber"]["calls"]
    assert all(row["self_ns"] >= 0 for row in table.values())
    total_self = sum(row["self_ns"] for row in table.values())
    assert total_self == table["cli.main"]["outer_ns"]
    assert table["cli.serialize"]["calls"] > 0
    assert cli.main.__module__ == "passiveqkd.cli" and not hasattr(cli.main, "__wrapped__")
