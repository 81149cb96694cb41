"""Command-line interface, exercised through real subprocesses and in-process."""

import json
import os
import re
import subprocess
import sys

import pytest

import passiveqkd
from passiveqkd import CSV_COLUMNS, ProtocolParams, RateBreakdown, cli

FAST_SIM = [
    "--dark-count-prob", "0",
    "--detector-efficiency", "1",
    "--misalignment-error", "0.01",
    "--mean-pair-number", "0.05",
    "--pulses", "100000",
    "--seed", "3",
]


def _run(*args, env=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "passiveqkd", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_no_command_is_usage_error():
    assert _run().returncode == 2


def test_rate_csv_shape():
    out = _run("rate", "--loss", "0:10:5", "--family", "f3r")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4  # header plus 0, 5, 10 dB
    for line in lines[1:]:
        assert len(line.split(",")) == len(CSV_COLUMNS)


def test_rate_csv_deterministic():
    a = _run("rate", "--loss", "0:8:4", "--family", "f3r")
    b = _run("rate", "--loss", "0:8:4", "--family", "f3r")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_rate_passive_matches_baseline_for_cheap_seed_family():
    out = _run("rate", "--loss", "0:10:5", "--family", "f3r")
    for line in out.stdout.splitlines()[1:]:
        cells = dict(zip(CSV_COLUMNS, line.split(",")))
        if float(cells["rate_passive"]) > 0.0:
            assert cells["rate_passive"] == cells["rate_bbm92"]


def test_rate_json_roundtrip():
    out = _run("rate", "--loss", "0:10:10", "--json")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    assert [r["loss_db"] for r in rows] == [0.0, 10.0]
    back = RateBreakdown.from_json_dict(rows[1])
    assert back.loss_db == 10.0
    assert back.rate_per_pulse_passive == rows[1]["rate_per_pulse_passive"]


@pytest.mark.parametrize(
    "bad",
    [
        "0:0:1", "10:5:1", "0:10:0", "0:10", "a:b:c", "-5:10:5", "nan:40:2", "0:inf:1", "0:1e300:1e-300",
        "0:1e12:1",
    ],
)
def test_rate_bad_loss_range(bad):
    out = _run("rate", "--loss", bad)
    assert out.returncode == 2
    assert out.stderr.startswith("usage: passiveqkd rate")
    assert "loss" in out.stderr.lower()


def test_epsilon_table():
    out = _run(
        "epsilon", "--n-r", "2000", "--n-s", "1000", "--e-p-tilde", "0.11", "--e-b-tilde", "0"
    )
    assert out.returncode == 0
    assert "family=toeplitz epsilon=334 " in out.stdout
    quiet = _run(
        "epsilon", "--n-r", "2000", "--n-s", "1000", "--e-p-tilde", "0", "--e-b-tilde", "0"
    )
    assert "family=toeplitz epsilon=0 " in quiet.stdout
    assert "family=f3r-f4r epsilon=0 " in quiet.stdout


def test_epsilon_single_family():
    out = _run(
        "epsilon", "--n-r", "2000", "--n-s", "1000",
        "--e-p-tilde", "0.11", "--e-b-tilde", "0", "--family", "toeplitz",
    )
    lines = [ln for ln in out.stdout.splitlines() if ln]
    assert len(lines) == 1
    assert lines[0].startswith("family=toeplitz epsilon=334 ")


def test_simulate_writes_report_and_transcript(tmp_path):
    out = _run("simulate", *FAST_SIM, "--out", "run", cwd=tmp_path)
    assert out.returncode == 0
    assert re.fullmatch(
        r"status=ok n_r=\d+ n_s=\d+ m_x=\d+ m_z=\d+ epsilon=\d+ k_final_bits=[1-9]\d*\n",
        out.stdout,
    )
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["status"] == "ok"
    assert report["params"]["mean_pair_number"] == 0.05
    assert report["n_f"] == report["k_final"]["len"]
    log = (tmp_path / "run.transcript.log").read_text()
    assert log.count("\n") == 4
    assert "basis-announce" in log and "seed-wstar" in log


def test_simulate_deterministic(tmp_path):
    a = _run("simulate", *FAST_SIM, "--out", "a", cwd=tmp_path)
    b = _run("simulate", *FAST_SIM, "--out", "b", cwd=tmp_path)
    assert a.returncode == 0, a.stderr
    assert b.returncode == 0, b.stderr
    assert a.stdout == b.stdout
    assert (tmp_path / "a.report.json").read_bytes() == (tmp_path / "b.report.json").read_bytes()
    assert (
        tmp_path / "a.transcript.log"
    ).read_bytes() == (tmp_path / "b.transcript.log").read_bytes()


def test_simulate_no_key_exit_code(tmp_path):
    out = _run(
        "simulate",
        "--dark-count-prob", "0",
        "--mean-pair-number", "0.0001",
        "--pulses", "1000",
        "--seed", "1",
        "--out", "starved",
        cwd=tmp_path,
    )
    assert out.returncode == 3
    assert out.stdout.startswith("status=no-key ")
    report = json.loads((tmp_path / "starved.report.json").read_text())
    assert report["k_final"]["len"] == 0


def test_optimize_mu_output():
    out = _run("optimize-mu", "--channel-loss-db", "10", "--mu-range", "0.01:0.1")
    assert out.returncode == 0
    m = re.fullmatch(r"mu_opt=(\S+) rate_per_pulse=(\S+)\n", out.stdout)
    assert m
    assert 0.01 <= float(m.group(1)) <= 0.1
    assert float(m.group(2)) > 0.0


def test_param_file_and_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "base.params"
    cfg.write_text("misalignment_error = 0.02\nmean_pair_number = 0.04\n")
    envcfg = tmp_path / "env.params"
    envcfg.write_text("misalignment_error = 0.03\n")
    env = dict(os.environ, PASSIVEQKD_PARAMS=str(envcfg))
    sim = ["simulate", "--pulses", "1", "--seed", "0", "--out", "p"]

    # env file alone
    out = _run(*sim, env=env, cwd=tmp_path)
    assert out.returncode in (0, 3), out.stderr
    report = json.loads((tmp_path / "p.report.json").read_text())
    assert report["params"]["misalignment_error"] == 0.03

    # --params beats the env file
    out = _run(*sim, "--params", str(cfg), env=env, cwd=tmp_path)
    assert out.returncode in (0, 3), out.stderr
    report = json.loads((tmp_path / "p.report.json").read_text())
    assert report["params"]["misalignment_error"] == 0.02
    assert report["params"]["mean_pair_number"] == 0.04

    # explicit flag beats both files
    out = _run(*sim, "--params", str(cfg), "--misalignment-error", "0.01", env=env, cwd=tmp_path)
    assert out.returncode in (0, 3), out.stderr
    report = json.loads((tmp_path / "p.report.json").read_text())
    assert report["params"]["misalignment_error"] == 0.01
    assert report["params"]["mean_pair_number"] == 0.04


def test_subprocess_imports_package_under_test(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", "import passiveqkd; print(passiveqkd.__file__)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == passiveqkd.__file__


def test_bad_param_file(tmp_path):
    cfg = tmp_path / "bad.params"
    cfg.write_text("not_a_real_knob = 1\n")
    out = _run("simulate", "--params", str(cfg), "--pulses", "1", "--seed", "0", cwd=tmp_path)
    assert out.returncode == 1
    assert "error:" in out.stderr
    assert "not_a_real_knob" in out.stderr


_DIRECTORY = object()


@pytest.mark.parametrize(
    "content, via_env",
    [
        ("mean_pair_number = abc\n", False),
        ('{"mean_pair_number": null}\n', False),
        ('{"mean_pair_number": 0.1,\n', False),
        (None, False),
        (_DIRECTORY, False),
        (b"\xff\xfe", False),
        (None, True),
        (_DIRECTORY, True),
        (b"\xff\xfe", True),
    ],
    ids=["non-numeric", "json-null", "malformed-json", "missing", "directory", "not-utf8",
         "missing-env", "directory-env", "not-utf8-env"],
)
def test_malformed_param_file_is_an_error_line(tmp_path, content, via_env):
    cfg = tmp_path / "bad.params"
    if content is _DIRECTORY:
        cfg.mkdir()
    elif isinstance(content, bytes):
        cfg.write_bytes(content)
    elif content is not None:
        cfg.write_text(content)
    if via_env:
        out = _run("optimize-mu", env=dict(os.environ, PASSIVEQKD_PARAMS=str(cfg)), cwd=tmp_path)
    else:
        out = _run("optimize-mu", "--params", str(cfg), cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_simulate_unbounded_ec_leak_is_an_error(tmp_path):
    # coin-flip errors keep the sifted error rate, and so the leak, nonzero under any seed
    out = _run("simulate", "--pulses", "20000", "--seed", "1", "--misalignment-error", "0.5",
               "--ec-efficiency", "1e308", cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_bad_family_value():
    out = _run("epsilon", "--n-r", "10", "--n-s", "5", "--e-p-tilde", "0",
               "--e-b-tilde", "0", "--family", "md5")
    assert out.returncode == 1
    assert "error:" in out.stderr


# --- in-process calls through the parser that cli.main builds once and keeps

EPSILON_ARGS = ["epsilon", "--n-r", "2000", "--n-s", "1000", "--e-p-tilde", "0.11", "--e-b-tilde", "0"]


def _help(parse, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        parse([*argv, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["rate"], ["simulate"], ["epsilon"], ["optimize-mu"]])
def test_cached_parser_help_matches_a_fresh_parser(argv, capsys):
    cached = _help(cli.main, argv, capsys)
    fresh = _help(cli._build_parser.__wrapped__().parse_args, argv, capsys)
    assert cached == fresh and cached.startswith("usage: passiveqkd")
    assert cli._build_parser() is cli._build_parser()


def test_cached_parser_keeps_no_flags_between_calls(tmp_path):
    assert cli.main(["simulate", *FAST_SIM, "--family", "f3r", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["simulate", "--pulses", "1000", "--out", str(tmp_path / "b")]) in (0, 3)
    report = json.loads((tmp_path / "b.report.json").read_text())
    assert report["params"] == ProtocolParams().to_json_dict()
    assert report["rng_seed"] == 0 and report["n_pulses"] == 1000


def test_cached_parser_recovers_from_a_usage_error(capsys):
    assert cli.main(EPSILON_ARGS) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["epsilon", "--n-r", "2000", "--bogus"])
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(EPSILON_ARGS) == 0
    assert capsys.readouterr().out == first


def test_import_does_not_build_the_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def record(self, *a, **k):\n"
        "    built.append(k.get('prog'))\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = record\n"
        "import passiveqkd, passiveqkd.cli\n"
        "assert built == [], built\n"
        "assert passiveqkd.cli._build_parser.cache_info().currsize == 0\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_count_flags_take_parameter_number_syntax(tmp_path, capsys):
    assert cli.main(EPSILON_ARGS) == 0
    plain = capsys.readouterr().out
    assert cli.main(["epsilon", "--n-r", "2e3", "--n-s", "1000.0", "--e-p-tilde", "0.11",
                     "--e-b-tilde", "0", "--ec-efficiency", "1.15"]) == 0
    assert capsys.readouterr().out == plain
    assert cli.main(["simulate", *FAST_SIM, "--out", str(tmp_path / "a")]) == 0
    # the later flags override FAST_SIM's "--pulses 100000 --seed 3"
    assert cli.main(["simulate", *FAST_SIM, "--pulses", "1e5", "--seed", "3.0",
                     "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.report.json").read_bytes() == (tmp_path / "b.report.json").read_bytes()


@pytest.mark.parametrize(
    "flag, value",
    [("--n-r", "1.5"), ("--n-s", "x"), ("--n-r", "inf"), ("--e-b-tilde", "nan"),
     ("--e-p-tilde", "inf"), ("--ec-efficiency", "inf"), ("--ec-efficiency", "nan"),
     ("--ec-efficiency", "0.5"), ("--pulses", "1.5"), ("--pulses", "many"), ("--seed", "nan"),
     ("--n-s", "3000"), pytest.param("--n-r", "1" + "0" * 400, id="--n-r-401-chars"), ("--pulses", "10000000000000000000")],
)
def test_bad_count_or_rate_flag_is_an_error_line(flag, value, tmp_path, capsys):
    if flag in ("--pulses", "--seed"):
        argv = ["simulate", "--pulses", "1000", "--out", str(tmp_path / "s"), flag, value]
    else:
        argv = [*EPSILON_ARGS, flag, value]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("bad", ["1:2:3", "a:b", "0.5"])
def test_optimize_mu_bad_range_is_a_usage_error(bad, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["optimize-mu", "--mu-range", bad])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: passiveqkd optimize-mu")
    assert "--mu-range" in err


def test_simulate_unwritable_out_is_an_error_line(tmp_path, capsys):
    argv = ["simulate", "--pulses", "1000", "--out", str(tmp_path / "missing" / "s")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
