"""Command-line front end.

Four subcommands: ``rate`` (loss sweep with per-point pump optimization,
CSV or JSON on stdout), ``simulate`` (one seeded session, report JSON plus
transcript log on disk), ``epsilon`` (reassignment solve and seed budget
table for given counts and rates), and ``optimize-mu``.

Parameter resolution order: built-in defaults, then a config file (the
``--params`` flag, falling back to the ``PASSIVEQKD_PARAMS`` environment
variable), then individual flags.  All output is locale-independent and
byte-stable for fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

from .optimize import optimize_mu, sweep_loss
from .rates import seed_ledger, solve_epsilon
from .session import run_session
from .types import CSV_COLUMNS, ErrorRates, HashFamily, ParameterError, ProtocolParams
from .types import _coerce_fields, _parse_float, _parse_int

__all__ = ["main"]

_PARAMS_ENV = "PASSIVEQKD_PARAMS"

# Every ProtocolParams field is set by a flag named after it.  Flag values stay
# text until _coerce_fields parses them, as it parses a parameter file's values.
_PARAM_NAMES = [f.name for f in dataclasses.fields(ProtocolParams)]
# A sweep point costs milliseconds, so 10^5 points already take minutes.
_MAX_LOSS_POINTS = 100_000
_FAMILY_HELP = "seed hash family (f1r-f2r, f3r-f4r, toeplitz, trevisan, tssr, eps-almost-pairwise)"


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--params", metavar="FILE", help="parameter file (JSON or key=value)")
    for name in _PARAM_NAMES:
        flag = "--" + name.replace("_", "-")
        if name == "hash_family":
            sub.add_argument(flag, "--family", dest=name, metavar="NAME", help=_FAMILY_HELP)
        else:
            sub.add_argument(flag, dest=name, metavar="V")


def _load_params(args: argparse.Namespace) -> ProtocolParams:
    path = args.params or os.environ.get(_PARAMS_ENV)
    params = ProtocolParams.from_file(path) if path else ProtocolParams()
    overrides = {n: getattr(args, n) for n in _PARAM_NAMES if getattr(args, n) is not None}
    return params.replace(**_coerce_fields(overrides)) if overrides else params


def _colon_floats(form: str, text: str) -> list[float]:
    """The floats of a colon list shaped like ``form``; argparse names the flag on error."""
    parts = text.split(":")
    if len(parts) != form.count(":") + 1:
        raise argparse.ArgumentTypeError(f"expects {form}, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects numeric {form}, got {text!r}") from None


def _loss_points(text: str) -> list[float]:
    start, end, step = _colon_floats("start:end:step", text)
    if not (0.0 <= start < end < math.inf and 0.0 < step < math.inf):
        raise argparse.ArgumentTypeError("requires finite start >= 0, step > 0, end > start")
    span = (end - start) / step + 1e-9
    if not span < _MAX_LOSS_POINTS:
        raise argparse.ArgumentTypeError(f"expects at most {_MAX_LOSS_POINTS} points, got {text!r}")
    return [start + i * step for i in range(int(span) + 1)]


def _cmd_rate(args: argparse.Namespace) -> int:
    rows = sweep_loss(_load_params(args), args.loss)
    if args.json:
        json.dump([r.to_json_dict() for r in rows], sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_row())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _load_params(args)
    result = run_session(params, _parse_int("pulses", args.pulses), _parse_int("seed", args.seed))
    report_path = Path(f"{args.out}.report.json")
    report_path.write_text(json.dumps(result.to_json_dict(), indent=2) + "\n")
    Path(f"{args.out}.transcript.log").write_text(result.transcript_log())
    t = result.tally
    print(
        f"status={result.status} n_r={t.n_r} n_s={t.n_s} m_x={t.m_x} m_z={t.m_z} "
        f"epsilon={result.epsilon} k_final_bits={len(result.k_final)}"
    )
    return 0 if len(result.k_final) > 0 else 3


def _cmd_epsilon(args: argparse.Namespace) -> int:
    n_r, n_s = _parse_int("n_r", args.n_r), _parse_int("n_s", args.n_s)
    e_b, e_p, f = (_parse_float(n, getattr(args, n)) for n in ("e_b_tilde", "e_p_tilde", "ec_efficiency"))
    rates = ErrorRates(e_b, e_b, e_p, e_p)
    families = (
        [HashFamily.parse(args.hash_family)] if args.hash_family is not None else list(HashFamily)
    )
    for family in families:
        eps = solve_epsilon(n_r, n_s, rates, f, family)
        supply, demand, _ = seed_ledger(eps, n_r, n_s, rates, f, family)
        print(
            f"family={family.value} epsilon={eps} "
            f"seed_supply={supply!r} seed_demand={float(demand)!r}"
        )
    return 0


def _cmd_optimize_mu(args: argparse.Namespace) -> int:
    best = optimize_mu(_load_params(args), tuple(args.mu_range))
    print(f"mu_opt={best.mu!r} rate_per_pulse={best.rate_per_pulse_passive!r}")
    return 0


@functools.cache  # built by the first call to main and kept: parse_args does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passiveqkd",
        description="Certified key rates and simulated sessions for passively seeded entanglement QKD.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_rate = subs.add_parser("rate", help="loss sweep with per-point pump optimization")
    _add_param_flags(p_rate)
    p_rate.add_argument("--loss", default="0:40:2", type=_loss_points, metavar="S:E:T", help="loss sweep in dB, start:end:step inclusive")
    p_rate.add_argument("--json", action="store_true", help="emit a JSON array instead of CSV")
    p_rate.set_defaults(handler=_cmd_rate)

    p_sim = subs.add_parser("simulate", help="run one seeded session and write report files")
    _add_param_flags(p_sim)
    p_sim.add_argument("--pulses", default=1_000_000, help="pump windows to sample")
    p_sim.add_argument("--seed", default=0, help="session RNG seed")
    p_sim.add_argument("--out", default="session", metavar="PREFIX", help="output prefix for .report.json and .transcript.log")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_eps = subs.add_parser("epsilon", help="reassignment solve and seed budget table")
    p_eps.add_argument("--n-r", required=True, dest="n_r")
    p_eps.add_argument("--n-s", required=True, dest="n_s")
    p_eps.add_argument("--e-b-tilde", required=True, dest="e_b_tilde")
    p_eps.add_argument("--e-p-tilde", required=True, dest="e_p_tilde")
    p_eps.add_argument("--ec-efficiency", default=ProtocolParams().ec_efficiency)
    p_eps.add_argument("--hash-family", "--family", dest="hash_family", metavar="NAME")
    p_eps.set_defaults(handler=_cmd_epsilon)

    p_opt = subs.add_parser("optimize-mu", help="best mean pair number at the configured loss")
    _add_param_flags(p_opt)
    p_opt.add_argument("--mu-range", default="1e-4:1", type=functools.partial(_colon_floats, "lo:hi"), metavar="LO:HI")
    p_opt.set_defaults(handler=_cmd_optimize_mu)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
