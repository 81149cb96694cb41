"""Output checks for one CLI call.

Each check returns a list of problems; an empty list means the output is
correct.  Session checks use invariants and public report data only, never
golden session bytes, so a sampler that draws a different random stream
still passes while a wrong key, tally or exit code does not.
"""

from __future__ import annotations

import json
import math

import numpy as np

from passiveqkd.channel import coincidence_gain_qber, derive_channel
from passiveqkd.types import ProtocolParams

# Exit code the CLI documents for each session status.
EXIT_FOR_STATUS = {"ok": 0, "no-key": 3}

# Coincidence counts may sit this many standard deviations from the model.
COINCIDENCE_SIGMAS = 5.0

# Output rows of the privacy-amplification hash recomputed per session.
PA_ROWS = 512


def check_rate(exit_code: int, stdout: str, golden: str) -> list[str]:
    """A sweep must exit 0 and print exactly the golden CSV."""
    problems = []
    if exit_code != 0:
        problems.append(f"rate exited {exit_code}, expected 0")
    if stdout != golden:
        got, want = stdout.splitlines(), golden.splitlines()
        line = next(
            (i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want))
        )
        problems.append(f"rate CSV differs from golden output at line {line + 1}")
    return problems


def bits(field: dict) -> np.ndarray:
    """Unpack a report's ``{"len", "hex"}`` bit field, LSB first."""
    raw = np.frombuffer(bytes.fromhex(field["hex"]), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=field["len"])


def pa_mismatches(report: dict, rows: np.ndarray) -> list[int]:
    """Rows of ``k_final`` that disagree with an independent ``[identity | Toeplitz]`` oracle.

    The key is rebuilt from public report data only: the error-corrected key
    ``k_sift_a[:n_s - epsilon]`` and the broadcast seed ``w_star``.  Output
    row ``i`` is ``key[i]`` XOR the parity of ``tail`` against the Toeplitz
    row ``seed[i : i + len(tail)]`` read backwards, where ``tail`` is
    ``key[n_f:]``.
    """
    n_f = report["n_f"]
    key = bits(report["k_sift_a"])[: report["tally"]["n_s"] - report["epsilon"]]
    head, tail = key[:n_f], key[n_f:]
    seed = bits(report["w_star"])
    k_final = bits(report["k_final"])
    bad = []
    for i in rows:
        row = seed[i : i + tail.size][::-1]
        parity = np.count_nonzero(row & tail) & 1 if tail.size else 0
        if row.size != tail.size or k_final[i] != head[i] ^ parity:
            bad.append(int(i))
    return bad


def pa_rows(n_f: int, rng: np.random.Generator) -> np.ndarray:
    """Every row of a short key, else the first, the last and a random sample."""
    if n_f <= PA_ROWS:
        return np.arange(n_f)
    sample = rng.choice(n_f - 2, size=PA_ROWS - 2, replace=False) + 1
    return np.sort(np.concatenate(([0, n_f - 1], sample)))


def check_session(
    exit_code: int,
    stdout: str,
    report_text: str,
    transcript_text: str,
    expect: dict,
    rng: np.random.Generator,
) -> list[str]:
    """Invariants of one ``simulate`` call.

    ``expect`` holds ``params`` (the ProtocolParams JSON the call should
    have used), ``pulses``, ``seed`` and ``statuses`` (the statuses this
    workload may end in).
    """
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    status, tally, n_f = report["status"], report["tally"], report["n_f"]
    if status not in expect["statuses"]:
        problems.append(f"status {status!r} not among {sorted(expect['statuses'])}")
    if exit_code != EXIT_FOR_STATUS.get(status):
        problems.append(f"exit code {exit_code} does not match status {status!r}")
    if report["params"] != expect["params"]:
        problems.append("report params differ from the requested parameters")
    if (report["n_pulses"], report["rng_seed"]) != (expect["pulses"], expect["seed"]):
        problems.append("report pulses or seed differ from the request")

    if tally["n_r"] != tally["n_s"] + tally["m_x"] + tally["m_z"]:
        problems.append("tally: n_r != n_s + m_x + m_z")
    if tally["n_s"] != tally["n_s_x"] + tally["n_s_z"]:
        problems.append("tally: n_s != n_s_x + n_s_z")
    if tally["n_r"] + tally["n_double_click"] > tally["n_pulses"]:
        problems.append("tally: n_r + n_double_click > n_pulses")
    if report["k_sift_a"]["len"] != tally["n_s"] or report["w_pool"]["len"] != tally["m_x"] + tally["m_z"]:
        problems.append("sifted key or pool length disagrees with the tally")
    if report["k_final"]["len"] != n_f:
        problems.append(f"len(k_final) = {report['k_final']['len']} != n_f = {n_f}")
    if (status == "ok") != (n_f > 0):
        problems.append(f"status {status!r} with n_f = {n_f}")

    summary = (
        f"status={status} n_r={tally['n_r']} n_s={tally['n_s']} m_x={tally['m_x']} "
        f"m_z={tally['m_z']} epsilon={report['epsilon']} k_final_bits={n_f}\n"
    )
    if stdout != summary:
        problems.append("stdout summary disagrees with the report")
    wstar_line = transcript_text.splitlines()[-1:]
    if wstar_line != [f"A->B seed-wstar {report['w_star']['len']} {report['w_star']['hex'] or '-'}"]:
        problems.append("transcript does not end with the broadcast w_star")

    params = ProtocolParams.from_json_dict(report["params"])
    gain = coincidence_gain_qber(derive_channel(params), params.misalignment_error).gain
    n = report["n_pulses"]
    coincidences = tally["n_r"] + tally["n_double_click"]
    sigma = math.sqrt(n * gain * (1.0 - gain))
    if abs(coincidences - n * gain) > COINCIDENCE_SIGMAS * sigma:
        problems.append(
            f"{coincidences} coincidences, model expects {n * gain:.1f} +- {sigma:.1f}"
        )

    if n_f > 0 and params.hash_family.value == "toeplitz":
        bad = pa_mismatches(report, pa_rows(n_f, rng))
        if bad:
            problems.append(f"k_final differs from the PA oracle at rows {bad[:8]}")
    return problems
