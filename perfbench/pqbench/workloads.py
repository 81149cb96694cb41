"""The benchmark's workloads: what each CLI call is, and why it is there.

Every workload is a closed loop of back-to-back ``passiveqkd`` CLI calls
from one client in one process.  A call's inputs are fixed; the workload
seed only orders the hash families of a sweep round and derives the
session ``--seed`` values, so the same seed always gives the same calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from passiveqkd.types import HashFamily, ProtocolParams

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

SWEEP_LOSS = "0:40:2"
SWEEP_POINTS = 21


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple
    work: int  # optimized loss points (sweep) or pump windows (session)
    golden: str | None = None  # exact stdout of a sweep
    expect: dict | None = None  # session invariants, see checks.check_session
    repeats_first: bool = False  # same inputs as the run's first call


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prediction: str
    # (per-layer metric, low, high) that the traced run should land in
    expected_split: tuple
    round_size: int  # calls per round; a run ends only between rounds
    min_calls: int
    work_unit: str
    calls: object = field(repr=False)  # fn(seed, out_prefix) -> Iterator[Call]


def _sweep_calls(seed: int, out_prefix: str) -> Iterator[Call]:
    rng = random.Random(seed)
    families = [f.value for f in HashFamily]
    golden = {f: (GOLDEN_DIR / f"rate_{f}.csv").read_text() for f in families}
    while True:
        rng.shuffle(families)
        for family in families:
            yield Call(
                argv=("rate", "--loss", SWEEP_LOSS, "--family", family),
                work=SWEEP_POINTS,
                golden=golden[family],
            )


def _session_calls(flags: dict, pulses: int, statuses: frozenset):
    params = ProtocolParams().replace(
        **{k: HashFamily.parse(v) if k == "hash_family" else v for k, v in flags.items()}
    )
    argv = []
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]

    def calls(seed: int, out_prefix: str) -> Iterator[Call]:
        rng = random.Random(seed)
        first = rng.randrange(2**31)
        # the second call repeats the first, so every run checks determinism
        seeds = [first, first]
        index = 0
        while True:
            if index >= len(seeds):
                seeds.append(rng.randrange(2**31))
            s = seeds[index]
            yield Call(
                argv=("simulate", *argv, "--pulses", str(pulses), "--seed", str(s),
                      "--out", out_prefix),
                work=pulses,
                expect={"params": params.to_json_dict(), "pulses": pulses, "seed": s,
                        "statuses": statuses},
                repeats_first=index == 1,
            )
            index += 1

    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rate_sweep",
            why=(
                "rate --loss 0:40:2 once per hash family (126 optimized points a round): "
                "all analytics, split over the channel series, the epsilon solve and the "
                "optimizer, with no sampler or GF(2) kernel. Toeplitz, TSSR and "
                "eps-pairwise bisect in solve_epsilon; F3R/F4R exits at epsilon 0."
            ),
            prediction=(
                "Moves with channel, rates and optimize work; an FFT kernel or a "
                "detection-driven sampler predicts no change."
            ),
            expected_split=(
                ("channel.sample_window_batch.calls", 0.0, 0.0),
                ("toeplitz.gf2_convolve.calls", 0.0, 0.0),
            ),
            round_size=len(HashFamily),
            min_calls=100,
            work_unit="points",
            calls=_sweep_calls,
        ),
        Workload(
            name="session_lossless",
            why=(
                "simulate with the tests' lossless BENCH parameters at 4e6 pulses, "
                "Toeplitz: bound by GF(2) hashing (extraction over ~97k bits, then PA), "
                "about a fifth sampling. A block-filling 2e7-pulse session takes over "
                "40 s a call on the integer kernel, too long to repeat."
            ),
            prediction=(
                "An FFT GF(2) kernel moves work_per_s, call_p50_s and peak_rss_mb here; "
                "a detection-driven sampler saves at most the sampling fifth."
            ),
            expected_split=(("session.toeplitz_share", 0.70, 0.85),),
            round_size=1,
            min_calls=5,
            work_unit="pulses",
            calls=_session_calls(
                {"dark_count_prob": 0.0, "detector_efficiency": 1.0,
                 "misalignment_error": 0.01, "mean_pair_number": 0.05,
                 "channel_loss_db": 0.0, "hash_family": "toeplitz"},
                4_000_000,
                frozenset({"ok"}),
            ),
        ),
        Workload(
            name="session_lossy",
            why=(
                "simulate at default detectors, 10 dB, mu 0.03 (near the optimum), "
                "8e6 pulses: bound by the sampler, about 5e-4 of windows usable, the "
                "kernel under 1%. Most seeds certify no key (exit 3), a few a handful "
                "of bits (exit 0)."
            ),
            prediction=(
                "A detection-driven sampler predicts a large gain in work_per_s here; "
                "an FFT kernel predicts no change."
            ),
            expected_split=(("session.sampler_share", 0.90, 1.0),),
            round_size=1,
            min_calls=10,
            work_unit="pulses",
            calls=_session_calls(
                {"channel_loss_db": 10.0, "mean_pair_number": 0.03},
                8_000_000,
                frozenset({"no-key", "ok"}),
            ),
        ),
    )
}
