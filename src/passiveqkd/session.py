"""End-to-end protocol sessions over the sampled channel.

A session plays both receivers: it samples detection windows, sifts matched
single-click coincidences into the raw key, keeps Alice's mismatched-basis
outcomes as the local randomness pool, certifies that pool's min-entropy
from the measured error rates, condenses it into the public seed ``w_star``
with a private reusable Toeplitz seed, and privacy-amplifies the
error-corrected key.  Error correction itself is modeled: Bob's corrected
key is set equal to Alice's and the leakage is charged to the transcript.

Everything is driven by one integer seed, so a session is reproducible
byte for byte.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import derive_channel, sample_usable_windows
from .rates import (
    binary_entropy,
    certified_rates,
    seed_ledger,
    solve_epsilon,
)
from .toeplitz import extract_local_randomness, leftover_hash_penalty, modified_toeplitz_hash
from .types import (
    BitString,
    ErrorRates,
    HashFamily,
    ParameterError,
    ProtocolParams,
    SessionTally,
)

__all__ = ["ClassicalMessage", "SessionResult", "run_session"]

# Seed-sequence spawn key for the pre-shared extractor seed; keeps the
# private randomness on a stream of its own, independent of the channel draws.
_PRIVATE_STREAM = 0x5EED


@dataclass(frozen=True, slots=True)
class ClassicalMessage:
    """One message on the authenticated public channel.

    ``payload`` is None for messages whose content is accounted for but not
    materialized (error-correction syndromes); ``length_bits`` is always the
    transmitted size.
    """

    direction: str
    kind: str
    length_bits: int
    payload: BitString | None = None

    def __post_init__(self):
        if self.direction not in ("A->B", "B->A"):
            raise ParameterError("direction must be 'A->B' or 'B->A'")
        if self.length_bits < 0:
            raise ParameterError("length_bits must be non-negative")
        if self.payload is not None and len(self.payload) != self.length_bits:
            raise ParameterError("payload length disagrees with length_bits")

    def to_line(self) -> str:
        body = self.payload.to_hex() if self.payload is not None else "-"
        return f"{self.direction} {self.kind} {self.length_bits} {body or '-'}"

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "kind": self.kind,
            "length_bits": self.length_bits,
            "payload_hex": self.payload.to_hex() if self.payload is not None else None,
        }


def _bits_json(bits: BitString) -> dict:
    return {"len": len(bits), "hex": bits.to_hex()}


@dataclass(frozen=True, slots=True)
class SessionResult:
    """Everything produced by one simulated session."""

    status: str
    params: ProtocolParams
    n_pulses: int
    rng_seed: int
    tally: SessionTally
    rates: ErrorRates
    epsilon: int
    epsilon_nominal: int
    n_f: int
    w_pool: BitString
    w_star: BitString
    k_sift_a: BitString
    k_sift_b: BitString
    k_final: BitString
    transcript: tuple[ClassicalMessage, ...]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            # only the Toeplitz key is privacy-amplified; the other families'
            # keys are truncations that stand in for their budgeted hashes
            "pa": "toeplitz"
            if self.params.hash_family is HashFamily.TOEPLITZ
            else "accounting-only",
            "params": self.params.to_json_dict(),
            "n_pulses": self.n_pulses,
            "rng_seed": self.rng_seed,
            "tally": self.tally.to_json_dict(),
            "rates": dataclasses.asdict(self.rates),
            "epsilon": self.epsilon,
            "epsilon_nominal": self.epsilon_nominal,
            "n_f": self.n_f,
            "w_pool": _bits_json(self.w_pool),
            "w_star": _bits_json(self.w_star),
            "k_sift_a": _bits_json(self.k_sift_a),
            "k_sift_b": _bits_json(self.k_sift_b),
            "k_final": _bits_json(self.k_final),
            "transcript": [m.to_json_dict() for m in self.transcript],
        }

    def transcript_log(self) -> str:
        return "".join(m.to_line() + "\n" for m in self.transcript)


def _whole_number(name: str, value, least: int) -> int:
    """``value`` as a Python ``int``, if it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def run_session(params: ProtocolParams, n_pulses: int, rng_seed: int) -> SessionResult:
    """Simulate one complete session of ``n_pulses`` pump windows.

    The reassignment ``epsilon`` is chosen as the smallest value whose
    extracted seed ``w_star`` actually covers the configured family's
    budget, i.e. the certificate is checked against the extractor output
    length (which pays the leftover-hash penalty), not just the raw
    min-entropy.  Privacy amplification is bit-exact for the Toeplitz
    family and a length-accounting truncation for the other families (the
    report's ``"pa"`` field says which).

    ``params.block_size`` and ``params.basis_reconciliation_factor`` are not
    read: they shape the key-rate model of :func:`rates.rate_point` only.
    The session samples ``n_pulses`` windows and sifts the usable windows
    whose sampled bases match, which is half of them on average.

    Session statuses: "ok"; "no-key" when the certified key length is zero.
    """
    n_pulses = _whole_number("n_pulses", n_pulses, 1)
    rng_seed = _whole_number("rng_seed", rng_seed, 0)
    rng = np.random.default_rng(rng_seed)
    a_basis, b_basis, a_bit, b_bit, n_double = sample_usable_windows(
        derive_channel(params), params.misalignment_error, rng, n_pulses
    )

    matched = a_basis == b_basis
    sift_a, sift_b, pool_bits = a_bit[matched], b_bit[matched], a_bit[~matched]
    # only published strings are copied; a mask count costs ~2% of a selection
    in_x = a_basis == 0
    errs = matched & (a_bit != b_bit)
    n_s = int(sift_a.size)
    n_s_x = int(np.count_nonzero(matched & in_x))
    n_s_z = n_s - n_s_x
    m_x = int(np.count_nonzero(in_x)) - n_s_x
    m_z = int(pool_bits.size) - m_x
    errs_x = int(np.count_nonzero(errs & in_x))
    errs_z = int(np.count_nonzero(errs)) - errs_x
    e_bx = errs_x / n_s_x if n_s_x else 0.0
    e_bz = errs_z / n_s_z if n_s_z else 0.0
    rates = certified_rates(e_bx, e_bz, n_s_x, n_s_z, params.phase_est_failure_prob)
    tally = SessionTally(
        n_r=n_s + m_x + m_z,
        n_s=n_s,
        n_s_x=n_s_x,
        n_s_z=n_s_z,
        m_x=m_x,
        m_z=m_z,
        n_double_click=n_double,
        n_pulses=n_pulses,
    )

    k_sift_a = BitString.from_bits(sift_a)
    k_sift_b = BitString.from_bits(sift_b)
    w_pool = BitString.from_bits(pool_bits)
    f = params.ec_efficiency
    family = params.hash_family
    ec_leak = f * binary_entropy(rates.e_b_tilde) * n_s
    if not math.isfinite(ec_leak):
        raise ParameterError(f"error-correction leak is not finite (ec_efficiency {f!r})")
    penalty = leftover_hash_penalty(params.extractor_failure_prob)
    epsilon_nominal = solve_epsilon(tally.n_r, n_s, rates, f, family)
    epsilon = solve_epsilon(tally.n_r, n_s, rates, f, family, penalty)
    n_out, _, n_f = seed_ledger(epsilon, tally.n_r, n_s, rates, f, family, penalty)

    kec = k_sift_a  # error correction modeled: Bob's corrected key equals Alice's
    kec_short = kec[: n_s - epsilon]
    w_enlarged = w_pool + kec[n_s - epsilon :]
    if n_out >= 1:
        private_rng = np.random.default_rng([rng_seed, _PRIVATE_STREAM])
        private_seed = BitString.random(len(w_enlarged) + n_out - 1, private_rng)
        w_star = extract_local_randomness(w_enlarged, n_out, private_seed)
    else:
        w_star = BitString.zeros(0)

    status = "ok" if n_f > 0 else "no-key"
    if n_f == 0:
        k_final = BitString.zeros(0)
    elif family is HashFamily.TOEPLITZ:
        k_final = modified_toeplitz_hash(kec_short, n_f, w_star[: len(kec_short) - 1])
    else:
        # Length-accounting stub: these families are budgeted, not constructed.
        k_final = kec_short[:n_f]

    transcript = (
        ClassicalMessage("A->B", "basis-announce", tally.n_r, BitString.from_bits(a_basis)),
        ClassicalMessage("B->A", "basis-announce", tally.n_r, BitString.from_bits(b_basis)),
        ClassicalMessage("A->B", "ec-syndrome", math.ceil(ec_leak)),
        ClassicalMessage("A->B", "seed-wstar", len(w_star), w_star),
    )
    return SessionResult(
        status=status,
        params=params,
        n_pulses=n_pulses,
        rng_seed=rng_seed,
        tally=tally,
        rates=rates,
        epsilon=epsilon,
        epsilon_nominal=epsilon_nominal,
        n_f=n_f,
        w_pool=w_pool,
        w_star=w_star,
        k_sift_a=k_sift_a,
        k_sift_b=k_sift_b,
        k_final=k_final,
        transcript=transcript,
    )
