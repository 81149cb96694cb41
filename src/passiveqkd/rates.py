"""Secure key length accounting for the passive scheme and its baseline.

The pipeline certifies two pools per block: the error-corrected sifted key
(length ``n_s``) and the mismatched-basis outcome pool (length
``n_r - n_s``) whose min-entropy funds the privacy-amplification seed.
Reassigning ``epsilon`` bits from the key into the pool trades final key
length for seed supply: :func:`seed_ledger` accounts for one trade and
:func:`solve_epsilon` finds the cheapest one that covers the configured
hash family's budget.

All entropies stay real-valued through the analytic pipeline and are floored
to integers only at the final key-length outputs; a session's ledger works
in whole bits.
"""

from __future__ import annotations

import math

from .channel import coincidence_gain_qber, derive_channel
from .types import MAX_COUNT, ErrorRates, HashFamily, ParameterError, ProtocolParams, RateBreakdown
from .types import _check_unit, _failure_prob

__all__ = [
    "binary_entropy",
    "phase_error_upper_bound",
    "certified_rates",
    "key_length_basis",
    "min_entropy_mismatched_per_basis",
    "min_entropy_mismatched_aggregate",
    "min_entropy_error_corrected",
    "reassignment_demand",
    "seed_ledger",
    "solve_epsilon",
    "passive_final_key_length",
    "rate_point",
]


def binary_entropy(x: float) -> float:
    """Binary entropy H2(x) in bits, with H2(0) = H2(1) = 0.

    :raises ParameterError: if x is outside [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"binary_entropy domain is [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def phase_error_upper_bound(
    e_obs: float, n_obs: float, n_target: float, eps_ph: float
) -> float:
    """Upper-bound the phase error of one pool from the bit errors of the other.

    Random sampling without replacement between two pools of sizes
    ``n_obs`` (where the error rate was measured) and ``n_target`` (where it
    is to be bounded) deviates by more than

        theta = sqrt((n_obs + n_target) ln(1/eps_ph) / (2 n_obs n_target))

    with probability below ``eps_ph``, so the bound is ``e_obs + theta``,
    clamped to one half.
    """
    if not 0.0 <= e_obs <= 0.5:
        raise ParameterError("e_obs must lie in [0, 0.5]")
    if not (1 <= n_obs <= MAX_COUNT and 1 <= n_target <= MAX_COUNT):
        raise ParameterError(f"pool sizes must lie in [1, {MAX_COUNT}]")
    eps_ph = _failure_prob("eps_ph", eps_ph)
    theta = math.sqrt(
        (n_obs + n_target) * math.log(1.0 / eps_ph) / (2.0 * n_obs * n_target)
    )
    return min(0.5, e_obs + theta)


def certified_rates(
    e_bx: float, e_bz: float, n_s_x: float, n_s_z: float, eps_ph: float
) -> ErrorRates:
    """Finite-size error certificate of a sifted key measured per basis.

    Bit errors must lie in [0, 1] and are clamped to one half; each basis's
    phase error is bounded from the other basis's bit errors by
    :func:`phase_error_upper_bound`.
    With fewer than one sifted bit in either basis nothing is certified and
    both phase bounds are one half.
    """
    e_bx, e_bz = min(_check_unit("e_bx", e_bx), 0.5), min(_check_unit("e_bz", e_bz), 0.5)
    if not (0 <= n_s_x <= MAX_COUNT and 0 <= n_s_z <= MAX_COUNT):
        raise ParameterError(f"sifted counts must lie in [0, {MAX_COUNT}]")
    if n_s_x < 1 or n_s_z < 1:
        e_px_up = e_pz_up = 0.5
    else:
        e_px_up = phase_error_upper_bound(e_bz, n_s_z, n_s_x, eps_ph)
        e_pz_up = phase_error_upper_bound(e_bx, n_s_x, n_s_z, eps_ph)
    return ErrorRates(e_bx, e_bz, e_px_up, e_pz_up)


def min_entropy_mismatched_per_basis(
    m_x: float, m_z: float, e_pz_up: float, e_px_up: float
) -> float:
    """Min-entropy of the mismatched pool, split by measurement basis.

    Mismatched X outcomes are bounded through the Z-basis phase bound and
    vice versa, hence the crossed argument order.
    """
    if not (0 <= m_x <= MAX_COUNT and 0 <= m_z <= MAX_COUNT):
        raise ParameterError(f"mismatched counts must lie in [0, {MAX_COUNT}]")
    return m_x * (1.0 - binary_entropy(e_pz_up)) + m_z * (1.0 - binary_entropy(e_px_up))


def min_entropy_mismatched_aggregate(n_r: float, n_s: float, e_p_tilde: float) -> float:
    """Single-pool form of the mismatched min-entropy, using the worst-case bound."""
    if not 0 <= n_s <= n_r <= MAX_COUNT:
        raise ParameterError(f"need 0 <= n_s <= n_r <= {MAX_COUNT}")
    return (n_r - n_s) * (1.0 - binary_entropy(e_p_tilde))


def min_entropy_error_corrected(
    n_s: float, e_p_tilde: float, e_b_tilde: float, f: float
) -> float:
    """Min-entropy of the error-corrected key given the public transcript.

    It refuses an ``f`` below 1 or infinite, NaN included.
    """
    if not 0 <= n_s <= MAX_COUNT:
        raise ParameterError(f"n_s must lie in [0, {MAX_COUNT}]")
    if not 1.0 <= f < math.inf:
        raise ParameterError("f must be finite and at least 1")
    return max(
        0.0,
        n_s * (1.0 - binary_entropy(e_p_tilde) - f * binary_entropy(e_b_tilde)),
    )


#: The key of one basis of the sifted pool is the same certificate on that basis's counts.
key_length_basis = min_entropy_error_corrected


def reassignment_demand(family: HashFamily, n_s: float, n_f: float) -> float:
    """Seed bits the hash family consumes to compress ``n_s`` key bits to ``n_f``.

    A Toeplitz matrix is budgeted at ``n_s``, even for an empty key.  For every
    other family an empty key demands nothing, since with no bits to hash there
    is no extraction step; otherwise F1R/F2R need ``n_s - n_f``, F3R/F4R need
    ``n_f``, Trevisan's extractor ``ceil(log2(n_s)**3)`` (zero for ``n_s`` of
    at most 1), the TSSR family ``2 n_f`` and epsilon-almost pairwise
    independent hashing ``4 n_f``.
    """
    if not (n_f >= 0 and 0 <= n_s <= MAX_COUNT):
        raise ParameterError(f"lengths must lie in [0, {MAX_COUNT}]")
    if not n_f <= n_s:
        raise ParameterError("output cannot exceed input length")
    if family is HashFamily.TOEPLITZ:
        return n_s
    if n_f == 0:
        return 0.0
    if family is HashFamily.F1R_F2R:
        return n_s - n_f
    if family is HashFamily.F3R_F4R:
        return n_f
    if family is HashFamily.TREVISAN:
        return 0.0 if n_s <= 1 else float(math.ceil(math.log2(n_s) ** 3))
    if family is HashFamily.TSSR:
        return 2.0 * n_f
    if family is HashFamily.EPS_ALMOST_PAIRWISE:
        return 4.0 * n_f
    raise ParameterError(f"unhandled hash family: {family}")


def seed_ledger(
    eps: int, n_r: float, n_s: float, rates: ErrorRates, f: float, family: HashFamily,
    penalty_bits: float | None = None,
) -> tuple[float, float, float]:
    """``(supply, demand, n_f)`` after reassigning ``eps`` sifted bits to the seed pool.

    The supply ``(n_r - n_s + eps)(1 - H2(e_p_tilde))`` is the certified
    min-entropy of the enlarged pool, ``n_f`` that of the ``n_s - eps`` key
    bits left, and the demand is :func:`reassignment_demand` for that key.
    It refuses counts outside ``0 <= eps <= n_s <= n_r <= MAX_COUNT``, NaN
    included, and a ``penalty_bits`` that is not finite and at least 0;
    :func:`min_entropy_error_corrected` refuses a bad ``f``.
    A session passes ``penalty_bits`` (the leftover-hash cost of extracting
    the seed): the supply becomes the extractor's output length,
    ``max(0, floor(supply - penalty_bits))`` (a negative margin means no seed
    bits, not a debt), and ``n_f`` is floored before the demand is charged.
    """
    if not 0 <= n_s <= n_r:
        raise ParameterError("need 0 <= n_s <= n_r")
    if not n_r <= MAX_COUNT:
        raise ParameterError(f"n_r must be at most {MAX_COUNT}")
    if not 0 <= eps <= n_s:
        raise ParameterError("eps must lie in [0, n_s]")
    supply = (n_r - n_s + eps) * (1.0 - binary_entropy(rates.e_p_tilde))
    n_f = min_entropy_error_corrected(n_s - eps, rates.e_p_tilde, rates.e_b_tilde, f)
    if penalty_bits is not None:
        if not 0.0 <= penalty_bits < math.inf:
            raise ParameterError("penalty_bits must be finite and at least 0")
        supply = max(0, math.floor(supply - penalty_bits))
        n_f = math.floor(n_f)
    return supply, reassignment_demand(family, n_s - eps, n_f), n_f


def solve_epsilon(
    n_r: float, n_s: float, rates: ErrorRates, f: float, family: HashFamily,
    penalty_bits: float | None = None,
) -> int:
    """Smallest integer reassignment whose :func:`seed_ledger` supply covers its demand.

    The supply grows with ``eps`` while every family's demand shrinks, so the
    margin ``supply - demand`` is monotone and the search keeps a bracket:
    ``lo`` infeasible, ``hi`` feasible, from ``lo = 0`` and ``hi = floor(n_s)``
    (the key is then empty and demands nothing, so a solution exists whenever
    the inputs are well-formed; if even ``hi`` falls short, it is returned).
    Each probe sits where the margin, interpolated across the bracket,
    crosses zero.  The margin is linear in ``eps`` for every family but
    Trevisan, so the root is usually found by the probe and its neighbour,
    four ledger evaluations in all.  A probe that fails to halve the bracket
    is followed by a midpoint probe, so every two probes at least halve it:
    at most ``2 + 2 ceil(log2(n_s))`` evaluations for ``n_s >= 1``, about
    twice bisection's.  The ledger refuses bad inputs at the first probe.
    """

    def margin(eps: int) -> float:
        supply, demand, _ = seed_ledger(eps, n_r, n_s, rates, f, family, penalty_bits)
        return supply - demand

    m_lo = margin(0)  # before floor(n_s), which a NaN count would make raise ValueError
    if m_lo >= 0:
        return 0
    lo, hi = 0, int(math.floor(n_s))
    m_hi = margin(hi)
    if m_hi < 0:
        return hi
    midpoint = False
    while hi - lo > 1:
        width = hi - lo
        if midpoint:
            probe = (lo + hi) // 2
        else:
            # of the two integers around the root, probe the one that halves
            # the bracket if it lands on the side the interpolation predicts
            up = math.ceil(lo + width * (m_lo / (m_lo - m_hi)))
            probe = up if up - lo <= hi - up + 1 else up - 1
            probe = min(max(probe, lo + 1), hi - 1)
        m = margin(probe)
        if m >= 0:
            hi, m_hi = probe, m
        else:
            lo, m_lo = probe, m
        midpoint = not midpoint and hi - lo > (width + 1) // 2
    return hi


def passive_final_key_length(
    n_s: float, epsilon: int, rates: ErrorRates, f: float
) -> float:
    """Final passive key (real-valued bits) after reassigning ``epsilon`` bits."""
    if not 0 <= epsilon <= n_s:
        raise ParameterError("epsilon must lie in [0, n_s]")
    return min_entropy_error_corrected(n_s - epsilon, rates.e_p_tilde, rates.e_b_tilde, f)


def rate_point(params: ProtocolParams) -> RateBreakdown:
    """Evaluate passive and baseline key rates at one channel configuration.

    One post-processing block holds ``block_size`` raw detections, of which
    a fraction ``q`` (the basis reconciliation factor) is sifted key and the
    rest is the mismatched pool, split evenly between bases.  Expected-value
    tallies are used throughout; the Monte Carlo sessions in
    :mod:`passiveqkd.session` reproduce them statistically.
    """
    ch = derive_channel(params)
    gq = coincidence_gain_qber(ch, params.misalignment_error)
    q = params.basis_reconciliation_factor
    f = params.ec_efficiency
    n_r = float(params.block_size)
    n_s = q * n_r
    n_s_x = n_s_z = n_s / 2.0
    rates = certified_rates(gq.qber, gq.qber, n_s_x, n_s_z, params.phase_est_failure_prob)

    epsilon = solve_epsilon(n_r, n_s, rates, f, params.hash_family)
    supply, demand, n_f_passive_real = seed_ledger(epsilon, n_r, n_s, rates, f, params.hash_family)
    n_f_passive = math.floor(n_f_passive_real)
    n_f_bbm92 = math.floor(
        key_length_basis(n_s_x, rates.e_px_up, rates.e_bx, f)
        + key_length_basis(n_s_z, rates.e_pz_up, rates.e_bz, f)
    )

    def per_pulse(n_f: int) -> float:
        return (n_f / n_s) * q * gq.gain if n_s > 0 else 0.0

    if gq.gain <= 0.0:
        status = "no-gain"
    elif n_f_passive == 0:
        status = "no-key"
    else:
        status = "ok"

    return RateBreakdown(
        loss_db=params.channel_loss_db,
        mu=params.mean_pair_number,
        family=params.hash_family,
        q_gain=gq.gain,
        e_qber=gq.qber,
        n_s=n_s,
        h_min_w=min_entropy_mismatched_aggregate(n_r, n_s, rates.e_p_tilde),
        h_min_kec=min_entropy_error_corrected(n_s, rates.e_p_tilde, rates.e_b_tilde, f),
        epsilon=epsilon,
        seed_demand=demand,
        seed_supply=supply,
        n_f_passive=n_f_passive,
        n_f_bbm92=n_f_bbm92,
        rate_per_pulse_passive=per_pulse(n_f_passive),
        rate_per_pulse_bbm92=per_pulse(n_f_bbm92),
        e_b_tilde=rates.e_b_tilde,
        e_p_tilde=rates.e_p_tilde,
        status=status,
    )
