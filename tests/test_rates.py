"""Key-length accounting: entropies, bounds, seed budgets, the epsilon solve."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solver_oracle import bisect_epsilon

from passiveqkd import rates as rates_module
from passiveqkd import (
    HashFamily,
    ParameterError,
    ProtocolParams,
    binary_entropy,
    certified_rates,
    key_length_basis,
    leftover_hash_penalty,
    make_error_rates,
    min_entropy_error_corrected,
    min_entropy_mismatched_aggregate,
    min_entropy_mismatched_per_basis,
    passive_final_key_length,
    phase_error_upper_bound,
    rate_point,
    reassignment_demand,
    seed_ledger,
    solve_epsilon,
)


def test_binary_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.015) == pytest.approx(0.1123607, abs=1e-7)


def test_binary_entropy_symmetry():
    rng = np.random.default_rng(1)
    for x in rng.uniform(0.0, 1.0, 200):
        assert binary_entropy(float(x)) == pytest.approx(binary_entropy(1.0 - float(x)), abs=1e-14)


def test_binary_entropy_domain():
    with pytest.raises(ParameterError):
        binary_entropy(-0.01)
    with pytest.raises(ParameterError):
        binary_entropy(1.01)


def test_phase_bound_spot_value():
    theta = phase_error_upper_bound(0.0, 10**6, 10**6, 1e-7)
    assert theta == pytest.approx(4.014735e-3, abs=1e-8)
    assert phase_error_upper_bound(0.49, 100, 100, 1e-7) == 0.5  # clamped


def test_phase_bound_validation():
    with pytest.raises(ParameterError):
        phase_error_upper_bound(0.6, 100, 100, 1e-7)
    with pytest.raises(ParameterError):
        phase_error_upper_bound(0.1, 0, 100, 1e-7)
    with pytest.raises(ParameterError):
        phase_error_upper_bound(0.1, 100, 100, 0.0)


def test_certified_rates_crosses_bases_and_clamps():
    r = certified_rates(0.02, 0.7, 400, 100, 1e-7)
    assert (r.e_bx, r.e_bz) == (0.02, 0.5)
    assert r.e_px_up == phase_error_upper_bound(0.5, 100, 400, 1e-7)
    assert r.e_pz_up == phase_error_upper_bound(0.02, 400, 100, 1e-7)
    # fewer than one sifted bit in a basis certifies nothing
    for n_x, n_z in [(0, 100), (100, 0), (0.5, 0.5)]:
        r = certified_rates(0.01, 0.01, n_x, n_z, 1e-7)
        assert (r.e_px_up, r.e_pz_up) == (0.5, 0.5)


_NAN = float("nan")
_RATES = make_error_rates(0.01, 0.01, 0.05, 0.05)
# NaN passes a negated comparison such as `n < 1`; a subnormal eps_ph overflows
# 1/eps_ph, so the bound would clamp to 0.5.  The ledger's counts, and the
# leftover-hash failure probability, are checked by their own functions too, and
# f by the certificate that consumes it.  Each must raise instead.
_REFUSED = {
    "solve-nan-n_r": lambda: solve_epsilon(_NAN, 5, _RATES, 1.15, HashFamily.TOEPLITZ),
    "solve-nan-n_s": lambda: solve_epsilon(10, _NAN, _RATES, 1.15, HashFamily.TOEPLITZ),
    "bound-nan-n_obs": lambda: phase_error_upper_bound(0.01, _NAN, 10, 1e-7),
    "bound-nan-n_target": lambda: phase_error_upper_bound(0.01, 10, _NAN, 1e-7),
    "bound-subnormal-eps": lambda: phase_error_upper_bound(0.01, 10, 10, 1e-310),
    "certified-nan-n_s_x": lambda: certified_rates(0.01, 0.01, _NAN, 10, 1e-7),
    "certified-nan-n_s_z": lambda: certified_rates(0.01, 0.01, 10, _NAN, 1e-7),
    "certified-subnormal-eps": lambda: certified_rates(0.01, 0.01, 10, 10, 1e-310),
    "aggregate-nan-n_r": lambda: min_entropy_mismatched_aggregate(_NAN, 5, 0.1),
    "corrected-nan-n_s": lambda: min_entropy_error_corrected(_NAN, 0.1, 0.1, 1.15),
    "requirement-nan-n_s": lambda: reassignment_demand(HashFamily.TOEPLITZ, _NAN, 1),
    "requirement-nan-n_f": lambda: reassignment_demand(HashFamily.TOEPLITZ, 10, _NAN),
    "ledger-nan-n_r": lambda: seed_ledger(5, _NAN, 10, _RATES, 1.15, HashFamily.TOEPLITZ),
    "ledger-negative-eps": lambda: seed_ledger(-1, 20, 10, _RATES, 1.15, HashFamily.TOEPLITZ),
    "ledger-eps-above-n_s": lambda: seed_ledger(11, 20, 10, _RATES, 1.15, HashFamily.TOEPLITZ),
    "ledger-inf-f": lambda: seed_ledger(0, 20, 10, _RATES, math.inf, HashFamily.TOEPLITZ),
    "penalty-zero": lambda: leftover_hash_penalty(0.0),
    "penalty-subnormal": lambda: leftover_hash_penalty(5e-324),
    "penalty-two": lambda: leftover_hash_penalty(2.0),
    "penalty-negative": lambda: leftover_hash_penalty(-1.0),
    "penalty-inf": lambda: leftover_hash_penalty(math.inf),
    "penalty-nan": lambda: leftover_hash_penalty(_NAN),
    "corrected-nan-f": lambda: min_entropy_error_corrected(1000, 0.05, 0.01, _NAN),
    "corrected-inf-f": lambda: min_entropy_error_corrected(1000, 0.05, 0.01, math.inf),
    "corrected-half-f": lambda: min_entropy_error_corrected(1000, 0.05, 0.01, 0.5),
    "basis-nan-f": lambda: key_length_basis(1000, 0.05, 0.01, _NAN),
    "final-inf-f": lambda: passive_final_key_length(1000, 10, _RATES, math.inf),
    "certified-inf-e_bx": lambda: certified_rates(math.inf, 0.01, 100, 100, 1e-7),
    "certified-e_bx-above-one": lambda: certified_rates(1.5, 0.01, 100, 100, 1e-7),
    # counts are bounded above by MAX_COUNT, and the penalty must be finite and >= 0
    "bound-inf-n_obs": lambda: phase_error_upper_bound(0.01, math.inf, 100, 1e-7),
    "certified-negative-n_s_x": lambda: certified_rates(0.01, 0.01, -5, 100, 1e-7),
    "aggregate-inf-n_r": lambda: min_entropy_mismatched_aggregate(math.inf, 5, 0.1),
    "requirement-inf-n_s": lambda: reassignment_demand(HashFamily.TOEPLITZ, math.inf, 1),
    "per-basis-nan-m_x": lambda: min_entropy_mismatched_per_basis(_NAN, 5, 0.1, 0.1),
    "ledger-nan-penalty": lambda: seed_ledger(0, 20, 10, _RATES, 1.15, HashFamily.TOEPLITZ, _NAN),
    "ledger-inf-penalty": lambda: seed_ledger(0, 20, 10, _RATES, 1.15, HashFamily.TOEPLITZ, math.inf),
    "ledger-negative-penalty": lambda: seed_ledger(0, 20, 10, _RATES, 1.15, HashFamily.TOEPLITZ, -50.0),
    "solve-nan-penalty": lambda: solve_epsilon(20, 10, _RATES, 1.15, HashFamily.TOEPLITZ, _NAN),
    "solve-inf-penalty": lambda: solve_epsilon(20, 10, _RATES, 1.15, HashFamily.TOEPLITZ, math.inf),
    "solve-negative-penalty": lambda: solve_epsilon(20, 10, _RATES, 1.15, HashFamily.TOEPLITZ, -50.0),
}


@pytest.mark.parametrize("call", list(_REFUSED.values()), ids=list(_REFUSED))
def test_nan_counts_and_subnormal_eps_ph_are_refused(call):
    with pytest.raises(ParameterError):
        call()


def test_smallest_normal_eps_ph_still_certifies():
    p = ProtocolParams(
        dark_count_prob=0.0, detector_efficiency=1.0, misalignment_error=0.01,
        mean_pair_number=0.05, phase_est_failure_prob=2.2250738585072014e-308,
    )
    bd = rate_point(p)
    assert bd.e_p_tilde < 0.5 and bd.n_f_passive > 0


def test_rate_point_uses_the_certificate():
    p = ProtocolParams(channel_loss_db=10.0, block_size=20_000)
    bd = rate_point(p)
    n_s = p.basis_reconciliation_factor * p.block_size
    r = certified_rates(bd.e_qber, bd.e_qber, n_s / 2, n_s / 2, p.phase_est_failure_prob)
    assert (bd.e_b_tilde, bd.e_p_tilde) == (r.e_b_tilde, r.e_p_tilde)


def test_key_length_basis_limits():
    assert key_length_basis(1000.0, 0.0, 0.0, 1.15) == 1000.0
    assert key_length_basis(1000.0, 0.5, 0.0, 1.15) == 0.0


def test_mismatched_pool_entropy_examples():
    assert min_entropy_mismatched_aggregate(2000, 2000, 0.1) == 0.0
    assert min_entropy_mismatched_aggregate(2000, 1000, 0.0) == 1000.0
    expected = 1e6 * (1.0 - binary_entropy(0.05))
    assert min_entropy_mismatched_aggregate(2e6, 1e6, 0.05) == pytest.approx(expected)


def test_mismatched_reduction_identity():
    """Split-pool form collapses to the aggregate form at equal bounds."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        m_x = float(rng.integers(0, 10**6))
        m_z = float(rng.integers(0, 10**6))
        n_s = float(rng.integers(0, 10**6))
        e = float(rng.uniform(0.0, 0.5))
        split = min_entropy_mismatched_per_basis(m_x, m_z, e, e)
        agg = min_entropy_mismatched_aggregate(m_x + m_z + n_s, n_s, e)
        assert split == pytest.approx(agg, rel=1e-12, abs=1e-9)


def test_mismatched_crossed_pairing():
    # X-basis pool bounded through the Z phase bound and vice versa
    v = min_entropy_mismatched_per_basis(100.0, 0.0, 0.5, 0.0)
    assert v == 0.0
    v = min_entropy_mismatched_per_basis(0.0, 100.0, 0.5, 0.0)
    assert v == 100.0


def test_error_corrected_entropy_examples():
    assert min_entropy_error_corrected(1000, 0.0, 0.0, 1.15) == 1000.0
    assert min_entropy_error_corrected(1000, 0.5, 0.0, 1.15) == 0.0
    expected = 1e6 * (1.0 - binary_entropy(0.02) - 1.15 * binary_entropy(0.015))
    assert min_entropy_error_corrected(1e6, 0.02, 0.015, 1.15) == pytest.approx(expected)


def test_seed_requirement_table():
    """The per-family seed budgets that :func:`reassignment_demand` charges."""
    assert reassignment_demand(HashFamily.TOEPLITZ, 10**6, 5 * 10**5) == 10**6
    assert reassignment_demand(HashFamily.F3R_F4R, 10**6, 5 * 10**5) == 5 * 10**5
    assert reassignment_demand(HashFamily.F1R_F2R, 10**6, 5 * 10**5) == 5 * 10**5
    assert reassignment_demand(HashFamily.TREVISAN, 2**20, 12345) == 8000
    assert reassignment_demand(HashFamily.TREVISAN, 1, 0) == 0
    assert reassignment_demand(HashFamily.TREVISAN, 1, 1) == 0
    assert reassignment_demand(HashFamily.TREVISAN, 0, 0) == 0
    assert reassignment_demand(HashFamily.TSSR, 1000, 400) == 800
    assert reassignment_demand(HashFamily.EPS_ALMOST_PAIRWISE, 1000, 400) == 1600


def test_seed_requirement_domain():
    with pytest.raises(ParameterError):
        reassignment_demand(HashFamily.TOEPLITZ, 100, 101)
    with pytest.raises(ParameterError):
        reassignment_demand(HashFamily.TOEPLITZ, 100, -1)


def test_reassignment_demand_empty_key_rule():
    # nothing to hash -> nothing to seed, except the Toeplitz budget
    assert reassignment_demand(HashFamily.F1R_F2R, 500, 0.0) == 0.0
    assert reassignment_demand(HashFamily.TREVISAN, 500, 0.0) == 0.0
    assert reassignment_demand(HashFamily.TOEPLITZ, 500, 0.0) == 500.0
    assert reassignment_demand(HashFamily.F1R_F2R, 500, 100.0) == 400.0


def test_seed_ledger_pays_the_leftover_hash_penalty():
    """A session's seed is the pool's min-entropy less ``2 log2(1/eps_ext)``, floored at zero."""
    penalty = leftover_hash_penalty(2.0**-64)
    r = make_error_rates(0.01, 0.01, 0.0, 0.0)
    fam = HashFamily.TOEPLITZ
    assert seed_ledger(0, 2128, 1000, r, 1.1, fam)[0] == 1128.0
    assert seed_ledger(0, 2128, 1000, r, 1.1, fam, penalty)[0] == 1128 - 128
    # entropy too small to survive the penalty leaves no seed, not a debt
    assert seed_ledger(0, 1010, 1000, r, 1.1, fam, penalty)[0] == 0


def test_solve_epsilon_frozen_examples():
    zero = make_error_rates(0.0, 0.0, 0.0, 0.0)
    assert solve_epsilon(2000, 1000, zero, 1.15, HashFamily.TOEPLITZ) == 0
    assert solve_epsilon(2000, 1000, zero, 1.15, HashFamily.F3R_F4R) == 0
    noisy = make_error_rates(0.0, 0.0, 0.11, 0.11)
    assert solve_epsilon(2000, 1000, noisy, 1.15, HashFamily.TOEPLITZ) == 334


def test_solve_epsilon_monotone_in_phase_error():
    eps_prev = -1
    for e_p in (0.02, 0.05, 0.08, 0.11, 0.14):
        r = make_error_rates(0.0, 0.0, e_p, e_p)
        eps = solve_epsilon(2000, 1000, r, 1.15, HashFamily.TOEPLITZ)
        assert eps >= eps_prev
        eps_prev = eps


def test_solve_epsilon_monotone_in_pool_size():
    r = make_error_rates(0.02, 0.02, 0.06, 0.06)
    eps_prev = None
    for n_r in (1200, 1500, 2000, 3000, 5000):
        eps = solve_epsilon(n_r, 1000, r, 1.15, HashFamily.TOEPLITZ)
        if eps_prev is not None:
            assert eps <= eps_prev
        eps_prev = eps


def test_solve_epsilon_f3r_never_needs_reassignment_at_even_split():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n_s = int(rng.integers(1, 10**6))
        e_b = float(rng.uniform(0.0, 0.2))
        e_p = float(rng.uniform(0.0, 0.2))
        r = make_error_rates(e_b, e_b, e_p, e_p)
        assert solve_epsilon(2 * n_s, n_s, r, 1.15, HashFamily.F3R_F4R) == 0


def _scan_epsilon(n_r, n_s, rates, f, family, penalty_bits=None):
    """Independent linear scan over every integer reassignment.

    With ``penalty_bits`` it applies a session's whole-bit rule: the supply
    is the extractor output ``max(0, floor(supply - penalty_bits))`` and the
    key length is floored before the demand is charged.
    """
    eps = np.arange(math.floor(n_s) + 1, dtype=np.float64)
    c_p = binary_entropy(rates.e_p_tilde)
    supply = (n_r - n_s + eps) * (1.0 - c_p)
    n_f = np.maximum(0.0, (n_s - eps) * (1.0 - c_p - f * binary_entropy(rates.e_b_tilde)))
    if penalty_bits is not None:
        supply = np.maximum(0.0, np.floor(supply - penalty_bits))
        n_f = np.floor(n_f)
    rem = n_s - eps
    if family is HashFamily.TOEPLITZ:
        demand = rem
    else:
        if family is HashFamily.F1R_F2R:
            raw = rem - n_f
        elif family is HashFamily.F3R_F4R:
            raw = n_f
        elif family is HashFamily.TREVISAN:
            raw = np.where(rem > 1.0, np.ceil(np.log2(np.maximum(rem, 2.0)) ** 3), 0.0)
        elif family is HashFamily.TSSR:
            raw = 2.0 * n_f
        else:
            raw = 4.0 * n_f
        demand = np.where(n_f > 0.0, raw, 0.0)
    feasible = supply >= demand
    return int(np.argmax(feasible)) if feasible.any() else int(math.floor(n_s))


def test_solve_epsilon_matches_linear_scan():
    """The solve against brute force; the 1000-instance battery is in acceptance.

    Runs the analytic solve and a session's penalized one, at the penalty
    ``2 log2(1/eps_ext)`` of the default extractor failure probability 2^-64.
    """
    for penalty in (None, 128.0):
        rng = np.random.default_rng(4)
        families = list(HashFamily)
        for i in range(120):
            n_s = int(rng.integers(0, 20_000))
            n_r = n_s + int(rng.integers(0, 20_000))
            e_b = float(rng.uniform(0.0, 0.2))
            e_p = float(rng.uniform(0.0, 0.2))
            f = float(rng.uniform(1.0, 1.3))
            r = make_error_rates(e_b, e_b, e_p, e_p)
            fam = families[i % len(families)]
            got = solve_epsilon(n_r, n_s, r, f, fam, penalty)
            assert got == _scan_epsilon(n_r, n_s, r, f, fam, penalty), (penalty, i)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    n_s_int=st.integers(0, 10**7),
    n_s_frac=st.sampled_from([0.0, 0.0, 0.25, 0.5]),
    pool=st.integers(0, 10**7),
    e_b=st.floats(0.0, 0.25),
    e_p=st.floats(0.0, 0.5),
    f=st.floats(1.0, 1.5),
    family=st.sampled_from(list(HashFamily)),
    penalty=st.sampled_from([None, 128.0]),
)
def test_solve_epsilon_matches_bisection_and_is_minimal(
    n_s_int, n_s_frac, pool, e_b, e_p, f, family, penalty
):
    n_s = n_s_int + n_s_frac
    n_r = n_s + pool
    r = make_error_rates(e_b, e_b, e_p, e_p)
    got = solve_epsilon(n_r, n_s, r, f, family, penalty)
    assert got == bisect_epsilon(n_r, n_s, r, f, family, penalty)

    def feasible(eps):
        supply, demand, _ = seed_ledger(eps, n_r, n_s, r, f, family, penalty)
        return supply >= demand

    # floor(n_s) is the answer also when no reassignment balances the ledger
    assert feasible(got) or got == math.floor(n_s)
    assert got == 0 or not feasible(got - 1)


def test_solve_epsilon_ledger_evaluations_are_bounded(monkeypatch):
    """Four evaluations on a linear ledger, never more than twice bisection's count."""
    calls = []
    ledger = rates_module.seed_ledger

    def counting(*args, **kwargs):
        calls.append(args[0])
        return ledger(*args, **kwargs)

    monkeypatch.setattr(rates_module, "seed_ledger", counting)
    rng = np.random.default_rng(12)
    families = list(HashFamily)
    for i in range(600):
        n_s = int(rng.integers(0, 10 ** int(rng.integers(1, 9))))
        n_r = n_s + int(rng.integers(0, 10 ** int(rng.integers(0, 9))))
        e_b = float(rng.uniform(0.0, 0.25))
        e_p = float(rng.uniform(0.0, 0.5))
        r = make_error_rates(e_b, e_b, e_p, e_p)
        fam = families[i % len(families)]
        penalty = None if i % 4 < 2 else 128.0
        calls.clear()
        solve_epsilon(n_r, n_s, r, float(rng.uniform(1.0, 1.5)), fam, penalty)
        assert len(calls) <= 2 + 2 * math.ceil(math.log2(max(n_s, 1))), (i, calls)
        if penalty is None and fam is not HashFamily.TREVISAN:
            assert len(calls) <= 4, (i, calls)


def test_solve_epsilon_rejects_bad_efficiency():
    r = make_error_rates(0.01, 0.01, 0.05, 0.05)
    for f in (0.99, math.nan, math.inf):
        with pytest.raises(ParameterError):
            solve_epsilon(2000, 1000, r, f, HashFamily.TOEPLITZ)


def test_passive_final_key_length_edges():
    r = make_error_rates(0.015, 0.015, 0.05, 0.05)
    assert passive_final_key_length(1000, 1000, r, 1.15) == 0.0
    assert passive_final_key_length(1000, 0, r, 1.15) == pytest.approx(
        min_entropy_error_corrected(1000, r.e_p_tilde, r.e_b_tilde, 1.15)
    )
    with pytest.raises(ParameterError):
        passive_final_key_length(1000, 1001, r, 1.15)


def test_rate_point_equality_for_cheap_seed_family():
    b = rate_point(ProtocolParams(hash_family=HashFamily.F3R_F4R, mean_pair_number=0.04))
    assert b.epsilon == 0
    assert b.n_f_passive == b.n_f_bbm92
    assert b.rate_per_pulse_passive == b.rate_per_pulse_bbm92
    assert b.status == "ok"


def test_rate_point_toeplitz_pays_for_its_seed():
    b = rate_point(
        ProtocolParams(hash_family=HashFamily.TOEPLITZ, mean_pair_number=0.04, channel_loss_db=10.0)
    )
    assert b.epsilon > 0
    assert 0 < b.n_f_passive < b.n_f_bbm92
    assert b.rate_per_pulse_passive < b.rate_per_pulse_bbm92
    assert b.seed_supply >= b.seed_demand


def test_rate_point_noiseless_baseline_near_q_times_gain():
    p = ProtocolParams(
        dark_count_prob=0.0,
        misalignment_error=0.0,
        detector_efficiency=1.0,
        mean_pair_number=0.001,
        hash_family=HashFamily.F3R_F4R,
    )
    b = rate_point(p)
    ceiling = p.basis_reconciliation_factor * b.q_gain
    assert b.rate_per_pulse_bbm92 <= ceiling
    # only haircuts left: finite-size phase deviation and rare multi-pair errors
    assert b.rate_per_pulse_bbm92 > 0.9 * ceiling


def test_rate_point_flags():
    high_noise = rate_point(ProtocolParams(misalignment_error=0.4, mean_pair_number=0.04))
    assert high_noise.status == "no-key"
    assert high_noise.n_f_passive == 0
    assert high_noise.rate_per_pulse_passive == 0.0


@pytest.mark.parametrize("family, epsilon", [(HashFamily.TOEPLITZ, 500_000), (HashFamily.F3R_F4R, 0)])
def test_rate_point_dead_channel_has_no_gain(family, epsilon):
    """Toeplitz pays the whole key into its seed; a key-sized demand is waived at zero key."""
    b = rate_point(ProtocolParams(detector_efficiency=0.0, dark_count_prob=0.0, hash_family=family))
    assert b.status == "no-gain"
    assert b.q_gain == 0.0 and b.e_qber == 0.5
    assert b.rate_per_pulse_passive == 0.0 and b.rate_per_pulse_bbm92 == 0.0
    assert b.epsilon == epsilon


_UNIT = st.floats(0.0, 1.0)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


# Each field is drawn from its whole domain; one_of leans some draws toward
# values where a key can still come out, so the supply/demand check runs.
_FIELDS = {
    "dark_count_prob": st.one_of(st.floats(0.0, 1e-4), _UNIT),
    "detector_efficiency": st.one_of(st.floats(0.3, 1.0), _UNIT),
    "misalignment_error": st.one_of(st.floats(0.0, 0.05), _UNIT),
    "ec_efficiency": st.one_of(st.floats(1.0, 1.5), st.floats(1.0, allow_infinity=False)),
    "mean_pair_number": st.one_of(st.floats(0.01, 0.2), st.floats(0.0, 2.0, exclude_min=True)),
    "basis_reconciliation_factor": st.one_of(st.floats(0.3, 0.7), _UNIT),
    "phase_est_failure_prob": _OPEN_UNIT,
    "block_size": st.one_of(st.integers(10**4, 10**9), st.integers(min_value=1)),
    "hash_family": st.sampled_from(HashFamily),
    "extractor_failure_prob": _OPEN_UNIT,
    "channel_loss_db": st.one_of(st.floats(0.0, 40.0), st.floats(0.0, allow_infinity=False)),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fields=st.fixed_dictionaries(_FIELDS))
def test_rate_point_on_any_parameters_is_finite_and_below_bbm92(fields):
    try:
        params = ProtocolParams(**fields)
    except ParameterError:
        return
    b = rate_point(params)
    for name, value in b.to_json_dict().items():
        if isinstance(value, float):
            assert math.isfinite(value), name
    assert b.n_f_passive <= b.n_f_bbm92
    if b.n_f_passive > 0:
        assert b.seed_supply >= b.seed_demand


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    fields=st.fixed_dictionaries({k: v for k, v in _FIELDS.items() if k != "channel_loss_db"}),
    losses=st.lists(_FIELDS["channel_loss_db"], min_size=2, max_size=2),
)
def test_rate_point_rates_never_rise_with_loss(fields, losses):
    near, far = sorted(losses)
    try:
        params = ProtocolParams(**fields, channel_loss_db=near)
    except ParameterError:
        return
    b_near, b_far = rate_point(params), rate_point(params.replace(channel_loss_db=far))
    assert b_far.rate_per_pulse_passive <= b_near.rate_per_pulse_passive
    assert b_far.rate_per_pulse_bbm92 <= b_near.rate_per_pulse_bbm92
