"""End-to-end session behaviour: bookkeeping, transcript hygiene, key output."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passiveqkd import (
    BitString,
    ClassicalMessage,
    HashFamily,
    ParameterError,
    ProtocolParams,
    leftover_hash_penalty,
    optimize_mu,
    passive_final_key_length,
    rate_point,
    reassignment_demand,
    run_session,
    seed_ledger,
    solve_epsilon,
)

# lossless bench setup: every pair clicks, so a short run already yields key
BENCH = ProtocolParams(
    dark_count_prob=0.0,
    detector_efficiency=1.0,
    misalignment_error=0.01,
    mean_pair_number=0.05,
    channel_loss_db=0.0,
)


def test_message_validation():
    with pytest.raises(ParameterError):
        ClassicalMessage("A->C", "basis-announce", 4, BitString.zeros(4))
    with pytest.raises(ParameterError):
        ClassicalMessage("A->B", "basis-announce", -1)
    with pytest.raises(ParameterError):
        ClassicalMessage("A->B", "basis-announce", 3, BitString.zeros(4))


def test_message_to_line():
    msg = ClassicalMessage("B->A", "basis-announce", 4, BitString.from_bits([1, 1, 1, 1]))
    assert msg.to_line() == "B->A basis-announce 4 0f"
    assert ClassicalMessage("A->B", "ec-syndrome", 120).to_line() == "A->B ec-syndrome 120 -"
    assert ClassicalMessage("A->B", "seed-wstar", 0, BitString.zeros(0)).to_line().endswith(" 0 -")


def test_run_session_validation():
    with pytest.raises(ParameterError):
        run_session(BENCH, 0, 1)
    with pytest.raises(ParameterError):
        run_session(BENCH, 100, -1)
    # the multinomial draw would truncate 1.5 to 1 and take True as 1
    for bad in (True, 1.5, 1000.0, "1000"):
        with pytest.raises(ParameterError):
            run_session(BENCH, bad, 1)


def test_run_session_deterministic():
    a = run_session(BENCH, 50_000, 7)
    b = run_session(BENCH, 50_000, 7)
    assert a.to_json_dict() == b.to_json_dict()
    c = run_session(BENCH, 50_000, 8)
    assert c.tally != a.tally or c.k_sift_a != a.k_sift_a


def test_run_session_bookkeeping():
    r = run_session(BENCH, 200_000, 3)
    t = r.tally
    assert t.n_pulses == 200_000
    assert t.n_r == t.n_s + t.m_x + t.m_z
    assert t.n_s == t.n_s_x + t.n_s_z
    assert t.n_r + t.n_double_click <= t.n_pulses
    assert len(r.w_pool) == t.m_x + t.m_z
    assert len(r.k_sift_a) == len(r.k_sift_b) == t.n_s
    assert 0 <= r.epsilon <= t.n_s


def test_run_session_produces_key():
    r = run_session(BENCH, 200_000, 3)
    assert r.status == "ok"
    assert r.n_f > 0
    assert len(r.k_final) == r.n_f
    assert r.n_f == math.floor(
        passive_final_key_length(r.tally.n_s, r.epsilon, r.rates, BENCH.ec_efficiency)
    )
    assert 0.0 < r.rates.e_b_tilde < 0.05
    # the extracted seed must cover the family budget at the chosen reassignment
    demand = reassignment_demand(
        BENCH.hash_family, r.tally.n_s - r.epsilon, r.n_f
    )
    assert len(r.w_star) >= demand
    # the extractor emits exactly the ledger's penalized supply
    supply, _, _ = seed_ledger(
        r.epsilon, r.tally.n_r, r.tally.n_s, r.rates, BENCH.ec_efficiency, BENCH.hash_family,
        leftover_hash_penalty(BENCH.extractor_failure_prob),
    )
    assert len(r.w_star) == supply
    # penalized in-session solve never undercuts the idealized one (same budget rule)
    nominal = solve_epsilon(
        r.tally.n_r, r.tally.n_s, r.rates, BENCH.ec_efficiency, BENCH.hash_family
    )
    assert r.epsilon_nominal == nominal
    assert r.epsilon >= nominal


def test_run_session_key_bits_balanced():
    r = run_session(BENCH, 200_000, 11)
    ones = int(r.k_final.to_numpy().sum())
    frac = ones / len(r.k_final)
    assert 0.4 <= frac <= 0.6


def test_transcript_structure():
    r = run_session(BENCH, 100_000, 5)
    kinds = [m.kind for m in r.transcript]
    assert kinds == ["basis-announce", "basis-announce", "ec-syndrome", "seed-wstar"]
    assert r.transcript[0].direction == "A->B"
    assert r.transcript[1].direction == "B->A"
    assert r.transcript[0].length_bits == r.tally.n_r
    assert len(r.transcript[0].payload) == r.tally.n_r
    assert r.transcript[2].payload is None
    assert r.transcript[2].length_bits == math.ceil(
        BENCH.ec_efficiency * _h2(r.rates.e_b_tilde) * r.tally.n_s
    )
    assert r.transcript[3].payload == r.w_star


def _h2(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def test_transcript_never_leaks_secrets():
    r = run_session(BENCH, 200_000, 9)
    log = r.transcript_log()
    assert log.count(r.w_star.to_hex()) == 1  # announced exactly once
    for secret in (r.w_pool, r.k_sift_a, r.k_final):
        assert secret.to_hex() not in log
    assert log == "".join(m.to_line() + "\n" for m in r.transcript)


def test_json_report_roundtrips_through_json():
    import json

    r = run_session(BENCH, 20_000, 2)
    blob = json.dumps(r.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["status"] == r.status
    assert back["tally"]["n_s"] == r.tally.n_s
    assert back["k_final"]["len"] == len(r.k_final)


def test_report_from_numpy_integers_dumps_like_ints():
    import json

    import numpy as np

    r = run_session(BENCH, np.int64(20_000), np.int64(2))
    assert type(r.n_pulses) is int and type(r.rng_seed) is int
    expected = json.dumps(run_session(BENCH, 20_000, 2).to_json_dict())
    assert json.dumps(r.to_json_dict()) == expected


@pytest.mark.parametrize("bad", [True, 1.5, "3", -1])
def test_run_session_rejects_a_bad_seed(bad):
    with pytest.raises(ParameterError):
        run_session(BENCH, 100, bad)


def test_noiseless_starved_session_has_no_key():
    p = ProtocolParams(
        dark_count_prob=0.0,
        detector_efficiency=1.0,
        misalignment_error=0.0,
        mean_pair_number=1e-6,
        channel_loss_db=0.0,
    )
    r = run_session(p, 100_000, 4)
    assert r.rates.e_bx == 0.0 and r.rates.e_bz == 0.0
    assert r.status in ("no-key", "ok")
    assert len(r.k_final) == math.floor(
        passive_final_key_length(r.tally.n_s, r.epsilon, r.rates, p.ec_efficiency)
    )
    if r.status == "no-key":
        assert len(r.k_final) == 0


def test_session_without_toeplitz_budget():
    p = ProtocolParams(
        dark_count_prob=0.0,
        detector_efficiency=1.0,
        misalignment_error=0.01,
        mean_pair_number=0.05,
        hash_family=HashFamily.F3R_F4R,
    )
    r = run_session(p, 200_000, 6)
    assert r.status == "ok"
    assert r.epsilon == 0  # half the pool seeds this family for free
    assert len(r.k_final) == r.n_f > 0


@pytest.mark.parametrize(
    "family,pa", [(HashFamily.TOEPLITZ, "toeplitz"), (HashFamily.TSSR, "accounting-only")]
)
def test_report_marks_accounting_only_keys(family, pa):
    r = run_session(BENCH.replace(hash_family=family), 20_000, 2)
    assert r.to_json_dict()["pa"] == pa


@pytest.mark.parametrize("loss", [0.0, 10.0, 20.0])
def test_session_key_tracks_rate_point_below_bbm92(loss):
    """The paper's claim end to end: mismatched-basis detections fund PA.

    A session sized to fill one ``block_size`` block at the optimal pump
    certifies a key within 5% of ``rate_point``'s passive length, and below
    the BBM92 length that a free seed would allow.
    """
    params = ProtocolParams(channel_loss_db=loss)
    params = params.replace(mean_pair_number=optimize_mu(params).mu)
    rp = rate_point(params)
    n_pulses = int(params.block_size / rp.q_gain)
    for seed in (1, 2, 3):
        r = run_session(params, n_pulses, seed)
        assert abs(r.n_f - rp.n_f_passive) <= 0.05 * rp.n_f_passive, (seed, r.n_f, rp.n_f_passive)
        assert r.n_f < rp.n_f_bbm92


_UNIT = st.floats(0.0, 1.0)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    fields=st.fixed_dictionaries({
        "dark_count_prob": _UNIT,
        "detector_efficiency": _UNIT,
        "misalignment_error": _UNIT,
        "ec_efficiency": st.floats(1.0, allow_infinity=False),
        "mean_pair_number": st.floats(1e-6, 100.0),
        "basis_reconciliation_factor": _UNIT,
        "phase_est_failure_prob": _OPEN_UNIT,
        "extractor_failure_prob": _OPEN_UNIT,
        "channel_loss_db": st.floats(0.0, 60.0),
        "hash_family": st.sampled_from(HashFamily),
    }),
    n_pulses=st.integers(1, 20_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_session_on_any_parameters_is_refused_or_balances(fields, n_pulses, seed):
    try:
        result = run_session(ProtocolParams(**fields), n_pulses, seed)
    except ParameterError:
        return
    assert result.tally.n_r + result.tally.n_double_click <= n_pulses
    assert len(result.k_final) == result.n_f
