"""Core type behavior: bit strings, parameters, tallies, breakdowns."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passiveqkd import (
    BitString,
    ErrorRates,
    HashFamily,
    ParameterError,
    ProtocolParams,
    RateBreakdown,
    SessionTally,
    make_error_rates,
)
from passiveqkd.types import MAX_COUNT


def test_hash_family_parse_aliases():
    assert HashFamily.parse("toeplitz") is HashFamily.TOEPLITZ
    assert HashFamily.parse("f1r") is HashFamily.F1R_F2R
    assert HashFamily.parse("f2r") is HashFamily.F1R_F2R
    assert HashFamily.parse("F3R-F4R") is HashFamily.F3R_F4R
    assert HashFamily.parse("f4r") is HashFamily.F3R_F4R
    assert HashFamily.parse("trevisan") is HashFamily.TREVISAN
    assert HashFamily.parse("tssr") is HashFamily.TSSR
    assert HashFamily.parse("pairwise") is HashFamily.EPS_ALMOST_PAIRWISE
    with pytest.raises(ParameterError):
        HashFamily.parse("md5")


def test_bitstring_roundtrips():
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
    b = BitString.from_bits(bits)
    assert len(b) == 9
    assert list(b.to_numpy()) == bits
    assert [b[i] for i in range(9)] == bits
    again = BitString.from_hex(b.to_hex(), 9)
    assert again == b
    assert hash(again) == hash(b)


def test_bitstring_slice_xor_concat():
    rng = np.random.default_rng(11)
    a = BitString.random(40, rng)
    b = BitString.random(40, rng)
    assert a != b
    x = a ^ b
    assert list(x.to_numpy()) == list(a.to_numpy() ^ b.to_numpy())
    assert (a ^ a) == BitString.zeros(40)
    cat = BitString.from_bits(np.concatenate((a.to_numpy(), b.to_numpy())))
    assert len(cat) == 80
    assert cat[:40] == a and cat[40:] == b
    assert list(a[3:17].to_numpy()) == list(a.to_numpy()[3:17])


def _unpack(x: int, n: int) -> np.ndarray:
    return np.array([(x >> k) & 1 for k in range(n)], dtype=np.uint8)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(0, 300),
    x=st.integers(0, 2**300 - 1),
    y=st.integers(0, 2**300 - 1),
    data=st.data(),
)
def test_bitstring_roundtrips_and_agrees_with_numpy(n, x, y, data):
    bits_a, bits_b = _unpack(x, n), _unpack(y, n)
    start, stop = (data.draw(st.integers(-n - 2, n + 2)) for _ in range(2))
    a, b = BitString.from_bits(bits_a), BitString.from_bits(bits_b)
    assert len(a) == n and np.array_equal(a.to_numpy(), bits_a)
    assert BitString.from_bits(a.to_numpy()) == a
    assert BitString.from_hex(a.to_hex(), len(a)) == a
    assert np.array_equal(a[start:stop].to_numpy(), bits_a[start:stop])
    assert np.array_equal((a ^ b).to_numpy(), bits_a ^ bits_b)


def test_bitstring_zero_length():
    empty = BitString.zeros(0)
    assert len(empty) == 0
    assert empty.to_hex() == ""


def test_bitstring_rejects_dirty_padding():
    # a byte payload with bits set beyond nbits must not be accepted
    with pytest.raises(ParameterError):
        BitString.from_hex("ff", 3)


def test_params_defaults_are_reference_operating_point():
    p = ProtocolParams()
    assert p.dark_count_prob == 1e-6
    assert p.detector_efficiency == 0.40
    assert p.misalignment_error == 0.015
    assert p.ec_efficiency == 1.15
    assert p.basis_reconciliation_factor == 0.5
    assert p.phase_est_failure_prob == 1e-7
    assert p.block_size == 1_000_000
    assert p.extractor_failure_prob == 2.0**-64
    assert p.hash_family is HashFamily.TOEPLITZ
    assert p.channel_loss_db == 0.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("dark_count_prob", -1e-9),
        ("detector_efficiency", 1.5),
        ("misalignment_error", 1.5),
        ("ec_efficiency", 0.99),
        ("mean_pair_number", 0.0),
        ("basis_reconciliation_factor", -0.1),
        ("phase_est_failure_prob", 1.0),
        ("block_size", 0),
        ("extractor_failure_prob", 0.0),
        ("channel_loss_db", -2.0),
        ("ec_efficiency", math.nan),
        ("mean_pair_number", math.nan),
        ("mean_pair_number", math.inf),
        ("channel_loss_db", math.nan),
        ("channel_loss_db", math.inf),
        ("block_size", 1.5),
    ],
)
def test_params_validation(field, value):
    with pytest.raises(ParameterError):
        ProtocolParams(**{field: value})


def test_params_block_size_is_stored_as_a_python_int():
    p = ProtocolParams(block_size=np.int64(1000))
    assert type(p.block_size) is int and p.block_size == 1000
    assert type(p.replace(block_size=np.int64(2**62)).block_size) is int
    for bad in (True, 1.5, 2**62 + 1):
        with pytest.raises(ParameterError):
            ProtocolParams(block_size=bad)


def test_params_json_roundtrip():
    p = ProtocolParams(mean_pair_number=0.07, hash_family=HashFamily.TSSR)
    blob = json.dumps(p.to_json_dict())
    assert ProtocolParams.from_json_dict(json.loads(blob)) == p


def test_params_config_text_roundtrip():
    p = ProtocolParams(channel_loss_db=12.5, block_size=2_000_000)
    assert ProtocolParams.from_config_text(p.to_config_text()) == p


_UNIT = st.floats(0.0, 1.0)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    fields=st.fixed_dictionaries({
        "dark_count_prob": _UNIT,
        "detector_efficiency": _UNIT,
        "misalignment_error": _UNIT,
        "ec_efficiency": st.floats(1.0, allow_infinity=False),
        "mean_pair_number": st.floats(0.0, 2.0, exclude_min=True),
        "basis_reconciliation_factor": _UNIT,
        "phase_est_failure_prob": _OPEN_UNIT,
        "block_size": st.integers(1, MAX_COUNT),
        "hash_family": st.sampled_from(HashFamily),
        "extractor_failure_prob": _OPEN_UNIT,
        "channel_loss_db": st.floats(0.0, allow_infinity=False),
    })
)
def test_params_roundtrip_through_text_and_json(fields):
    try:
        p = ProtocolParams(**fields)
    except ParameterError:
        return
    assert ProtocolParams.from_config_text(p.to_config_text()) == p
    assert ProtocolParams.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


def test_params_config_text_comments_and_json_sniffing(tmp_path):
    text = "# comment line\nmean_pair_number = 0.2\n\nhash_family = f3r\n"
    p = ProtocolParams.from_config_text(text)
    assert p.mean_pair_number == 0.2
    assert p.hash_family is HashFamily.F3R_F4R

    path = tmp_path / "params.json"
    path.write_text(json.dumps(ProtocolParams().to_json_dict()))
    assert ProtocolParams.from_file(str(path)) == ProtocolParams()


def test_params_unknown_key_rejected():
    with pytest.raises(ParameterError):
        ProtocolParams.from_config_text("mean_photons = 0.1\n")


@pytest.mark.parametrize(
    "text",
    [
        "mean_pair_number = abc\n",
        '{"mean_pair_number": null}\n',
        '{"mean_pair_number": 0.1,\n',
    ],
    ids=["non-numeric", "json-null", "malformed-json"],
)
def test_params_file_malformed_is_parameter_error(tmp_path, text):
    path = tmp_path / "bad.params"
    path.write_text(text)
    with pytest.raises(ParameterError):
        ProtocolParams.from_file(str(path))


def test_params_config_text_block_size_must_be_integral():
    assert ProtocolParams.from_config_text("block_size = 1e6\n").block_size == 10**6
    with pytest.raises(ParameterError):
        ProtocolParams.from_config_text("block_size = 1.5\n")


def test_error_rates_tilde_maxima():
    r = make_error_rates(0.01, 0.03, 0.05, 0.02)
    assert r.e_b_tilde == 0.03
    assert r.e_p_tilde == 0.05


def test_error_rates_clamped_to_half():
    r = make_error_rates(0.8, 0.0, 1.0, 0.0)
    assert r.e_bx == 0.5
    assert r.e_px_up == 0.5
    with pytest.raises(ParameterError):
        make_error_rates(1.2, 0.0, 0.0, 0.0)
    # one constructor: building ErrorRates directly clamps and refuses alike
    assert make_error_rates is ErrorRates
    r = ErrorRates(0.8, 0.0, 1.0, 0.0)
    assert (r.e_bx, r.e_bz, r.e_px_up, r.e_pz_up) == (0.5, 0.0, 0.5, 0.0)
    for bad in (math.nan, 1.2):
        with pytest.raises(ParameterError):
            ErrorRates(bad, 0.0, 0.0, 0.0)


def test_session_tally_identity_enforced():
    SessionTally(n_r=10, n_s=6, n_s_x=2, n_s_z=4, m_x=3, m_z=1, n_double_click=0, n_pulses=100)
    with pytest.raises(ParameterError):
        SessionTally(n_r=10, n_s=6, n_s_x=2, n_s_z=4, m_x=3, m_z=2, n_double_click=0, n_pulses=100)
    with pytest.raises(ParameterError):
        SessionTally(n_r=10, n_s=6, n_s_x=1, n_s_z=4, m_x=3, m_z=1, n_double_click=0, n_pulses=100)


def _breakdown(**overrides):
    base = dict(
        loss_db=10.0,
        mu=0.05,
        family=HashFamily.TOEPLITZ,
        q_gain=1e-3,
        e_qber=0.05,
        n_s=500_000.0,
        h_min_w=350_000.0,
        h_min_kec=200_000.0,
        epsilon=100,
        seed_demand=499_900.0,
        seed_supply=500_000.0,
        n_f_passive=1000,
        n_f_bbm92=1200,
        rate_per_pulse_passive=1e-6,
        rate_per_pulse_bbm92=1.2e-6,
        e_b_tilde=0.05,
        e_p_tilde=0.06,
    )
    base.update(overrides)
    return RateBreakdown(**base)


def test_breakdown_invariants():
    b = _breakdown()
    assert b.deviation_bound == "hoeffding-two-sample"
    with pytest.raises(ParameterError):
        _breakdown(epsilon=-1)
    with pytest.raises(ParameterError):
        _breakdown(n_f_passive=1300)  # passive must not exceed the baseline
    with pytest.raises(ParameterError):
        _breakdown(seed_supply=100.0)  # funded key needs supply >= demand


def test_breakdown_serialization():
    b = _breakdown()
    assert RateBreakdown.from_json_dict(b.to_json_dict()) == b
    row = b.csv_row()
    assert len(row) == 11
    assert row[0] == "10.0"
    assert row[2] == "toeplitz"
    assert all(isinstance(cell, str) for cell in row)
