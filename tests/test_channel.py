"""Channel statistics: pair-number law, gain/QBER, and the window samplers."""

import math

import numpy as np
import pytest

from window_oracle import sample_window_batch

from passiveqkd import (
    ParameterError,
    ProtocolParams,
    coincidence_gain_qber,
    coincidence_gain_qber_closed,
    derive_channel,
    pair_number_pmf,
    pair_number_tail,
    sample_usable_windows,
    truncation_order,
)

REF = ProtocolParams()


def test_derive_channel_splits_loss_between_arms():
    ch = derive_channel(REF.replace(channel_loss_db=20.0))
    assert ch.eta == pytest.approx(0.1 * REF.detector_efficiency)
    assert ch.y0 == REF.dark_count_prob
    assert ch.lam == REF.mean_pair_number / 2.0


def test_pair_number_pmf_spot_values():
    assert pair_number_pmf(0, 1.0) == pytest.approx(0.25)
    with pytest.raises(ParameterError):
        pair_number_pmf(0, 0.0)
    assert pair_number_pmf(1, 1.0) == pytest.approx(0.25)
    # array form agrees with scalar form
    lam = 0.3
    ns = np.arange(6)
    vec = pair_number_pmf(ns, lam)
    assert vec.shape == (6,)
    for n in range(6):
        assert vec[n] == pytest.approx(pair_number_pmf(int(n), lam))


def test_pair_number_pmf_normalizes_with_tail():
    for lam in (0.01, 0.05, 0.25, 0.5):
        m = truncation_order(lam)
        total = float(pair_number_pmf(np.arange(m + 1), lam).sum()) + pair_number_tail(m + 1, lam)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert pair_number_tail(m + 1, lam) < 1e-12  # the neglected mass


def test_tail_matches_series_remainder():
    lam = 0.2
    remainder = float(pair_number_pmf(np.arange(10, 400), lam).sum())
    assert pair_number_tail(10, lam) == pytest.approx(remainder, rel=1e-10)


def test_gain_qber_series_vs_closed_form():
    """Truncated series and the resummed expression agree everywhere relevant."""
    for lam in (0.01, 0.05, 0.1, 0.5):
        for loss in (0.0, 10.0, 20.0, 30.0):
            p = REF.replace(mean_pair_number=2.0 * lam, channel_loss_db=loss)
            ch = derive_channel(p)
            a = coincidence_gain_qber(ch, p.misalignment_error)
            b = coincidence_gain_qber_closed(ch, p.misalignment_error)
            assert abs(a.gain - b.gain) < 1e-9
            assert abs(a.qber - b.qber) < 1e-9


def test_qber_limits():
    # pure misalignment: single pairs dominate as lam -> 0, no background
    p = REF.replace(dark_count_prob=0.0, mean_pair_number=1e-5)
    gq = coincidence_gain_qber(derive_channel(p), 0.015)
    assert gq.qber == pytest.approx(0.015, abs=1e-4)
    # no correlation source at all: errors are coin flips
    p2 = p.replace(misalignment_error=0.5)
    gq2 = coincidence_gain_qber(derive_channel(p2), 0.5)
    assert gq2.qber == pytest.approx(0.5, abs=1e-6)


def test_dead_channel_has_no_clicks():
    from passiveqkd import ChannelDerived

    ch = ChannelDerived(eta=0.0, y0=0.0, lam=0.05)
    gq = coincidence_gain_qber(ch, 0.015)
    assert gq.gain == 0.0
    assert gq.qber == 0.5  # convention for an undefined ratio
    *cols, n_double = sample_usable_windows(ch, 0.015, np.random.default_rng(0), 20_000)
    assert [col.size for col in cols] == [0, 0, 0, 0]
    assert n_double == 0


def test_channel_derived_bounds_lam():
    """The series overflows far above the largest pump; the bound is that pump, halved."""
    from passiveqkd import ChannelDerived

    with pytest.raises(ParameterError):
        ChannelDerived(eta=0.4, y0=1e-6, lam=25.0)
    top = ChannelDerived(eta=0.4, y0=1e-6, lam=1.0)
    assert top == derive_channel(REF.replace(mean_pair_number=2.0))
    assert math.isfinite(coincidence_gain_qber(top, 0.015).gain)


def test_sampler_is_deterministic():
    ch = derive_channel(REF.replace(channel_loss_db=10.0))
    a = sample_usable_windows(ch, 0.015, np.random.default_rng(42), 50_000)
    b = sample_usable_windows(ch, 0.015, np.random.default_rng(42), 50_000)
    assert a[0].size > 0
    for col_a, col_b in zip(a[:4], b[:4]):
        assert col_a.dtype == np.uint8
        assert np.array_equal(col_a, col_b)
    assert a[4] == b[4]


def test_sampler_marginals_track_analytics():
    """Loose 6-sigma gate; the tight 5-sigma batteries run in acceptance."""
    p = REF.replace(channel_loss_db=10.0)
    ch = derive_channel(p)
    gq = coincidence_gain_qber(ch, p.misalignment_error)
    n = 400_000
    a_basis, b_basis, a_bit, b_bit, n_double = sample_usable_windows(
        ch, p.misalignment_error, np.random.default_rng(7), n
    )
    q_emp = (a_basis.size + n_double) / n
    se = math.sqrt(gq.gain * (1.0 - gq.gain) / n)
    assert abs(q_emp - gq.gain) < 6.0 * se

    matched = a_basis == b_basis
    n_s = int(matched.sum())
    errs = int((a_bit[matched] != b_bit[matched]).sum())
    se_e = math.sqrt(gq.qber * (1.0 - gq.qber) / n_s)
    assert abs(errs / n_s - gq.qber) < 6.0 * se_e


def _two_sample_z(k1, n1, k2, n2):
    """z statistic of the difference between two binomial proportions."""
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    return abs(k1 / n1 - k2 / n2) / se if se > 0.0 else 0.0


def _window_stats(a_basis, b_basis, a_bit, b_bit, n_double, n):
    """(count, trials) for the statistics both samplers must share."""
    matched = a_basis == b_basis
    n_s = int(matched.sum())
    return {
        "usable": (a_basis.size, n),
        "double": (n_double, n),
        "qber": (int((a_bit[matched] != b_bit[matched]).sum()), n_s),
        "basis_match": (n_s, a_basis.size),
        "alice_ones": (int(a_bit.sum()), a_bit.size),
    }


@pytest.mark.parametrize(
    "changes",
    [
        {"channel_loss_db": 0.0},
        {"channel_loss_db": 10.0},
        {"channel_loss_db": 20.0},
        {"channel_loss_db": 0.0, "dark_count_prob": 1e-2},
    ],
    ids=["0dB", "10dB", "20dB", "0dB-dark"],
)
def test_sampler_matches_per_window_oracle(changes):
    """Two-sample 5-sigma test of the class sampler against the per-window oracle."""
    p = REF.replace(**changes)
    ch = derive_channel(p)
    n, chunks = 1_000_000, 4
    rng = np.random.default_rng(5)
    oracle = {}
    for _ in range(chunks):
        batch = sample_window_batch(ch, p.misalignment_error, rng, n)
        coincident = (batch.alice_click > 0) & (batch.bob_click > 0)
        usable = (batch.alice_click == 1) & (batch.bob_click == 1)
        stats = _window_stats(
            batch.alice_basis[usable], batch.bob_basis[usable], batch.alice_bit[usable],
            batch.bob_bit[usable], int(coincident.sum() - usable.sum()), n,
        )
        for name, (k, m) in stats.items():
            k0, m0 = oracle.get(name, (0, 0))
            oracle[name] = (k0 + k, m0 + m)
        del batch, coincident, usable
    fast = _window_stats(
        *sample_usable_windows(ch, p.misalignment_error, np.random.default_rng(6), chunks * n),
        chunks * n,
    )
    assert oracle["usable"][0] > 0
    if "dark_count_prob" in changes:
        assert oracle["double"][0] > 0 and fast["double"][0] > 0
    for name, (k1, n1) in oracle.items():
        k2, n2 = fast[name]
        assert _two_sample_z(k1, n1, k2, n2) < 5.0, (name, k1, n1, k2, n2)


def test_truncation_order_validation():
    with pytest.raises(ParameterError):
        truncation_order(-0.1)
    with pytest.raises(ParameterError):
        truncation_order(0.0)
    assert truncation_order(0.05) >= 1


_NAN = float("nan")
_CH = derive_channel(REF)


@pytest.mark.parametrize(
    "call",
    [
        lambda: pair_number_pmf(np.arange(3), _NAN),
        lambda: pair_number_pmf(np.arange(3), math.inf),
        lambda: pair_number_pmf(_NAN, 0.1),
        lambda: pair_number_pmf(math.inf, 0.1),
        lambda: pair_number_pmf(np.array([0.0, _NAN]), 0.1),
        lambda: pair_number_tail(3, _NAN),
        lambda: pair_number_tail(3, math.inf),
        lambda: pair_number_tail(_NAN, 0.1),
        lambda: pair_number_tail(math.inf, 0.1),
        lambda: truncation_order(_NAN),
        lambda: truncation_order(math.inf),
        lambda: truncation_order(1e3),
        lambda: truncation_order(1e17),
        lambda: sample_usable_windows(_CH, _NAN, np.random.default_rng(0), 1000),
        lambda: sample_usable_windows(_CH, 1.5, np.random.default_rng(0), 1000),
        lambda: sample_usable_windows(_CH, 0.015, np.random.default_rng(0), 1.5),
        lambda: sample_usable_windows(_CH, 0.015, np.random.default_rng(0), _NAN),
        lambda: sample_usable_windows(_CH, 0.015, np.random.default_rng(0), 2**62 + 1),
    ],
    ids=[
        "pmf-nan-lam", "pmf-inf-lam", "pmf-nan-n", "pmf-inf-n", "pmf-nan-in-array",
        "tail-nan-lam", "tail-inf-lam", "tail-nan-m", "tail-inf-m",
        "order-nan", "order-inf", "order-1e3", "order-1e17",
        "sampler-nan-misalignment", "sampler-misalignment-above-one",
        "sampler-fractional-pulses", "sampler-nan-pulses", "sampler-pulses-above-max",
    ],
)
def test_channel_inputs_outside_their_domain_are_refused(call):
    with pytest.raises(ParameterError):
        call()


def test_tail_below_one_pair_is_certain():
    """P(n >= m) is 1 for every m <= 0, the only non-positive m a caller may pass."""
    for m in (0, -1, -5.5, -math.inf):
        assert pair_number_tail(m, 0.1) == 1.0
