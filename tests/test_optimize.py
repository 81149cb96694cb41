"""Pump-strength optimization and loss sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pump_oracle import GRID_POINTS, full_grid_optimize_mu

from passiveqkd import (
    HashFamily,
    ParameterError,
    ProtocolParams,
    optimize,
    optimize_mu,
    rate_point,
    sweep_loss,
)
from passiveqkd.types import MAX_COUNT

REF = ProtocolParams()


def test_optimize_mu_singleton_range():
    opt = optimize_mu(REF, (0.1, 0.1))
    assert opt.mu == 0.1
    assert opt.rate_per_pulse_passive == pytest.approx(
        rate_point(REF.replace(mean_pair_number=0.1)).rate_per_pulse_passive
    )
    assert opt == rate_point(REF.replace(mean_pair_number=opt.mu))


@pytest.mark.parametrize("bad", [(0.0, 0.5), (-0.1, 0.5), (0.5, 0.1), (0.1, 2.5)])
def test_optimize_mu_range_validation(bad):
    with pytest.raises(ParameterError):
        optimize_mu(REF, bad)


def test_optimize_mu_dead_channel_reports_zero():
    opt = optimize_mu(REF.replace(channel_loss_db=120.0), (1e-4, 1.0))
    assert opt.rate_per_pulse_passive == 0.0
    assert opt.mu == 1.0  # reported at the top of the searched range
    assert opt == rate_point(REF.replace(channel_loss_db=120.0, mean_pair_number=opt.mu))


def test_optimize_mu_beats_dense_grid():
    params = REF.replace(channel_loss_db=10.0)
    opt = optimize_mu(params, (1e-3, 0.5))
    grid = np.geomspace(1e-3, 0.5, 400)
    dense = [
        rate_point(params.replace(mean_pair_number=float(m))).rate_per_pulse_passive
        for m in grid
    ]
    best = max(dense)
    assert opt.rate_per_pulse_passive >= best * (1.0 - 1e-3)
    assert opt.rate_per_pulse_passive > 0.0


def test_optimize_mu_result_is_a_true_rate():
    params = REF.replace(channel_loss_db=10.0)
    opt = optimize_mu(params)
    assert opt.rate_per_pulse_passive == pytest.approx(
        rate_point(params.replace(mean_pair_number=opt.mu)).rate_per_pulse_passive
    )
    assert opt == rate_point(params.replace(mean_pair_number=opt.mu))


def test_optimal_mu_shrinks_with_loss():
    mu_near = optimize_mu(REF.replace(channel_loss_db=0.0)).mu
    mu_far = optimize_mu(REF.replace(channel_loss_db=30.0)).mu
    assert mu_far <= mu_near * (1.0 + 1e-3)


def test_sweep_loss_empty():
    assert sweep_loss(REF, []) == []


def test_sweep_loss_validation():
    with pytest.raises(ParameterError):
        sweep_loss(REF, [-1.0, 5.0])
    with pytest.raises(ParameterError):
        sweep_loss(REF, [5.0, 5.0])
    with pytest.raises(ParameterError):
        sweep_loss(REF, [10.0, 5.0])


def test_sweep_loss_rates_decay():
    pts = sweep_loss(REF, [0.0, 10.0, 20.0])
    assert [b.loss_db for b in pts] == [0.0, 10.0, 20.0]
    rates = [b.rate_per_pulse_passive for b in pts]
    assert rates[0] > rates[1] > rates[2] > 0.0
    for b in pts:
        assert b.family is HashFamily.TOEPLITZ
        assert b.mu > 0.0


def test_sweep_loss_is_pointwise():
    whole = sweep_loss(REF, [0.0, 12.0, 24.0])
    parts = sweep_loss(REF, [0.0]) + sweep_loss(REF, [12.0, 24.0])
    assert whole == parts
    assert whole == [optimize_mu(REF.replace(channel_loss_db=loss)) for loss in [0.0, 12.0, 24.0]]


_UNIT = st.floats(0.0, 1.0)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_PUMP = st.floats(0.0, 2.0, exclude_min=True)
_FAMILY = st.sampled_from(HashFamily)
# Every field over its whole domain, where most draws give no key ...
_ANYWHERE = {
    "dark_count_prob": _UNIT,
    "detector_efficiency": _UNIT,
    "misalignment_error": _UNIT,
    "ec_efficiency": st.floats(1.0, allow_infinity=False),
    "mean_pair_number": _PUMP,
    "basis_reconciliation_factor": _UNIT,
    "phase_est_failure_prob": _OPEN_UNIT,
    "block_size": st.integers(1, MAX_COUNT),
    "hash_family": _FAMILY,
    "extractor_failure_prob": _OPEN_UNIT,
    "channel_loss_db": st.floats(0.0, allow_infinity=False),
}
# ... or over the region where keys exist, so that half the draws search a live curve.
_LIVE = {
    "dark_count_prob": st.floats(0.0, 1e-5),
    "detector_efficiency": st.floats(0.2, 1.0),
    "misalignment_error": st.floats(0.0, 0.03),
    "ec_efficiency": st.floats(1.0, 1.3),
    "mean_pair_number": _PUMP,
    "basis_reconciliation_factor": st.floats(0.2, 0.8),
    "phase_est_failure_prob": st.floats(1e-15, 1e-3),
    "block_size": st.integers(10**3, MAX_COUNT),
    "hash_family": _FAMILY,
    "extractor_failure_prob": st.floats(1e-30, 1e-3),
    "channel_loss_db": st.floats(0.0, 40.0),
}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    fields=st.one_of(st.fixed_dictionaries(_ANYWHERE), st.fixed_dictionaries(_LIVE)),
    ends=st.one_of(st.just([1e-4, 1.0]), st.tuples(_PUMP, _PUMP).map(sorted)),
)
def test_optimize_mu_matches_full_grid_oracle(fields, ends):
    try:
        params = ProtocolParams(**fields)
    except ParameterError:
        return
    mu_range = tuple(ends)

    def outcome(search):
        try:
            return search(params, mu_range)
        except ParameterError:
            return ParameterError

    assert outcome(optimize_mu) == outcome(full_grid_optimize_mu)


def _count_evaluations(monkeypatch):
    calls = []

    def counted(params):
        calls.append(params.mean_pair_number)
        return rate_point(params)

    monkeypatch.setattr(optimize, "rate_point", counted)
    return calls


def test_dead_point_evaluates_the_whole_grid(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    optimize_mu(REF.replace(channel_loss_db=120.0))
    assert len(calls) == len(set(calls)) == GRID_POINTS  # each grid pump once


def test_singleton_range_is_one_evaluation(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    optimize_mu(REF, (0.1, 0.1))
    assert calls == [0.1]


def test_rate_sweep_averages_at_most_45_evaluations_per_point(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    losses = [float(db) for db in range(0, 41, 2)]
    points = [b for family in HashFamily for b in sweep_loss(REF.replace(hash_family=family), losses)]
    assert len(points) == 126 and all(b.rate_per_pulse_passive > 0.0 for b in points)
    assert len(calls) / len(points) <= 45
