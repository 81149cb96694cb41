"""Pump-strength optimization and loss sweeps."""

import numpy as np
import pytest

from passiveqkd import (
    HashFamily,
    ParameterError,
    ProtocolParams,
    optimize_mu,
    rate_point,
    sweep_loss,
)

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
