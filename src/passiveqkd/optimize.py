"""Pump-strength optimization and loss sweeps.

The certified rate is smooth and single-peaked in the mean pair number over
any practical range, so a coarse geometric grid followed by golden-section
refinement around the best grid cell is enough.  The refinement never
evaluates outside the bracketing cells, so a flat-zero curve cannot send
the search wandering.
"""

from __future__ import annotations

import math
from typing import Sequence

from .rates import rate_point
from .types import MAX_MEAN_PAIR_NUMBER, ParameterError, ProtocolParams, RateBreakdown

__all__ = ["optimize_mu", "sweep_loss"]

_GRID_POINTS = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REL_TOL = 1e-4


def optimize_mu(
    params: ProtocolParams, mu_range: tuple[float, float] = (1e-4, 1.0)
) -> RateBreakdown:
    """The breakdown at the mean pair number with the best certified rate.

    Returns the breakdown at the top of ``mu_range``, whose rate is 0.0, when
    no pump strength in range produces a key.
    """
    lo, hi = mu_range
    if not (0.0 < lo <= hi <= MAX_MEAN_PAIR_NUMBER):
        raise ParameterError("mu_range must satisfy 0 < lo <= hi <= 2")

    def at(mu: float) -> RateBreakdown:
        return rate_point(params.replace(mean_pair_number=mu))

    if lo == hi:
        return at(lo)
    grid = [at(lo * (hi / lo) ** (i / (_GRID_POINTS - 1))) for i in range(_GRID_POINTS)]
    i_best = max(range(_GRID_POINTS), key=lambda i: (grid[i].rate_per_pulse_passive, -i))
    best = grid[i_best]
    if best.rate_per_pulse_passive <= 0.0:
        return grid[-1]

    a = grid[i_best - 1].mu if i_best > 0 else grid[0].mu
    b = grid[i_best + 1].mu if i_best < _GRID_POINTS - 1 else grid[-1].mu
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = at(c), at(d)
    while b - a > _REL_TOL * best.mu:
        if fc.rate_per_pulse_passive >= fd.rate_per_pulse_passive:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            probe = fc = at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            probe = fd = at(d)
        if probe.rate_per_pulse_passive > best.rate_per_pulse_passive:
            best = probe
    return best


def sweep_loss(params: ProtocolParams, loss_points: Sequence[float]) -> list[RateBreakdown]:
    """The breakdown at the optimized pump for each channel loss.

    ``loss_points`` are total losses in dB, non-negative and strictly
    increasing; an empty list yields an empty sweep.
    """
    for prev, cur in zip(loss_points, loss_points[1:]):
        if cur <= prev:
            raise ParameterError("loss_points must be strictly increasing")
    return [optimize_mu(params.replace(channel_loss_db=float(loss))) for loss in loss_points]
