"""Pump-strength optimization and loss sweeps.

The certified rate is smooth and single-peaked in the mean pair number over
any practical range, so a coarse geometric grid followed by golden-section
refinement around the best grid cell is enough.  The refinement never
evaluates outside the bracketing cells, so a flat-zero curve cannot send
the search wandering.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .rates import rate_point
from .types import MAX_MEAN_PAIR_NUMBER, ParameterError, ProtocolParams, RateBreakdown

__all__ = ["MuOptimum", "optimize_mu", "sweep_loss"]

_GRID_POINTS = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REL_TOL = 1e-4


class MuOptimum(NamedTuple):
    mu: float
    rate: float


def _rate_at(params: ProtocolParams, mu: float) -> float:
    return rate_point(params.replace(mean_pair_number=mu)).rate_per_pulse_passive


def optimize_mu(
    params: ProtocolParams, mu_range: tuple[float, float] = (1e-4, 1.0)
) -> MuOptimum:
    """Best mean pair number for the certified rate at the configured loss.

    Returns the top of ``mu_range`` with rate 0.0 when no pump strength in
    range produces a key.
    """
    lo, hi = mu_range
    if not (0.0 < lo <= hi <= MAX_MEAN_PAIR_NUMBER):
        raise ParameterError("mu_range must satisfy 0 < lo <= hi <= 2")
    if lo == hi:
        return MuOptimum(lo, max(0.0, _rate_at(params, lo)))
    grid = [lo * (hi / lo) ** (i / (_GRID_POINTS - 1)) for i in range(_GRID_POINTS)]
    vals = [_rate_at(params, mu) for mu in grid]
    best = max(range(_GRID_POINTS), key=lambda i: (vals[i], -i))
    if vals[best] <= 0.0:
        return MuOptimum(grid[-1], 0.0)
    best_mu, best_rate = grid[best], vals[best]

    a = grid[best - 1] if best > 0 else grid[0]
    b = grid[best + 1] if best < _GRID_POINTS - 1 else grid[-1]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = _rate_at(params, c), _rate_at(params, d)
    while b - a > _REL_TOL * best_mu:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _rate_at(params, c)
            probe_mu, probe_rate = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _rate_at(params, d)
            probe_mu, probe_rate = d, fd
        if probe_rate > best_rate:
            best_mu, best_rate = probe_mu, probe_rate
    return MuOptimum(best_mu, best_rate)


def sweep_loss(params: ProtocolParams, loss_points: Sequence[float]) -> list[RateBreakdown]:
    """Optimize the pump at each channel loss and evaluate the full breakdown.

    ``loss_points`` are total losses in dB, non-negative and strictly
    increasing; an empty list yields an empty sweep.
    """
    if len(loss_points) == 0:
        return []
    if loss_points[0] < 0.0:
        raise ParameterError("loss_points must be non-negative")
    for prev, cur in zip(loss_points, loss_points[1:]):
        if cur <= prev:
            raise ParameterError("loss_points must be strictly increasing")
    out = []
    for loss in loss_points:
        at_loss = params.replace(channel_loss_db=float(loss))
        best = optimize_mu(at_loss)
        out.append(rate_point(at_loss.replace(mean_pair_number=best.mu)))
    return out
