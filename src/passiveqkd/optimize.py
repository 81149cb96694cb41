"""Pump-strength optimization and loss sweeps.

The certified rate is smooth and single-peaked in the mean pair number over
any practical range, so a geometric grid followed by golden-section
refinement around the best grid cell is enough.  The grid is searched in two
passes: every fourth point and the last, then the three points on either side
of the best of them.  That finds the full grid's best point whenever the
positive part of the grid has one peak at a resolution of four grid steps; a
spike or dip that falls between coarse points can make it pick another cell.
When no coarse point gives a key the whole grid is evaluated.  The refinement
never evaluates outside the bracketing cells, so a flat-zero curve cannot send
the search wandering.
"""

from __future__ import annotations

import math
from typing import Sequence

from .rates import rate_point
from .types import MAX_MEAN_PAIR_NUMBER, ParameterError, ProtocolParams, RateBreakdown

__all__ = ["optimize_mu", "sweep_loss"]

_GRID_POINTS = 64
_COARSE_STEP = 4
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
    pumps = [lo * (hi / lo) ** (i / (_GRID_POINTS - 1)) for i in range(_GRID_POINTS)]
    grid: dict[int, RateBreakdown] = {}

    def best_of(indices) -> int:
        """Evaluate the grid points not yet seen; the best index seen so far."""
        for i in indices:
            if i not in grid:
                grid[i] = at(pumps[i])
        return max(grid, key=lambda i: (grid[i].rate_per_pulse_passive, -i))

    last = _GRID_POINTS - 1
    i_best = best_of([*range(0, last, _COARSE_STEP), last])
    if grid[i_best].rate_per_pulse_passive > 0.0:
        reach = _COARSE_STEP - 1
        i_best = best_of(range(max(i_best - reach, 0), min(i_best + reach, last) + 1))
    else:
        i_best = best_of(range(_GRID_POINTS))
    best = grid[i_best]
    if best.rate_per_pulse_passive <= 0.0:
        return grid[last]

    a = pumps[max(i_best - 1, 0)]
    b = pumps[min(i_best + 1, last)]
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
