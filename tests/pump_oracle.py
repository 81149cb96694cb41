"""Full-grid reference for the pump search.

This is the search ``passiveqkd.optimize.optimize_mu`` used before it
evaluated its grid in a coarse pass and a local one.  It asks
:func:`passiveqkd.rates.rate_point` for every one of the 64 grid pumps, then
refines the best cell by golden section; the tests hold the faster search to
this one.
"""

import math

from passiveqkd.rates import rate_point
from passiveqkd.types import MAX_MEAN_PAIR_NUMBER, ParameterError

GRID_POINTS = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REL_TOL = 1e-4


def full_grid_optimize_mu(params, mu_range=(1e-4, 1.0)):
    """The breakdown at the best pump, searching every grid point first.

    Returns the breakdown at the top of ``mu_range``, whose rate is 0.0, when
    no grid pump produces a key.
    """
    lo, hi = mu_range
    if not (0.0 < lo <= hi <= MAX_MEAN_PAIR_NUMBER):
        raise ParameterError("mu_range must satisfy 0 < lo <= hi <= 2")

    def at(mu):
        return rate_point(params.replace(mean_pair_number=mu))

    if lo == hi:
        return at(lo)
    grid = [at(lo * (hi / lo) ** (i / (GRID_POINTS - 1))) for i in range(GRID_POINTS)]
    i_best = max(range(GRID_POINTS), key=lambda i: (grid[i].rate_per_pulse_passive, -i))
    best = grid[i_best]
    if best.rate_per_pulse_passive <= 0.0:
        return grid[-1]

    a = grid[i_best - 1].mu if i_best > 0 else grid[0].mu
    b = grid[i_best + 1].mu if i_best < GRID_POINTS - 1 else grid[-1].mu
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
