"""Bisection reference for the reassignment solve.

This is the search ``passiveqkd.rates.solve_epsilon`` used before it
interpolated the ledger margin.  It asks :func:`passiveqkd.rates.seed_ledger`
the same feasibility question at every midpoint, about ``log2(n_s)`` times
per solve; the tests hold the faster search to this one.
"""

import math

from passiveqkd.rates import seed_ledger


def bisect_epsilon(n_r, n_s, rates, f, family, penalty_bits=None):
    """Smallest ``eps`` in ``[0, floor(n_s)]`` whose supply covers its demand.

    ``floor(n_s)`` itself is never evaluated: it is returned when no smaller
    reassignment is feasible.
    """

    def feasible(eps):
        supply, demand, _ = seed_ledger(eps, n_r, n_s, rates, f, family, penalty_bits)
        return supply >= demand

    lo, hi = 0, int(math.floor(n_s))
    if feasible(lo):
        return lo
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
