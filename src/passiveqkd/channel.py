"""Detection-statistics model of the entanglement distribution channel.

A pulsed down-conversion source sits mid-link and emits ``n`` photon pairs
per pump window with probability ``P(n) = (n+1) lam^n / (1+lam)^(n+2)``.
Each arm carries half the channel loss; each receiver splits 50/50 between
the two measurement bases and watches one threshold detector pair per basis.
The analytic gain/error model and the Monte Carlo sampler below are two
views of the same process, and the test suite holds them to each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import ParameterError, ProtocolParams

__all__ = [
    "ChannelDerived",
    "GainQber",
    "WindowBatch",
    "derive_channel",
    "pair_number_pmf",
    "pair_number_tail",
    "truncation_order",
    "coincidence_gain_qber",
    "coincidence_gain_qber_closed",
    "sample_window_batch",
]

#: Probability mass allowed beyond the truncation point of the pair-number series.
TAIL_BOUND = 1e-12

#: Error probability of a coincidence that carries no correlation (dark or multi-pair).
RANDOM_ERROR = 0.5


@dataclass(frozen=True, slots=True)
class ChannelDerived:
    """Per-arm quantities derived from :class:`ProtocolParams`.

    eta_a/eta_b fold fiber transmittance and detector efficiency into a
    single photon detection probability per arm; ``y0`` is the background
    click probability per side per window and ``lam`` the mean pair number
    of the half-window mode.
    """

    eta_a: float
    eta_b: float
    y0: float
    lam: float

    def __post_init__(self):
        for name in ("eta_a", "eta_b", "y0"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")
        if self.lam <= 0.0:
            raise ParameterError("lam must be positive")


@dataclass(frozen=True, slots=True)
class GainQber:
    gain: float
    qber: float


def derive_channel(params: ProtocolParams) -> ChannelDerived:
    """Split the total loss budget evenly over the two arms.

    Source in the middle: each arm sees ``channel_loss_db / 2`` of fiber,
    so per-arm transmittance is ``10**(-(L/2)/10)`` and the effective
    detection probability is that times the detector efficiency.
    """
    t_arm = 10.0 ** (-(params.channel_loss_db / 2.0) / 10.0)
    eta = t_arm * params.detector_efficiency
    return ChannelDerived(
        eta_a=eta,
        eta_b=eta,
        y0=params.dark_count_prob,
        lam=params.mean_pair_number / 2.0,
    )


def pair_number_pmf(n, lam: float):
    """P(n pairs in one window) = (n+1) lam^n / (1+lam)^(n+2).

    Accepts a scalar or an integer array for ``n``.
    """
    if lam <= 0.0:
        raise ParameterError("lam must be positive")
    n_arr = np.asarray(n)
    if np.any(n_arr < 0):
        raise ParameterError("pair number must be non-negative")
    out = (n_arr + 1.0) * lam**n_arr / (1.0 + lam) ** (n_arr + 2.0)
    return float(out) if np.isscalar(n) or n_arr.ndim == 0 else out

def pair_number_tail(m: int, lam: float) -> float:
    """P(n >= m), in closed form.

    With x = lam/(1+lam) the tail telescopes to ``x**m (m+1 - m x)``.
    """
    if lam <= 0.0:
        raise ParameterError("lam must be positive")
    if m <= 0:
        return 1.0
    x = lam / (1.0 + lam)
    return x**m * (m + 1.0 - m * x)


def truncation_order(lam: float, tail_bound: float = TAIL_BOUND) -> int:
    """Smallest N such that P(n > N) < tail_bound."""
    n = 0
    while pair_number_tail(n + 1, lam) >= tail_bound:
        n += 1
    return n


def _click_prob(n: np.ndarray, eta: float, y0: float) -> np.ndarray:
    # Threshold detector pair: clicks unless every photon is lost and no background fires.
    return 1.0 - (1.0 - y0) * (1.0 - eta) ** n


def coincidence_gain_qber(ch: ChannelDerived, misalignment: float) -> GainQber:
    """Analytic coincidence gain and QBER, by direct series summation.

    The series over the pair number is truncated once the remaining tail
    holds less than ``TAIL_BOUND`` probability.  Only the single-pair,
    background-free term carries the misalignment statistics; every other
    coincidence is treated as an uncorrelated coin flip, which errs toward
    a pessimistic error rate.
    """
    if not 0.0 <= misalignment <= 1.0:
        raise ParameterError("misalignment must lie in [0, 1]")
    n = np.arange(truncation_order(ch.lam) + 1)
    pn = pair_number_pmf(n, ch.lam)
    both_click = _click_prob(n, ch.eta_a, ch.y0) * _click_prob(n, ch.eta_b, ch.y0)
    correlated = (
        (1.0 - ch.y0) ** 2
        * (1.0 - (1.0 - ch.eta_a) ** n)
        * (1.0 - (1.0 - ch.eta_b) ** n)
        * (n == 1)
    )
    gain = float(np.dot(pn, both_click))
    err_gain = float(np.dot(pn, RANDOM_ERROR * both_click - (RANDOM_ERROR - misalignment) * correlated))
    if gain <= 0.0:
        return GainQber(gain=0.0, qber=RANDOM_ERROR)
    return GainQber(gain=gain, qber=min(max(err_gain / gain, 0.0), RANDOM_ERROR))


def coincidence_gain_qber_closed(ch: ChannelDerived, misalignment: float) -> GainQber:
    """Closed-form twin of :func:`coincidence_gain_qber`.

    Uses the generating function of the pair-number law,
    ``sum_n P(n) s^n = (1 + lam (1-s))**-2``, to resum the series exactly.
    Kept as an independent cross-check; the series form is the definition.
    """
    if not 0.0 <= misalignment <= 1.0:
        raise ParameterError("misalignment must lie in [0, 1]")
    lam, ya = ch.lam, 1.0 - ch.y0
    gain = (
        1.0
        - ya / (1.0 + lam * ch.eta_a) ** 2
        - ya / (1.0 + lam * ch.eta_b) ** 2
        + ya**2 / (1.0 + lam * (ch.eta_a + ch.eta_b - ch.eta_a * ch.eta_b)) ** 2
    )
    correlated = ya**2 * ch.eta_a * ch.eta_b * pair_number_pmf(1, lam)
    err_gain = RANDOM_ERROR * gain - (RANDOM_ERROR - misalignment) * correlated
    if gain <= 0.0:
        return GainQber(gain=0.0, qber=RANDOM_ERROR)
    return GainQber(gain=gain, qber=min(max(err_gain / gain, 0.0), RANDOM_ERROR))


@dataclass(slots=True)
class WindowBatch:
    """Column-oriented batch of sampled windows (uint8/bool arrays).

    ``*_click`` holds 0 = no click, 1 = single click, 2 = double click.
    Bit columns are meaningful only where the side clicked.  Basis columns
    use 0 for X and 1 for Z.
    """

    alice_basis: np.ndarray
    bob_basis: np.ndarray
    alice_click: np.ndarray
    bob_click: np.ndarray
    alice_bit: np.ndarray
    bob_bit: np.ndarray


def sample_window_batch(
    ch: ChannelDerived,
    misalignment: float,
    rng: np.random.Generator,
    size: int,
) -> WindowBatch:
    """Draw ``size`` windows whose marginals converge to the analytic model.

    Event model, per window: the pair number follows the source law (a
    negative binomial with two successes); each side's photon cluster
    registers with probability ``1-(1-eta)^n`` and reads out as one outcome
    bit, and an independent background click lands on a uniformly chosen
    detector with probability ``y0``.  A single-pair window in which both
    photons register and neither side sees a background is a correlated
    detection: in a matched basis Bob's bit equals Alice's flipped with
    probability ``misalignment``.  Every other coincidence yields
    independent uniform bits.  A side reports a double click when its
    background lands opposite its photon outcome.
    """
    if size < 0:
        raise ParameterError("size must be non-negative")
    n = rng.negative_binomial(2, 1.0 / (1.0 + ch.lam), size=size)
    a_basis = rng.integers(0, 2, size=size, dtype=np.uint8)
    b_basis = rng.integers(0, 2, size=size, dtype=np.uint8)
    a_ph = rng.random(size) < 1.0 - (1.0 - ch.eta_a) ** n
    b_ph = rng.random(size) < 1.0 - (1.0 - ch.eta_b) ** n
    a_bg = rng.random(size) < ch.y0
    b_bg = rng.random(size) < ch.y0
    a_bg_det = rng.integers(0, 2, size=size, dtype=np.uint8)
    b_bg_det = rng.integers(0, 2, size=size, dtype=np.uint8)
    a_out = rng.integers(0, 2, size=size, dtype=np.uint8)
    flip = rng.random(size) < misalignment
    b_indep = rng.integers(0, 2, size=size, dtype=np.uint8)

    correlated = (n == 1) & a_ph & b_ph & ~a_bg & ~b_bg
    matched = a_basis == b_basis
    b_out = np.where(correlated & matched, a_out ^ flip, b_indep).astype(np.uint8)

    a_bit = np.where(a_ph, a_out, a_bg_det).astype(np.uint8)
    b_bit = np.where(b_ph, b_out, b_bg_det).astype(np.uint8)
    a_click = (a_ph | a_bg).astype(np.uint8)
    b_click = (b_ph | b_bg).astype(np.uint8)
    a_click += (a_ph & a_bg & (a_bg_det != a_out)).astype(np.uint8)
    b_click += (b_ph & b_bg & (b_bg_det != b_out)).astype(np.uint8)
    return WindowBatch(a_basis, b_basis, a_click, b_click, a_bit, b_bit)
