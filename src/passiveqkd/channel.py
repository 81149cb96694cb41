"""Detection-statistics model of the entanglement distribution channel.

A pulsed down-conversion source sits mid-link and emits ``n`` photon pairs
per pump window with probability ``P(n) = (n+1) lam^n / (1+lam)^(n+2)``.
Each arm carries half the channel loss; each receiver splits 50/50 between
the two measurement bases and watches one threshold detector pair per basis.
One truncated series over the pair number gives, per window, the
probabilities of a coincidence, a usable window (one click on each side)
and a correlated detection.  The analytic gain/error model sums it, and the
Monte Carlo sampler draws class counts from it and then draws bases and
bits for the usable windows only; the test suite holds the sampler to the
analytic model and to a per-window reference sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import ParameterError, ProtocolParams

__all__ = [
    "ChannelDerived",
    "GainQber",
    "derive_channel",
    "pair_number_pmf",
    "pair_number_tail",
    "truncation_order",
    "coincidence_gain_qber",
    "coincidence_gain_qber_closed",
    "sample_usable_windows",
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


def _window_series(ch: ChannelDerived) -> tuple[np.ndarray, ...]:
    """Terms of the per-window series over the pair number, truncated at ``TAIL_BOUND``.

    Returns ``(pn, click_a, click_b, photon_a, photon_b, correlated)``: the
    pair-number weights; per side, the probability of a click and of the
    photon cluster registering; and the probability that the window is
    correlated, i.e. a single pair whose photons both register while
    neither side sees a background.
    """
    n = np.arange(truncation_order(ch.lam) + 1)
    pn = pair_number_pmf(n, ch.lam)
    miss_a = (1.0 - ch.eta_a) ** n
    miss_b = (1.0 - ch.eta_b) ** n
    # Threshold detector pair: clicks unless every photon is lost and no background fires.
    click_a = 1.0 - (1.0 - ch.y0) * miss_a
    click_b = 1.0 - (1.0 - ch.y0) * miss_b
    photon_a = 1.0 - miss_a
    photon_b = 1.0 - miss_b
    correlated = (1.0 - ch.y0) ** 2 * photon_a * photon_b * (n == 1)
    return pn, click_a, click_b, photon_a, photon_b, correlated


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
    pn, click_a, click_b, _, _, correlated = _window_series(ch)
    both_click = click_a * click_b
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


def sample_usable_windows(
    ch: ChannelDerived,
    misalignment: float,
    rng: np.random.Generator,
    n_pulses: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Draw the usable windows among ``n_pulses`` pump windows.

    Event model, per window: the pair number follows the source law; each
    side's photon cluster registers with probability ``1-(1-eta)^n`` and
    reads out as one uniform outcome bit, and an independent background
    click lands on a uniformly chosen detector with probability ``y0``.  A
    side double-clicks when its background lands opposite its photon
    outcome.  A correlated window (see :func:`_window_series`) in a matched
    basis gives Bob Alice's bit flipped with probability ``misalignment``;
    every other coincidence gives independent uniform bits.

    Only windows in which both sides single-click are usable, so one
    multinomial draw splits the windows into usable, coincident with a
    double click, and the rest, and bases and bits are drawn for the usable
    windows alone: the cost scales with detections, not pump windows.
    Within the usable class the correlated windows are exchangeable with
    the others, so each usable window carries one Bernoulli label.

    Returns ``(alice_basis, bob_basis, alice_bit, bob_bit, n_double)``: four
    uint8 columns over the usable windows (basis 0 is X, 1 is Z) and the
    number of coincident windows with a double click on some side.
    """
    if n_pulses < 0:
        raise ParameterError("n_pulses must be non-negative")
    pn, click_a, click_b, photon_a, photon_b, correlated = _window_series(ch)
    # a background that lands opposite the photon outcome (half of them) double-clicks
    single_a = click_a - photon_a * (ch.y0 / 2.0)
    single_b = click_b - photon_b * (ch.y0 / 2.0)
    p_coinc = float(np.dot(pn, click_a * click_b))
    p_usable = float(np.dot(pn, single_a * single_b))
    p_corr = float(np.dot(pn, correlated))
    # single clicks never exceed clicks term by term, so p_usable <= p_coinc <= 1
    n_usable, n_double, _ = rng.multinomial(
        n_pulses, [p_usable, p_coinc - p_usable, 1.0 - p_coinc]
    )
    a_basis = rng.integers(0, 2, size=n_usable, dtype=np.uint8)
    b_basis = rng.integers(0, 2, size=n_usable, dtype=np.uint8)
    a_bit = rng.integers(0, 2, size=n_usable, dtype=np.uint8)
    is_corr = rng.random(n_usable) < (p_corr / p_usable if p_usable > 0.0 else 0.0)
    # Bob errs with the misalignment on correlated matched windows, else at random
    p_err = np.where(is_corr & (a_basis == b_basis), misalignment, RANDOM_ERROR)
    b_bit = a_bit ^ (rng.random(n_usable) < p_err).astype(np.uint8)
    return a_basis, b_basis, a_bit, b_bit, int(n_double)
