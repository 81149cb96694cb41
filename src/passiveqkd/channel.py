"""Detection-statistics model of the entanglement distribution channel.

A pulsed down-conversion source sits mid-link and emits ``n`` photon pairs
per pump window with probability ``P(n) = (n+1) lam^n / (1+lam)^(n+2)``.
Each arm carries half the channel loss and ends in the same receiver, so one
arm describes both sides; each receiver splits 50/50 between the two
measurement bases and watches one threshold detector pair per basis.
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

from .types import MAX_MEAN_PAIR_NUMBER, ParameterError, ProtocolParams

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
    """Quantities of the symmetric link derived from :class:`ProtocolParams`.

    Both arms are alike: ``eta`` folds one arm's fiber transmittance and the
    detector efficiency into a single photon detection probability; ``y0`` is
    the background click probability per side per window and ``lam`` the mean
    pair number of the half-window mode.
    """

    eta: float
    y0: float
    lam: float

    def __post_init__(self):
        for name in ("eta", "y0"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")
        # derive_channel halves the pump, so this admits every ProtocolParams
        if not 0.0 < self.lam <= MAX_MEAN_PAIR_NUMBER / 2.0:
            raise ParameterError(f"lam must lie in (0, {MAX_MEAN_PAIR_NUMBER / 2.0}]")


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
    return ChannelDerived(
        eta=t_arm * params.detector_efficiency,
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


def truncation_order(lam: float) -> int:
    """Smallest N such that P(n > N) < ``TAIL_BOUND``."""
    n = 0
    while pair_number_tail(n + 1, lam) >= TAIL_BOUND:
        n += 1
    return n


def _window_series(ch: ChannelDerived) -> tuple[np.ndarray, ...]:
    """Terms of the per-window series over the pair number, truncated at ``TAIL_BOUND``.

    Returns ``(pn, click, photon, correlated)``: the pair-number weights;
    for either side (the arms are alike), the probability of a click and of
    the photon cluster registering; and the probability that the window is
    correlated, i.e. a single pair whose photons both register while
    neither side sees a background.
    """
    n = np.arange(truncation_order(ch.lam) + 1)
    pn = pair_number_pmf(n, ch.lam)
    miss = (1.0 - ch.eta) ** n
    # Threshold detector pair: clicks unless every photon is lost and no background fires.
    click = 1.0 - (1.0 - ch.y0) * miss
    photon = 1.0 - miss
    correlated = (1.0 - ch.y0) ** 2 * photon * photon * (n == 1)
    return pn, click, photon, correlated


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
    pn, click, _, correlated = _window_series(ch)
    both_click = click * click
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
    lam, ya, eta = ch.lam, 1.0 - ch.y0, ch.eta
    silent = ya / (1.0 + lam * eta) ** 2  # P(a given side does not click)
    gain = 1.0 - silent - silent + ya**2 / (1.0 + lam * (eta + eta - eta * eta)) ** 2
    correlated = ya**2 * eta * eta * pair_number_pmf(1, lam)
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
    pn, click, photon, correlated = _window_series(ch)
    # a background that lands opposite the photon outcome (half of them) double-clicks
    single = click - photon * (ch.y0 / 2.0)
    p_coinc = float(np.dot(pn, click * click))
    p_usable = float(np.dot(pn, single * single))
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
