"""Per-window reference sampler for the channel model.

It draws every pump window and every variable of the event model
(pair number, photon registration, background clicks and their detectors,
outcome bits), then reports each side's click status.  It costs a dozen
random arrays per window, so the package samples with
``passiveqkd.channel.sample_usable_windows`` instead; the tests hold that
sampler to this one.
"""

from dataclasses import dataclass

import numpy as np

from passiveqkd import ChannelDerived, ParameterError


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
    a_ph = rng.random(size) < 1.0 - (1.0 - ch.eta) ** n
    b_ph = rng.random(size) < 1.0 - (1.0 - ch.eta) ** n
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
