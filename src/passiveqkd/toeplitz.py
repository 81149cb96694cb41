"""Bit-exact Toeplitz hashing over GF(2).

A Toeplitz matrix-vector product is the valid part of a binary
convolution: each output bit is the parity of an integer column count.
The counts come from one real FFT at a power-of-two circular length, are
rounded to integers, and the rounding margin is checked before any parity
is read, so a float64 error can only raise, never flip a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import BitString, ParameterError, _failure_prob

__all__ = [
    "ToeplitzSpec",
    "toeplitz_hash",
    "modified_toeplitz_hash",
    "extract_local_randomness",
    "leftover_hash_penalty",
    "gf2_convolve",
]


def gf2_convolve(a: BitString, b: BitString) -> np.ndarray:
    """Parity bits of ``np.convolve(a, b, "valid")``, the Toeplitz product.

    The longer sequence holds the matrix diagonals; output ``k`` is the
    parity of ``sum_j long[k + len(short) - 1 - j] & short[j]``.  Any
    circular length of at least ``len(long)`` leaves these outputs
    unaliased; a power of two keeps the FFT off its slow prime-length path.

    :raises ArithmeticError: if a count is not within 0.25 of an integer.
    """
    if len(a) < len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    if lb == 0:
        return np.zeros(0, dtype=np.uint8)
    n = 1 << (la - 1).bit_length()
    spectrum = np.fft.rfft(a.to_numpy(), n) * np.fft.rfft(b.to_numpy(), n)
    x = np.fft.irfft(spectrum, n)[lb - 1 : la]
    counts = np.rint(x)
    margin = float(np.max(np.abs(x - counts)))
    if margin >= 0.25:
        raise ArithmeticError(f"FFT rounding error {margin:.3g} leaves no margin for exact parities")
    return (counts % 2).astype(np.uint8)


@dataclass(frozen=True, slots=True)
class ToeplitzSpec:
    """A concrete Toeplitz hash: row ``i``, column ``j`` holds ``seed[i - j + n_in - 1]``.

    The seed must supply exactly ``n_in + n_out - 1`` bits, one per matrix
    diagonal, and the matrix never expands (``n_out <= n_in``).
    """

    n_in: int
    n_out: int
    seed: BitString

    def __post_init__(self):
        if self.n_in < 1:
            raise ParameterError("n_in must be at least 1")
        if not 0 <= self.n_out <= self.n_in:
            raise ParameterError("need 0 <= n_out <= n_in")
        if len(self.seed) != self.n_in + self.n_out - 1:
            raise ParameterError(
                f"seed must hold n_in + n_out - 1 = {self.n_in + self.n_out - 1} bits, "
                f"got {len(self.seed)}"
            )


def toeplitz_hash(spec: ToeplitzSpec, data: BitString) -> BitString:
    """Apply the Toeplitz matrix of ``spec`` to ``data`` over GF(2).

    Output bit ``i`` is the parity of ``seed[i - j + n_in - 1] & data[j]``
    over all columns ``j``: the valid-mode seed/data convolution.
    """
    if len(data) != spec.n_in:
        raise ParameterError(f"input must hold n_in = {spec.n_in} bits, got {len(data)}")
    if spec.n_out == 0:
        return BitString.zeros(0)
    return BitString.from_bits(gf2_convolve(spec.seed, data))


def modified_toeplitz_hash(data: BitString, n_out: int, seed: BitString) -> BitString:
    """Hash with the two-universal family ``[identity | Toeplitz]``.

    Output = ``data[:n_out] XOR T' data[n_out:]`` where ``T'`` is the
    ``n_out x (len(data) - n_out)`` Toeplitz matrix read off ``seed``.  The
    seed costs ``len(data) - 1`` bits regardless of the output length, which
    is what makes the construction affordable under a seed budget equal to
    the input length.
    """
    n = len(data)
    if not 0 <= n_out <= n:
        raise ParameterError("need 0 <= n_out <= len(data)")
    if len(seed) != max(0, n - 1):
        raise ParameterError(f"seed must hold len(data) - 1 = {max(0, n - 1)} bits")
    if n_out == 0:
        return BitString.zeros(0)
    head = data[:n_out]
    if n_out == n:
        return head
    return head ^ BitString.from_bits(gf2_convolve(seed, data[n_out:]))


def leftover_hash_penalty(eps_ext: float) -> float:
    """Leftover-hash cost in bits of one extraction at failure probability ``eps_ext``.

    :raises ParameterError: unless ``eps_ext`` lies in (0, 1) with a finite reciprocal.
    """
    return 2.0 * math.log2(1.0 / _failure_prob("eps_ext", eps_ext))


def extract_local_randomness(w_pool: BitString, n_out: int, private_seed: BitString) -> BitString:
    """Condense a certified pool into ``n_out`` nearly uniform bits via Toeplitz hashing.

    The caller sizes ``n_out``: a session takes it from the seed ledger,
    which charges the leftover-hash cost (see :func:`leftover_hash_penalty`)
    against the pool's certified min-entropy.  The private seed is
    pre-shared, stays off the public channel, and is therefore reusable
    across sessions.

    :raises ParameterError: if ``n_out`` exceeds the pool, or the private
        seed does not hold exactly ``len(w_pool) + n_out - 1`` bits.
    """
    if n_out <= 0:
        return BitString.zeros(0)
    spec = ToeplitzSpec(n_in=len(w_pool), n_out=n_out, seed=private_seed)
    return toeplitz_hash(spec, w_pool)
