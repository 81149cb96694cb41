"""Bit-exact Toeplitz hashing over GF(2).

A Toeplitz matrix-vector product is a binary convolution, so the hash is
computed exactly by multiplying two integers whose bits are spread into
32-bit slots: column sums never carry across slots, and the parity of each
slot is the output bit.  gmpy2 keeps the multiplication fast for
megabit-scale inputs; plain Python integers are a correct fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import BitString, ParameterError

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _mpz = int

__all__ = [
    "ToeplitzSpec",
    "toeplitz_hash",
    "modified_toeplitz_hash",
    "extract_local_randomness",
    "gf2_convolve",
]

_SLOT_BYTES = 4  # one uint32 per bit keeps column sums below 2**32 for any practical length


def _spread(bits: np.ndarray):
    return _mpz(int.from_bytes(bits.astype("<u4").tobytes(), "little"))


def gf2_convolve(a: BitString, b: BitString) -> np.ndarray:
    """Parity bits of the full linear convolution of two bit sequences."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return np.zeros(0, dtype=np.uint8)
    prod = int(_spread(a.to_numpy()) * _spread(b.to_numpy()))
    buf = prod.to_bytes(_SLOT_BYTES * (la + lb - 1), "little")
    return (np.frombuffer(buf, dtype="<u4") & 1).astype(np.uint8)


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
    over all columns ``j``, i.e. the slice ``[n_in - 1, n_in - 1 + n_out)``
    of the seed/data convolution.
    """
    if len(data) != spec.n_in:
        raise ParameterError(f"input must hold n_in = {spec.n_in} bits, got {len(data)}")
    if spec.n_out == 0:
        return BitString.zeros(0)
    conv = gf2_convolve(spec.seed, data)
    return BitString.from_bits(conv[spec.n_in - 1 : spec.n_in - 1 + spec.n_out])


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
    tail = data[n_out:]
    conv = gf2_convolve(seed[: len(tail) + n_out - 1], tail)
    return head ^ BitString.from_bits(conv[len(tail) - 1 : len(tail) - 1 + n_out])


def extract_local_randomness(
    w_pool: BitString, h_min_bits: float, private_seed: BitString, eps_ext: float
) -> BitString:
    """Condense a certified pool into nearly uniform bits via Toeplitz hashing.

    The leftover hash penalty for a single use at failure probability
    ``eps_ext`` is ``2 log2(1/eps_ext)`` bits, so the output length is
    ``floor(h_min_bits - 2 log2(1/eps_ext))``, never more than the pool
    itself.  The private seed is pre-shared, stays off the public channel,
    and is therefore reusable across sessions.

    :raises ParameterError: if the private seed does not hold exactly
        ``len(w_pool) + n_out - 1`` bits for the resulting ``n_out``.
    """
    if not 0.0 < eps_ext < 1.0:
        raise ParameterError("eps_ext must lie in (0, 1)")
    if h_min_bits > len(w_pool):
        raise ParameterError("certified entropy cannot exceed the pool length")
    n_out = math.floor(h_min_bits - 2.0 * math.log2(1.0 / eps_ext))
    if n_out <= 0 or len(w_pool) == 0:
        return BitString.zeros(0)
    spec = ToeplitzSpec(n_in=len(w_pool), n_out=n_out, seed=private_seed)
    return toeplitz_hash(spec, w_pool)
