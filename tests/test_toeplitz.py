"""GF(2) hashing layer: convolution core, Toeplitz maps, local extraction."""

import numpy as np
import pytest

from passiveqkd import toeplitz
from passiveqkd import (
    BitString,
    ParameterError,
    ToeplitzSpec,
    extract_local_randomness,
    gf2_convolve,
    modified_toeplitz_hash,
    toeplitz_hash,
)


def _bits(bs: BitString) -> list:
    return [int(b) for b in bs.to_numpy()]


def _naive_toeplitz(seed_bits, in_bits, n_out):
    """Explicit matrix-vector product; T[i][j] = seed[i - j + n_in - 1]."""
    n_in = len(in_bits)
    out = []
    for i in range(n_out):
        acc = 0
        for j in range(n_in):
            acc ^= seed_bits[i - j + n_in - 1] & in_bits[j]
        out.append(acc)
    return out


def _int_gf2_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer reference for the valid-mode GF(2) convolution.

    Each bit is spread into a 32-bit slot, so the big-integer product holds
    every column count in its own slot with no carry between slots; the
    parity of each slot is the output bit.
    """
    if len(a) < len(b):
        a, b = b, a
    spread = [int.from_bytes(x.astype("<u4").tobytes(), "little") for x in (a, b)]
    buf = (spread[0] * spread[1]).to_bytes(4 * (len(a) + len(b) - 1), "little")
    full = (np.frombuffer(buf, dtype="<u4") & 1).astype(np.uint8)
    return full[len(b) - 1 : len(a)]


def test_gf2_convolve_matches_numpy():
    rng = np.random.default_rng(5)
    shapes = [(int(la), int(lb)) for la, lb in rng.integers(1, 64, size=(30, 2))]
    # circular lengths are powers of two: cover both sides of several
    for k in range(1, 11):
        shapes += [(la, int(rng.integers(1, la + 1))) for la in (2**k - 1, 2**k, 2**k + 1)]
    for la, lb in shapes:
        a = rng.integers(0, 2, size=la, dtype=np.uint8)
        b = rng.integers(0, 2, size=lb, dtype=np.uint8)
        want = np.convolve(a, b, "valid") % 2
        got = gf2_convolve(BitString.from_bits(a), BitString.from_bits(b))
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "la, lb",
    [(100_000, 60_000), (2**17, 100_000), (2**16 + 1, 50_000), (99_991, 40_000)],
    ids=["1e5-bits", "power-of-two", "power-of-two-plus-one", "prime"],
)
def test_gf2_convolve_matches_integer_oracle(la, lb):
    rng = np.random.default_rng(la)
    a = rng.integers(0, 2, size=la, dtype=np.uint8)
    b = rng.integers(0, 2, size=lb, dtype=np.uint8)
    got = gf2_convolve(BitString.from_bits(a), BitString.from_bits(b))
    assert np.array_equal(got, _int_gf2_convolve(a, b))
    assert np.array_equal(gf2_convolve(BitString.from_bits(b), BitString.from_bits(a)), got)


def test_gf2_convolve_rejects_rounding_without_margin(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(toeplitz.np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    rng = np.random.default_rng(14)
    a = BitString.random(1000, rng)
    with pytest.raises(ArithmeticError):
        gf2_convolve(a, BitString.random(100, rng))


def test_gf2_convolve_empty():
    empty = BitString.zeros(0)
    one = BitString.from_bits([1])
    assert gf2_convolve(empty, one).size == 0
    assert gf2_convolve(one, empty).size == 0


def test_toeplitz_hash_zero_seed():
    spec = ToeplitzSpec(n_in=8, n_out=5, seed=BitString.zeros(12))
    out = toeplitz_hash(spec, BitString.from_bits([1, 0, 1, 1, 0, 1, 1, 1]))
    assert _bits(out) == [0, 0, 0, 0, 0]


def test_toeplitz_hash_identity_1x1():
    spec = ToeplitzSpec(n_in=1, n_out=1, seed=BitString.from_bits([1]))
    assert _bits(toeplitz_hash(spec, BitString.from_bits([1]))) == [1]
    assert _bits(toeplitz_hash(spec, BitString.from_bits([0]))) == [0]


def test_toeplitz_hash_exhaustive_small():
    """Every seed and every input for n_in=3, n_out=2 against the matrix oracle."""
    n_in, n_out = 3, 2
    for seed_val in range(2 ** (n_in + n_out - 1)):
        seed_bits = [(seed_val >> k) & 1 for k in range(n_in + n_out - 1)]
        spec = ToeplitzSpec(n_in=n_in, n_out=n_out, seed=BitString.from_bits(seed_bits))
        for in_val in range(2**n_in):
            in_bits = [(in_val >> k) & 1 for k in range(n_in)]
            got = _bits(toeplitz_hash(spec, BitString.from_bits(in_bits)))
            assert got == _naive_toeplitz(seed_bits, in_bits, n_out)


def test_toeplitz_hash_linearity():
    rng = np.random.default_rng(6)
    n_in, n_out = 2000, 500
    seed = BitString.random(n_in + n_out - 1, rng)
    spec = ToeplitzSpec(n_in=n_in, n_out=n_out, seed=seed)
    for _ in range(20):
        a = BitString.random(n_in, rng)
        b = BitString.random(n_in, rng)
        assert toeplitz_hash(spec, a ^ b) == toeplitz_hash(spec, a) ^ toeplitz_hash(spec, b)


def test_toeplitz_spec_validation():
    with pytest.raises(ParameterError):
        ToeplitzSpec(n_in=4, n_out=5, seed=BitString.zeros(8))
    with pytest.raises(ParameterError):
        ToeplitzSpec(n_in=4, n_out=2, seed=BitString.zeros(4))  # needs 5 bits


def _naive_modified(data_bits, seed_bits, n_out):
    """[identity | Toeplitz] applied to (head, tail) halves of the input."""
    tail = data_bits[n_out:]
    mixed = _naive_toeplitz(seed_bits, tail, n_out) if tail else [0] * n_out
    return [data_bits[i] ^ mixed[i] for i in range(n_out)]


def test_modified_toeplitz_edges():
    rng = np.random.default_rng(7)
    data = BitString.random(40, rng)
    assert len(modified_toeplitz_hash(data, 0, BitString.zeros(39))) == 0
    assert modified_toeplitz_hash(data, 40, BitString.zeros(39)) == data


def test_modified_toeplitz_matches_naive():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        n_out = int(rng.integers(0, n + 1))
        data = [int(x) for x in rng.integers(0, 2, n)]
        seed = [int(x) for x in rng.integers(0, 2, max(0, n - 1))]
        got = _bits(
            modified_toeplitz_hash(BitString.from_bits(data), n_out, BitString.from_bits(seed))
        )
        # the oracle reads the leading tail_len + n_out - 1 seed taps
        tail_len = n - n_out
        if tail_len:
            want = _naive_modified(data, seed[: tail_len + n_out - 1], n_out)
        else:
            want = data[:n_out]
        assert got == want


def test_modified_toeplitz_seed_length():
    data = BitString.zeros(10)
    with pytest.raises(ParameterError):
        modified_toeplitz_hash(data, 4, BitString.zeros(3))


def test_extract_empty_cases():
    rng = np.random.default_rng(9)
    pool = BitString.random(64, rng)
    assert len(extract_local_randomness(pool, 0, BitString.zeros(0))) == 0
    assert len(extract_local_randomness(pool, -3, BitString.zeros(0))) == 0


def test_extract_output_length():
    rng = np.random.default_rng(10)
    pool = BitString.random(2000, rng)
    seed = BitString.random(len(pool) + 1000 - 1, rng)
    assert len(extract_local_randomness(pool, 1000, seed)) == 1000


def test_extract_validation():
    rng = np.random.default_rng(11)
    pool = BitString.random(100, rng)
    with pytest.raises(ParameterError):
        extract_local_randomness(pool, 101, BitString.random(200, rng))
    with pytest.raises(ParameterError):
        # n_out = 72, so the seed must hold 300 + 72 - 1 bits
        extract_local_randomness(BitString.random(300, rng), 72, BitString.zeros(3))


def test_extract_deterministic():
    rng = np.random.default_rng(12)
    pool = BitString.random(512, rng)
    seed = BitString.random(512 + 128 - 1, rng)
    a = extract_local_randomness(pool, 128, seed)
    b = extract_local_randomness(pool, 128, seed)
    assert a == b and len(a) == 128


def test_extract_statistical_sanity():
    """Aggregate bit mean over many extractions sits near one half."""
    rng = np.random.default_rng(13)
    ones = 0
    total = 0
    for _ in range(200):
        pool = BitString.random(256, rng)
        seed = BitString.random(256 + 64 - 1, rng)
        out = extract_local_randomness(pool, 64, seed)
        assert len(out) == 64
        ones += int(out.to_numpy().sum())
        total += len(out)
    assert 0.45 <= ones / total <= 0.55
