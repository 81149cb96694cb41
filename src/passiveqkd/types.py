"""Core domain types shared by the channel model, rate engine and simulator.

Everything here is immutable after construction, so instances can be shared
freely across threads or processes.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "ParameterError",
    "HashFamily",
    "BitString",
    "ProtocolParams",
    "ErrorRates",
    "make_error_rates",
    "SessionTally",
    "RateBreakdown",
    "CSV_COLUMNS",
]


class ParameterError(ValueError):
    """Raised when a value violates a documented domain constraint."""


class HashFamily(enum.Enum):
    """Families of two-universal hash constructions with distinct seed budgets."""

    F1R_F2R = "f1r-f2r"
    F3R_F4R = "f3r-f4r"
    TOEPLITZ = "toeplitz"
    TREVISAN = "trevisan"
    TSSR = "tssr"
    EPS_ALMOST_PAIRWISE = "eps-almost-pairwise"

    @classmethod
    def parse(cls, token: str) -> "HashFamily":
        """Parse a family name, accepting the short aliases used on the CLI.

        Args:
            token: canonical value (``"f3r-f4r"``) or an alias (``"f3r"``).

        Raises:
            ParameterError: if the token names no known family.
        """
        key = token.strip().lower().replace("_", "-")
        aliases = {
            "f1r": cls.F1R_F2R,
            "f2r": cls.F1R_F2R,
            "f3r": cls.F3R_F4R,
            "f4r": cls.F3R_F4R,
            "eps-pairwise": cls.EPS_ALMOST_PAIRWISE,
            "pairwise": cls.EPS_ALMOST_PAIRWISE,
        }
        for fam in cls:
            if key == fam.value:
                return fam
        if key in aliases:
            return aliases[key]
        raise ParameterError(f"unknown hash family: {token!r}")


class BitString:
    """Immutable bit sequence packed 8 bits per byte, LSB first.

    Bit ``i`` lives in byte ``i // 8`` at bit position ``i % 8``, so the first
    measurement outcome of a session is the least significant bit of the first
    byte.  Unused high bits of the final byte are always zero, which makes
    byte-wise equality and XOR safe.
    """

    __slots__ = ("_buf", "_len")

    def __init__(self, buf: bytes, nbits: int):
        if nbits < 0:
            raise ParameterError("bit length must be non-negative")
        if len(buf) != (nbits + 7) // 8:
            raise ParameterError(
                f"buffer holds {len(buf)} bytes, expected {(nbits + 7) // 8} for {nbits} bits"
            )
        if nbits % 8 and buf and (buf[-1] >> (nbits % 8)):
            raise ParameterError("padding bits beyond the declared length must be zero")
        self._buf = bytes(buf)
        self._len = nbits

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "BitString":
        return cls(bytes((nbits + 7) // 8), nbits)

    @classmethod
    def from_bits(cls, bits: Iterable[int] | np.ndarray) -> "BitString":
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits, dtype=np.uint8)
        if arr.size and arr.max() > 1:
            raise ParameterError("bits must be 0 or 1")
        return cls(np.packbits(arr, bitorder="little").tobytes(), int(arr.size))

    @classmethod
    def from_hex(cls, hexdigits: str, nbits: int) -> "BitString":
        return cls(bytes.fromhex(hexdigits), nbits)

    @classmethod
    def random(cls, nbits: int, rng: np.random.Generator) -> "BitString":
        return cls.from_bits(rng.integers(0, 2, size=nbits, dtype=np.uint8))

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def to_numpy(self) -> np.ndarray:
        if self._len == 0:
            return np.zeros(0, dtype=np.uint8)
        raw = np.frombuffer(self._buf, dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little", count=self._len)

    def to_hex(self) -> str:
        return self._buf.hex()

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(self._len)
            if step != 1:
                raise ParameterError("only contiguous slices are supported")
            if stop <= start:
                return BitString.zeros(0)
            return BitString.from_bits(self.to_numpy()[start:stop])
        i = idx if idx >= 0 else self._len + idx
        if not 0 <= i < self._len:
            raise IndexError(f"bit index {idx} out of range for length {self._len}")
        return (self._buf[i >> 3] >> (i & 7)) & 1

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if len(other) != self._len:
            raise ParameterError("XOR requires equal bit lengths")
        a = np.frombuffer(self._buf, dtype=np.uint8)
        b = np.frombuffer(other._buf, dtype=np.uint8)
        return BitString((a ^ b).tobytes(), self._len)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._len == other._len
            and self._buf == other._buf
        )

    def __hash__(self) -> int:
        return hash((self._len, self._buf))

    def __repr__(self) -> str:
        head = self._buf[:8].hex()
        ell = "..." if len(self._buf) > 8 else ""
        return f"BitString(len={self._len}, hex={head}{ell})"


def _json_fields(obj) -> dict:
    """A record's fields by name, each in its JSON form; the one serializer of reports."""
    return {f.name: _json_value(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _json_value(v):
    """A number or string as it is, a hash family as its value string, a bit
    string as ``{"len", "hex"}``, a tuple as a list, and a nested record through
    its own ``to_json_dict`` if it has one, else field by field."""
    if isinstance(v, (int, float, str)):  # most fields are scalars, so they are tested first
        return v
    if isinstance(v, HashFamily):
        return v.value
    if isinstance(v, BitString):
        return {"len": len(v), "hex": v.to_hex()}
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    to_json = getattr(v, "to_json_dict", None)
    return to_json() if to_json is not None else _json_fields(v)


def _check_unit(name: str, value: float) -> float:
    """``value``, if it is a probability in [0, 1]; NaN is not."""
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {value}")
    return value


def _failure_prob(name: str, p: float) -> float:
    """``p``, if it lies in (0, 1) with a finite reciprocal: it enters a certificate as log(1/p)."""
    if not (0.0 < p < 1.0 and 1.0 / p < math.inf):
        raise ParameterError(f"{name} must lie in (0, 1), its reciprocal finite")
    return p


def _whole_number(name: str, value, least: int) -> int:
    """``value`` as a Python ``int``, if it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True, slots=True)
class ProtocolParams:
    """Full parameter set for one protocol configuration.

    Defaults are the reference simulation point used throughout the test
    suite: threshold detectors with efficiency 0.40 and dark count
    probability 1e-6 per window, 1.5% misalignment, error correction 15%
    above the Shannon limit, and a 1e6-bit post-processing block split
    evenly between sifted key and mismatched-basis rounds.
    """

    dark_count_prob: float = 1e-6
    detector_efficiency: float = 0.40
    misalignment_error: float = 0.015
    ec_efficiency: float = 1.15
    mean_pair_number: float = 0.1
    basis_reconciliation_factor: float = 0.5
    phase_est_failure_prob: float = 1e-7
    block_size: int = 1_000_000
    hash_family: HashFamily = HashFamily.TOEPLITZ
    extractor_failure_prob: float = 2.0 ** -64
    channel_loss_db: float = 0.0

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise ParameterError(f"{name} must be a finite number, got {value!r}")
        _check_unit("dark_count_prob", self.dark_count_prob)
        _check_unit("detector_efficiency", self.detector_efficiency)
        _check_unit("misalignment_error", self.misalignment_error)
        _check_unit("basis_reconciliation_factor", self.basis_reconciliation_factor)
        if self.ec_efficiency < 1.0:
            raise ParameterError("ec_efficiency below 1 would beat the Shannon limit")
        # the channel runs on half the pump, which a subnormal pump rounds to zero
        if not 0.0 < self.mean_pair_number / 2.0 <= MAX_MEAN_PAIR_NUMBER / 2.0:
            raise ParameterError(f"mean_pair_number must lie in (0, {MAX_MEAN_PAIR_NUMBER}]")
        _failure_prob("phase_est_failure_prob", self.phase_est_failure_prob)
        _failure_prob("extractor_failure_prob", self.extractor_failure_prob)
        size = self.block_size
        if isinstance(size, bool) or not isinstance(size, int) or not 1 <= size <= MAX_COUNT:
            raise ParameterError(f"block_size must be an integer in [1, {MAX_COUNT}], got {size!r}")
        if self.channel_loss_db < 0.0:
            raise ParameterError("channel_loss_db must be non-negative")
        if not isinstance(self.hash_family, HashFamily):
            object.__setattr__(self, "hash_family", HashFamily.parse(str(self.hash_family)))

    def replace(self, **changes) -> "ProtocolParams":
        return dataclasses.replace(self, **changes)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return _json_fields(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProtocolParams":
        return cls(**_coerce_fields(data))

    def to_config_text(self) -> str:
        lines = []
        for name, value in self.to_json_dict().items():
            lines.append(f"{name} = {value!r}" if isinstance(value, str) else f"{name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_config_text(cls, text: str) -> "ProtocolParams":
        """Parse a flat ``name = value`` config (blank lines and # comments ok)."""
        data: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"line {lineno}: expected 'name = value', got {raw!r}")
            name, value = (part.strip() for part in line.split("=", 1))
            data[name] = value.strip("'\"")
        return cls(**_coerce_fields(data))

    @classmethod
    def from_file(cls, path: str) -> "ProtocolParams":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            data = json.loads(text) if text.lstrip().startswith("{") else None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot read parameter file {path}: {exc}") from None
        return cls.from_config_text(text) if data is None else cls.from_json_dict(data)


_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ProtocolParams)}
_FLOAT_FIELDS = tuple(name for name, kind in _FIELD_TYPES.items() if kind is float)
#: Largest pump accepted; the channel series overflows above a mean pair number of about 19.
MAX_MEAN_PAIR_NUMBER = 2.0
#: Largest block size, detection count ``n_r`` or pulse count accepted: exact as a
#: float and within numpy's int64, so no count overflows a conversion.
MAX_COUNT = 2**62


def _coerce_fields(data: dict) -> dict:
    """Parse parameter-file or flag values (text or JSON) into typed fields.

    This is the one parser of outside input.  ``block_size`` is read
    exactly: integers and integer strings of any size stay as they are,
    ``"1e6"`` and ``1000000.0`` give 1000000 and ``1.5`` is refused.  A
    boolean is never taken for a number.
    """
    out = {}
    for name, value in data.items():
        kind = _FIELD_TYPES.get(name)
        if kind is None:
            raise ParameterError(f"unknown parameter: {name!r}")
        if kind is HashFamily:
            out[name] = value if isinstance(value, HashFamily) else HashFamily.parse(str(value))
        elif isinstance(value, (bool, np.bool_)):
            raise ParameterError(f"{name} must be a number, got {value!r}")
        else:
            out[name] = _parse_int(name, value) if kind is int else _parse_float(name, value)
    return out


def _parse_int(name: str, value) -> int:
    if isinstance(value, (numbers.Integral, str)):
        try:
            return int(value)
        except ValueError:
            pass
    number = _parse_float(name, value)
    if not number.is_integer():
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _parse_float(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None


@dataclass(frozen=True, slots=True)
class ErrorRates:
    """Observed bit error rates plus their certified phase-error upper bounds.

    Each input must be a probability in [0, 1]; anything above one half is
    informationless and is stored as exactly one half.  The aggregate fields
    are derived, never supplied: ``e_p_tilde`` and ``e_b_tilde`` are the
    worst case over the two bases, which is what the single-pool min-entropy
    certificate consumes.
    """

    e_bx: float
    e_bz: float
    e_px_up: float
    e_pz_up: float
    e_p_tilde: float = field(init=False)
    e_b_tilde: float = field(init=False)

    def __post_init__(self):
        for name in ("e_bx", "e_bz", "e_px_up", "e_pz_up"):
            object.__setattr__(self, name, min(_check_unit(name, getattr(self, name)), 0.5))
        object.__setattr__(self, "e_p_tilde", max(self.e_px_up, self.e_pz_up))
        object.__setattr__(self, "e_b_tilde", max(self.e_bx, self.e_bz))


#: The constructor's older name, kept for callers that import it.
make_error_rates = ErrorRates


@dataclass(frozen=True, slots=True)
class SessionTally:
    """Bookkeeping counts for one session.

    ``n_r`` counts coincidence windows that produced exactly one click per
    side; double-click windows are tracked separately and never enter a key.
    """

    n_r: int
    n_s: int
    n_s_x: int
    n_s_z: int
    m_x: int
    m_z: int
    n_double_click: int
    n_pulses: int

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if getattr(self, f.name) < 0:
                raise ParameterError(f"{f.name} must be non-negative")
        if self.n_s != self.n_s_x + self.n_s_z:
            raise ParameterError("n_s must equal n_s_x + n_s_z")
        if self.n_r != self.n_s + self.m_x + self.m_z:
            raise ParameterError("n_r must equal n_s + m_x + m_z")


#: Column order of the sweep CSV emitted by the CLI.
CSV_COLUMNS = (
    "loss_db",
    "mu_opt",
    "family",
    "rate_passive",
    "rate_bbm92",
    "epsilon",
    "h_min_w",
    "seed_demand",
    "seed_supply",
    "e_b_tilde",
    "e_p_tilde",
)
#: The CSV columns not named after their RateBreakdown field.
_CSV_FIELDS = {"mu_opt": "mu", "rate_passive": "rate_per_pulse_passive", "rate_bbm92": "rate_per_pulse_bbm92"}


@dataclass(frozen=True, slots=True)
class RateBreakdown:
    """Every intermediate of one key-rate evaluation at a single channel point.

    :param loss_db: total channel loss the point was evaluated at.
    :param mu: mean pair number per window used for the evaluation.
    :param family: hash family whose seed budget constrained the passive key.
    :param q_gain: coincidence gain per window.
    :param e_qber: analytic bit error rate of the coincidences.
    :param n_s: expected sifted-key size inside one block.
    :param h_min_w: certified min-entropy of the mismatched-outcome pool.
    :param h_min_kec: certified min-entropy of the error-corrected key.
    :param epsilon: bits reassigned from the sifted key into the seed pool.
    :param seed_demand: seed bits the family needs at the chosen epsilon.
    :param seed_supply: certified entropy available at the chosen epsilon.
    :param n_f_passive: final passive key length in bits (floored).
    :param n_f_bbm92: final baseline key length in bits (floored).
    :param rate_per_pulse_passive: passive secure bits per pump window.
    :param rate_per_pulse_bbm92: baseline secure bits per pump window.
    :param e_b_tilde: worst-case bit error rate entering the certificates.
    :param e_p_tilde: worst-case phase error bound entering the certificates.
    :param deviation_bound: identifier of the finite-size deviation strategy.
    :param status: "ok", "no-key" (zero final key) or "no-gain" (zero gain).
    """

    loss_db: float
    mu: float
    family: HashFamily
    q_gain: float
    e_qber: float
    n_s: float
    h_min_w: float
    h_min_kec: float
    epsilon: int
    seed_demand: float
    seed_supply: float
    n_f_passive: int
    n_f_bbm92: int
    rate_per_pulse_passive: float
    rate_per_pulse_bbm92: float
    e_b_tilde: float
    e_p_tilde: float
    deviation_bound: str = "hoeffding-two-sample"
    status: str = "ok"

    def __post_init__(self):
        if not 0 <= self.epsilon <= self.n_s:
            raise ParameterError("epsilon must lie in [0, n_s]")
        if self.n_f_passive > self.n_f_bbm92:
            raise ParameterError("passive key cannot exceed the baseline key")
        if self.rate_per_pulse_passive < 0 or self.rate_per_pulse_bbm92 < 0:
            raise ParameterError("rates must be non-negative")
        if self.n_f_passive > 0 and self.seed_supply < self.seed_demand:
            raise ParameterError("positive key requires seed_supply >= seed_demand")

    def to_json_dict(self) -> dict:
        return _json_fields(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "RateBreakdown":
        kwargs = dict(data)
        kwargs["family"] = HashFamily.parse(kwargs["family"])
        return cls(**kwargs)

    def csv_row(self) -> list[str]:
        cells = (getattr(self, _CSV_FIELDS.get(c, c)) for c in CSV_COLUMNS)
        return [v.value if isinstance(v, HashFamily) else repr(v) for v in cells]
