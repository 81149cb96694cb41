"""The package exports exactly what its modules export, and every exported
function refuses numbers outside its domain."""

import importlib
import inspect
import math

import numpy as np
import pytest

import passiveqkd
from passiveqkd import BitString, ErrorRates, HashFamily, ProtocolParams, ToeplitzSpec

MODULES = ("channel", "optimize", "rates", "session", "toeplitz", "types")


def test_package_all_is_union_of_module_all():
    union = set()
    for name in MODULES:
        module = importlib.import_module(f"passiveqkd.{name}")
        union.update(module.__all__)
        for attr in module.__all__:
            assert getattr(passiveqkd, attr) is getattr(module, attr), attr
    assert len(set(passiveqkd.__all__)) == len(passiveqkd.__all__)
    assert set(passiveqkd.__all__) - {"__version__"} == union


_P = ProtocolParams()
_CH = passiveqkd.derive_channel(_P)
_RATES = ErrorRates(0.01, 0.01, 0.05, 0.05)
_BITS = BitString.from_bits([1, 0, 1, 1, 0, 1])

# name -> (the positional arguments of one valid call, {(slot, bad): documented result}).
# A slot is (i,) for argument i, or (i, j) for item j of a tuple or list argument.
# Every number in a slot must be refused with ParameterError when it is replaced
# by NaN, inf or -1, unless the function documents another result for it.
FUNCTIONS = {
    "derive_channel": ((_P,), {}),
    "pair_number_pmf": ((2, 0.1), {}),
    "pair_number_tail": ((3, 0.1), {((0,), -1): 1.0}),
    "truncation_order": ((0.05,), {}),
    "coincidence_gain_qber": ((_CH, 0.015), {}),
    "coincidence_gain_qber_closed": ((_CH, 0.015), {}),
    "sample_usable_windows": ((_CH, 0.015, np.random.default_rng(0), 1000), {}),
    "optimize_mu": ((_P, (1e-3, 0.1)), {}),
    "sweep_loss": ((_P, [10.0]), {}),
    "binary_entropy": ((0.1,), {}),
    "phase_error_upper_bound": ((0.01, 100, 100, 1e-7), {}),
    "certified_rates": ((0.01, 0.01, 100, 100, 1e-7), {}),
    "key_length_basis": ((1000, 0.05, 0.01, 1.15), {}),
    "min_entropy_mismatched_per_basis": ((100, 100, 0.05, 0.05), {}),
    "min_entropy_mismatched_aggregate": ((2000, 1000, 0.05), {}),
    "min_entropy_error_corrected": ((1000, 0.05, 0.01, 1.15), {}),
    "reassignment_demand": ((HashFamily.F3R_F4R, 1000, 500), {}),
    "seed_ledger": ((5, 2000, 1000, _RATES, 1.15, HashFamily.TOEPLITZ, 10.0), {}),
    "solve_epsilon": ((2000, 1000, _RATES, 1.15, HashFamily.TOEPLITZ, 10.0), {}),
    "passive_final_key_length": ((1000, 10, _RATES, 1.15), {}),
    "rate_point": ((_P,), {}),
    "run_session": ((_P, 1000, 1), {}),
    "toeplitz_hash": ((ToeplitzSpec(6, 2, BitString.zeros(7)), _BITS), {}),
    "modified_toeplitz_hash": ((_BITS, 2, BitString.zeros(5)), {}),
    "extract_local_randomness": ((_BITS, 2, BitString.zeros(7)), {((1,), -1): BitString.zeros(0)}),
    "leftover_hash_penalty": ((1e-6,), {}),
    "gf2_convolve": ((_BITS, _BITS), {}),
}

# Exported classes and constants: records, built and checked by their own tests.
RECORDS = {
    "ChannelDerived", "GainQber", "ClassicalMessage", "SessionResult", "ToeplitzSpec",
    "ParameterError", "HashFamily", "BitString", "ProtocolParams", "ErrorRates",
    "make_error_rates", "SessionTally", "RateBreakdown", "CSV_COLUMNS", "__version__",
}

_BAD = (math.nan, math.inf, -1)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _slots(args):
    for i, a in enumerate(args):
        if _is_number(a):
            yield (i,)
        elif isinstance(a, (tuple, list)):
            yield from ((i, j) for j, x in enumerate(a) if _is_number(x))


def _with(args, slot, value):
    args = list(args)
    if len(slot) == 1:
        args[slot[0]] = value
    else:
        i, j = slot
        items = list(args[i])
        items[j] = value
        args[i] = type(args[i])(items)
    return args


def test_every_export_has_a_row_or_is_a_record():
    assert not set(FUNCTIONS) & RECORDS
    assert set(passiveqkd.__all__) == set(FUNCTIONS) | RECORDS
    for name in FUNCTIONS:
        assert inspect.isfunction(getattr(passiveqkd, name)), name
    for name in RECORDS:
        assert not inspect.isfunction(getattr(passiveqkd, name)), name


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_valid_call(name):
    args, _ = FUNCTIONS[name]
    getattr(passiveqkd, name)(*args)


_CASES = [
    (name, slot, bad) for name, (args, _) in FUNCTIONS.items() for slot in _slots(args) for bad in _BAD
]


@pytest.mark.parametrize(
    "name, slot, bad", _CASES, ids=[f"{n}-{'.'.join(map(str, s))}-{b}" for n, s, b in _CASES]
)
def test_number_outside_the_domain_is_refused(name, slot, bad):
    args, documented = FUNCTIONS[name]
    call = getattr(passiveqkd, name)
    if (slot, bad) in documented:
        assert call(*_with(args, slot, bad)) == documented[slot, bad]
    else:
        with pytest.raises(passiveqkd.ParameterError):
            call(*_with(args, slot, bad))
