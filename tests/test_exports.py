"""The package exports exactly what its modules export."""

import importlib

import passiveqkd

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
