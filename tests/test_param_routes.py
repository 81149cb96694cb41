"""Every way of setting a parameter stores the same value or raises ParameterError.

The routes are the constructor and ``replace`` (typed values), a JSON
object, ``name = value`` text, and a command-line flag run through
``cli.main``.
"""

import json

import pytest

from passiveqkd import HashFamily, ParameterError, ProtocolParams, cli

# (field, typed value, JSON literal, text as in a file or on a flag, stored value or error)
CASES = [
    ("block_size", 10**6, "1e6", "1e6", 10**6),
    ("block_size", 10**6, "1000000.0", "1000000.0", 10**6),
    ("block_size", 9007199254740993, "9007199254740993", "9007199254740993", 9007199254740993),
    ("block_size", 2**62, str(2**62), str(2**62), 2**62),
    ("block_size", 2**62 + 1, str(2**62 + 1), str(2**62 + 1), ParameterError),
    ("block_size", 10**400, "1" + "0" * 400, "1" + "0" * 400, ParameterError),
    ("block_size", 1.5, "1.5", "1.5", ParameterError),
    ("block_size", True, "true", "true", ParameterError),
    ("block_size", "abc", '"abc"', "abc", ParameterError),
    ("mean_pair_number", True, "true", "true", ParameterError),
    ("mean_pair_number", 50.0, "50", "50", ParameterError),
    ("mean_pair_number", 5e-324, "5e-324", "5e-324", ParameterError),
    ("extractor_failure_prob", 5e-324, "5e-324", "5e-324", ParameterError),
    # below the smallest normal float the reciprocal in log(1/p) overflows
    ("phase_est_failure_prob", 1e-310, "1e-310", "1e-310", ParameterError),
    ("phase_est_failure_prob", 2.2250738585072014e-308, "2.2250738585072014e-308",
     "2.2250738585072014e-308", 2.2250738585072014e-308),
    ("hash_family", "f3r", '"f3r"', "f3r", HashFamily.F3R_F4R),
    ("hash_family", "md5", '"md5"', "md5", ParameterError),
]
# a long text is named by its length, so that each case keeps a short, distinct id
CASE_IDS = [
    f"{field}={text if len(text) <= 40 else f'{len(text)}-chars'}" for field, _, _, text, _ in CASES
]


ROUTES = ("constructor", "replace", "from_json_dict", "from_config_text", "cli")


def _build(route, field, typed, literal, text, tmp_path, capsys):
    if route == "constructor":
        return ProtocolParams(**{field: typed})
    if route == "replace":
        return ProtocolParams().replace(**{field: typed})
    if route == "from_json_dict":
        return ProtocolParams.from_json_dict(json.loads(f'{{"{field}": {literal}}}'))
    if route == "from_config_text":
        return ProtocolParams.from_config_text(f"{field} = {text}\n")
    flag = "--" + field.replace("_", "-")
    out = tmp_path / "s"
    code = cli.main(["simulate", flag, text, "--pulses", "1", "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error:") and "Traceback" not in err
        raise ParameterError(err)
    assert code in (0, 3), err
    report = json.loads((tmp_path / "s.report.json").read_text())
    return ProtocolParams.from_json_dict(report["params"])


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("field, typed, literal, text, expected", CASES, ids=CASE_IDS)
def test_every_route_stores_the_same_value(
    route, field, typed, literal, text, expected, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("PASSIVEQKD_PARAMS", raising=False)
    args = (route, field, typed, literal, text, tmp_path, capsys)
    if expected is ParameterError:
        with pytest.raises(ParameterError):
            _build(*args)
        return
    stored = getattr(_build(*args), field)
    assert stored == expected
    assert type(stored) is type(expected)
