"""Span tracer that times the library's layers from outside the library.

While a traced call runs, the public functions of ``channel``, ``rates``,
``optimize``, ``session``, ``toeplitz`` and ``cli`` are replaced by timing
wrappers at every module attribute their callers look up (``session`` calls
``session.sample_window_batch``, not ``channel.sample_window_batch``), and
the :class:`~passiveqkd.types.BitString` methods and the CLI's serialization
steps are wrapped the same way.  Nothing inside the library changes.

Only the entry point of each layer is wrapped.  Small helpers such as
``binary_entropy`` run thousands of times per sweep and cost less than a
wrapper would; their time counts in the self time of the layer that calls
them.

Each span is ``(name, start_ns, end_ns, parent_index, call_id)``; spans stay
in memory and are written out once, at the end of the run.  A span's self
time is its duration minus the durations of its direct children, which
nest inside it because the library is single-threaded.
"""

from __future__ import annotations

import csv
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, function) pairs wrapped at each module attribute that holds them.
FUNCTIONS = (
    ("channel", "coincidence_gain_qber"),
    ("channel", "sample_window_batch"),
    ("rates", "rate_point"),
    ("rates", "solve_epsilon"),
    ("optimize", "optimize_mu"),
    ("session", "run_session"),
    ("toeplitz", "extract_local_randomness"),
    ("toeplitz", "modified_toeplitz_hash"),
    ("toeplitz", "gf2_convolve"),
    ("cli", "main"),
)

# BitString packing, slicing, concatenation and XOR; one span name for all.
BITSTRING_METHODS = (
    "zeros", "from_bits", "from_hex", "random", "to_numpy", "to_hex",
    "__getitem__", "__xor__", "__add__",
)

# Methods that turn results into CLI output, as (module, class, method).
SERIALIZE_METHODS = (
    ("types", "RateBreakdown", "csv_row"),
    ("types", "RateBreakdown", "to_json_dict"),
    ("session", "SessionResult", "to_json_dict"),
    ("session", "SessionResult", "transcript_log"),
)

BITSTRING = "types.bitstring"
SERIALIZE = "cli.serialize"


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# Work counted at a layer boundary: span name -> fn(original, args, kwargs,
# result) giving {counter: amount}.
COUNTERS = {
    "channel.sample_window_batch": lambda fn, a, k, r: {"windows": len(r.alice_click)},
    "session.run_session": lambda fn, a, k, r: {"n_r": r.tally.n_r},
    "toeplitz.extract_local_randomness": lambda fn, a, k, r: {
        "in_bits": len(_arg(fn, a, k, "w_pool")), "out_bits": len(r)},
    "toeplitz.modified_toeplitz_hash": lambda fn, a, k, r: {
        "in_bits": len(_arg(fn, a, k, "data")), "out_bits": len(r)},
    "toeplitz.gf2_convolve": lambda fn, a, k, r: {"computed_bits": len(r)},
}


class _Proxy:
    """Stands in for a module or object, tracing some of its callables."""

    def __init__(self, target, traced: dict):
        self._target = target
        self._traced = traced

    def __getattr__(self, name):
        if name in self._traced:
            return self._traced[name]
        return getattr(self._target, name)


class Tracer:
    """Collects spans and counters for the calls made inside :meth:`installed`."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.count_errors = 0
        self.call_id = -1
        self._current = -1
        self._patches = self._plan()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent, self._current = self._current, idx
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._current = parent
                spans[idx] = (name, start, end, parent, self.call_id)
            if counter is not None:
                try:
                    for key, amount in counter(fn, args, kwargs, result).items():
                        self.counts[f"{name}.{key}"] += amount
                except (AttributeError, TypeError, KeyError):
                    # the layer's interface moved; keep the call, lose the count
                    self.count_errors += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> list:
        """(owner, attribute, original, replacement) for every patch."""
        mods = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("passiveqkd.")
        }
        wrappers = {}
        for mod_name, attr in FUNCTIONS:
            fn = getattr(mods.get(mod_name), attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self.wrap(f"{mod_name}.{attr}", fn))
        patches = []
        for mod in mods.values():
            for attr, value in vars(mod).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patches.append((mod, attr, value, wrappers[id(value)][1]))

        def method_patch(cls, attr, name):
            raw = cls.__dict__.get(attr)
            if isinstance(raw, classmethod):
                patches.append((cls, attr, raw, classmethod(self.wrap(name, raw.__func__))))
            elif callable(raw):
                patches.append((cls, attr, raw, self.wrap(name, raw)))

        bitstring = getattr(mods["types"], "BitString", None)
        for attr in BITSTRING_METHODS if bitstring is not None else ():
            method_patch(bitstring, attr, BITSTRING)
        for mod_name, cls_name, attr in SERIALIZE_METHODS:
            cls = getattr(mods.get(mod_name), cls_name, None)
            if cls is not None:
                method_patch(cls, attr, SERIALIZE)

        cli = mods["cli"]

        def writer(*args, **kwargs):
            w = csv.writer(*args, **kwargs)
            return _Proxy(w, {"writerow": self.wrap(SERIALIZE, w.writerow)})

        def path(*args, **kwargs):
            p = Path(*args, **kwargs)
            return _Proxy(p, {"write_text": self.wrap(SERIALIZE, p.write_text)})

        proxies = {
            "json": _Proxy(json, {m: self.wrap(SERIALIZE, getattr(json, m)) for m in ("dump", "dumps")}),
            "csv": _Proxy(csv, {"writer": writer}),
            "Path": path,
        }
        for attr, proxy in proxies.items():
            if attr in vars(cli):
                patches.append((cli, attr, getattr(cli, attr), proxy))
        return patches

    @contextmanager
    def installed(self, call_id: int):
        """Route every library call made inside the block through the tracer."""
        self.call_id = call_id
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        try:
            yield
        finally:
            for owner, attr, old, _ in self._patches:
                setattr(owner, attr, old)

    def write(self, path: Path) -> None:
        """Write every span as one CSV row: call_id, name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("call_id", "name", "start_ns", "end_ns", "parent"))
            for name, start, end, parent, call_id in self.spans:
                out.writerow((call_id, name, start, end, parent))


def _outer_ns(spans: list, match) -> int:
    """Summed duration of matching spans that have no matching ancestor."""
    total = 0
    for name, start, end, parent, _ in spans:
        if not match(name):
            continue
        while parent >= 0 and not match(spans[parent][0]):
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_table(spans: list) -> dict:
    """name -> {"calls", "self_ns", "outer_ns"} over all spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "self_ns": 0, "outer_ns": 0})
    for i, (name, start, end, _, _) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["self_ns"] += end - start - child_ns[i]
    for name in table:
        table[name]["outer_ns"] = _outer_ns(spans, name.__eq__)
    return dict(table)


def per_layer_metrics(tracer: Tracer, n_calls: int, traced_p50_s: float, plain_p50_s: float) -> dict:
    """Per-layer metrics, each a mean per traced CLI call (0 where a layer never ran)."""
    spans, counts = tracer.spans, tracer.counts
    table = layer_table(spans)
    per = 1.0 / max(n_calls, 1)

    def calls(name):
        return table.get(name, {}).get("calls", 0) * per

    def self_s(name):
        return table.get(name, {}).get("self_ns", 0) * 1e-9 * per

    def count(key):
        return counts.get(key, 0.0) * per

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in (
        "channel.coincidence_gain_qber", "rates.rate_point", "rates.solve_epsilon",
        "optimize.optimize_mu", "channel.sample_window_batch",
        "toeplitz.extract_local_randomness", "toeplitz.modified_toeplitz_hash",
        "toeplitz.gf2_convolve",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["optimize.evals_per_point"] = ratio(calls("rates.rate_point"), calls("optimize.optimize_mu"))
    windows = count("channel.sample_window_batch.windows")
    out["channel.sample_window_batch.windows"] = windows
    out["channel.sample_window_batch.ns_per_window"] = ratio(
        self_s("channel.sample_window_batch") * 1e9, windows)
    out["session.useful_ratio"] = ratio(count("session.run_session.n_r"), windows)
    out["session.run_session.self_s"] = self_s("session.run_session")
    for name in ("toeplitz.extract_local_randomness", "toeplitz.modified_toeplitz_hash"):
        out[f"{name}.in_bits"] = count(f"{name}.in_bits")
        out[f"{name}.out_bits"] = count(f"{name}.out_bits")
    computed = count("toeplitz.gf2_convolve.computed_bits")
    out["toeplitz.gf2_convolve.computed_bits"] = computed
    out["toeplitz.useful_ratio"] = ratio(
        out["toeplitz.extract_local_randomness.out_bits"]
        + out["toeplitz.modified_toeplitz_hash.out_bits"], computed)
    out["types.bitstring.self_s"] = self_s(BITSTRING)
    out["cli.serialize_s"] = table.get(SERIALIZE, {}).get("outer_ns", 0) * 1e-9 * per

    session_ns = table.get("session.run_session", {}).get("outer_ns", 0)
    out["session.toeplitz_share"] = ratio(
        _outer_ns(spans, lambda n: n.startswith("toeplitz.")), session_ns)
    out["session.sampler_share"] = ratio(
        table.get("channel.sample_window_batch", {}).get("outer_ns", 0), session_ns)
    out["trace.overhead_ratio"] = ratio(traced_p50_s, plain_p50_s)
    return out
