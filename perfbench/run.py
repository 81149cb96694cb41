#!/usr/bin/env python3
"""Benchmark the passiveqkd command line end to end, or layer by layer.

    python3 perfbench/run.py --workload rate_sweep --seed 1 --seconds 20 --trace 0

Runs one workload of :mod:`pqbench.workloads` in-process through
``passiveqkd.cli.main`` for ``--seconds`` (never fewer than the workload's
minimum number of calls, and always whole rounds), checks every call's
output, and prints a human-readable summary followed, as the last line, by
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are end to end: ``setup_s`` (median time
from a fresh interpreter to ``import passiveqkd`` done), ``call_p50_s`` and
``call_p90_s`` (wall time of one CLI call), ``work_per_s`` (optimized loss
points per second on the sweep, pump windows per second on the sessions,
median over rounds) and ``peak_rss_mb``.  With ``--trace 1`` every other
round runs under the span tracer of :mod:`pqbench.tracing` and the metrics
are per layer, each a mean per traced call, plus the tracing overhead.

The sources are taken from ``src/`` next to this directory; without them the
script exits with status 2 and prints no result.  Session files, the span
CSV and a JSON record of the run, machine block included, go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median, quantiles
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7


def _cap_threads() -> str:
    """Cap BLAS and OpenMP pools at the cores this process may use."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    return threads


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports passiveqkd and exits."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import passiveqkd"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return median(times)


def machine_block(threads: str) -> dict:
    import hashlib
    import importlib.util
    import inspect

    import numpy

    from passiveqkd import toeplitz

    mpz = getattr(toeplitz, "_mpz", None)
    path = "other" if mpz is None else "python-int" if mpz is int else "gmpy2"
    source = inspect.getsource(toeplitz.gf2_convolve).encode()
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "gf2_convolve_path": path,
        "gf2_convolve_source_sha1": hashlib.sha1(source).hexdigest()[:12],
        "platform": platform.platform(),
    }


def invoke(cli, argv, tracer, call_id):
    """Run one CLI call; return (exit code, stdout, seconds, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with redirect_stdout(out), redirect_stderr(err), (
        tracer.installed(call_id) if tracer else nullcontext()
    ):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing call is a failed call, not a crashed benchmark
            code, error = -1, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, error or err.getvalue()


def check_call(call, code, stdout, prefix, rng, first):
    from pqbench.checks import check_rate, check_session

    if call.golden is not None:
        return check_rate(code, stdout, call.golden)
    try:
        report = Path(f"{prefix}.report.json").read_text()
        transcript = Path(f"{prefix}.transcript.log").read_text()
        problems = check_session(code, stdout, report, transcript, call.expect, rng)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"unreadable session output: {exc!r}"]
    output = (stdout, report, transcript)
    if not first:
        first.append(output)
    elif call.repeats_first and output != first[0]:
        problems.append("same-seed repeat of the first call is not byte-identical")
    return problems


class Record(NamedTuple):
    round: int
    seconds: float
    traced: bool
    work: int
    failed: bool


def run(workload, seed: int, seconds: float, trace: bool):
    """Run the workload's calls back to back; return (records, problems, tracer)."""
    import numpy as np

    from passiveqkd import cli
    from pqbench.tracing import Tracer

    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = str(out_dir / "call")
    calls = workload.calls(seed, prefix)
    tracer = Tracer() if trace else None
    rng = np.random.default_rng(seed)
    records, first, problems = [], [], []
    start = time.perf_counter()
    for index, call in enumerate(calls):
        if (
            index % workload.round_size == 0
            and index >= workload.min_calls
            and time.perf_counter() - start >= seconds
        ):
            break
        traced = trace and (index // workload.round_size) % 2 == 1
        for stale in (".report.json", ".transcript.log"):
            Path(prefix + stale).unlink(missing_ok=True)
        code, stdout, elapsed, error = invoke(cli, call.argv, tracer if traced else None, index)
        found = check_call(call, code, stdout, prefix, rng, first)
        if found and error.strip():
            found.append(error.strip().splitlines()[-1])
        problems += [f"call {index}: {p}" for p in found]
        records.append(Record(index // workload.round_size, elapsed, traced, call.work, bool(found)))
    return records, problems, tracer


def end_to_end(records) -> dict:
    times = [r.seconds for r in records]
    rounds = {}
    for r in records:
        t, w = rounds.get(r.round, (0.0, 0))
        rounds[r.round] = (t + r.seconds, w + r.work)
    return {
        "call_p50_s": median(times),
        "call_p90_s": quantiles(times, n=10, method="inclusive")[8],
        "work_per_s": median(w / t for t, w in rounds.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "passiveqkd" / "__init__.py").is_file():
        print(f"error: passiveqkd sources not found under {SRC}", file=sys.stderr)
        return 2
    threads = _cap_threads()
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    from pqbench.tracing import per_layer_metrics
    from pqbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    machine = machine_block(threads)
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"prediction: {workload.prediction}")

    setup_s = None if args.trace else measure_setup()
    records, problems, tracer = run(workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(r.failed for r in records)
    if args.trace:
        traced = [r.seconds for r in records if r.traced]
        plain = [r.seconds for r in records if not r.traced]
        metrics = per_layer_metrics(tracer, len(traced), median(traced), median(plain))
        tracer.write(OUT / f"spans-{workload.name}.csv")
        if tracer.count_errors:
            print(f"warning: {tracer.count_errors} layer counts could not be read")
    else:
        metrics = {"setup_s": setup_s, **end_to_end(records)}

    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    alias = {"work_per_s": f"work_per_s ({workload.work_unit}_per_s)"}
    for name, value in metrics.items():
        print(f"{alias.get(name, name)} = {value:.6g} {units[name]}")
    print(f"calls = {len(records)} in {records[-1].round + 1} rounds")
    print(f"fail_frac = {failed / len(records):.6g} ({failed} of {len(records)} calls)")
    verdicts = []
    if args.trace:
        for name, lo, hi in workload.expected_split:
            ok = lo <= metrics[name] <= hi
            verdicts.append({"metric": name, "value": metrics[name], "expected": [lo, hi], "ok": ok})
            print(f"split {name} = {metrics[name]:.4g}, expected [{lo}, {hi}]: {'ok' if ok else 'MISMATCH'}")
    for p in problems[:20]:
        print(f"FAILED {p}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "machine": machine, "why": workload.why,
             "prediction": workload.prediction, "split": verdicts, "metrics": metrics,
             "attempted": len(records), "failed": failed, "problems": problems},
            indent=2,
        )
        + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
