#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload session_lossy --seeds 1:11 [--trace 1] [--out FILE]

Runs ``perfbench/run.py`` once per seed, one run at a time, for the
``run_seconds`` of BENCHMARK.json unless ``--seconds`` is given.  For each
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the quartile distance as a share of the median, next to the
metric's bound.  ``--out`` writes every run's result and machine block as
JSON.  Exits 1 if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list) -> dict:
    mid = median(values)
    q1, _, q3 = quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1:11", help="start:stop, stop excluded")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    start, stop = (int(x) for x in args.seeds.split(":"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs, ok = [], True
    for seed in range(start, stop):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        machine = next((json.loads(l[8:]) for l in lines if l.startswith("machine ")), None)
        runs.append({"seed": seed, "machine": machine, **result})
        ok = ok and result["correct"]
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    summary = {}
    if len(runs) >= 2:
        for name in runs[0]["metrics"]:
            summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
            s, bound = summary[name], bounds.get(name)
            verdict = "" if bound is None else (
                f" bound {bound}: " + ("steady" if s["spread"] < bound / 3 else
                                       "within bound" if s["spread"] <= bound else "TOO WIDE"))
            print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}{verdict}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
