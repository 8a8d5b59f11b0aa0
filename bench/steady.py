#!/usr/bin/env python3
"""Steadiness check: repeat a workload over several seeds and compare spreads.

    python3 bench/steady.py --workload cluster_transport --runs 5
    python3 bench/steady.py --workload all --runs 10

Each run is a separate ``bench/run.py --trace 0`` process of
``run_seconds`` (BENCHMARK.json) with its own seed: 1, 4097, 8193, ...
(seeds step by 4096 so that the package's ``seed XOR index`` streams never
overlap between runs).  For every end-to-end metric the table shows the
median, the first and third quartiles (``statistics.quantiles(n=4)``), the
spread (q3 - q1) / median and the metric's bound from BENCHMARK.json.  A
spread within a third of the bound reads ``ok``.  The summary is also
written to ``bench/_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FIRST_SEED = 1
SEED_STEP = 4096


def run_once(workload: str, seed: int, seconds: int) -> dict:
    res = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if res.returncode != 0:
        raise SystemExit(f"run.py failed for {workload} seed {seed}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], bounds: dict) -> dict:
    summary = {"workload": workload, "runs": len(results),
               "correct": all(r["correct"] for r in results),
               "failed_shares": sorted({r["failed"] / r["attempted"] for r in results}),
               "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        summary["metrics"][name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": bound}
    return summary


def print_summary(s: dict) -> None:
    print(f"\n{s['workload']}: {s['runs']} runs, correct={s['correct']}, "
          f"failed share(s) {s['failed_shares']}")
    print(f"  {'metric':<32}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
    for name, m in s["metrics"].items():
        bound = m["bound"]
        if m["spread"] <= bound / 3:
            verdict = "ok"
        elif m["spread"] <= bound:
            verdict = "within bound, above a third"
        else:
            verdict = "TOO WIDE"
        print(f"  {name:<32}{m['median']:>12.5g}{m['q1']:>12.5g}{m['q3']:>12.5g}"
              f"{m['spread']:>9.4f}{bound:>7.2f}  {verdict}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name or 'all'")
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    out_dir = os.path.join(BENCH_DIR, "_out")
    os.makedirs(out_dir, exist_ok=True)
    for workload in names:
        results = []
        for k in range(args.runs):
            seed = FIRST_SEED + SEED_STEP * k
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in results[-1]["metrics"].items()), flush=True)
        summary = summarize(workload, results, bounds)
        print_summary(summary)
        with open(os.path.join(out_dir, f"steady-{workload}.json"), "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
