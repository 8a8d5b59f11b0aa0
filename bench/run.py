#!/usr/bin/env python3
"""covfields benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload fields --seed 0 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy.  The run sets up the
workload's inputs, repeats whole rounds of its operations for about
``--seconds`` seconds (default: ``run_seconds`` of BENCHMARK.json), checks
the last round's outputs against references computed apart from the
package, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (means over the rounds);
``--trace 1`` reports the per-layer metrics from traced rounds, which
alternate with untraced ones so that the tracing overhead is measured in
the same process.  ``attempted`` counts every operation of every round
plus every check; ``failed`` counts operations that raised and checks
that did not hold.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "_out")
SETUP_SAMPLES = 7  # the run's own set-up and six probes

# One BLAS thread: steadier timings on a small shared machine, and cpu_s then
# shows only threads the package itself starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and set up, then print the set-up time")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return args


def import_program():
    """Import covfields from this checkout's src/ (exit 2 if it is not there)."""
    init = os.path.join(SRC, "covfields", "__init__.py")
    if not os.path.isfile(init):
        sys.stderr.write(f"benchmark: no package source at {init}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import covfields

    if os.path.realpath(covfields.__file__) != os.path.realpath(init):
        sys.stderr.write(f"benchmark: imported {covfields.__file__}, expected {init}\n")
        sys.exit(2)


def run_round(ops):
    """Run each operation once; return (outputs by name, number that raised)."""
    out, failed = {}, 0
    for name, fn in ops:
        try:
            out[name] = fn()
        except Exception as exc:  # a failing operation is counted, the run goes on
            failed += 1
            sys.stderr.write(f"operation {name} failed: {type(exc).__name__}: {exc}\n")
    return out, failed


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter running only import and set-up."""
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced round: self times by layer, counters."""
    values: dict[str, float] = {}
    for name, t in tracer.self_times().items():
        values[f"{name}.self_s" if "." not in name else f"{name}_s"] = t
    values.update(tracer.counts)
    values["trace.wall_s"] = wall
    values["trace.unaccounted_s"] = wall - tracer.top_level_time()
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return _run(args, spans, WORKLOADS[args.workload](args.seed, work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, spans, workload) -> int:
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        spans.install(tracer)
    workload.setup()
    setup_s = time.perf_counter() - T_START
    setup_gen = tracer.self_times().get("measures.gen", 0.0) if tracer else 0.0
    if tracer:
        tracer.uninstall()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = workload.operations()
    rounds = []  # (wall, cpu, per-layer figures of a traced round or None)
    failed_ops = 0
    trace_records = []
    setups = [setup_s]
    probe_s = 0.0
    t0 = time.perf_counter()
    while True:
        # traced runs alternate T U U T ..., so drift affects both kinds alike
        traced = tracer is not None and len(rounds) % 4 in (0, 3)
        if traced:
            tracer.reset()
            spans.install(tracer)
        w0, c0 = time.perf_counter(), time.process_time()
        out, failed = run_round(ops)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if traced:
            tracer.uninstall()
            trace_records += tracer.records(len(rounds))
        rounds.append((wall, cpu, layer_metrics(tracer, wall) if traced else None))
        failed_ops += failed
        if len(rounds) == 1:
            # the high-water mark of set-up and one round, as a user running the
            # operations once sees it; read later, it would grow with the number
            # of rounds the allocator has churned through
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - t0 - probe_s
        # set-up probes fall due at even steps of --seconds, so that they span
        # the run as the rounds do and the machine's drift within a run averages
        # out of their median; probe time does not count toward --seconds
        while (not tracer and len(setups) < SETUP_SAMPLES
               and elapsed >= len(setups) * args.seconds / SETUP_SAMPLES):
            p0 = time.perf_counter()
            setups.append(probe_setup(args))
            probe_s += time.perf_counter() - p0
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and elapsed + wall / 2 >= args.seconds:
            break

    if tracer:
        metrics = _per_layer(rounds, setup_gen)
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"), "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in trace_records)
    else:
        setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - len(setups))]
        # means over all rounds: the whole run window, not its middle rounds,
        # averages the machine's speed, which drifts over tens of seconds
        metrics = {
            "wall_s": (statistics.fmean(r[0] for r in rounds), "s"),
            "cpu_s": (statistics.fmean(r[1] for r in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }

    detail = {}
    if tracer:
        # a metric fed only by a binding the package no longer has reads 0
        detail["missing_bindings"] = sorted(tracer.missing)
        for name in detail["missing_bindings"]:
            sys.stderr.write(f"trace: no binding {name}; its per-layer metrics read 0\n")
    else:
        detail["setup_samples_s"] = setups

    t_checks = time.perf_counter()
    results = workload.checks(out)
    check_s = time.perf_counter() - t_checks
    failed_checks = [r for r in results if not r[1]]
    for name, ok, text in results:
        if not ok:
            sys.stderr.write(f"check {args.workload}.{name} failed: {text}\n")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "round_wall_s": [r[0] for r in rounds], "check_s": check_s,
        "run_s": time.perf_counter() - T_START, **detail, "notes": workload.notes(out),
        "checks": {name: text for name, _, text in results},
    }))
    print(json.dumps({
        "correct": not failed_checks and failed_ops == 0,
        "attempted": len(rounds) * len(ops) + len(results),
        "failed": failed_ops + len(failed_checks),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _per_layer(rounds, setup_gen: float) -> dict[str, tuple[float, str]]:
    declared = [(m["name"], m["unit"]) for m in load_spec()["per_layer"]]
    traced = [r[2] for r in rounds if r[2] is not None]
    untraced = [r[0] for r in rounds if r[2] is None]
    metrics = {}
    for name, unit in declared:
        if name == "measures.setup_gen_s":
            value = setup_gen
        elif name == "trace.overhead_s":
            value = statistics.median(r["trace.wall_s"] for r in traced) - statistics.median(untraced)
        else:
            value = statistics.median(r.get(name, 0) for r in traced)
        metrics[name] = (value, unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
