"""Measure every workload on many seeds and write the seed baseline.

    python3 perfbench/make_baseline.py [--seconds S] [--seeds 10] [--traced-seeds 2]

Runs ``run.py`` one run at a time: ``--trace 0`` on seeds 0..N-1 and
``--trace 1`` on the first few seeds of every workload.  For each
end-to-end metric it reports the median, the quartiles and their spread
(q3 - q1 over the median, as ``statistics.quantiles(values, n=4)`` gives
them) against the metric's bound in ``BENCHMARK.json``, and checks the
traced runs against the expected pattern: the sieve is the largest share
of ``sweep``, ``identifies_primes`` of the traced ``classify`` and
``build_lower`` of the traced ``build-g``, and ``sweep-pool`` verifies
fewer alphas per second than ``sweep``.  Writes ``perfbench/baseline.json``
and prints one line per metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
from tracer import LAYERS


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return record, result


def spread_of(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def span_share(path: str, command: str, part: str) -> float:
    """Time in ``part`` spans over time in ``cli.main`` spans of one command's traced runs."""
    totals = {"cli.main": 0.0, part: 0.0}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            if span["command"] == command and span["name"] in totals:
                totals[span["name"]] += span["end"] - span["start"]
    return totals[part] / totals["cli.main"]


def layer_checks(workload: str, seed: int, metrics: dict) -> dict:
    value = {k: v["value"] for k, v in metrics.items()}
    main_s = value["trace.main_s"]
    out = {
        "layer_self_share": {layer: value[f"{layer}.self_s"] / main_s for layer in LAYERS
                             if value[f"{layer}.self_s"]},
        "layer_self_sum_over_main": sum(value[f"{layer}.self_s"] for layer in LAYERS) / main_s,
        "sieve_share_of_main": value["oracles.sieve.s"] / main_s,
    }
    if workload == "one-shot":
        spans = os.path.join(run.OUT, f"trace-{workload}-s{seed}.jsonl")
        out["identifies_primes_share_of_traced_classify"] = span_share(
            spans, "classify", "coding.identifies_primes")
        out["build_lower_share_of_traced_build_g"] = span_share(
            spans, "build_g", "construction.build_lower")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced-seeds", type=int, default=2)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {"how": (f"python3 perfbench/run.py --workload W --seed N --seconds "
                        f"{args.seconds} --trace T; trace 0 for seeds 0-{args.seeds - 1}, "
                        f"trace 1 for seeds 0-{args.traced_seeds - 1}; one run at a time"),
                "end_to_end": {}, "per_layer": {}, "checks": {}, "machine": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        values, runs = {}, []
        for seed in range(args.seeds):
            record, result = run_once(name, seed, args.seconds, 0)
            ok &= result["correct"] and result["failed"] == 0
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "passes": len(record["passes"]),
                         "probe_s": statistics.median(record["probe_s"]),
                         "loadavg_start": record["machine"]["loadavg_start"][0]})
            baseline["machine"] = {k: record["machine"][k]
                                   for k in ("nproc", "python", "mpmath_backend")}
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        stats = {metric: spread_of(v) for metric, v in values.items()}
        baseline["end_to_end"][name] = {"metrics": stats, "runs": runs}
        for metric, s in stats.items():
            print(f"{name:10} {metric:12} median {s['median']:9.4f}  spread {s['spread']:.3f}"
                  f"  bound {bounds[metric]}", flush=True)
        baseline["per_layer"][name], baseline["checks"][name] = {}, {}
        for seed in range(args.traced_seeds):
            _, result = run_once(name, seed, args.seconds, 1)
            ok &= result["correct"] and result["failed"] == 0
            baseline["per_layer"][name][str(seed)] = {
                k: v["value"] for k, v in result["metrics"].items()}
            baseline["checks"][name][str(seed)] = layer_checks(name, seed, result["metrics"])
    baseline["checks"]["alphas_per_s"] = {
        name: statistics.median(v["alphas_per_s"] for v in baseline["per_layer"][name].values())
        for name in ("sweep", "sweep-pool")}
    try:
        baseline["commit"] = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        baseline["commit"] = "unknown"
    with open(os.path.join(run.HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    print(json.dumps(baseline["checks"], indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
