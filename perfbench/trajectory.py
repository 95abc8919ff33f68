"""Repeat the benchmark over seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/trajectory.py --out perfbench/trajectory/NAME.json

For every workload in BENCHMARK.json it makes two sets of runs of
``run.py``, each with ``--trace 0`` once per seed of SEEDS and
``run_seconds`` long, one run at a time, then two ``--trace 1`` runs of the
first seed.  Per set and metric it records the values, their median,
quartiles and spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles); per metric, by
how much the second set's median is worse than the first's, judged against
the metric's bound in BENCHMARK.json.  Next to the normalised metrics it
records the unnormalised pass and set-up times and the reference speed
factor each run printed.  The two traced runs show whether the per-pass
counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEEDS = range(1, 11)
SETS = 2
# Per-pass counts that must repeat exactly between runs of one seed.
COUNTS = ("families.jet_calls", "families.jets_per_point", "sampling.points",
          "autodiff.jet2_constructed", "cli.contract_probe_failures")
# Summary lines of run.py that carry the unnormalised figures.
UNNORMALISED = (
    ("unnormalised_pass_s", re.compile(r"unnormalised pass time = (\S+) s")),
    ("reference_speed_factor",
     re.compile(r"reference speed factor = (\S+)")),
    ("unnormalised_setup_s", re.compile(r"unnormalised setup_s = (\S+) s")),
)


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def one_set(workload, seconds):
    """Summaries of the end-to-end metrics and the unnormalised figures over
    one run per seed."""
    results = []
    found = {name: [] for name, _ in UNNORMALISED}
    for seed in SEEDS:
        summary, result = _run(workload, seed, seconds, 0)
        results.append(result)
        text = "\n".join(summary)
        for name, pattern in UNNORMALISED:
            found[name].append(float(pattern.search(text).group(1)))
        print(f"{workload} seed {seed}: {json.dumps(result['metrics'])}",
              flush=True)
    return {
        "end_to_end": {name: summarise([r["metrics"][name]["value"]
                                        for r in results])
                       for name in results[0]["metrics"]},
        "unnormalised": {name: summarise(values)
                         for name, values in found.items()},
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "correct": all(r["correct"] for r in results),
    }, summary[1]


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    record = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(SETS):
            summary, environment = one_set(workload, seconds)
            sets.append(summary)
            record.setdefault("environment", environment)
        agreement = {}
        for name, spec in specs.items():
            first, second = (s["end_to_end"][name]["median"] for s in sets)
            worse = (second - first if spec["better"] == "lower"
                     else first - second) / first
            spreads = [s["end_to_end"][name]["spread"] for s in sets]
            agreement[name] = {
                "unit": spec["unit"], "bound": spec["bound"],
                "second_worse_by": worse, "agree": worse <= spec["bound"],
                "max_spread": max(spreads),
                "within_third_of_bound": max(spreads) < spec["bound"] / 3,
            }
        traced_summary, traced = _run(workload, SEEDS[0], seconds, 1)
        _, again = _run(workload, SEEDS[0], seconds, 1)
        attempted = sum(s["attempted"] for s in sets)
        failed = sum(s["failed"] for s in sets)
        record["workloads"][workload] = {
            "sets": sets,
            "agreement": agreement,
            "ops_failed_ratio": failed / attempted,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "counts_repeat": all(
                traced["metrics"][k]["value"] == again["metrics"][k]["value"]
                for k in COUNTS),
            "traced_summary": traced_summary,
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for name, stats in agreement.items():
            print(f"{workload} {name}: second set worse by "
                  f"{stats['second_worse_by']:+.4f}, max spread "
                  f"{stats['max_spread']:.4f}, bound {stats['bound']}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
