"""prodgeo benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 20 --trace 0

Workloads (see README.md beside this file): ``scan-grid``, ``verify-sweep``,
``point-queries``.  The benchmark writes the seeded documents under
``.perfbench_run/`` in the checkout, times a fresh ``python -m prodgeo``
answering the workload's first request (``setup_s``), then runs the workload
in a closed loop in one worker process (worker.py) for ``--seconds``, checks
every output against independent oracles (checks.py) and prints a summary
followed by one JSON line.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
and traced passes alternately and reports the per-layer metrics
(tracing.py), the start-up import breakdown and the tracing overhead.

Exits 2 without a result if the checkout holds no ``src/prodgeo``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

COLD_STARTS = 7
# Cold starts are normalised by a reference process start rather than by the
# reference kernel: process start-up slows less than the kernel when the
# machine is busy, so the kernel over-corrects.  The reference process
# imports numpy and nothing of prodgeo; REFERENCE_SPAWN_S is its median
# spawn-to-exit time on an uncontended core of a 2-vCPU Intel Xeon virtual
# machine at 2.0 GHz.
REFERENCE_SPAWN = ("-c", "import numpy")
REFERENCE_SPAWN_S = 0.128
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150


def _environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("PRODGEO_TRACE", None)
    return env


def _git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _spawn(args, env):
    """(spawn-to-exit seconds, completed process) of ``python ARGS``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def cold_starts(argv, env):
    """Spawn-to-exit seconds of fresh `python -m prodgeo` processes, raw and
    normalised to the reference process start.

    A reference process runs before the first and after every cold start;
    each cold start is scaled by the mean of REFERENCE_SPAWN_S over the
    reference times just before and after it.  This process and its
    children are pinned to one CPU for the duration, so both run on the
    same CPU.
    """
    raw = []
    normalised = []
    outputs = set()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        before, _ = _spawn(REFERENCE_SPAWN, env)
        for _ in range(COLD_STARTS):
            seconds, proc = _spawn(("-m", "prodgeo", *argv), env)
            after, _ = _spawn(REFERENCE_SPAWN, env)
            raw.append(seconds)
            normalised.append(seconds * (REFERENCE_SPAWN_S / before
                                         + REFERENCE_SPAWN_S / after) / 2.0)
            outputs.add((proc.returncode, proc.stdout))
            before = after
    finally:
        os.sched_setaffinity(0, allowed)
    return raw, normalised, outputs


def import_breakdown(env):
    """Cumulative import seconds of prodgeo and scipy.linalg, fresh process."""
    found = {"prodgeo": [], "scipy.linalg": []}
    pattern = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S.*)$")
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import prodgeo"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            match = pattern.match(line)
            if match and match.group(2).strip() in found:
                seen[match.group(2).strip()] = int(match.group(1)) * 1e-6
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {name: statistics.median(values) for name, values in found.items()}


def run_worker(plan, work, seconds, trace, env):
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w") as fh:
        json.dump({**plan.as_dict(), "seconds": seconds, "trace": trace,
                   "out_dir": out_dir,
                   "spans_path": os.path.join(RUN_DIR, "spans.jsonl")}, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    plan_path, result_path], cwd=ROOT, env=env, check=True,
                   timeout=seconds + CHILD_TIMEOUT_S)
    with open(result_path) as fh:
        return json.load(fh), out_dir


def check_outputs(checker, plan, result, out_dir):
    """(failed request count, first reasons) over every timed pass."""
    first = result["passes"][0]
    verdicts = []
    for index, request in enumerate(plan.requests):
        with open(os.path.join(out_dir, f"{index:04d}.out")) as fh:
            text = fh.read()
        verdicts.append(checker.check(request["check"], first["status"][index],
                                      text))
    failed = 0
    reasons = []
    for number, record in enumerate(result["passes"]):
        for index, reason in enumerate(verdicts):
            if reason is None and (
                    record["status"][index] != first["status"][index]
                    or record["digest"][index] != first["digest"][index]):
                reason = "output differs from the first pass"
            if reason is not None:
                failed += 1
                reasons.append(f"pass {number} request {index} "
                               f"{' '.join(plan.requests[index]['argv'][:1])}: "
                               f"{reason}")
    return failed, reasons


def check_probes(checker, plan, result, out_dir):
    broken = []
    for probe, outcome in zip(plan.probes, result["probes"]):
        with open(os.path.join(out_dir, f"probe-{probe['name']}.out")) as fh:
            text = fh.read()
        reason = checker.error_line(probe["status"], None, outcome["status"],
                                    text)
        if reason is not None:
            broken.append(f"{probe['name']}: {reason}")
    return broken


def request_times(passes, key="normalised"):
    """Each request's median time over the given passes."""
    return [statistics.median(column) for column in zip(*(p[key] for p in passes))]


def unnormalised(result):
    """(seconds of one untraced pass as measured, reference speed factor):
    the figures the normalised times are made from."""
    plain = [p for p in result["passes"] if not p["traced"]]
    raw = sum(request_times(plain, "latencies"))
    return raw, sum(request_times(plain)) / raw


def end_to_end(plan, result, setup_times):
    plain = [p for p in result["passes"] if not p["traced"]]
    times = request_times(plain)
    wall = sum(times)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (wall, "s", len(plain)),
        "points_per_s": (sum(r["points"] for r in plan.requests) / wall,
                         "1/s", len(plain)),
        "requests_per_s": (len(times) / wall, "1/s", len(plain)),
        "latency_p50_ms": (1e3 * statistics.median(times), "ms", len(times)),
        "latency_p99_ms": (1e3 * _percentile(times, 99), "ms", len(times)),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB", 1),
    }


def per_layer(result, imports, probe_failures):
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    # Layer times are raw span times; scale each traced pass by its own
    # reference-speed factor so they compare with the end-to-end times.
    layers = []
    for p in traced:
        scale = sum(p["normalised"]) / sum(p["latencies"])
        layers.append({name: value * scale if name.endswith(("_s", ".s"))
                       else value for name, value in p["layers"].items()})
    metrics = {}
    for name, value in layers[0].items():
        unit = "s" if name.endswith(("_s", ".s")) else "count"
        if unit == "s":
            value = statistics.median([m[name] for m in layers])
        elif any(m[name] != value for m in layers):
            raise RuntimeError(f"count {name} differs between traced passes")
        metrics[name] = (value, unit, len(layers))
    jets = metrics["families.jet_calls"][0]
    points = metrics.pop("families.distinct_jet_points")[0]
    metrics["families.jets_per_point"] = (jets / points if points else 0.0,
                                          "ratio", len(layers))
    calls = metrics["geometry.calls"][0]
    metrics["geometry.us_per_point"] = (
        1e6 * metrics["geometry.s"][0] / calls if calls else 0.0, "us",
        len(layers))
    metrics["cli.output_bytes"] = (plain[0]["output_bytes"], "bytes", 1)
    request_s = metrics.pop("trace.request_s")[0]
    metrics["trace.overhead_ratio"] = (
        sum(request_times(traced)) / sum(request_times(plain)), "ratio",
        len(traced))
    metrics["startup.import_prodgeo_s"] = (imports["prodgeo"], "s",
                                           IMPORT_PROBES)
    metrics["startup.import_scipy_linalg_s"] = (imports["scipy.linalg"], "s",
                                                IMPORT_PROBES)
    metrics["cli.contract_probe_failures"] = (probe_failures, "count", 1)
    raw_pass, factor = unnormalised(result)
    metrics["speed.unnormalised_pass_s"] = (raw_pass, "s", len(plain))
    metrics["speed.reference_factor"] = (factor, "ratio", len(plain))
    shares = {label: metrics[name][0] / request_s for label, name in (
        ("jets", "families.jet_s"), ("geometry", "geometry.s"),
        ("render", "cli.render_s"), ("hicks", "elasticity.hicks_s"),
        ("run_self", "cli.run_self_s"), ("parse", "cli.parse_s"))}
    return metrics, shares


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "prodgeo", "__init__.py")):
        print(f"perfbench: no prodgeo source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import prodgeo
    from checks import Checker
    if not os.path.abspath(prodgeo.__file__).startswith(SRC + os.sep):
        print(f"perfbench: prodgeo imported from {prodgeo.__file__}",
              file=sys.stderr)
        return 2

    env = _environment()
    work = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(work, "docs"))
    try:
        plan = workloads.build(args.workload, args.seed,
                               os.path.join(work, "docs"))
        setup_raw, setup_times, cold_outputs = [], [], set()
        if not args.trace:
            setup_raw, setup_times, cold_outputs = cold_starts(
                plan.requests[0]["argv"], env)
        result, out_dir = run_worker(plan, work, args.seconds,
                                     bool(args.trace), env)
        if not os.path.abspath(result["prodgeo_file"]).startswith(SRC + os.sep):
            raise RuntimeError("worker imported prodgeo from outside src")
        checker = Checker()
        failed, reasons = check_outputs(checker, plan, result, out_dir)
        attempted = len(plan.requests) * len(result["passes"])
        if cold_outputs:
            with open(os.path.join(out_dir, "0000.out"), "rb") as fh:
                warm = (result["passes"][0]["status"][0], fh.read())
            if cold_outputs != {warm}:
                failed += 1
                reasons.append("cold start answered the first request "
                               "differently")
            attempted += COLD_STARTS
        broken = check_probes(checker, plan, result, out_dir)
        if args.trace:
            imports = import_breakdown(env)
            metrics, shares = per_layer(result, imports, len(broken))
        else:
            metrics = end_to_end(plan, result, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['passes'])} requests/pass={len(plan.requests)} "
          f"points/pass={sum(r['points'] for r in plan.requests)}")
    print(f"environment cpus={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} prodgeo={prodgeo.__version__} "
          f"git={_git_sha()}")
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={samples})")
    if setup_raw:
        print(f"unnormalised setup_s = {statistics.median(setup_raw):.6g} s")
    raw_pass, factor = unnormalised(result)
    print(f"unnormalised pass time = {raw_pass:.6g} s, reference speed "
          f"factor = {factor:.4g}")
    print(f"ops_failed_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} requests)")
    for reason in reasons[:10]:
        print(f"  failed: {reason}")
    print(f"contract probes broken: {len(broken)} of {len(plan.probes)}")
    for reason in broken:
        print(f"  probe {reason}")
    if args.trace:
        print("traced self-time shares of request time: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in shares.items()))
        print("traced callables: " + ", ".join(result["patched"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
