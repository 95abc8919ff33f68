"""Closed-loop client: runs one workload's passes inside a single process.

Usage: python worker.py PLAN.json RESULT.json

The plan (written by run.py) lists the requests of one pass.  The worker
imports ``prodgeo`` from the checkout's ``src`` (PYTHONPATH), answers one
warm-up request, then repeats the pass until ``seconds`` have elapsed.  Each
request goes through ``prodgeo.cli.main`` with stdout redirected to a file,
as a shell redirect would; the next request starts only after the previous
one returned.  The first pass's outputs are kept for the checker; later
passes keep a digest, which must repeat byte for byte.

With ``trace`` set, untraced and traced passes alternate, so the run yields
both the overhead ratio and the per-layer metrics of the traced passes.

Each latency is also reported normalised to a reference speed (speed.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from speed import Speedometer


def _call(main, argv, out_path, speedometer):
    """One request: (exit status or exception text, seconds, normalised
    seconds).  Stderr is captured and dropped, as numeric warnings would
    otherwise interleave with the benchmark's report."""

    def request():
        try:
            return main(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback breaks the contract
            return f"raised {type(exc).__name__}: {exc}"

    with open(out_path, "w") as out:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            return speedometer.time(request)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    from prodgeo import cli

    requests = plan["requests"]
    out_dir = plan["out_dir"]
    scratch = os.path.join(out_dir, "current.out")
    speedometer = Speedometer()
    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        speedometer.on_kernel = tracer.exclude

    _call(cli.main, requests[0]["argv"], scratch, speedometer)

    passes = []
    outcomes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        record = {"traced": traced, "latencies": [], "normalised": [],
                  "status": [], "digest": [], "output_bytes": 0}
        if traced:
            tracer.reset()
        main_fn = cli.main
        if traced:
            def main_fn(argv):
                return tracer.request(lambda: cli.main(argv))
        with (tracer.installed() if traced else contextlib.nullcontext()):
            for index, request in enumerate(requests):
                keep = not passes
                path = (os.path.join(out_dir, f"{index:04d}.out") if keep
                        else scratch)
                status, seconds, normalised = _call(
                    main_fn, request["argv"], path, speedometer)
                record["latencies"].append(seconds)
                record["normalised"].append(normalised)
                record["status"].append(status)
                record["digest"].append(_digest(path))
                record["output_bytes"] += os.path.getsize(path)
        if traced:
            record["layers"] = tracer.metrics()
        passes.append(record)
        done = time.perf_counter() - start >= plan["seconds"]
        if done and (tracer is None or len(passes) >= 2):
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for probe in plan["probes"]:
        path = os.path.join(out_dir, f"probe-{probe['name']}.out")
        status, _, _ = _call(cli.main, probe["argv"], path, speedometer)
        outcomes.append({"name": probe["name"], "status": status})

    result = {"passes": passes, "peak_rss_kb": peak_rss_kb,
              "probes": outcomes, "prodgeo_file": cli.__file__}
    if tracer is not None:
        result["patched"] = sorted(tracer.patched)
        tracer.write_spans(plan["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
