"""Check that two source trees of prodgeo answer the benchmark's requests
with the same bytes.

Usage: python tools/same_bytes.py PARENT_SRC CHANGE_SRC [--seeds 1 2 3]
                                   [--shuffle SEED]

PARENT_SRC and CHANGE_SRC are directories that hold the ``prodgeo`` package,
such as the ``src`` of two checkouts.  The tool builds the plan of every
workload of ``perfbench/workloads.py`` at each seed, its documents in one
temporary directory, and answers each request and contract probe through
``prodgeo.cli.main`` in one subprocess per tree.  It compares the exit
status, stdout and stderr of each request, with the report's ``version``
field masked, prints the count of identical requests and each argv that
differs, and exits 1 on any difference.  With ``--shuffle SEED`` the change
tree answers the same requests in an order shuffled from SEED, so that
state one request leaves for a later one in the same process shows as a
difference.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))
import workloads  # noqa: E402

# One child per tree: reads a JSON list of argv, writes one
# [status, stdout, stderr] record per argv and the prodgeo it imported.
CHILD = r"""
import contextlib, io, json, re, sys
from prodgeo import cli
version = re.compile(r'("version":|# version: )"[^"]*"')
records = []
with open(sys.argv[1]) as fh:
    requests = json.load(fh)
for argv in requests:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except (Exception, SystemExit) as exc:
            status = f"raised {type(exc).__name__}: {exc}"
    records.append([status, version.sub(r'\1"?"', out.getvalue()),
                    err.getvalue()])
with open(sys.argv[2], "w") as fh:
    json.dump({"file": cli.__file__, "records": records}, fh)
"""


def _answers(src: str, requests: list, order: list, tmp: str) -> dict:
    """The child's answers to ``requests`` asked in ``order``, put back in
    the order of ``requests``."""
    argv_path, out_path = (os.path.join(tmp, name)
                           for name in ("argv.json", "answers.json"))
    with open(argv_path, "w") as fh:
        json.dump([requests[k] for k in order], fh)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    subprocess.run([sys.executable, "-c", CHILD, argv_path, out_path],
                   env=env, check=True)
    with open(out_path) as fh:
        answers = json.load(fh)
    records = dict(zip(order, answers["records"]))
    return {**answers, "records": [records[k] for k in range(len(requests))]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--shuffle", type=int, metavar="SEED",
                        help="answer the change tree's requests in an order "
                             "shuffled from SEED")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        requests = []
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                doc_dir = os.path.join(tmp, f"{workload}-{seed}")
                os.mkdir(doc_dir)
                plan = workloads.build(workload, seed, doc_dir)
                requests += [r["argv"] for r in plan.requests + plan.probes]
        order = list(range(len(requests)))
        parent = _answers(args.parent_src, requests, order, tmp)
        if args.shuffle is not None:
            random.Random(args.shuffle).shuffle(order)
        change = _answers(args.change_src, requests, order, tmp)
        differ = [shlex.join(argv).replace(tmp, "$DOCS")
                  for argv, a, b in zip(requests, parent["records"],
                                        change["records"]) if a != b]
    print(f"parent: {parent['file']}\nchange: {change['file']}")
    print(f"{len(requests) - len(differ)} of {len(requests)} requests "
          f"identical in status, stdout and stderr (version masked), seeds "
          f"{' '.join(map(str, args.seeds))}"
          + ("" if args.shuffle is None else
             f", change answered in the order shuffled from {args.shuffle}"))
    for line in differ:
        print(f"differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
