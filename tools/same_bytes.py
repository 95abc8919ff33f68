"""Check that two source trees of prodgeo answer the benchmark's requests
with the same bytes.

Usage: python tools/same_bytes.py PARENT_SRC CHANGE_SRC [--seeds 1 2 3]
                                   [--shuffle SEED]

PARENT_SRC and CHANGE_SRC are directories that hold the ``prodgeo`` package,
such as the ``src`` of two checkouts.  The tool builds the plan of every
workload of ``perfbench/workloads.py`` at each seed, its documents in one
temporary directory.  To these it adds, at each seed, ``FUZZ_LINES`` token
lists drawn with ``random.Random(seed)`` from the command-line grammar of
``tests/test_fuzz.py`` over the workload documents and one missing file, and
the requests of ``BOX_LINES`` on a quasi-sum that the default box accepts
and another box refuses; then, once, the refused and accepted spellings of
``ODD_LINES`` and the scans of ``FAILING_SCANS``.  It answers each request
and contract probe through ``prodgeo.cli.main`` in one subprocess per tree.
It compares the exit status, stdout and stderr of each request, with the
version masked where it is printed (the report's ``version`` field and
``--version``'s line) and ``--help``'s text left out, as it is free to
change.  It prints the count of identical
requests, the count of differing ones per pair of exit statuses (parent ->
change), and each argv that differs with its two statuses, and exits 1 on
any difference.  With ``--shuffle SEED`` the change tree answers the same
requests in an order shuffled from SEED, so that state one request leaves
for a later one in the same process shows as a difference.
"""

from __future__ import annotations

import argparse
import ast
import collections
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

FUZZ_LINES = 500
# Refusals, one per form of message, and the accepted spellings ({doc} is
# the BOX_DOC; --help is compared by its exit status).
ODD_LINES = [
    [], ["fit", "--fn", "{doc}"], ["bogus", "--fn", "{doc}"],
    ["eval", "--at", "4,9"], ["eval", "--fn", "{doc}", "--samples", "a"],
    ["eval", "--fn", "{doc}", "--at"],
    ["eval", "--fn", "{doc}", "--at", "--box", "1:2,1:2"],
    ["eval", "--fn", "{doc}", "--at", "-1,1"],
    ["eval", "--fn", "{doc}", "--at", "4,9", "--seed", "-1"],
    ["eval", "--fn", "{doc}", "--at", "4,9", "--bogus", "1"],
    ["scan", "--fn", "{doc}", "--s", "3"],
    ["--sam", "9", "--fn", "{doc}", "scan"],
    ["scan", "--f={doc}", "--samples=9", "--se=2"],
    ["eval", "--fn", "{doc}", "--at", "1,1", "--out", "csv", "--at=4,9"],
    ["eval", "--fn", "{doc}", "--", "--at", "4,9"],
    ["--version"], ["--help"], ["-hx"],
]
# log(h1 + h2) with h = log x + 1: the inner sum is positive on the default
# box and reaches -7.2 on 0.01:2, where the outer is undefined.  A cache that
# ignores the box answers the second box like the first.
BOX_DOC = {"type": "quasi_sum", "outer": {"form": "log", "coefficient": 1.0},
           "inner": [{"form": "log", "coefficient": 1.0, "shift": 1.0}] * 2}
BOX_LINES = [[command, "--fn", "{doc}", *args, *box]
             for box in ([], ["--box", "0.01:2,0.01:2"], [])
             for command, *args in (["classify", "--samples", "16"],
                                    ["eval", "--at", "1,1"],
                                    ["elasticity", "--samples", "16"])]

# Scans of documents and boxes of ``tests/test_cli.py`` that fail in
# different stages or checks across their 4,096-row blocks, by grid size: the
# surface stage in all 6 blocks; the surface stage in the first 2 blocks and
# the kernel's finiteness check in the last 2; that check in the first block
# and the kernel's domain check in the other 15.
FAILING_SCANS = {"STEEP_CD": 20000, "LATE_KERNEL_ERROR": 16384,
                 "LATE_DOMAIN_ERROR": 65536}

# One child per tree: reads a JSON list of argv, writes one
# [status, stdout, stderr] record per argv and the prodgeo it imported.
CHILD = r"""
import contextlib, io, json, re, sys
from prodgeo import cli
version = re.compile(r'("version":|# version: )"[^"]*"|^(prodgeo) \S+$', re.M)
records = []
with open(sys.argv[1]) as fh:
    requests = json.load(fh)
for argv in requests:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # --help and --version
            status = exc.code
        except Exception as exc:
            status = f"raised {type(exc).__name__}: {exc}"
    text = out.getvalue()  # --help's text left out
    text = "" if text.startswith("usage: ") else version.sub(
        lambda m: f'{m[1]}"?"' if m[1] else f"{m[2]} ?", text)
    records.append([status, text, err.getvalue()])
with open(sys.argv[2], "w") as fh:
    json.dump({"file": cli.__file__, "records": records}, fh)
"""


def _literals(module: str, names) -> dict:
    """The values assigned to ``names`` in ``tests/<module>``, read as
    literals; a dict loses its entries whose values are comprehensions
    (FLAG_VALUES's --fn paths)."""
    found = {}
    for node in ast.parse((ROOT / "tests" / module).read_text()).body:
        name = isinstance(node, ast.Assign) and getattr(node.targets[0],
                                                        "id", None)
        if name not in names:
            continue
        if isinstance(node.value, ast.Dict):
            found[name] = {ast.literal_eval(key): ast.literal_eval(value)
                           for key, value in zip(node.value.keys,
                                                 node.value.values)
                           if not isinstance(value, ast.ListComp)}
        else:
            found[name] = ast.literal_eval(node.value)
    return found


def _fuzz_grammar() -> tuple:
    """COMMANDS, FLAG_VALUES (without its --fn paths) and ODD_VALUES of
    ``tests/test_fuzz.py``."""
    found = _literals("test_fuzz.py", ("COMMANDS", "FLAG_VALUES", "ODD_VALUES"))
    return found["COMMANDS"], found["FLAG_VALUES"], found["ODD_VALUES"]


def _fuzz_line(rng: random.Random, grammar: tuple, fn_values: list) -> list:
    """One token list as ``test_fuzz.command_lines`` draws them, a flag
    spelt in full, by a prefix (at times an ambiguous one) or with "="."""
    commands, flag_values, odd_values = grammar
    flag_values = {**flag_values, "--fn": fn_values}
    groups = []
    if rng.randrange(10):
        groups.append(["--fn", rng.choice(fn_values)])
    for _ in range(rng.randint(0, 7)):
        flag = rng.choice(sorted(flag_values))
        value = (rng.choice(flag_values[flag]) if rng.randrange(4) else
                 rng.choice(odd_values + [None]))
        if rng.randrange(4) == 0:
            flag = flag[:rng.randint(3, len(flag))]
        groups.append([flag] if value is None else [f"{flag}={value}"]
                      if rng.randrange(4) == 0 else [flag, value])
    if rng.randrange(10):
        groups.insert(rng.randint(0, len(groups)), [rng.choice(commands)])
    return [token for group in groups for token in group]


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
        requests, grammar = [], _fuzz_grammar()
        for seed in args.seeds:
            fn_values = set()
            for workload in workloads.WORKLOADS:
                doc_dir = os.path.join(tmp, f"{workload}-{seed}")
                os.mkdir(doc_dir)
                plan = workloads.build(workload, seed, doc_dir)
                requests += [r["argv"] for r in plan.requests + plan.probes]
                fn_values.update(os.path.join(doc_dir, name)
                                 for name in os.listdir(doc_dir))
            fn_values = [*sorted(fn_values),
                         os.path.join(tmp, f"missing-{seed}.json")]
            rng = random.Random(seed)
            requests += [_fuzz_line(rng, grammar, fn_values)
                         for _ in range(FUZZ_LINES)]
            doc = os.path.join(tmp, f"box-{seed}.json")
            with open(doc, "w") as fh:
                json.dump(BOX_DOC, fh)
            requests += [[arg.format(doc=doc) for arg in argv]
                         for argv in BOX_LINES]
        requests += [[arg.format(doc=doc) for arg in argv]
                     for argv in ODD_LINES]
        for name, (doc, box) in _literals("test_cli.py",
                                          FAILING_SCANS).items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            requests.append(["scan", "--fn", path, "--box",
                             ",".join(f"{lo!r}:{hi!r}" for lo, hi in box),
                             "--samples", str(FAILING_SCANS[name])])
        order = list(range(len(requests)))
        parent = _answers(args.parent_src, requests, order, tmp)
        if args.shuffle is not None:
            random.Random(args.shuffle).shuffle(order)
        change = _answers(args.change_src, requests, order, tmp)
        differ = [(a[0], b[0], shlex.join(argv).replace(tmp, "$DOCS"))
                  for argv, a, b in zip(requests, parent["records"],
                                        change["records"]) if a != b]
    print(f"parent: {parent['file']}\nchange: {change['file']}")
    print(f"{len(requests) - len(differ)} of {len(requests)} requests "
          f"identical in status, stdout and stderr (version masked), seeds "
          f"{' '.join(map(str, args.seeds))}"
          + ("" if args.shuffle is None else
             f", change answered in the order shuffled from {args.shuffle}"))
    pairs = collections.Counter(f"exit {p} -> {c}" for p, c, _ in differ)
    for pair, count in sorted(pairs.items()):
        print(f"{pair}: {count} differ")
    for p, c, line in differ:
        print(f"differs (exit {p} -> {c}): {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
