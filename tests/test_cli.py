"""Command-line interface: reports, envelopes, rendering, exit codes."""

import copy
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import prodgeo
from prodgeo import (
    classify_quasi_sum, cli, detect_ces, expr_from_dict, graph_geometry,
    tolerances, verify_theorem_11, verify_theorem_41, verify_theorem_42,
)
from prodgeo import sampling, writer
from prodgeo.cli import (
    _flatten, _leaf, _render, _to_json, main, parse_config, run,
)
from prodgeo.elasticity import hicks_values
from prodgeo.errors import DomainError
from prodgeo.families import FunctionExpr, PointRecords, default_box
from prodgeo.geometry import surface_curvatures
from prodgeo.sampling import MAX_POINTS, log_grid
from prodgeo.writer import _BLOCK_ROWS, _table_blocks
import gates
from test_fuzz import BASES, SHIFTED
from test_kernel import OVERFLOW_CD


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def cd_doc(tmp_path):
    return write_doc(tmp_path, "cd.json",
                     {"type": "cobb_douglas", "gamma": 1.0,
                      "alpha": [0.5, 0.5]})


@pytest.fixture
def cd3_doc(tmp_path):
    return write_doc(tmp_path, "cd3.json",
                     {"type": "cobb_douglas", "gamma": 1.0,
                      "alpha": [1 / 3, 1 / 3, 1 / 3]})


@pytest.fixture
def acms_doc(tmp_path):
    return write_doc(tmp_path, "acms.json",
                     {"type": "acms", "gamma": 1.0, "a": [1.0, 1.0],
                      "rho": 0.5, "d": 1.0})


@pytest.fixture
def mixed_doc(tmp_path):
    return write_doc(tmp_path, "mixed.json", {
        "type": "quasi_sum",
        "outer": {"form": "affine", "coefficient": 1.0},
        "inner": [{"form": "power", "coefficient": 1.0, "exponent": 2.0},
                  {"form": "log", "coefficient": 1.0}],
    })


def run_json(argv):
    status, text = run(argv)
    return status, json.loads(text)


def _box(box):
    """The --box text of per-axis (lo, hi) bounds."""
    return ",".join(f"{lo!r}:{hi!r}" for lo, hi in box)


def _json(value):
    """The JSON text ``_render`` writes for ``value``, its tables included."""
    return "".join(_render(parse_config(["scan", "--fn", "fn.json"]), value))


def one_record(text):
    """The single JSON line a command writes to stdout."""
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)


# -- reports ---------------------------------------------------------------------


def test_eval_reports_the_jet(cd_doc):
    status, env = run_json(["eval", "--fn", cd_doc, "--at", "4.0,9.0"])
    assert status == 0
    assert env["report"]["value"] == pytest.approx(6.0)
    assert len(env["report"]["gradient"]) == 2
    assert len(env["report"]["hessian"]) == 2
    assert env["tool"] == "prodgeo"
    assert env["command"] == "eval"
    # hashlib's sha256 as the oracle of the interpreter's own, which cli reads
    assert env["digest"] == "sha256:" + hashlib.sha256(
        pathlib.Path(cd_doc).read_bytes()).hexdigest()
    assert env["at"] == [4.0, 9.0]
    assert set(env["tolerances"]) == set(tolerances.as_dict())


def test_reports_carry_only_tolerances_the_library_reads():
    # tests/test_source.py checks that the library reads each one.
    library = {name for name in vars(tolerances) if name.isupper()}
    assert library.isdisjoint(name for name in vars(gates) if name.isupper())


def test_the_tolerance_table_keeps_its_bytes_across_requests(cd_doc):
    # The table's JSON text is rendered once per process; the CSV lines per
    # request.  A caller's copy from as_dict() is its own.
    table = tolerances.as_dict()
    assert tolerances.as_dict() is not table
    table.clear()
    table = sorted(tolerances.as_dict().items())
    assert len(table) == 6
    want_json = '"tolerances":{' + ",".join(
        f'"{name}":{_leaf(value)}' for name, value in table) + "}"
    want_csv = [f"# tolerance {name}: {_leaf(value)}" for name, value in table]
    argv = ["eval", "--fn", cd_doc, "--at", "4,9"]
    for _ in range(2):
        status, text = run(argv)
        assert status == 0 and text.count(want_json) == 1
        status, text = run([*argv, "--out", "csv"])
        assert status == 0
        assert [line for line in text.splitlines()
                if line.startswith("# tolerance")] == want_csv


def test_curvature_vanishes_on_the_root_product(cd_doc):
    status, env = run_json(["curvature", "--fn", cd_doc, "--at", "2.0,8.0"])
    assert status == 0
    assert abs(env["report"]["gauss_kronecker"]) <= 1e-12
    assert env["report"]["value"] == pytest.approx(4.0)


def test_elasticity_point_mode(acms_doc):
    status, env = run_json(["elasticity", "--fn", acms_doc, "--at", "1.0,1.0"])
    assert status == 0
    report = env["report"]
    assert report["mode"] == "point"
    assert set(report["pairs"]) == {"1,2"}
    assert report["pairs"]["1,2"]["kind"] == "finite"
    assert report["pairs"]["1,2"]["value"] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("doc, kind", [
    ({"type": "acms", "gamma": 1.0, "a": [1.0, 2.0, 0.5], "rho": 0.5,
      "d": 1.0}, "finite"),
    ({"type": "quasi_sum",
      "outer": {"form": "power", "coefficient": 1.0, "exponent": 2.0},
      "inner": [{"form": "affine", "coefficient": 1.0},
                {"form": "affine", "coefficient": 2.0}]}, "infinite"),
    ({"type": "ratio", "outer": {"form": "affine", "coefficient": 1.0}},
     "degenerate"),
], ids=["acms", "affine-quasi-sum", "ratio"])
def test_elasticity_point_pair_keeps_its_order(tmp_path, doc, kind):
    path = write_doc(tmp_path, "fn.json", doc)
    at = "1.3,0.7,1.1" if doc["type"] == "acms" else "1.3,0.7"
    pairs = []
    for pair in (["--pair", "2,1"], ["--pair", "1,2"], []):
        status, env = run_json(["elasticity", "--fn", path, "--at", at,
                                *pair])
        assert status == 0
        pairs.append(env["report"]["pairs"])
    swapped, ordered, every = pairs
    assert list(swapped) == ["2,1"] and list(ordered) == ["1,2"]
    assert swapped["2,1"] == ordered["1,2"] == every["1,2"]
    assert swapped["2,1"]["kind"] == kind
    assert (swapped["2,1"]["value"] is None) == (kind != "finite")


def test_elasticity_box_mode(acms_doc):
    status, env = run_json(["elasticity", "--fn", acms_doc, "--samples", "16"])
    assert status == 0
    report = env["report"]
    assert report["mode"] == "box"
    assert report["verdict"] == "RegularCES"
    assert report["sigma_estimate"] == pytest.approx(2.0, rel=1e-9)
    assert report["box"] == [[0.5, 2.0], [0.5, 2.0]]
    assert "box" not in env  # only explicit --box goes in the envelope


def test_classify_command(tmp_path):
    doc = write_doc(tmp_path, "qs.json", {
        "type": "quasi_sum",
        "outer": {"form": "power", "coefficient": 1.0, "exponent": 2.0},
        "inner": [{"form": "power", "coefficient": 2.0, "exponent": 0.5},
                  {"form": "power", "coefficient": 3.0, "exponent": 0.5}],
    })
    status, env = run_json(["classify", "--fn", doc, "--samples", "32"])
    assert status == 0
    assert env["report"]["case"] == "HomotheticACMS"
    assert env["report"]["sigma"] == pytest.approx(2.0, rel=1e-9)


def test_classify_serializes_infinite_residuals(mixed_doc):
    status, env = run_json(["classify", "--fn", mixed_doc, "--samples", "16"])
    assert status == 0
    assert env["report"]["case"] == "NotCES"
    assert env["report"]["residuals"]["ces"] == "inf"


def test_verify_flatness_failure_is_still_exit_zero(cd3_doc):
    status, env = run_json(["verify", "--fn", cd3_doc, "--theorem", "4.2",
                            "--samples", "16"])
    assert status == 0
    assert env["report"]["verdict"] == "Inconsistent"
    assert env["report"]["per_point_data"]
    assert env["theorem"] == "4.2"


@pytest.mark.parametrize("box", [((1e3, 1e4),) * 2, ((1e2, 1e3),) * 2])
def test_flatness_reads_the_cancellation_of_the_minors(tmp_path, box):
    # Degree 0.6: neither flat nor homogeneous of degree one.  An absolute
    # flatness residual once read this small curvature as flat
    # (Inconsistent at 1e3:1e4, DegenerateHypothesis at 1e2:1e3); with two
    # inputs the one minor is det Hess, so 4.2 reads 4.1's statistic.
    doc = write_doc(tmp_path, "cd.json", {"type": "cobb_douglas",
                                          "gamma": 1.0, "alpha": [0.3, 0.3]})
    reports = {theorem: run_json(["verify", "--fn", doc, "--box", _box(box),
                                  "--theorem", theorem])[1]["report"]
               for theorem in ("4.1", "4.2")}
    for report in reports.values():
        assert (report["verdict"], report["hypothesis_holds"]) == \
            ("Consistent", False)
    assert reports["4.2"]["hypothesis_check"]["max_minor_cancellation"] == \
        reports["4.1"]["hypothesis_check"]["max_det_cancellation"] == \
        0.25000000000000017


def test_verify_consistent_curvature(acms_doc):
    status, env = run_json(["verify", "--fn", acms_doc, "--theorem", "4.1",
                            "--samples", "16"])
    assert status == 0
    assert env["report"]["verdict"] == "Consistent"


def test_each_command_reports_the_library_result(tmp_path, capsys):
    # One vocabulary: the library returns the report the command prints.
    doc = {"type": "cobb_douglas", "gamma": 1.0, "alpha": [0.4, 0.3, 0.3]}
    path = write_doc(tmp_path, "cd.json", doc)
    expr = expr_from_dict(doc)
    box = ((0.5, 3.0),) * 3
    sampled = {"box": box, "samples": 20, "seed": 5}
    args = ["--box", "0.5:3,0.5:3,0.5:3", "--samples", "20", "--seed", "5"]
    detection = detect_ces(expr, **sampled)
    geometry = graph_geometry(expr, (2.0, 8.0, 1.5))
    calls = [
        (["classify", *args], classify_quasi_sum(expr, **sampled)),
        (["verify", "--theorem", "1.1", *args],
         verify_theorem_11(expr, **sampled)),
        (["verify", "--theorem", "4.1", *args],
         verify_theorem_41(expr, **sampled)),
        (["verify", "--theorem", "4.2", *args],
         verify_theorem_42(expr, **sampled)),
        (["curvature", "--at", "2,8,1.5"], geometry),
        (["elasticity", *args], {**detection, "mode": "box",
                                 "box": [list(axis) for axis in box]}),
    ]
    for argv, result in calls:
        assert main([*argv, "--fn", path]) == 0
        report = one_record(capsys.readouterr().out)["report"]
        assert report == json.loads(_json(result)), argv


def _assert_plain(value, path):
    """Every leaf of a report is a plain float, int, bool, str or None, or
    a PointRecords table; keys are str."""
    if type(value) is dict or value is cli._TOLERANCES:  # rendered once
        for key, item in value.items():
            assert type(key) is str, (path, key)
            _assert_plain(item, f"{path}.{key}")
    elif type(value) in (list, tuple):
        for k, item in enumerate(value):
            _assert_plain(item, f"{path}[{k}]")
    else:
        assert type(value) in (float, int, bool, str, type(None),
                               PointRecords), (path, type(value))


def test_reports_hold_plain_values(monkeypatch, tmp_path, capsys, cd_doc,
                                   mixed_doc):
    # The renderer writes no NumPy scalar or array: each report and error
    # payload reaches it holding plain values only.
    seen = []
    render, error_payload = cli._render, cli._error_payload

    def spy_render(config, env):
        seen.append(env)
        return render(config, env)

    def spy_error_payload(config, digest, exc):
        seen.append(error_payload(config, digest, exc))
        return seen[-1]

    monkeypatch.setattr(cli, "_render", spy_render)
    monkeypatch.setattr(cli, "_error_payload", spy_error_payload)
    cd3 = write_doc(tmp_path, "cd3.json", {"type": "cobb_douglas",
                                           "gamma": 1.0,
                                           "alpha": [0.4, 0.3, 0.3]})
    overflow = write_doc(tmp_path, "overflow.json", {
        "type": "cobb_douglas", "gamma": 1.0, "alpha": [300.0, 300.0]})
    args = ["--box", "0.5:3,0.5:3,0.5:3", "--samples", "20", "--seed", "5"]
    requests = [
        (["classify", *args], cd3, 0),
        (["verify", "--theorem", "1.1", *args], cd3, 0),
        (["verify", "--theorem", "4.1", *args], cd3, 0),
        (["verify", "--theorem", "4.2", *args], cd3, 0),
        (["curvature", "--at", "2,8,1.5"], cd3, 0),
        (["elasticity", *args], cd3, 0),
        (["elasticity", "--at", "2,8,1.5"], cd3, 0),
        (["eval", "--at", "2,8,1.5"], cd3, 0),
        (["scan", "--samples", "27"], cd3, 0),
        (["classify", "--samples", "16"], mixed_doc, 0),
        (["verify", "--theorem", "4.1", "--samples", "16"], mixed_doc, 2),
        (["eval", "--at", "10,10"], overflow, 2),
        (["eval", "--at", "1,1", "--pair", "1,3"], cd_doc, 1),
        (["eval", "--at", "1,1", "--pair", "1,2,3"], cd_doc, 1),
    ]
    for argv, path, status in requests:
        for out in ("json", "csv"):
            seen.clear()
            assert main([*argv, "--fn", path, "--out", out]) == status, argv
            capsys.readouterr()
            assert len(seen) == 1, argv
            _assert_plain(seen[0], argv[0])


VERDICT_DOCS = {
    "acms": {"type": "acms", "gamma": 1.0, "a": [1.0, 1.0], "rho": 0.5,
             "d": 1.0},
    "cd": {"type": "cobb_douglas", "gamma": 1.0, "alpha": [0.5, 0.5]},
    "cd3": {"type": "cobb_douglas", "gamma": 1.0,
            "alpha": [1 / 3, 1 / 3, 1 / 3]},
    # Degree 1 + 1e-8: the curvature statistics read 5e-9, between the
    # vanishing and the clearly-nonzero thresholds.
    "cd-near-flat": {"type": "cobb_douglas", "gamma": 1.0,
                     "alpha": [0.5, 0.50000001]},
    "cd3-near-flat": {"type": "cobb_douglas", "gamma": 1.0,
                      "alpha": [0.3, 0.3, 0.40000001]},
    "ratio": {"type": "ratio", "outer": {"form": "affine", "coefficient": 1.0}},
    "mixed": {"type": "quasi_sum",
              "outer": {"form": "affine", "coefficient": 1.0},
              "inner": [{"form": "power", "coefficient": 1.0, "exponent": 2.0},
                        {"form": "log", "coefficient": 1.0}]},
}


@pytest.mark.parametrize("name, argv, key, expected", [
    ("acms", ["verify", "--theorem", "4.1"], "verdict", "Consistent"),
    ("cd3", ["verify", "--theorem", "4.2"], "verdict", "Inconsistent"),
    ("cd-near-flat", ["verify", "--theorem", "4.1"], "verdict",
     "DegenerateHypothesis"),
    ("cd-near-flat", ["verify", "--theorem", "4.2"], "verdict",
     "DegenerateHypothesis"),
    ("cd3-near-flat", ["verify", "--theorem", "4.1"], "verdict",
     "DegenerateHypothesis"),
    ("cd3-near-flat", ["verify", "--theorem", "4.2"], "verdict", "Consistent"),
    ("acms", ["elasticity", "--box", "0.5:2,0.5:2"], "verdict", "RegularCES"),
    ("ratio", ["elasticity", "--box", "0.5:2,0.5:2"], "verdict",
     "DegenerateCES"),
    ("mixed", ["elasticity", "--box", "0.5:2,0.5:2"], "verdict", "NotCES"),
    ("acms", ["classify"], "case", "HomotheticACMS"),
    ("cd", ["classify"], "case", "HomotheticCobbDouglas"),
    ("ratio", ["classify"], "case", "RatioTwoInput"),
    ("mixed", ["classify"], "case", "NotCES"),
])
def test_every_verdict_and_case_is_reached(tmp_path, capsys, name, argv, key,
                                           expected):
    path = write_doc(tmp_path, f"{name}.json", VERDICT_DOCS[name])
    assert main([*argv, "--fn", path]) == 0
    report = one_record(capsys.readouterr().out)["report"]
    assert report[key] == expected
    if expected == "DegenerateHypothesis":  # neither implication is judged
        assert report["forward_implication_ok"] is None
        assert report["reverse_implication_ok"] is None


@pytest.mark.parametrize("doc", [
    {"type": "acms", "gamma": 1.0, "a": [1.0, 2.0], "rho": 1e-7, "d": 1e-7},
    {"type": "quasi_sum",
     "outer": {"form": "power", "coefficient": 1.0, "exponent": 2.0},
     "inner": [{"form": "power", "coefficient": 1.0, "exponent": 1e-8},
               {"form": "power", "coefficient": 2.0, "exponent": 1e-8}]},
    {"type": "quasi_sum", "outer": {"form": "affine", "coefficient": 1},
     "inner": [{"form": "power", "coefficient": 1, "exponent": 1e-7},
               {"form": "power", "coefficient": 2,
                "exponent": 1.0000001e-7}]},
], ids=["acms", "quasi-sum", "exponents-match-within-tolerance"])
def test_power_inners_with_sigma_near_one_are_homothetic_acms(tmp_path, capsys,
                                                              doc):
    # sigma is within 1e-6 of 1, yet power inners read HomotheticACMS with
    # sigma 1/(1 - p), not HomotheticCobbDouglas.  In the third document the
    # exponents differ by 1e-14, within PARAMETER_MATCH_TOL, a relative
    # difference of 1e-7; the CES residual, about 2e-15, is the one gate.
    path = write_doc(tmp_path, "near-one.json", doc)
    assert main(["classify", "--fn", path]) == 0
    report = one_record(capsys.readouterr().out)["report"]
    assert report["case"] == "HomotheticACMS"
    assert 0.0 < report["sigma"] - 1.0 <= 1e-6
    assert report["residuals"]["ces"] <= tolerances.CES_RESIDUAL_TOL
    assert main(["verify", "--theorem", "1.1", "--fn", path]) == 0
    assert one_record(capsys.readouterr().out)["report"]["verdict"] == \
        "Consistent"


def test_log_inners_of_unit_sum_under_exp_are_the_degree_one_cobb_douglas(
        tmp_path, capsys):
    # The quasi-sum form of x1^0.25 x2^0.75: Theorem 4.1's structure side
    # reads it as the Cobb-Douglas family through its classification.
    path = write_doc(tmp_path, "log-inners.json", {
        "type": "quasi_sum", "outer": {"form": "exp", "coefficient": 1.0},
        "inner": [{"form": "log", "coefficient": 0.25},
                  {"form": "log", "coefficient": 0.75}]})
    assert main(["verify", "--theorem", "4.1", "--fn", path]) == 0
    report = one_record(capsys.readouterr().out)["report"]
    assert report["verdict"] == "Consistent"
    check = report["conclusion_check"]
    assert check["classification_case"] == "HomotheticCobbDouglas"
    assert check["family"] == "cobb_douglas"
    assert check["family_matches"] is True
    assert check["outer_ode"]["form"] == "log_aggregator"


def test_the_ces_residual_gate_refuses_a_near_match(tmp_path, capsys):
    """CES_RESIDUAL_TOL from both sides.  Inner exponents p = 1 - 1e-5 and
    p + g: for h = x^p, A = 1/(x h') = w and B = -(h''/h')/h' = (1 - p) w
    with w = 1/(p x^p), so with sigma = 1/(1 - p) the residual B1 + B2 -
    (A1 + A2)/sigma over its terms' sizes is |ces| = g w2 / (2 (1 - p) (w1
    + w2) - g w2), about g/(2 (1 - p)) x1^p/(x1^p + x2^p).  On the default
    box [0.5, 2]^2 the last factor is at most 0.8 (at (2, 0.5)): |ces| is at
    most 4.0e-9 at g = 1e-13, inside the tolerance, and 2.0e-8 at g =
    5e-13, where it reaches 1.9e-8, over it.  The elasticity varies by about
    1e-8 relative, inside the constancy tolerance, and the exponents match
    within PARAMETER_MATCH_TOL, so the CES residual gate alone decides."""
    p = 1.0 - 1e-5
    for gap, case in ((5e-13, "NotCES"), (1e-13, "HomotheticACMS")):
        path = write_doc(tmp_path, f"near-match-{gap!r}.json", {
            "type": "quasi_sum",
            "outer": {"form": "affine", "coefficient": 1.0},
            "inner": [{"form": "power", "coefficient": 1.0, "exponent": p},
                      {"form": "power", "coefficient": 1.0,
                       "exponent": p + gap}]})
        assert main(["classify", "--fn", path]) == 0
        report = one_record(capsys.readouterr().out)["report"]
        assert report["detection"]["verdict"] == "RegularCES"
        ces, bound = report["residuals"]["ces"], 0.8 * gap / (2 * (1 - p))
        assert 0.9 * bound < ces <= bound * (1 + 1e-6)
        assert (ces > tolerances.CES_RESIDUAL_TOL) == (case == "NotCES")
        assert report["case"] == case


def test_a_near_degenerate_pair_reads_finite(tmp_path, capsys):
    """DEGENERACY_EPS from above.  f = exp(-log x1 + (1 + d) log x2) with
    d = 6e-9: for h = c log x, A = 1/(x h') = 1/c and B = -(h''/h')/h' =
    1/c, so both Hicks sums are 1/c1 + 1/c2 = -d/(1 + d) over term sizes
    1 + 1/(1 + d): they cancel to d/(2 + d) = 3.0e-9 of their size, three
    times DEGENERACY_EPS, and H = 1 up to the rounding that cancellation
    lifts to about 1e-16/3e-9."""
    d = 6e-9
    path = write_doc(tmp_path, "near-degenerate.json", {
        "type": "quasi_sum", "outer": {"form": "exp", "coefficient": 1.0},
        "inner": [{"form": "log", "coefficient": -1.0},
                  {"form": "log", "coefficient": 1.0 + d}]})
    assert main(["elasticity", "--fn", path, "--at", "1.3,0.7"]) == 0
    pair = one_record(capsys.readouterr().out)["report"]["pairs"]["1,2"]
    assert pair["kind"] == "finite"
    assert abs(pair["value"] - 1.0) < 1e-6


def test_a_near_flat_cobb_douglas_leaves_the_hypothesis_undecided(tmp_path,
                                                                  capsys):
    """VANISHING_CURVATURE_TOL from above and CLEAR_CURVATURE_TOL from below.
    For Cobb-Douglas, D_i = -f a_i/x_i^2, c = f and u_i = a_i/x_i, so the
    terms of det Hess are f^2 a1 a2/(x1 x2)^2 times (1, -a1, -a2) at every
    point: det_cancellation is |1 - a1 - a2| / (1 + a1 + a2) = g / (2 + g)
    for a2 = 0.5 + g.  At g = 6e-10 that is 3.0e-10, three times the
    vanishing tolerance; at g = 6e-7 it is 3.0e-7, a third of the
    clearly-nonzero one.  For two inputs the one 2x2 minor is det Hess, so
    minor_cancellation is det_cancellation, and neither Theorem 4.1 nor
    Theorem 4.2 can decide its hypothesis."""
    for a2 in (0.5000000006, 0.5000006):
        path = write_doc(tmp_path, f"near-flat-{a2!r}.json", {
            "type": "cobb_douglas", "gamma": 1.0, "alpha": [0.5, a2]})
        gap = a2 - 0.5  # exact
        for theorem, statistic in (("4.1", "det"), ("4.2", "minor")):
            assert main(["verify", "--fn", path, "--theorem", theorem]) == 0
            report = one_record(capsys.readouterr().out)["report"]
            check = report["hypothesis_check"]
            assert report["verdict"] == "DegenerateHypothesis"
            # the terms' rounding: about 1e-16
            assert abs(check[f"max_{statistic}_cancellation"]
                       - gap / (2 + gap)) < 1e-15


def _power_pair(path, d):
    """f = x1^0.5 + 2 x2^(0.5 + d), written to ``path``."""
    return write_doc(path, f"power-pair-{d!r}.json", {
        "type": "quasi_sum", "outer": {"form": "affine", "coefficient": 1.0},
        "inner": [{"form": "power", "coefficient": 1.0, "exponent": 0.5},
                  {"form": "power", "coefficient": 2.0,
                   "exponent": 0.5 + d}]})


def test_a_slowly_varying_elasticity_is_not_ces(tmp_path, capsys):
    """CES_CONSTANCY_RTOL from above.  For h = c x^p, A = 1/(x h') =
    1/(c p x^p) and B = -(h''/h')/h' = (1 - p) A, so with A1 = 2/x1^0.5 and
    A2 = 1/x2^0.5 (to O(d)) H = (A1 + A2) / (A1/2 + (1/2 - d) A2) = 2 / (1 -
    2 d w), w = A2/(A1 + A2) = 1/(1 + 2 (x2/x1)^0.5).  On the default box
    [0.5, 2]^2, w runs from 1/5 to 1/2 and is 1/3 at the center, whose H is
    the reference: the deviation 2 d |w - 1/3| is at most d/3 (at the corner
    (2, 0.5)).  With d = 1e-5 the 100 samples reach 2.86e-6, about three
    times the tolerance."""
    path = _power_pair(tmp_path, 1e-5)
    assert main(["classify", "--fn", path, "--samples", "100"]) == 0
    detection = one_record(capsys.readouterr().out)["report"]["detection"]
    assert detection["verdict"] == "NotCES"
    assert 2.5e-6 < detection["max_deviation"] <= 1e-5 / 3


def test_an_exponent_gap_over_the_match_tolerance_is_not_ces(tmp_path, capsys):
    """PARAMETER_MATCH_TOL from above.  The inner exponents 0.5 and 0.5 + d
    match when d <= PARAMETER_MATCH_TOL * max(1, 0.5) = 1e-12.  At d = 3e-12
    the match refuses alone: the elasticity deviates by at most d/3 (see
    the test above) and the CES residual (B1 + B2 - (A1 + A2)/2) / (A1 +
    A2) = -d w by at most d/2, both far inside their tolerances.  At d =
    3e-13 the same document reads HomotheticACMS."""
    for d, case in ((3e-12, "NotCES"), (3e-13, "HomotheticACMS")):
        assert main(["classify", "--fn", _power_pair(tmp_path, d)]) == 0
        report = one_record(capsys.readouterr().out)["report"]
        assert report["detection"]["verdict"] == "RegularCES"
        assert report["case"] == case
        ces = report["residuals"]["ces"]
        assert (ces == "inf") if case == "NotCES" else (0.0 < ces <= d / 2)


def test_an_inner_of_exponent_one_is_refused_by_the_exponent_guard(tmp_path,
                                                                   capsys):
    # Exponents 1 and 1 - 1e-12 on a box of relative width 1e-7: the
    # elasticity, about 2e12, is constant within the constancy tolerance and
    # the second exponent matches the first within PARAMETER_MATCH_TOL, so
    # only the guard on the first inner's exponent 1 (sigma infinite) refuses.
    path = write_doc(tmp_path, "exponent-one.json", {
        "type": "quasi_sum", "outer": {"form": "affine", "coefficient": 1.0},
        "inner": [{"form": "power", "coefficient": 1.0, "exponent": 1.0},
                  {"form": "power", "coefficient": 1.0,
                   "exponent": 1.0 - 1e-12}]})
    assert main(["classify", "--fn", path, "--box",
                 "1:1.0000001,1:1.0000001"]) == 0
    report = one_record(capsys.readouterr().out)["report"]
    assert report["detection"]["verdict"] == "RegularCES"
    assert abs((1.0 - 1e-12) - 1.0) <= tolerances.PARAMETER_MATCH_TOL
    assert report["case"] == "NotCES"
    assert report["residuals"] == {"ces": "inf"}


@pytest.mark.parametrize("inner, case", [
    ([{"form": "log", "coefficient": 1.0},
      {"form": "log", "coefficient": -0.9999999999}],
     "HomotheticCobbDouglas"),
    ([{"form": "power", "coefficient": 1.0, "exponent": 1e-12},
      {"form": "power", "coefficient": -1.0, "exponent": 1e-12}],
     "HomotheticACMS"),
], ids=["near-opposite-logs", "opposite-tiny-powers"])
def test_near_opposite_inners_read_their_normal_form(tmp_path, capsys, inner,
                                                     case):
    # Every pair's numerator and denominator cancel within DEGENERACY_EPS,
    # so detection reads DegenerateCES; the case comes from the inners
    # alone, and Theorem 1.1 compares the two sides.
    outer = ({"form": "exp", "coefficient": 1.0} if case.endswith("Douglas")
             else {"form": "affine", "coefficient": 1.0})
    path = write_doc(tmp_path, "near-opposite.json",
                     {"type": "quasi_sum", "outer": outer, "inner": inner})
    assert main(["classify", "--fn", path]) == 0
    report = one_record(capsys.readouterr().out)["report"]
    assert report["detection"]["verdict"] == "DegenerateCES"
    assert report["case"] == case
    assert main(["verify", "--theorem", "1.1", "--fn", path]) == 0
    assert one_record(capsys.readouterr().out)["report"]["verdict"] == \
        "Consistent"


@pytest.mark.parametrize("doc", [
    {"type": "cobb_douglas", "gamma": 1.0, "alpha": 5},
    {"type": "acms", "gamma": None, "a": [1.0, 1.0], "rho": 0.5, "d": 1.0},
    {"type": "ratio", "outer": {"form": "affine", "coefficient": True}},
    {"type": "cobb_douglas", "gamma": 10 ** 400, "alpha": [0.5, 0.5]},
    {"type": ["acms"]},
], ids=["scalar-alpha", "null-gamma", "bool-coefficient", "huge-integer",
        "array-type"])
def test_loosely_typed_fields_are_bad_requests(tmp_path, doc):
    path = write_doc(tmp_path, "loose.json", doc)
    status, text = run(["eval", "--fn", path, "--at", "1.0,1.0"])
    assert status == 1
    assert "\n" not in text
    assert json.loads(text)["error"]["type"] == "SpecError"


@pytest.mark.parametrize("gamma", [1e-300, 1e-160, 1e120, 1e200])
def test_elasticity_and_classification_ignore_the_output_scale(tmp_path,
                                                               gamma):
    # sigma = 1 at any scale, although f_i**2 and the products in the
    # elasticity identity leave the float range at these gammas.
    doc = write_doc(tmp_path, "cd.json", {"type": "cobb_douglas",
                                          "gamma": gamma, "alpha": [0.5, 0.5]})
    status, env = run_json(["elasticity", "--fn", doc, "--at", "1.5,0.7"])
    assert status == 0
    pair = env["report"]["pairs"]["1,2"]
    assert pair["kind"] == "finite"
    assert pair["value"] == pytest.approx(1.0, abs=1e-15)
    status, env = run_json(["classify", "--fn", doc])
    assert status == 0
    assert env["report"]["case"] == "HomotheticCobbDouglas"
    assert env["report"]["sigma"] == 1.0


@pytest.mark.parametrize("bound", [1e100, 1e150])
def test_elasticity_and_classification_ignore_the_marginal_product_ratio(
        tmp_path, bound):
    # sigma = 1 everywhere, although f_1 / f_2 = x_2 / x_1 reaches bound^2
    # on these boxes, so f_lo**2 leaves the float range after the common
    # output scaling alone.
    doc = write_doc(tmp_path, "cd.json", {"type": "cobb_douglas",
                                          "gamma": 1.0, "alpha": [0.5, 0.5]})
    box = _box(((1.0 / bound, bound),) * 2)
    status, env = run_json(["elasticity", "--fn", doc, "--box", box])
    assert status == 0
    report = env["report"]
    assert (report["verdict"], report["infinite_pairs"],
            report["degenerate_pairs"]) == ("RegularCES", 0, 0)
    assert report["sigma_estimate"] == pytest.approx(1.0, abs=1e-12)
    status, env = run_json(["classify", "--fn", doc, "--box", box])
    assert status == 0
    assert env["report"]["case"] == "HomotheticCobbDouglas"
    status, env = run_json(["verify", "--fn", doc, "--box", box,
                            "--theorem", "1.1"])
    assert status == 0
    assert env["report"]["verdict"] == "Consistent"


@pytest.mark.parametrize("theorem", ["4.1", "4.2"])
def test_curvature_verdicts_hold_where_hessian_entries_pass_1e154(tmp_path,
                                                                   theorem):
    # On this box max |H_ij| reaches about 1e181, so sum H_ij^2 overflows
    # although |Hess| and every reported quantity are representable.
    doc = write_doc(tmp_path, "cd.json", {"type": "cobb_douglas",
                                          "gamma": 1.0, "alpha": [0.5, 0.5]})
    status, text = run(["verify", "--fn", doc, "--box",
                        "1e-100:1e+100,1e-100:1e+100", "--theorem", theorem])
    assert status == 0
    assert json.loads(text)["report"]["verdict"] == "Consistent"
    assert not any(word in text for word in ('"inf"', '"-inf"', '"nan"'))


@pytest.mark.parametrize("command, theorem", [
    ("elasticity", None), ("classify", None), ("verify", "4.1"),
    ("verify", "1.1")])
def test_a_box_whose_ratio_overflows_reaches_the_kernel(tmp_path, capsys,
                                                        command, theorem):
    # hi / lo = 1e600 is not a float: the samples are drawn in log space,
    # and the kernel refuses the corners, where f_ii overflows.
    path = write_doc(tmp_path, "cd.json", {"type": "cobb_douglas",
                                           "gamma": 1.0, "alpha": [0.5, 0.5]})
    argv = [command, "--fn", path, "--box", "1e-300:1e300,1e-300:1e300"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(argv + (["--theorem", theorem] if theorem else []))
    out = capsys.readouterr()
    assert (status, caught, out.err) == (2, [], "")
    error = one_record(out.out)["error"]
    assert error["type"] == "DomainError"
    assert error["message"].startswith("value, gradient or Hessian is not")


TINY_BOX = ["--box", "1e-100:1e-99,1e-100:1e-99"]


@pytest.mark.parametrize("argv, key, expected", [
    (["elasticity", *TINY_BOX], "verdict", "RegularCES"),
    (["elasticity", "--at", "5e-100,5e-100"], "pairs",
     {"1,2": {"kind": "finite", "value": 1.0}}),
    (["classify", *TINY_BOX], "case", "HomotheticCobbDouglas"),
    (["verify", "--theorem", "1.1", *TINY_BOX], "verdict", "Consistent"),
    (["eval", "--at", "5e-100,5e-100"], None, None),
    (["curvature", "--at", "5e-100,5e-100"], None, None),
    (["scan", *TINY_BOX], None, None),
    (["verify", "--theorem", "4.1", *TINY_BOX], None, None),
    (["verify", "--theorem", "4.2", *TINY_BOX], None, None)])
def test_requests_that_need_no_hessian_entry_survive_its_overflow(
        tmp_path, capsys, argv, key, expected):
    # Value, gradient, h' and h'' are finite here, but F' h'' overflows: the
    # elasticity and the structure read h', h'' and succeed, while every
    # request that reports a Hessian entry or a curvature is refused.
    path = write_doc(tmp_path, "cd.json", {"type": "cobb_douglas",
                                           "gamma": 1e250,
                                           "alpha": [0.5, 0.5]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(argv + ["--fn", path])
    out = capsys.readouterr()
    assert (caught, out.err) == ([], "")
    record = one_record(out.out)
    if key is None:
        assert status == 2
        assert record["error"]["type"] == "DomainError"
    else:
        assert status == 0
        assert record["report"][key] == expected


def _quiet_main(argv, capsys):
    """Exit status and the one stdout record of a request that must write
    nothing to stderr and raise no Python warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(argv)
    out = capsys.readouterr()
    assert (caught, out.err) == ([], "")
    return status, one_record(out.out)


BIG_GRADIENT_ACMS = {"type": "acms", "gamma": 2.6889230193993594e+133,
                     "a": [2.671338015725371, 0.7523911955288902],
                     "rho": 0.5, "d": 1.0}


def test_the_shape_operator_survives_a_gradient_past_1e154(tmp_path, capsys):
    # |grad f| is 4e153, so grad grad^T h overflows, while g^(-1) h, formed
    # from grad / W, is representable, as is the metric (1.6e307).
    path = write_doc(tmp_path, "acms.json", BIG_GRADIENT_ACMS)
    status, record = _quiet_main(["curvature", "--fn", path,
                                  "--at", "1.76e+28,1.59e-12"], capsys)
    assert status == 0
    shape = np.array(record["report"]["shape_operator"], dtype=float)
    np.testing.assert_allclose(shape, [[-5.0879417979911487e-49,
                                        5.6319355751348554e-09], [0, 0]],
                               rtol=1e-12)


def test_a_reported_surface_array_that_is_not_finite_is_a_domain_error(
        tmp_path, capsys, monkeypatch):
    # No document is known to reach this once the scalars are finite, so
    # the principal curvatures are made to overflow.
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: np.full(len(a), np.inf))
    path = write_doc(tmp_path, "acms.json", BIG_GRADIENT_ACMS)
    status, record = _quiet_main(["curvature", "--fn", path,
                                  "--at", "1.76e+28,1.59e-12"], capsys)
    assert status == 2
    assert record["error"]["type"] == "DomainError"
    assert record["error"]["message"].startswith("surface quantity is not")


EPS = float(np.finfo(float).eps)
ONE_ULP_ALPHA = [0.49566324421762387, 0.07405233817420091, 0.4302844176081754]


def _outer_ode(tmp_path, capsys, doc, argv):
    """The verdict and ``outer_ode`` of a verify request that exits 0."""
    path = write_doc(tmp_path, "fn.json", doc)
    status, record = _quiet_main(["verify", "--fn", path, *argv], capsys)
    assert status == 0, record
    report = record["report"]
    return report["verdict"], report["conclusion_check"]["outer_ode"]


def test_an_outer_function_residual_past_the_product_form_range_is_finite(
        tmp_path, capsys):
    # The product-form argument u = prod x_i^alpha_i overflows on this box;
    # in log coordinates the residual is |alpha - 1| / alpha at every point.
    alpha = [0.593597127956165, 2.408634065595021]
    verdict, ode = _outer_ode(
        tmp_path, capsys,
        {"type": "cobb_douglas", "gamma": 7.42606535597874e-188,
         "alpha": alpha},
        ["--theorem", "4.1", "--samples", "32",
         "--box=1e-75:1e12,1e79:1e127"])
    assert verdict == "Consistent"
    assert ode == {"form": "log_aggregator",
                   "max_residual": 0.6669143928195781}
    assert ode["max_residual"] == pytest.approx(
        (math.fsum(alpha) - 1) / math.fsum(alpha), abs=8 * EPS)


@pytest.mark.parametrize("doc, argv, exact", [
    # The product-form argument u = prod x_i^alpha_i overflows here.
    ({"type": "cobb_douglas", "gamma": 1e-300, "alpha": [2.0, 2.0]},
     ["--box", "1e100:1e150,1e100:1e150", "--samples", "8"], 0.75),
    # An exponent sum of 1 + 2^-52, one ulp from degree one.
    ({"type": "cobb_douglas", "gamma": 1.0, "alpha": ONE_ULP_ALPHA}, [],
     (math.fsum(ONE_ULP_ALPHA) - 1) / math.fsum(ONE_ULP_ALPHA)),
    # q - 1 formed from q = d / rho keeps about seven digits here.
    ({"type": "acms", "gamma": 1.0, "a": [1.3, 0.7], "rho": 0.999999999,
      "d": 1.0}, ["--samples", "16"], 0.0),
], ids=["product-overflow", "one-ulp-exponent-sum", "rho-near-one"])
def test_the_outer_ode_residual_reads_the_kernels_outer(tmp_path, capsys, doc,
                                                        argv, exact):
    verdict, ode = _outer_ode(tmp_path, capsys, doc,
                              ["--theorem", "4.1", *argv])
    assert verdict == "Consistent"
    assert abs(ode["max_residual"] - exact) <= 8 * EPS, ode


def test_both_curvature_theorems_report_the_outer_ode_near_the_float_limit(
        tmp_path, capsys):
    # f reaches 1.5e308, so alpha F'' = 4 f would overflow unscaled.
    doc = {"type": "cobb_douglas", "gamma": 1e-312, "alpha": [1.0] * 4}
    argv = ["--box", ",".join(["1e155:1.1e155"] * 4), "--samples", "8"]
    for theorem in ("4.1", "4.2"):
        verdict, ode = _outer_ode(tmp_path, capsys, doc,
                                  ["--theorem", theorem, *argv])
        assert verdict == "Consistent"
        assert ode == {"form": "log_aggregator", "max_residual": 0.75}


@pytest.mark.parametrize("doc, args, message", [
    # classify evaluates the document itself, as verify 1.1 does: the
    # kernel refuses the aggregator sum that x**rho underflows to 0.
    ({"type": "acms", "gamma": 1.0, "a": [1.0, 1.0], "rho": 1e300, "d": 1.0},
     ["classify"], "aggregator sum must stay positive"),
    ({"type": "quasi_sum", "outer": {"form": "affine", "coefficient": 1.0},
      "inner": [{"form": "power", "coefficient": 1.0, "exponent": 800.0},
                {"form": "power", "coefficient": 1.0, "exponent": 2.0}]},
     ["eval", "--box", "1:3,1:3", "--at", "2,2"], "inner component 0 "),
], ids=["huge-rho", "huge-exponent"])
def test_box_validation_overflow_is_a_domain_error(tmp_path, capsys, doc, args,
                                                    message):
    path = write_doc(tmp_path, "big.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main([args[0], "--fn", path, *args[1:]])
    out = capsys.readouterr()
    assert (status, caught, out.err) == (2, [], "")
    error = one_record(out.out)["error"]
    assert error["type"] == "DomainError"
    assert error["message"].startswith(message)


def test_a_deeply_nested_document_is_a_bad_request(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["eval", "--fn", str(path), "--at", "1,1"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert one_record(out.out)["error"]["type"] == "SpecError"


def test_verify_requires_theorem(acms_doc):
    status, payload = run_json(["verify", "--fn", acms_doc])
    assert status == 1
    assert payload["error"]["type"] == "SpecError"


def test_verify_refuses_a_varying_elasticity(mixed_doc):
    for out in ("json", "csv"):
        status, text = run(["verify", "--fn", mixed_doc, "--theorem", "4.1",
                            "--samples", "16", "--out", out])
        assert status == 2
        payload = json.loads(text)  # errors are JSON whatever --out says
        assert payload["error"]["type"] == "HypothesisError"


# -- CSV rendering -----------------------------------------------------------------


def test_scan_csv_layout(acms_doc):
    status, text = run(["scan", "--fn", acms_doc, "--samples", "9",
                        "--out", "csv"])
    assert status == 0
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert any(ln.startswith("# digest: ") for ln in comments)
    assert any(ln.startswith("# tolerance CES_CONSTANCY_RTOL: ")
               for ln in comments)
    assert body[0] == "x1,x2,f,W,G,flatness_residual,H12"
    assert len(body) == 1 + 9  # 3 points per axis on two axes
    first = body[1].split(",")
    assert len(first) == 7
    assert float(first[0]) == pytest.approx(0.5)
    assert float(first[6]) == pytest.approx(2.0, rel=1e-9)


def test_scan_pair_override(cd3_doc):
    status, text = run(["scan", "--fn", cd3_doc, "--samples", "8",
                        "--out", "csv", "--pair", "1,3"])
    assert status == 0
    header = next(ln for ln in text.splitlines() if not ln.startswith("#"))
    assert header.endswith(",H13")
    status, env = run_json(["scan", "--fn", cd3_doc, "--samples", "8",
                            "--pair", "1,3"])
    assert env["pair"] == [1, 3]
    assert env["report"]["points_per_axis"] == 2


def test_scan_output_is_independent_of_parallelism(acms_doc):
    argv = ["scan", "--fn", acms_doc, "--samples", "25", "--out", "csv"]
    serial = run(argv)
    again = run(argv)
    parallel = run([*argv, "--jobs", "4"])
    assert serial == again == parallel


# -- the blocked scan pass -----------------------------------------------------------

# A later block fails an earlier stage than the first block does, so a block
# loop that reported its first error would name the wrong stage: here the
# first rows overflow only W (|grad f| = x1 > 1e154), the last ones f.
LATE_KERNEL_ERROR = ({"type": "cobb_douglas", "gamma": 1.0, "alpha": [1, 1]},
                     ((1e160, 1e250), (1e-100, 1e100)))
# Here the first rows overflow f = 1e308 (x2 - x1), the last ones leave the
# domain, u = x2 - x1 <= 0, which the kernel checks first.
LATE_DOMAIN_ERROR = ({"type": "acms", "gamma": 1e308, "a": [-1.0, 1.0],
                      "rho": 1.0, "d": 1.0}, ((1.0, 1e3), (2.0, 100.0)))
SCAN_CASES = (
    # The fuzzer's documents, on the default box and its example boxes.
    [(doc, None) for doc in BASES]
    + [(BASES[0], ((1e-300, 1e-290), (0.5, 2.0))),
       (BASES[3], ((1e-12, 1e12), (1e-6, 1e6))),
       # The overflow contract: f overflows everywhere; W on the first rows
       # and f on the last ones; F' h'' alone.
       (OVERFLOW_CD, ((5.0, 10.0), (5.0, 10.0))),
       ({**OVERFLOW_CD, "alpha": [3.0, 3.0]}, ((1e30, 1e100), (1e30, 1e60))),
       ({"type": "cobb_douglas", "gamma": 1e250, "alpha": [0.5, 0.5]},
        ((1e-100, 1e-99), (1e-100, 1e-99))),
       ({"type": "acms", "gamma": 1.0, "a": [1.0, 2.0, 0.5], "rho": -2.0,
         "d": 1.5}, None),
       LATE_KERNEL_ERROR, LATE_DOMAIN_ERROR])


def _whole_grid_scan(expr, points):
    """Scan's cells, stage after stage over the whole grid: the kernel, the
    surface curvatures and then H12; a stage that fails raises."""
    table = expr.derivatives(points)
    surface = surface_curvatures(table)
    return np.column_stack([
        table.points, table.value, surface["area_factor"],
        surface["gauss_kronecker"], surface["flatness_residual"],
        hicks_values(table, 0, 1)])


# Block sizes against grid sizes (n = 2: 16, 25 or 36 points; n = 3: 27): a
# grid of whole blocks, one row past them, one block, and more than a grid.
BLOCKS = [(3, 16), (4, 16), (5, 16), (8, 16), (4, 25), (5, 25), (8, 25),
          (7, 36), (6, 36), (35, 36), (36, 36), (4096, 36)]


@pytest.mark.parametrize("doc, box", SCAN_CASES)
def test_the_blocked_scan_is_the_whole_grid_pass(monkeypatch, tmp_path, doc,
                                                 box):
    path = write_doc(tmp_path, "fn.json", doc)
    digest = "sha256:" + hashlib.sha256(
        pathlib.Path(path).read_bytes()).hexdigest()
    expr = expr_from_dict(doc, box=box)
    seen, render = {}, cli._render

    def spy_render(config, env):
        seen["cells"] = env["report"]["rows"].data
        return render(config, env)

    monkeypatch.setattr(cli, "_render", spy_render)
    for (block, samples), rows in itertools.product(BLOCKS, [None, 0, 1]):
        grid = log_grid(box or default_box(expr.n), samples)[:rows]
        try:
            want = _whole_grid_scan(expr, grid)
        except DomainError as exc:
            want = _to_json({"tool": "prodgeo", "version": cli.__version__,
                             "command": "scan", "digest": digest,
                             "error": {"type": "DomainError",
                                       "message": str(exc)}})
        monkeypatch.setattr(writer, "_BLOCK_ROWS", block)
        monkeypatch.setattr(sampling, "log_grid", lambda *args: grid)
        seen.clear()
        box_arg = [] if box is None else ["--box", _box(box)]
        status, text = run(["scan", "--fn", path, *box_arg,
                            "--samples", str(samples)])
        if isinstance(want, str):  # the error record, byte for byte
            assert (status, text) == (2, want), (block, samples, rows)
            continue
        assert status == 0, (block, samples, rows, text)
        got = seen["cells"]
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        dicts = [{"cells": row} for row in want.tolist()]
        assert f'"rows":{_to_json(dicts)}' in text


def test_the_precedence_cases_fail_in_both_stages():
    # Each case fails one stage on its first rows and an earlier stage on
    # its last rows.
    for (doc, box), message in ((LATE_KERNEL_ERROR, "surface quantity"),
                                (LATE_DOMAIN_ERROR, "value, gradient")):
        expr = expr_from_dict(doc, box=box)
        grid = log_grid(box, 25)
        with pytest.raises(DomainError, match=message):
            _whole_grid_scan(expr, grid[:3])
        with pytest.raises(DomainError) as late:
            _whole_grid_scan(expr, grid[-3:])
        assert not str(late.value).startswith(message)


# x^150 per axis: the kernel's values are finite on 1:2.15 per axis, but the
# surface quantities overflow near the box's top corner.
STEEP_CD = ({"type": "cobb_douglas", "gamma": 1.0,
             "alpha": [150.0, 150.0, 150.0, 150.0]},
            ((1.0, 2.15), (1.0, 2.15), (1.0, 2.15), (1.0, 2.15)))


@pytest.mark.parametrize("doc, box, message", [
    (*STEEP_CD, "surface quantity"), (*LATE_KERNEL_ERROR, "value, gradient"),
    (*LATE_DOMAIN_ERROR, "aggregator sum")])
def test_a_failing_scan_evaluates_each_block_once(monkeypatch, tmp_path, doc,
                                                  box, message):
    # One pass over the 40 blocks names the error of a whole-grid pass: one
    # kernel call per block, whichever stage each block fails.
    path = write_doc(tmp_path, "fn.json", doc)
    calls, derivatives = [], FunctionExpr.derivatives

    def counted(self, points):
        calls.append(len(points))
        return derivatives(self, points)

    monkeypatch.setattr(FunctionExpr, "derivatives", counted)
    monkeypatch.setattr(writer, "_BLOCK_ROWS", 16)
    status, text = run(["scan", "--fn", path, "--box", _box(box),
                        "--samples", "625"])
    assert status == 2
    assert json.loads(text)["error"]["message"].startswith(message), text
    assert len(calls) == -(-len(log_grid(box, 625)) // 16) > 2, calls


def test_csv_key_value_mode(cd_doc):
    status, text = run(["curvature", "--fn", cd_doc, "--at", "2.0,8.0",
                        "--out", "csv"])
    assert status == 0
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "key,value"
    cells = dict(ln.split(",", 1) for ln in lines[1:])
    assert float(cells["value"]) == pytest.approx(4.0)
    assert "hessian[0][0]" in cells


def test_verify_csv_flattens_every_per_point_record(acms_doc):
    argv = ["verify", "--fn", acms_doc, "--theorem", "4.1", "--samples", "16"]
    status, env = run_json(argv)
    assert status == 0
    status, text = run([*argv, "--out", "csv"])
    assert status == 0
    want = []
    _flatten(env["report"]["per_point_data"], "per_point_data", want, [])
    got = [ln for ln in text.splitlines() if ln.startswith("per_point_data")]
    assert len(got) == 17 * 5 and got == want


# -- per-point tables ------------------------------------------------------------------

FINITE_EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308]
NON_FINITE = [math.inf, -math.inf, math.nan]


def _csv(command, report):
    """The CSV text ``_render`` writes for ``report`` in an empty envelope."""
    env = {"tolerances": {}, "report": report}
    config = parse_config([command, "--fn", "fn.json", "--out", "csv"])
    return "".join(_render(config, env))


def _records(shape, rows, non_finite):
    """A scan-shaped (one 7-wide ``cells`` field) or verify-shaped (three
    floats and a 4-wide ``point``) table, and the same rows as dicts: random
    floats over many decades, with extreme values at the rows that meet a
    block boundary and, if asked, inf, -inf and nan in some of them."""
    rng = np.random.default_rng([rows, non_finite])
    data = rng.lognormal(0.0, 30.0, (rows, 7)) * rng.choice([-1.0, 1.0],
                                                             (rows, 7))
    specials = FINITE_EXTREMES + (NON_FINITE if non_finite else [])
    for k, r in enumerate(sorted({0, _BLOCK_ROWS - 1, _BLOCK_ROWS, rows - 1}
                                 & set(range(rows)))):
        data[r] = np.roll(np.resize(specials, 7), k)
    if shape == "scan":
        return (PointRecords((("cells", 7),), data),
                [{"cells": row} for row in data.tolist()])
    records = PointRecords((("flatness_residual", 0), ("gauss_kronecker", 0),
                            ("gauss_kronecker_scaled", 0), ("point", 4)),
                           data)
    return records, [{"flatness_residual": r[0], "gauss_kronecker": r[1],
                      "gauss_kronecker_scaled": r[2], "point": r[3:]}
                     for r in data.tolist()]


@pytest.mark.parametrize("non_finite", [False, True],
                         ids=["finite", "non-finite"])
@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
@pytest.mark.parametrize("shape", ["scan", "verify"])
def test_row_templates_write_the_bytes_of_the_dict_rows(shape, rows,
                                                        non_finite):
    records, dicts = _records(shape, rows, non_finite)
    assert _json(records) == _to_json(dicts)
    if shape == "verify":  # verify --out csv flattens its records
        assert _csv("verify", {"rows": records}) == _csv("verify",
                                                         {"rows": dicts})
    else:
        columns = [f"c{k}" for k in range(7)]
        csv = _csv("scan", {"columns": columns, "rows": records})
        assert csv.split("\n") == [",".join(columns)] + [
            ",".join(map(_leaf, row["cells"])) for row in dicts]


@pytest.mark.parametrize("out", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "4.1", "--samples", "40"],
    ["verify", "--theorem", "4.2", "--samples", "40"],
    ["scan", "--samples", "64"],
], ids=["verify-4.1", "verify-4.2", "scan"])
def test_per_point_tables_reach_render_as_one_array(monkeypatch, capsys,
                                                    cd3_doc, argv, out):
    dicts, seen = [], {}
    getitem, render = PointRecords.__getitem__, cli._render

    def counted_getitem(self, i):
        dicts.append(i)
        return getitem(self, i)

    def spy_render(config, env):
        seen["dicts"] = len(dicts)
        seen["table"] = env["report"].get("per_point_data",
                                          env["report"].get("rows"))
        return render(config, env)

    monkeypatch.setattr(PointRecords, "__getitem__", counted_getitem)
    monkeypatch.setattr(cli, "_render", spy_render)
    assert main([*argv, "--fn", cd3_doc, "--out", out]) == 0
    capsys.readouterr()
    table = seen["table"]
    assert type(table) is PointRecords
    assert table.data.dtype == np.float64
    assert table.data.shape == ((41, 6) if argv[0] == "verify" else (64, 8))
    assert seen["dicts"] == 0  # no per-row dict before render
    if out == "json" or argv[0] == "scan":
        assert dicts == []  # finite rows are written by the template


def _boundary_values():
    """Floats whose ".17g" text takes every layout of the table kernel:
    each fixed-notation exponent -4..16 with one, a few and 17 significant
    digits (integers from exponent 0 on), scientific notation with 2- and
    3-digit exponents of both signs, and the neighbours of 1e-4 and 1e17."""
    values = [0.0, -0.0, 1e-4, 1e17,
              *np.nextafter([1e-4, 1e-4, 1e17, 1e17], [0, 1, 0, math.inf])]
    for e in range(-4, 17):
        values += [m * 10.0 ** e for m in (1.0, -3.0, 1.25, -math.pi, 2 / 3)]
    for e in (-300, -123, -100, -99, -10, -5, 17, 18, 22, 99, 100, 101, 300):
        values += [m * 10.0 ** e for m in (1.0, -1.5, math.pi)]
    return np.array(values)


@pytest.mark.parametrize("shape", ["scan", "verify"])
def test_tables_at_notation_boundaries_write_the_bytes_of_the_dict_rows(shape):
    values = _boundary_values()
    width = -(-len(values) // 7) * 7
    data = np.vstack([np.resize(np.roll(values, k), width).reshape(-1, 7)
                      for k in range(7)]
                     + [[1.0, 12.0, 123.0, 4e3, 1e16, 3e15, 100.0]])
    if shape == "scan":
        records = PointRecords((("cells", 7),), data)
        dicts = [{"cells": row} for row in data.tolist()]
    else:
        records = PointRecords((("flatness_residual", 0), ("gauss_kronecker", 0),
                                ("gauss_kronecker_scaled", 0), ("point", 4)),
                               data)
        dicts = [{"flatness_residual": r[0], "gauss_kronecker": r[1],
                  "gauss_kronecker_scaled": r[2], "point": r[3:]}
                 for r in data.tolist()]
    assert _json(records) == _to_json(dicts)
    if shape == "verify":
        assert _csv("verify", {"per_point_data": records}) == _csv(
            "verify", {"per_point_data": dicts})
    else:
        columns = [f"c{k}" for k in range(7)]
        csv = _csv("scan", {"columns": columns, "rows": records})
        assert csv.split("\n")[1:] == [",".join(map(_leaf, row))
                                       for row in data.tolist()]


# -- the ".17g" table kernel ---------------------------------------------------------


def _kernel_texts(values, text=_leaf):
    """The table kernel's text of each value, written as a one-column table."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    return "\n".join(_table_blocks(column, "\0\n", [0], text)).split("\n")


def _exact_ties(rng):
    """Doubles x = t / 2^(s+1), t odd, with x·10^s = t·5^s/2 a half-integer
    of 17 digits: ".17g" must round them half to even."""
    ties = []
    for s in range(1, 25):
        lo, hi = 2e16 / 5 ** s, min(2e17 / 5 ** s, 2.0 ** 53)
        for t in {math.ceil(lo), math.floor(hi), *rng.uniform(lo, hi, 20)}:
            t = int(t) | 1
            if lo < t < hi:
                ties.append(t / 2 ** (s + 1))
    return np.array(ties)


def test_table_kernel_writes_the_bytes_of_format_17g():
    rng = np.random.default_rng(1717)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    ties = _exact_ties(rng)
    assert format(1234567890123456.75, ".17g") == "1234567890123456.8"
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64),
        powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf),
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308,
         math.inf, -math.inf, math.nan, 1234567890123456.75],
        np.arange(-1000, 1001), 2.0 ** np.arange(64), 2.0 ** np.arange(54) - 1,
        rng.integers(-2 ** 63, 2 ** 63, 20_000).astype(float),
        ties, np.nextafter(ties, 0), np.nextafter(ties, math.inf)])
    assert len(ties) > 200
    got = _kernel_texts(values)
    want = [format(v, ".17g") for v in values.tolist()]
    assert [(w, g) for w, g in zip(want, got) if w != g] == []
    assert len(got) == len(want)


def test_table_kernel_writes_nearly_every_value_without_fallback():
    rng = np.random.default_rng(1718)
    values = rng.lognormal(0.0, 20.0, 100_000) * rng.choice([-1.0, 1.0],
                                                             100_000)
    fallback = []
    got = _kernel_texts(values, lambda v: fallback.append(v) or _leaf(v))
    assert got == [format(v, ".17g") for v in values.tolist()]
    assert len(fallback) < 1e-3 * len(values)


def _g17_tables_oracle() -> tuple:
    """``writer._g17_tables`` as first built: each quotient of exact
    integers rounded once by Python's int division, each group's digits
    and digit count by NumPy integer division, each layout's template
    written out, and each exponent lane by ``format``."""
    rows, pow5 = {}, 1
    for k in range(340):  # 10^k = 5^k 2^k and 10^-k = 2^w / 5^k 2^(-k-w)
        w = pow5.bit_length()
        hi = (1 << w) / pow5
        lo = ((1 << w + 52) - int(hi * 2 ** 52) * pow5) / (pow5 << 52)
        rows[-k] = hi, lo, -k - w
        hi = float(pow5)
        rows[k] = hi / 2 ** (w - 1), (pow5 - int(hi)) / 2 ** (w - 1), k + w - 1
        pow5 *= 5
    c_hi, c_lo, b = np.array([rows[k] for k in range(-310, 340)]).T
    b = b.astype(np.int32)
    with np.errstate(over="ignore"):
        least = np.ldexp(c_hi, b)
    least[c_lo > 0] = np.nextafter(least[c_lo > 0], np.inf)
    split = c_hi * 134217729.0
    c_hh = split - (split - c_hi)

    group = np.arange(10000)[:, np.newaxis]
    quad = np.zeros((10000, 8), np.uint8)
    quad[:, :4] = group // [1000, 100, 10, 1] % 10 + 48
    sig = 4 - (group % [10, 100, 1000] == 0).sum(1, dtype=np.uint8)
    sig = np.where(group[:, 0], np.uint8([[1], [5], [9], [13]]) + sig, 1)
    templates = []
    for e10 in range(-4, 18):
        point = 1 if e10 == 17 else e10 + 1
        for nd in range(1, 18):
            cell = ("0.000"[:1 - e10].ljust(5, "\0") + "\2" * nd if e10 < 0
                    else "\1" * point + "." * (nd > point) + "\2" * (nd - point))
            templates.append(("\0" + cell).ljust(24, "\0"))
    cells = np.frombuffer("".join(templates).encode(), np.uint8).reshape(-1, 3, 8)
    layouts = np.concatenate([np.where(cells == 1, 255, 0), np.where(
        cells == 2, 255, 0), np.where(cells > 2, cells, 0)], 1).astype(np.uint8)
    shift = np.where(np.arange(len(cells)) < 4 * 17, 40, 8).astype("<u8")
    e10 = np.arange(-300, 301)
    fixed = (e10 >= -4) & (e10 <= 16)
    exp = "".join("\0" * 8 if -4 <= e <= 16 else f"\0\0\0e{e:+03d}".ljust(8, "\0")
                  for e in e10.tolist())
    return (c_hh, c_hi - c_hh, c_hi, c_lo, b, least,
            (np.arange(11, dtype="<u8") + 48) << 8, quad.view("<u8").ravel(),
            sig, np.vstack([layouts.view("<u8")[..., 0].T, shift, 64 - shift]),
            np.where(fixed, e10 + 4, 21) * 17 - 1,
            np.frombuffer(exp.encode(), "<u8"))


def test_the_g17_tables_are_built_bit_for_bit_as_the_oracle_builds_them():
    # Compared as integers, so that -0.0 and each NaN payload count.
    for k, (got, want) in enumerate(zip(writer._g17_tables(),
                                        _g17_tables_oracle(), strict=True)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), k
        np.testing.assert_array_equal(got.view(f"u{got.itemsize}"),
                                      want.view(f"u{want.itemsize}"),
                                      err_msg=f"table {k}")


def test_g17_finds_the_exponent_of_each_power_of_ten_and_its_lower_neighbour():
    # The decimal exponent changes at each power: a double on either side
    # of 10^k must get its own exponent.  One at or above 10^k is written
    # without the fallback, which takes those whose digits round to 10^17.
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    values = np.concatenate([powers, np.nextafter(powers, 0)])
    fallback = []
    cells = writer._g17(values, lambda v: fallback.append(v) or _leaf(v))
    assert [cell.tobytes().replace(b"\0", b"").decode() for cell in cells] \
        == [format(v, ".17g") for v in values.tolist()]
    above = {v for k, v in enumerate(powers, -300)
             if Fraction(v) >= Fraction(10) ** k}
    assert len(above) > 250 and above.isdisjoint(fallback)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_table_kernel_matches_format_on_any_doubles(values):
    assert _kernel_texts(values) == [format(v, ".17g") for v in values]


def _specials():
    """Values whose cells take every path of the table kernel: signed zeros,
    NaNs of several payloads and signs, infinities, subnormals, the
    smallest normal, exact ties, values it leaves to its fallback (outside
    [1e-300, 1e300], or next to 10^k), and 24-character texts."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF00000DEADBEEF], np.uint64).view(np.float64)
    return np.concatenate([
        [0.0, -0.0, math.inf, -math.inf], nans,
        [5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
         2.2250738585072014e-308, 1.7976931348623157e308, -1e-301, 1e301,
         1e-79, np.nextafter(1e-79, 0.0), 1e23, 0.5, 2.5, 1234567890123456.75,
         -1.2345678901234567e-123, -9.8765432109876543e+299],
        _exact_ties(np.random.default_rng(17))[::40]])


@pytest.mark.parametrize("rows", [0, 70, _BLOCK_ROWS - 3, 2 * _BLOCK_ROWS + 5])
def test_repeated_columns_write_each_distinct_cell_once(monkeypatch, rows):
    specials = _specials()
    rng = np.random.default_rng(rows)
    # Each value twice in a row: 32 distinct values in any 64 rows.
    column = np.resize(np.repeat(specials, 2), rows)
    data = np.column_stack([column, rng.lognormal(0.0, 30.0, rows),
                            np.repeat(specials, -(-rows // len(specials)))[:rows],
                            rng.lognormal(0.0, 30.0, rows)])
    written, g17 = [], writer._g17

    def counted(x, text):
        written.append(np.asarray(x, np.float64).ravel().view(np.int64))
        return g17(x, text)

    monkeypatch.setattr(writer, "_g17", counted)
    blocks = list(_table_blocks(data, "\0,\0,\0,\0\n", [0, 1, 2, 3], _leaf))
    if rows == 0:
        assert (blocks, written) == ([], [])
        return
    got = "\n".join(blocks)
    assert got.split("\n") == [",".join(map(_leaf, row))
                                for row in data.tolist()]
    keys = data.view(np.int64)
    # Each distinct bit pattern of the repeating columns 0 and 2 reaches
    # _g17 once, and so does each cell of the other two columns.
    want = sorted(set(keys[:, [0, 2]].ravel().tolist())) + sorted(
        keys[:, [1, 3]].ravel().tolist())
    assert sorted(np.concatenate(written).tolist()) == sorted(want)
    assert max(map(len, written)) <= _BLOCK_ROWS
    # -0.0 and 0.0 stay apart; NaNs of any payload all read "nan".
    assert {"0", "-0", "nan"} <= set(got.replace("\n", ",").split(","))


def test_a_column_fills_each_of_its_slots_in_every_block(monkeypatch):
    # As in _flatten's CSV rows, column 0 stands at several slots; the
    # literals hold a two-byte character, so slots sit at byte offsets.
    monkeypatch.setattr(writer, "_BLOCK_ROWS", 16)
    rows = 2 * 16 + 5
    specials = _specials()
    data = np.column_stack([
        np.arange(rows) * 0.5, np.resize(np.repeat([1.5, -0.0, 7e300], 4), rows),
        np.resize(specials, rows)])
    row = "\0:µ=\0;\0|\0,c=\0\n"
    got = "\n".join(_table_blocks(data, row, [0, 1, 0, 2, 0], _leaf))
    want = []
    for index, same, other in data.tolist():
        index, same, other = (format(v, ".17g") for v in (index, same, other))
        want.append(f"{index}:µ={same};{index}|{other},c={index}")
    assert got.split("\n") == want


def test_the_longest_texts_fill_a_24_byte_cell():
    values = np.array([-2.2250738585072014e-308, -1.7976931348623157e308,
                       -1.2345678901234567e-123, -9.8765432109876543e+299,
                       -1.0000000000000002e-100, -0.00012345678901234568])
    texts = [format(v, ".17g") for v in values.tolist()]
    assert {len(t) for t in texts} == {24, 23}
    assert writer._g17(values, _leaf).shape == (len(values), 24)
    assert _kernel_texts(values) == texts


# -- failure modes -------------------------------------------------------------------


def test_error_exit_codes(tmp_path, cd_doc):
    missing = str(tmp_path / "nope.json")
    assert run(["eval", "--fn", missing, "--at", "1.0,1.0"])[0] == 1

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(["eval", "--fn", str(garbled), "--at", "1.0,1.0"])[0] == 1

    extra = write_doc(tmp_path, "extra.json",
                      {"type": "cobb_douglas", "gamma": 1.0,
                       "alpha": [0.5, 0.5], "note": "hi"})
    assert run(["eval", "--fn", extra, "--at", "1.0,1.0"])[0] == 1

    assert run(["eval", "--fn", cd_doc, "--at", "1.0,1.0,1.0"])[0] == 1
    assert run(["eval", "--fn", cd_doc, "--at", "1.0,-1.0"])[0] == 1
    assert run(["eval", "--fn", cd_doc])[0] == 1
    for pair in ("1,1", "1,3"):  # the same input twice, and no input 3
        assert run(["elasticity", "--fn", cd_doc, "--at", "1.0,1.0",
                    "--pair", pair])[0] == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--at", "nan,inf"],
    ["scan", "--at=-1,1e999", "--samples", "4", "--out", "csv"],
    ["eval", "--at", "1,1", "--pair", "7,9"],
    ["eval", "--at", "1,1", "--box", "1:2,1:2,1:2"],
], ids=["classify-at", "scan-at", "eval-pair", "eval-box"])
def test_every_echoed_request_field_is_checked(cd_doc, capsys, argv):
    # The envelope echoes --at, --pair and --box even to a command that
    # does not read them, so each is checked against the document.
    assert main([*argv, "--fn", cd_doc]) == 1
    record = one_record(capsys.readouterr().out)
    assert record["error"]["type"] == "SpecError"


_LOG = {"form": "log", "coefficient": 1.0}
_AFFINE = {"form": "affine", "coefficient": 1.0}
_POWER_400 = {"form": "power", "coefficient": 1.0, "exponent": 400.0}


@pytest.mark.parametrize("doc, argv, status, message", [
    ({"type": "quasi_sum", "outer": _AFFINE, "inner": [_LOG]},
     ["eval", "--at", "1"], 1, "quasi-sum needs at least two inputs"),
    ({"type": "quasi_sum", "outer": _AFFINE, "inner": [_LOG, 3]},
     ["eval", "--at", "1,1"], 1, "scalar function record must be an object"),
    ({"type": "quasi_sum", "outer": _AFFINE,
      "inner": [_LOG, {"coefficient": 1.0}]},
     ["eval", "--at", "1,1"], 1, "scalar function record needs form"),
    ({"type": "acms", "gamma": 1.0, "a": [1.0], "rho": 0.5, "d": 1.0},
     ["eval", "--at", "1"], 1, "need at least two inputs"),
    (VERDICT_DOCS["cd"], ["eval", "--at", "1,1", "--pair", "1,2,3"], 1,
     "pair must be two comma-separated indices"),
    (VERDICT_DOCS["cd"], ["eval", "--at", "1,1", "--pair", "a,b"], 1,
     "could not parse pair"),
    (VERDICT_DOCS["cd"], ["eval", "--at", "1,1", "--box", "1:x"], 1,
     "could not parse box axis"),
    # x^400 underflows to a zero slope at x = 0.001.
    ({"type": "quasi_sum", "outer": _AFFINE, "inner": [_POWER_400, _LOG]},
     ["classify", "--box", "0.001:0.01,0.001:0.01"], 1,
     "inner component 0 is not strictly monotone"),
    # e^800 overflows at the top of the inner-sum range.
    ({"type": "quasi_sum", "outer": {"form": "exp", "coefficient": 1.0},
      "inner": [_AFFINE, _AFFINE]},
     ["classify", "--box", "1:400,1:400"], 2, "outer slope is not finite"),
    # x1^400 has a subnormal slope near x1 = 0.16, where A = 1/(x h') and
    # B = -(h''/h')/h' overflow although H = 1/(1 - 400) is representable.
    # A scale of A and B per pair (ROADMAP item 15) should make this
    # HomotheticACMS. One scale per row is wrong for n >= 3: a third axis
    # whose A passes 2^1074 would scale a normal pair to 0, so the pair's
    # scale is the smaller frexp exponent of its two h'.
    ({"type": "quasi_sum", "outer": _AFFINE, "inner": [_POWER_400] * 2},
     ["classify", "--box", "0.16:1,0.5:1", "--samples", "200"], 2,
     "elasticity identity overflows at a sample point"),
    # The benchmark's point-queries truth expects these three refusals, so
    # classifying ACMS with d/rho < 0 (ROADMAP item 4) must change the
    # benchmark first.
    ({"type": "acms", "gamma": 1.0, "a": [1.0, 2.0], "rho": -1.0, "d": 1.0},
     ["classify"], 1, "no increasing quasi-sum form exists when d/rho <= 0"),
    ({"type": "ratio",
      "outer": {"form": "power", "coefficient": 1.0, "exponent": 1.5}},
     ["classify"], 1,
     "ratio with power outer has no quasi-sum form in this family"),
    ({"type": "ratio", "outer": {"form": "exp", "coefficient": 1.0}},
     ["classify"], 1,
     "ratio with exp outer has no quasi-sum form in this family"),
    # x1^(1e-320) has a marginal product that underflows to 0 at x1 = 1e5.
    ({"type": "cobb_douglas", "gamma": 1.0, "alpha": [1e-320, 1.0]},
     ["elasticity", "--at", "1e5,1"], 2,
     "elasticity undefined where a marginal product vanishes"),
    ({"type": "quasi_sum", "outer": _AFFINE, "inner": 3},
     ["eval", "--at", "1,1"], 1,
     "inner must be an array of scalar function records"),
    ({"type": "ratio", "outer": {"form": "affine", "coefficient": -1.0}},
     ["eval", "--at", "1,1"], 1,
     "outer must be strictly increasing on the positive axis"),
    # log x1 + log x2 is negative at the default box's corner (0.5, 0.5).
    ({"type": "quasi_sum", "outer": _LOG, "inner": [_LOG, _LOG]},
     ["eval", "--at", "1,1"], 1, "outer undefined on the inner-sum range"),
    (VERDICT_DOCS["cd"], ["eval", "--at", "1,1", "--seed", "-1"], 1,
     "--seed must be at least 0"),
    (VERDICT_DOCS["cd"], ["verify", "--theorem", "4.1", "--seed", "-1"], 1,
     "--seed must be at least 0"),
    # -1/(x1 + x2 - 2.6) has a pole on the line x1 + x2 = 2.6 inside the
    # default box: the inner-sum range holds u = 0, where F is undefined.
    ({"type": "quasi_sum",
      "outer": {"form": "power", "coefficient": -1.0, "exponent": -1.0},
      "inner": [SHIFTED, SHIFTED]},
     ["classify"], 1, "outer undefined on the inner-sum range at u=0.0"),
    # u^3 over the same inners: F'(0) = 0 inside the range, not F' > 0.
    ({"type": "quasi_sum",
      "outer": {"form": "power", "coefficient": 1.0, "exponent": 3.0},
      "inner": [SHIFTED, SHIFTED]},
     ["classify"], 1, "outer must be strictly increasing"),
], ids=["one-inner", "scalar-not-object", "scalar-without-form",
        "one-input-acms", "three-index-pair", "text-pair", "text-box",
        "flat-inner", "overflowing-outer", "overflowing-identity",
        "acms-negative-d-over-rho", "ratio-power-outer", "ratio-exp-outer",
        "vanishing-marginal-product", "inner-not-an-array",
        "decreasing-ratio-outer", "outer-undefined-on-the-inner-sum",
        "eval-negative-seed", "verify-negative-seed", "pole-in-the-box",
        "outer-slope-vanishing-in-the-box"])
def test_malformed_requests_are_refused(tmp_path, capsys, doc, argv, status,
                                        message):
    path = write_doc(tmp_path, "refused.json", doc)
    assert main([*argv, "--fn", path]) == status
    out = capsys.readouterr()
    assert out.err == ""
    error = one_record(out.out)["error"]
    assert error["type"] == ("SpecError" if status == 1 else "DomainError")
    assert error["message"].startswith(message)


def test_a_linear_outer_is_accepted_over_an_inner_sum_through_zero(
        tmp_path, capsys):
    # u + 0.5 has F' = 1 at u = 0 too, where x1 + x2 = 2.6.
    path = write_doc(tmp_path, "linear.json", {
        "type": "quasi_sum", "inner": [SHIFTED, SHIFTED], "outer": {
            "form": "power", "coefficient": 1.0, "exponent": 1.0,
            "shift": 0.5}})
    assert main(["classify", "--fn", path]) == 0
    capsys.readouterr()
    assert main(["eval", "--fn", path, "--at", "1.5,1.3"]) == 0
    report = one_record(capsys.readouterr().out)["report"]
    assert report["gradient"] == [1.0, 1.0]
    assert report["hessian"] == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("command", ["eval", "curvature"])
def test_a_linear_outer_is_evaluated_where_the_inner_sum_is_zero(
        tmp_path, capsys, command):
    # u^1 at (1.3, 1.3), where x1 + x2 = 2.6 makes u = 0: a line there too.
    path = write_doc(tmp_path, "linear.json", {
        "type": "quasi_sum", "inner": [SHIFTED, SHIFTED], "outer": {
            "form": "power", "coefficient": 1.0, "exponent": 1.0}})
    status, record = _quiet_main([command, "--fn", path, "--at", "1.3,1.3"],
                                 capsys)
    assert status == 0, record
    report = record["report"]
    assert report["value"] == 0.0
    assert report["gradient"] == [1.0, 1.0]
    assert report["hessian"] == [[0.0, 0.0], [0.0, 0.0]]
    if command == "curvature":
        assert report["gauss_kronecker"] == 0.0


@pytest.mark.parametrize("argv, n", [
    (["scan", "--samples", "400000000"], 2),
    (["scan", "--samples", "1"], 30),  # 2^30 points: two per axis
    (["verify", "--theorem", "4.1", "--samples", "1000000"], 2),
    (["elasticity", "--box", "1:2,1:2", "--samples", "400000000"], 2),
    (["classify", "--samples", "1000000"], 2),
], ids=["scan", "scan-wide", "verify", "elasticity", "classify"])
def test_a_request_over_the_point_bound_is_refused_before_it_allocates(
        tmp_path, capsys, argv, n):
    doc = write_doc(tmp_path, "cd.json", {"type": "cobb_douglas",
                                          "gamma": 1.0, "alpha": [0.5] * n})
    tracemalloc.start()
    try:
        status = main([*argv, "--fn", doc])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = one_record(capsys.readouterr().out)
    assert status == 1 and record["error"]["type"] == "SpecError"
    assert f"at most {MAX_POINTS}" in record["error"]["message"]
    assert peak < 1 << 20  # nothing of the size of the points it refused


def test_a_memory_error_is_one_json_line(monkeypatch, capsys, cd_doc):
    from numpy._core._exceptions import _ArrayMemoryError

    def exhausted(*args, **kwargs):
        raise _ArrayMemoryError((10 ** 9, 2), np.dtype(np.float64))

    monkeypatch.setattr(np, "meshgrid", exhausted)
    assert main(["scan", "--samples", "16", "--fn", cd_doc]) == 1
    record = one_record(capsys.readouterr().out)
    assert record["error"]["type"] == "MemoryError"
    assert "Unable to allocate" in record["error"]["message"]


@pytest.mark.parametrize("theorem", ["4.1", "4.2"])
def test_the_euler_gap_is_finite_where_x_dot_grad_f_overflows(
        tmp_path, capsys, theorem):
    # f = 1e-312 x1 x2 x3 x4 is about 1e308 on the box, so x . grad f = 4 f
    # overflows; the quotient is 4, the gap from degree one 3.
    doc = write_doc(tmp_path, "cd.json", {"type": "cobb_douglas",
                                          "gamma": 1e-312,
                                          "alpha": [1, 1, 1, 1]})
    box = ",".join(["1e155:1.1e155"] * 4)
    assert main(["verify", "--theorem", theorem, "--box", box,
                 "--samples", "8", "--fn", doc]) == 0
    check = one_record(capsys.readouterr().out)["report"]["conclusion_check"]
    assert check["euler_degree_gap"] == 3


COMMANDS = "'eval', 'elasticity', 'curvature', 'classify', 'verify', 'scan'"


@pytest.mark.parametrize("entry, argv, message", [
    (main, [], "the following arguments are required: command, --fn"),
    (main, ["fit", "--fn", "{doc}"],
     f"argument command: invalid choice: 'fit' (choose from {COMMANDS})"),
    (main, ["eval", "--at", "4,9"],
     "the following arguments are required: --fn"),
    (main, ["verify", "--fn", "{doc}", "--theorem", "2.1"],
     "argument --theorem: invalid choice: '2.1' "
     "(choose from '1.1', '4.1', '4.2')"),
    (main, ["scan", "--fn", "{doc}", "--out", "xml"],
     "argument --out: invalid choice: 'xml' (choose from 'json', 'csv')"),
    (main, ["scan", "--fn", "{doc}", "--jobs", "0"],
     "--jobs must be at least 1"),
    # The same refusals from run(), the in-memory twin of main().
    (run, ["nope", "--fn", "{doc}"],
     f"argument command: invalid choice: 'nope' (choose from {COMMANDS})"),
    (run, ["verify", "--fn", "{doc}", "--theorem", "9.9"],
     "argument --theorem: invalid choice: '9.9' "
     "(choose from '1.1', '4.1', '4.2')"),
    (run, ["eval", "--fn", "{doc}", "--at", "4.0,9.0", "--theorem", "9.9"],
     "argument --theorem: invalid choice: '9.9' "
     "(choose from '1.1', '4.1', '4.2')"),
    (run, ["scan", "--fn", "{doc}", "--out", "xml"],
     "argument --out: invalid choice: 'xml' (choose from 'json', 'csv')"),
    (run, ["eval", "--fn", "{doc}", "--at", "4.0,9.0", "--seed", "-1"],
     "--seed must be at least 0"),
    (run, ["scan", "--fn", "{doc}", "--samples", "0"],
     "--samples must be at least 1"),
    (run, ["scan", "--fn", "{doc}", "--jobs", "0"],
     "--jobs must be at least 1"),
    (run, ["scan", "--fn", "{doc}", "--samples", "4.0"],
     "argument --samples: invalid int value: '4.0'"),
    # One row per form of message, and their order: a bad value or an
    # ambiguous option where its token is read, then what is missing, then
    # what is left over.
    (run, ["bogus", "--fn", "{doc}"],
     f"argument command: invalid choice: 'bogus' (choose from {COMMANDS})"),
    (run, ["scan", "--fn", "{doc}", "--samples", "a"],
     "argument --samples: invalid int value: 'a'"),
    (run, ["eval", "--fn", "{doc}", "--at"],
     "argument --at: expected one argument"),
    (run, ["eval", "--fn", "{doc}", "--at", "--box", "1:2,1:2"],
     "argument --at: expected one argument"),
    (run, ["eval", "--fn", "{doc}", "--at", "-1,1"],
     "point coordinates must be finite and positive"),
    (run, ["eval", "--fn", "{doc}", "--at", "4,9", "--bogus", "1"],
     "unrecognized arguments: --bogus 1"),
    (run, ["scan", "--fn", "{doc}", "--s", "3"],
     "ambiguous option: --s could match --samples, --seed"),
    (run, ["scan", "--samples", "a", "--bogus"],
     "argument --samples: invalid int value: 'a'"),
    (run, ["scan", "--bogus"], "the following arguments are required: --fn"),
    (run, ["--bogus", "scan", "--samples", "a", "--s", "3"],
     "argument --samples: invalid int value: 'a'"),
    (run, ["bogus", "--samples", "a"],
     f"argument command: invalid choice: 'bogus' (choose from {COMMANDS})"),
], ids=["no-command", "unknown-command", "missing-fn", "bad-theorem",
        "bad-out", "zero-jobs", "run-unknown-command", "run-bad-theorem",
        "run-eval-bad-theorem", "run-bad-out", "run-negative-seed",
        "run-zero-samples", "run-zero-jobs", "run-text-samples",
        "bogus-command", "text-samples", "at-at-the-end", "at-before-box",
        "at-negative-point", "unrecognized", "ambiguous-prefix",
        "bad-value-before-unrecognized", "missing-before-unrecognized",
        "ambiguous-first", "command-first"])
def test_usage_errors_are_one_spec_error_line(cd_doc, capsys, entry, argv,
                                              message):
    argv = [arg.format(doc=cd_doc) for arg in argv]
    if entry is run:
        status, text = run(argv)
        text += "\n"
    else:
        status = main(argv)
        out = capsys.readouterr()
        assert out.err == ""
        text = out.out
    assert status == 1
    error = one_record(text)["error"]
    assert (error["type"], error["message"]) == ("SpecError", message)


@pytest.mark.parametrize("argv, same", [
    (["--sam", "9", "--fn", "{doc}", "scan"],
     ["scan", "--fn", "{doc}", "--samples", "9"]),
    (["scan", "--f={doc}", "--samples=9", "--se=2"],
     ["scan", "--fn", "{doc}", "--samples", "9", "--seed", "2"]),
    (["eval", "--fn", "{doc}", "--at", "1,1", "--out", "csv", "--at=4,9",
      "--out", "json"], ["eval", "--fn", "{doc}", "--at", "4,9"]),
    (["eval", "--fn", "{doc}", "--at", "4,9", "--seed", "-1", "--seed", "3"],
     ["eval", "--fn", "{doc}", "--at", "4,9", "--seed", "3"]),
    (["eval", "--fn", "{doc}", "--at", "4,9", "--"],
     ["eval", "--fn", "{doc}", "--at", "4,9"]),
], ids=["prefix", "equals", "last-wins", "negative-then-valid",
        "trailing-double-dash"])
def test_the_command_line_grammar_of_argparse(cd_doc, argv, same):
    argv, same = ([arg.format(doc=cd_doc) for arg in line]
                  for line in (argv, same))
    status, text = run(argv)
    assert status == 0
    assert (status, text) == run(same)


def test_the_token_after_an_option_is_its_value(tmp_path, monkeypatch):
    # Unless it starts with "--": a value may start with "-".
    write_doc(tmp_path, "-doc.json",
              {"type": "cobb_douglas", "gamma": 1.0, "alpha": [0.5, 0.5]})
    monkeypatch.chdir(tmp_path)
    status, text = run(["eval", "--fn", "-doc.json", "--at", "4,9"])
    assert status == 0
    assert (status, text) == run(["eval", "--fn=-doc.json", "--at", "4,9"])


@pytest.mark.parametrize("flag", ["--version", "--vers", "-h", "--help",
                                  "--he", "-hh"])
def test_help_and_version_print_and_exit_zero(cd_doc, capsys, flag):
    # Reached before the refusal of the bad value after them.
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--fn", cd_doc, flag, "--samples", "a"])
    assert exit_info.value.code == 0
    out = capsys.readouterr()
    assert out.err == ""
    if "v" in flag:
        assert out.out == f"prodgeo {cli.__version__}\n"
        return
    for name in ("eval", "elasticity", "curvature", "classify", "verify",
                 "scan", "--fn", "--at", "--box", "--samples", "--pair",
                 "--theorem", "--out", "--seed", "--jobs", "--version",
                 "-h"):
        assert name in out.out


def test_options_may_come_before_the_command(cd_doc, capsys):
    assert main(["eval", "--fn", cd_doc, "--at", "4,9"]) == 0
    after = capsys.readouterr().out
    assert main(["--fn", cd_doc, "--at", "4,9", "eval"]) == 0
    assert capsys.readouterr().out == after


def test_main_parses_and_validates(cd_doc, capsys):
    assert main(["eval", "--fn", cd_doc, "--at", "4,9"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["report"]["value"] == pytest.approx(6.0)

    assert main(["eval", "--fn", cd_doc, "--at", "4,9",
                 "--samples", "0"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "SpecError"

    assert main(["eval", "--fn", cd_doc, "--at", "oops"]) == 1
    capsys.readouterr()

    # --jobs has no effect on the work, but is still validated.
    assert main(["scan", "--fn", cd_doc, "--jobs", "0"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert "--jobs" in payload["error"]["message"]

    assert main(["scan", "--fn", cd_doc, "--pair", "0,1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert "1-based" in payload["error"]["message"]

    assert main(["eval", "--fn", cd_doc, "--at", "4,9",
                 "--box", "0.5-2"]) == 1
    capsys.readouterr()


def test_box_flag_reaches_the_envelope(acms_doc, capsys):
    assert main(["elasticity", "--fn", acms_doc, "--box", "1:4,1:4",
                 "--samples", "8"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["box"] == [[1.0, 4.0], [1.0, 4.0]]
    assert env["report"]["box"] == [[1.0, 4.0], [1.0, 4.0]]


def test_the_package_version_is_the_module_version():
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is "beta"
        project = pyproject.read_configuration(path)["project"]
    assert project["version"] == cli.__version__


# -- streamed reports ------------------------------------------------------------

STREAMED = [(["scan", "--out", out], rows) for out in ("json", "csv")
            for rows in (0, 1, 16, 49)] + [
    (["verify", "--theorem", "4.1", "--samples", "40", "--out", out], 41)
    for out in ("json", "csv")]
STREAM_IDS = [f"{argv[0]}-{argv[-1]}-{rows}-rows" for argv, rows in STREAMED]


def _streamed(monkeypatch, doc, argv, rows):
    """The full argv, in 16-row blocks, scan taking the first ``rows``
    points of an 8 x 8 x 8 grid: no rows, one row, one block, four blocks."""
    grid = log_grid(default_box(3), 512)[:rows]
    monkeypatch.setattr(writer, "_BLOCK_ROWS", 16)
    monkeypatch.setattr(sampling, "log_grid", lambda *args: grid)
    return [*argv, "--fn", doc]


@pytest.mark.parametrize("argv, rows", STREAMED, ids=STREAM_IDS)
def test_main_writes_the_text_run_returns(monkeypatch, capsysbinary, cd3_doc,
                                          argv, rows):
    argv = _streamed(monkeypatch, cd3_doc, argv, rows)
    status, text = run(argv)
    assert status == 0
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == (text + "\n").encode()
    if "json" in argv:
        report = json.loads(text)["report"]
        assert len(report.get("rows", report.get("per_point_data"))) == rows


@pytest.mark.parametrize("argv, rows", STREAMED, ids=STREAM_IDS)
def test_each_block_is_written_before_the_next_is_rendered(
        monkeypatch, cd3_doc, argv, rows):
    yielded, writes, table_blocks = [], [], writer._table_blocks

    def counted(*args):
        for block in table_blocks(*args):
            yielded.append(block)
            yield block

    class Spy(io.StringIO):
        def write(self, text):
            writes.append((text, len(yielded)))
            return super().write(text)

    monkeypatch.setattr(writer, "_table_blocks", counted)
    monkeypatch.setattr(sys, "stdout", Spy())
    assert main(_streamed(monkeypatch, cd3_doc, argv, rows)) == 0
    assert len(yielded) == -(-rows // 16)
    for k, block in enumerate(yielded):  # written once, as block k + 1 waits
        assert [count for text, count in writes if text is block] == [k + 1]
    assert sys.stdout.getvalue().endswith("\n")


def _python(*args, stdout=subprocess.DEVNULL):
    """``python ARGS`` in a child process that imports this checkout's
    prodgeo, with stderr piped."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, *args], env=env, stdout=stdout,
                            stderr=subprocess.PIPE)


def _child(*args, stdout=subprocess.DEVNULL):
    """``prodgeo ARGS`` in a child process that writes its peak resident
    memory to stderr after its report, in KiB: VmHWM, as ``ru_maxrss``
    would also count the peak of the process it was forked from."""
    code = ("import sys\nfrom prodgeo.cli import main\n"
            "status = main(sys.argv[1:])\nwith open('/proc/self/status') as f:\n"
            "    sys.stderr.write([line.split()[1] for line in f\n"
            "                      if line.startswith('VmHWM:')][0])\n"
            "sys.exit(status)")
    return _python("-c", code, *args, stdout=stdout)


# The two ways to start the command: ``python -m prodgeo``, and the
# installed ``prodgeo`` script, which calls ``prodgeo.__main__.main``.
_ENTRY_POINTS = {
    "module": ("-m", "prodgeo"),
    "script": ("-c", "from prodgeo.__main__ import main; main()"),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("argv, status", [
    (["eval", "--at", "1,2"], 0),
    (["eval", "--at", "1"], 1),
    (["elasticity", "--at", "1e5,1"], 2),
], ids=["success", "bad-request", "math-refusal"])
def test_each_entry_point_writes_what_run_returns(tmp_path, entry, argv,
                                                  status):
    # x1^(1e-320) has a marginal product that underflows to 0 at x1 = 1e5.
    doc = write_doc(tmp_path, "cd.json", {"type": "cobb_douglas", "gamma": 1.0,
                                          "alpha": [1e-320, 1.0]})
    argv = [*argv, "--fn", doc]
    expected = run(argv)
    assert expected[0] == status
    out, err = _python(*_ENTRY_POINTS[entry], *argv,
                       stdout=subprocess.PIPE).communicate(timeout=120)
    assert err == b""
    assert out == (expected[1] + "\n").encode()


def test_a_large_scan_arrives_whole_through_a_pipe(cd_doc):
    argv = ["scan", "--fn", cd_doc, "--samples", "200000", "--out", "csv"]
    child = _python(*_ENTRY_POINTS["module"], *argv, stdout=subprocess.PIPE)
    out, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (0, b"")
    status, text = run(argv)
    assert status == 0
    assert out == (text + "\n").encode()


def test_a_request_leaves_no_shutdown_work(cd_doc):
    # The command freezes the heap before the interpreter exits, so the
    # collections at shutdown skip every object.  That is safe while a
    # request registers no atexit callback and starts no thread; if a
    # change adds either, this test fails before the freeze can hide it.
    code = ("import atexit, sys, threading\nimport numpy\n"
            "before = atexit._ncallbacks()\n"
            "from prodgeo.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "sys.stderr.write(f'{status} {atexit._ncallbacks() - before} '\n"
            "                 f'{threading.active_count()}')")
    child = _python("-c", code, "scan", "--fn", cd_doc, "--samples", "100")
    _, err = child.communicate(timeout=120)
    assert err.decode().split() == ["0", "0", "1"], err.decode()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="peak memory is read from /proc/self/status")
def test_a_large_scan_streams_in_bounded_memory(cd_doc):
    # 250,000 rows are about 29 MB of text in CSV and 32 MB in JSON.  With
    # the whole text built (and copied once more on writing) a child
    # peaked at 103-115 MB in CSV and 149 MB in JSON; written block by
    # block, at about 58 MB in both.
    children = [_child("scan", "--fn", cd_doc, "--samples", "250000",
                       "--out", out) for out in ("csv", "json")]
    for child in children:
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err.decode()
        assert int(err) < 85 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="peak memory is read from /proc/self/status")
def test_a_failing_scan_names_its_stage_in_block_sized_memory(tmp_path):
    # x^150 per axis: the kernel's values are finite on the whole box, but
    # the surface quantities overflow near its top corner.  Naming that
    # stage with one whole-grid pass peaked at about 110 MB against 53 MB
    # for the passing scan of as many points.
    box = ["--box", ",".join(["1:2.15"] * 4), "--samples", "160000"]
    peaks = []
    for alpha in (150.0, 0.25):
        doc = write_doc(tmp_path, f"cd{alpha}.json", {
            "type": "cobb_douglas", "gamma": 1.0, "alpha": [alpha] * 4})
        child = _child("scan", "--fn", doc, *box, stdout=subprocess.PIPE)
        out, err = child.communicate(timeout=120)
        assert child.returncode == (2 if alpha > 1 else 0), err.decode()
        assert (b"surface quantity is not finite" in out) == (alpha > 1)
        peaks.append(int(err))
    assert peaks[0] < peaks[1] + 10 * 1024, peaks


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="the child reads /proc/self/status")
@pytest.mark.parametrize("target",
                         ["closed-pipe", "full-disk", "module-closed-pipe"])
def test_a_failed_write_is_one_line_on_stderr(cd_doc, target):
    if target == "full-disk":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            child = _child("eval", "--fn", cd_doc, "--at", "1,2",
                           stdout=full)
    else:  # the reader goes away after 100 bytes of a 1.7 MB report
        argv = ("scan", "--fn", cd_doc, "--samples", "20000", "--out", "csv")
        if target == "module-closed-pipe":
            child = _python(*_ENTRY_POINTS["module"], *argv,
                            stdout=subprocess.PIPE)
        else:
            child = _child(*argv, stdout=subprocess.PIPE)
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=120) == 1
    message, _, peak = err.partition("\n")
    assert message.startswith("prodgeo: cannot write the report: [Errno ")
    # No traceback and no "Exception ignored"; the main child goes on to
    # write its peak, the module child writes nothing more.
    if target == "module-closed-pipe":
        assert peak == "", err
    else:
        assert peak.isdigit(), err


# -- what a process loads ----------------------------------------------------------

# The package modules that only some commands call.
COMMAND_MODULES = {"prodgeo.autodiff", "prodgeo.classify", "prodgeo.elasticity",
                   "prodgeo.geometry", "prodgeo.sampling", "prodgeo.writer"}


def test_each_export_resolves_to_its_home_modules_binding():
    names = [name for name in prodgeo.__all__ if name != "__version__"]
    assert sorted(prodgeo._HOMES) == sorted(names)
    for name in names:
        home = importlib.import_module(f"prodgeo.{prodgeo._HOMES[name]}")
        assert prodgeo.__getattr__(name) is getattr(home, name), name
        assert getattr(prodgeo, name) is getattr(home, name), name
    assert set(prodgeo.__all__) <= set(dir(prodgeo))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(prodgeo, "no_such_name")


def test_importing_the_package_loads_neither_numpy_nor_a_module():
    child = _python("-c", "import sys, prodgeo\nprint(*sys.modules)",
                    stdout=subprocess.PIPE)
    out, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (0, b"")
    loaded = out.decode().split()
    assert "prodgeo" in loaded
    assert [name for name in loaded
            if name == "numpy" or name.startswith("prodgeo.")] == []


def _loaded(*args) -> set:
    """The modules ``python -X importtime ARGS`` imports."""
    child = _python("-X", "importtime", *args)
    _, err = child.communicate(timeout=120)
    assert child.returncode == 0, err.decode()
    return {line.rpartition("|")[2].strip()
            for line in err.decode().splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, called", [
    (["eval", "--at", "1,2"], set()),
    (["curvature", "--at", "1,2"], {"prodgeo.geometry"}),
    (["scan", "--samples", "16", "--out", "csv"],
     {"prodgeo.elasticity", "prodgeo.geometry", "prodgeo.sampling",
      "prodgeo.writer"}),
], ids=["eval", "curvature", "scan-csv"])
def test_a_command_loads_only_the_modules_it_calls(cd_doc, argv, called):
    loaded = _loaded("-m", "prodgeo", *argv, "--fn", cd_doc)
    assert {"prodgeo", "prodgeo.cli", "prodgeo.errors", "prodgeo.families",
            "prodgeo.tolerances"} <= loaded
    assert loaded & COMMAND_MODULES == called
    # Nor what a record class or the digest would cost a cold start to load,
    # unless numpy or json loads it anyway.
    assert loaded & {"dataclasses", "_hashlib"} \
        <= _loaded("-c", "import numpy, json")


@pytest.mark.parametrize("start, enabled", [
    ("from prodgeo.cli import main\nmain(sys.argv[1:])", "True True"),
    (_ENTRY_POINTS["script"][1], "False False"),
    ("import runpy\nrunpy.run_module('prodgeo', run_name='__main__')",
     "False False"),
], ids=["cli-main", "script", "module"])
def test_only_the_command_line_turns_the_collector_off(cd_doc, start,
                                                       enabled):
    # The collector's state when numpy is first imported, and at the end.
    code = ("import gc, sys\nclass Spy:\n"
            "    def find_spec(self, name, *args):\n"
            "        if name == 'numpy':\n"
            "            sys.stderr.write(f'{gc.isenabled()} ')\n"
            "sys.meta_path.insert(0, Spy())\ntry:\n"
            + "".join(f"    {line}\n" for line in start.split("\n"))
            + "finally:\n    sys.stderr.write(str(gc.isenabled()))")
    child = _python("-c", code, "eval", "--fn", cd_doc, "--at", "1,2")
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err.decode()) == (0, enabled)


# -- the per-process expression cache ----------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """The documents ``cli`` builds, from an empty expression cache."""
    cli._expr.cache_clear()
    built = []

    def counting(doc, box=None):
        built.append(doc)
        return expr_from_dict(doc, box=box)

    monkeypatch.setattr(cli, "expr_from_dict", counting)
    return built


def test_a_second_request_on_the_same_bytes_builds_nothing(tmp_path, builds):
    doc = write_doc(tmp_path, "cd.json", BASES[0])
    twin = write_doc(tmp_path, "twin.json", BASES[0])  # same bytes, new path
    first = run(["eval", "--fn", doc, "--at", "1,2"])
    assert run(["curvature", "--fn", twin, "--at", "1,2"])[0] == 0
    assert run(["eval", "--fn", doc, "--at", "1,2"]) == first
    assert builds == [BASES[0]]
    assert cli._expr.cache_info().hits == 2


def test_a_document_rewritten_in_place_is_built_again(tmp_path, builds):
    argv = ["eval", "--fn", write_doc(tmp_path, "f.json", BASES[0]),
            "--at", "1,4"]
    before = run_json(argv)[1]
    write_doc(tmp_path, "f.json", {**BASES[0], "gamma": 2.0})
    after = run_json(argv)[1]
    assert after["digest"] != before["digest"]
    assert after["report"]["value"] == 2 * before["report"]["value"] == 4.0
    assert len(builds) == 2


def test_a_cached_quasi_sum_is_validated_again_on_another_box(tmp_path,
                                                              builds):
    # log(h1 + h2) with h = log x + 1: the inner sum is positive on the
    # default box, and reaches -7.2 on 0.01:2.
    inner = {"form": "log", "coefficient": 1.0, "shift": 1.0}
    doc = write_doc(tmp_path, "qs.json", {
        "type": "quasi_sum", "outer": {"form": "log", "coefficient": 1.0},
        "inner": [inner, inner]})
    argv = ["classify", "--fn", doc, "--samples", "16"]
    assert run(argv)[0] == 0
    assert run(argv)[0] == 0
    status, record = run_json([*argv, "--box", "0.01:2,0.01:2"])
    assert status == 1
    assert record["error"]["type"] == "SpecError"
    assert record["error"]["message"].startswith(
        "outer undefined on the inner-sum range")
    assert len(builds) == 2


@pytest.mark.parametrize("text", [
    json.dumps({"type": "cobb_douglas", "gamma": 1.0, "alpha": [0.0, 1.0]}),
    json.dumps({"type": "quasi_sum", "inner": [SHIFTED] * 2, "outer": {
        "form": "power", "coefficient": -1.0, "exponent": -1.0}}),
    '{"type": "cobb_douglas",',
], ids=["refused", "pole-on-the-box", "malformed"])
def test_a_refused_document_is_refused_again_the_same_way(tmp_path, builds,
                                                          text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = ["eval", "--fn", str(path), "--at", "1,2"]
    first = run(argv)
    assert first[0] != 0
    assert run(argv) == first
    assert len(builds) == (0 if text.endswith(",") else 2)
    assert cli._expr.cache_info().currsize == 0


@pytest.mark.parametrize("doc", BASES, ids=[doc["type"] for doc in BASES])
def test_the_commands_leave_a_cached_expression_unchanged(tmp_path, builds,
                                                          doc):
    path = write_doc(tmp_path, "f.json", doc)
    expr = cli._expr(pathlib.Path(path).read_bytes(), None)
    params = copy.deepcopy(expr.params)
    for argv in (["eval", "--at", "1,2"], ["elasticity", "--at", "1,2"],
                 ["elasticity", "--pair", "2,1"], ["curvature", "--at", "1,2"],
                 ["classify", "--samples", "16"],
                 *[["verify", "--theorem", theorem, "--samples", "16"]
                   for theorem in ("1.1", "4.1", "4.2")],
                 ["scan", "--samples", "16"]):
        run([*argv, "--fn", path])
    assert builds == [doc]
    assert expr.params == params
    assert (expr.family, expr.n) == (doc["type"], 2)


def test_requests_in_another_order_answer_the_same_bytes(tmp_path, builds):
    paths = [write_doc(tmp_path, f"{k}.json", doc)
             for k, doc in enumerate(BASES)]
    (tmp_path / "bad.json").write_text('{"type": ')
    requests = [[*argv, "--fn", path] for path in paths for argv in (
        ["eval", "--at", "1,2"], ["elasticity", "--at", "2,1", "--out", "csv"],
        ["curvature", "--at", "1.5,0.7"],
        ["classify", "--samples", "16", "--box", "0.01:2,0.01:2"],
        ["verify", "--theorem", "4.1", "--samples", "16"],
        ["elasticity", "--samples", "16"],
        ["scan", "--samples", "16", "--out", "csv"])]
    requests += [["eval", "--fn", paths[0], "--at", "1"],
                 ["eval", "--fn", str(tmp_path / "bad.json"), "--at", "1,2"]]
    answers = [run(argv) for argv in requests]
    assert {status for status, _ in answers} == {0, 1, 2}
    order = list(range(len(requests)))
    random.Random(28).shuffle(order)
    again = {k: run(requests[k]) for k in order}
    assert [again[k] for k in range(len(requests))] == answers
    # Each document once per box, but the quasi-sum that 0.01:2 refuses is
    # built on both passes.
    assert len(builds) == 2 * len(BASES) + 1
    assert cli._expr.cache_info().currsize == 2 * len(BASES) - 1
