"""Command-line interface: reports, envelopes, rendering, exit codes."""

import argparse
import dataclasses
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from prodgeo import cli, tolerances
from prodgeo.cli import (
    _BLOCK_ROWS, RunConfig, _flatten, _leaf, _render, _table_blocks, _to_json,
    build_parser, main, run,
)
from prodgeo.elasticity import PointRecords
import gates


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


def run_json(config):
    status, text = run(config)
    return status, json.loads(text)


def one_record(text):
    """The single JSON line a command writes to stdout."""
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)


# -- reports ---------------------------------------------------------------------


def test_eval_reports_the_jet(cd_doc):
    status, env = run_json(RunConfig("eval", cd_doc, at=(4.0, 9.0)))
    assert status == 0
    assert env["report"]["value"] == pytest.approx(6.0)
    assert len(env["report"]["gradient"]) == 2
    assert len(env["report"]["hessian"]) == 2
    assert env["tool"] == "prodgeo"
    assert env["command"] == "eval"
    assert env["digest"].startswith("sha256:")
    assert env["at"] == [4.0, 9.0]
    assert set(env["tolerances"]) == set(tolerances.as_dict())


def test_reports_carry_only_tolerances_the_library_reads():
    source = "".join(
        path.read_text()
        for path in pathlib.Path(tolerances.__file__).parent.glob("*.py")
        if path.name != "tolerances.py")
    unread = [name for name in tolerances.as_dict()
              if f"tolerances.{name}" not in source]
    assert unread == []
    library = {name for name in vars(tolerances) if name.isupper()}
    assert library.isdisjoint(name for name in vars(gates) if name.isupper())


def test_curvature_vanishes_on_the_root_product(cd_doc):
    status, env = run_json(RunConfig("curvature", cd_doc, at=(2.0, 8.0)))
    assert status == 0
    assert abs(env["report"]["gauss_kronecker"]) <= 1e-12
    assert env["report"]["value"] == pytest.approx(4.0)


def test_elasticity_point_mode(acms_doc):
    status, env = run_json(RunConfig("elasticity", acms_doc, at=(1.0, 1.0)))
    assert status == 0
    report = env["report"]
    assert report["mode"] == "point"
    assert set(report["pairs"]) == {"1,2"}
    assert report["pairs"]["1,2"]["kind"] == "finite"
    assert report["pairs"]["1,2"]["value"] == pytest.approx(2.0, rel=1e-12)


def test_elasticity_box_mode(acms_doc):
    status, env = run_json(RunConfig("elasticity", acms_doc, samples=16))
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
    status, env = run_json(RunConfig("classify", doc, samples=32))
    assert status == 0
    assert env["report"]["case"] == "HomotheticACMS"
    assert env["report"]["sigma"] == pytest.approx(2.0, rel=1e-9)


def test_classify_serializes_infinite_residuals(mixed_doc):
    status, env = run_json(RunConfig("classify", mixed_doc, samples=16))
    assert status == 0
    assert env["report"]["case"] == "NotCES"
    assert env["report"]["residuals"]["ces"] == "inf"


def test_verify_flatness_failure_is_still_exit_zero(cd3_doc):
    config = RunConfig("verify", cd3_doc, theorem="4.2", samples=16)
    status, env = run_json(config)
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
    reports = {theorem: run_json(RunConfig("verify", doc, box=box,
                                           theorem=theorem))[1]["report"]
               for theorem in ("4.1", "4.2")}
    for report in reports.values():
        assert (report["verdict"], report["hypothesis_holds"]) == \
            ("Consistent", False)
    assert reports["4.2"]["hypothesis_check"]["max_minor_cancellation"] == \
        reports["4.1"]["hypothesis_check"]["max_det_cancellation"] == \
        0.25000000000000017


def test_verify_consistent_curvature(acms_doc):
    status, env = run_json(RunConfig("verify", acms_doc, theorem="4.1",
                                     samples=16))
    assert status == 0
    assert env["report"]["verdict"] == "Consistent"


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
    status, text = run(RunConfig("eval", path, at=(1.0, 1.0)))
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
    status, env = run_json(RunConfig("elasticity", doc, at=(1.5, 0.7)))
    assert status == 0
    pair = env["report"]["pairs"]["1,2"]
    assert pair["kind"] == "finite"
    assert pair["value"] == pytest.approx(1.0, abs=1e-15)
    status, env = run_json(RunConfig("classify", doc))
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
    box = ((1.0 / bound, bound),) * 2
    status, env = run_json(RunConfig("elasticity", doc, box=box))
    assert status == 0
    report = env["report"]
    assert (report["verdict"], report["infinite_pairs"],
            report["degenerate_pairs"]) == ("RegularCES", 0, 0)
    assert report["sigma_estimate"] == pytest.approx(1.0, abs=1e-12)
    status, env = run_json(RunConfig("classify", doc, box=box))
    assert status == 0
    assert env["report"]["case"] == "HomotheticCobbDouglas"
    status, env = run_json(RunConfig("verify", doc, box=box, theorem="1.1"))
    assert status == 0
    assert env["report"]["verdict"] == "Consistent"


@pytest.mark.parametrize("theorem", ["4.1", "4.2"])
def test_curvature_verdicts_hold_where_hessian_entries_pass_1e154(tmp_path,
                                                                   theorem):
    # On this box max |H_ij| reaches about 1e181, so sum H_ij^2 overflows
    # although |Hess| and every reported quantity are representable.
    doc = write_doc(tmp_path, "cd.json", {"type": "cobb_douglas",
                                          "gamma": 1.0, "alpha": [0.5, 0.5]})
    box = ((1e-100, 1e100),) * 2
    status, text = run(RunConfig("verify", doc, box=box, theorem=theorem))
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


def test_an_outer_function_residual_that_is_not_finite_is_a_domain_error(
        tmp_path, capsys):
    # The product-form argument u = prod x_i^alpha_i overflows on this box.
    path = write_doc(tmp_path, "cd.json", {
        "type": "cobb_douglas", "gamma": 7.42606535597874e-188,
        "alpha": [0.593597127956165, 2.408634065595021]})
    status, record = _quiet_main(["verify", "--theorem", "4.1", "--fn", path,
                                  "--samples", "32",
                                  "--box=1e-75:1e12,1e79:1e127"], capsys)
    assert status == 2
    assert record["error"]["type"] == "DomainError"
    assert record["error"]["message"].startswith("outer-function residual")


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
    status, payload = run_json(RunConfig("verify", acms_doc))
    assert status == 1
    assert payload["error"]["type"] == "SpecError"


def test_verify_refuses_a_varying_elasticity(mixed_doc):
    for out in ("json", "csv"):
        status, text = run(RunConfig("verify", mixed_doc, theorem="4.1",
                                     samples=16, out=out))
        assert status == 2
        payload = json.loads(text)  # errors are JSON whatever --out says
        assert payload["error"]["type"] == "HypothesisError"


# -- CSV rendering -----------------------------------------------------------------


def test_scan_csv_layout(acms_doc):
    status, text = run(RunConfig("scan", acms_doc, samples=9, out="csv"))
    assert status == 0
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert any(ln.startswith("# digest: ") for ln in comments)
    assert any(ln.startswith("# tolerance FD_DEFAULT_STEP: ")
               for ln in comments)
    assert body[0] == "x1,x2,f,W,G,flatness_residual,H12"
    assert len(body) == 1 + 9  # 3 points per axis on two axes
    first = body[1].split(",")
    assert len(first) == 7
    assert float(first[0]) == pytest.approx(0.5)
    assert float(first[6]) == pytest.approx(2.0, rel=1e-9)


def test_scan_pair_override(cd3_doc):
    status, text = run(RunConfig("scan", cd3_doc, samples=8, out="csv",
                                 pair=(0, 2)))
    assert status == 0
    header = next(ln for ln in text.splitlines() if not ln.startswith("#"))
    assert header.endswith(",H13")
    status, env = run_json(RunConfig("scan", cd3_doc, samples=8,
                                     pair=(0, 2)))
    assert env["pair"] == [1, 3]
    assert env["report"]["points_per_axis"] == 2


def test_scan_output_is_independent_of_parallelism(acms_doc):
    serial = run(RunConfig("scan", acms_doc, samples=25, out="csv"))
    again = run(RunConfig("scan", acms_doc, samples=25, out="csv"))
    parallel = run(RunConfig("scan", acms_doc, samples=25, out="csv",
                             jobs=4))
    assert serial == again == parallel


def test_csv_key_value_mode(cd_doc):
    status, text = run(RunConfig("curvature", cd_doc, at=(2.0, 8.0),
                                 out="csv"))
    assert status == 0
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "key,value"
    cells = dict(ln.split(",", 1) for ln in lines[1:])
    assert float(cells["value"]) == pytest.approx(4.0)
    assert "hessian[0][0]" in cells


def test_verify_csv_flattens_every_per_point_record(acms_doc):
    config = RunConfig("verify", acms_doc, theorem="4.1", samples=16)
    status, env = run_json(config)
    assert status == 0
    status, text = run(dataclasses.replace(config, out="csv"))
    assert status == 0
    want = []
    _flatten(env["report"]["per_point_data"], "per_point_data", want)
    got = [ln for ln in text.splitlines() if ln.startswith("per_point_data")]
    assert len(got) == 17 * 5 and got == want


# -- per-point tables ------------------------------------------------------------------

FINITE_EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308]
NON_FINITE = [math.inf, -math.inf, math.nan]


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
    assert _to_json(records) == _to_json(dicts)
    if shape == "verify":  # verify --out csv flattens its records
        got, want = [], []
        _flatten({"rows": records}, "", got)
        _flatten({"rows": dicts}, "", want)
        assert got == want
    else:
        columns = [f"c{k}" for k in range(7)]
        env = {"tolerances": {}, "report": {"columns": columns,
                                            "rows": records}}
        csv = _render(RunConfig("scan", "fn.json", out="csv"), env)
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
    assert _to_json(records) == _to_json(dicts)
    if shape == "verify":
        got, want = [], []
        _flatten({"per_point_data": records}, "", got)
        _flatten({"per_point_data": dicts}, "", want)
        assert got == want
    else:
        columns = [f"c{k}" for k in range(7)]
        env = {"tolerances": {}, "report": {"columns": columns,
                                            "rows": records}}
        csv = _render(RunConfig("scan", "fn.json", out="csv"), env)
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


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_table_kernel_matches_format_on_any_doubles(values):
    assert _kernel_texts(values) == [format(v, ".17g") for v in values]


# -- failure modes -------------------------------------------------------------------


def test_error_exit_codes(tmp_path, cd_doc):
    missing = str(tmp_path / "nope.json")
    assert run(RunConfig("eval", missing, at=(1.0, 1.0)))[0] == 1

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(RunConfig("eval", str(garbled), at=(1.0, 1.0)))[0] == 1

    extra = write_doc(tmp_path, "extra.json",
                      {"type": "cobb_douglas", "gamma": 1.0,
                       "alpha": [0.5, 0.5], "note": "hi"})
    assert run(RunConfig("eval", extra, at=(1.0, 1.0)))[0] == 1

    assert run(RunConfig("eval", cd_doc, at=(1.0, 1.0, 1.0)))[0] == 1
    assert run(RunConfig("eval", cd_doc, at=(1.0, -1.0)))[0] == 1
    assert run(RunConfig("eval", cd_doc))[0] == 1


def test_one_parser_without_subparsers_is_built_once():
    parser = build_parser()
    assert build_parser() is parser
    assert not any(isinstance(action, argparse._SubParsersAction)
                   for action in parser._actions)


@pytest.mark.parametrize("argv", [
    [],
    ["fit", "--fn", "{doc}"],
    ["eval", "--at", "4,9"],
    ["verify", "--fn", "{doc}", "--theorem", "2.1"],
    ["scan", "--fn", "{doc}", "--out", "xml"],
    ["scan", "--fn", "{doc}", "--jobs", "0"],
], ids=["no-command", "unknown-command", "missing-fn", "bad-theorem",
        "bad-out", "zero-jobs"])
def test_usage_errors_are_one_spec_error_line(cd_doc, capsys, argv):
    assert main([arg.format(doc=cd_doc) for arg in argv]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert one_record(out.out)["error"]["type"] == "SpecError"


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
