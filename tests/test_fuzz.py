"""Document fuzzing: whatever the document and the --box bounds, the command
line keeps its exit contract (0, 1 or 2), writes nothing to stderr, raises
no Python warning, writes an error or a JSON report as exactly one JSON
line, and puts inf or nan only in the report fields documented as possibly
non-finite.  A CSV report (scan and verify may draw ``--out csv``) has the
same non-finite fields, and every scan data line has the header's cell
count.  Any token list, whatever its command, flags and values, gets status
0, 1 or 2 from ``run`` and a refusal as one JSON line.  A quasi-sum
document is accepted exactly when jet arithmetic finds no fault on dense
grids of its box and inner-sum range."""

import contextlib
import copy
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from prodgeo import DomainError, ScalarFn, SpecError, expr_from_dict
from prodgeo.cli import main, run
from prodgeo.families import validate_box
from prodgeo.sampling import MAX_POINTS
from conftest import scalar_fn_jet, shift_free
from jets import Jet

BASES = (
    {"type": "cobb_douglas", "gamma": 1.0, "alpha": [0.5, 0.5]},
    {"type": "acms", "gamma": 1.0, "a": [1.0, 2.0], "rho": 0.5, "d": 1.0},
    {"type": "quasi_sum",
     "outer": {"form": "power", "coefficient": 1.0, "exponent": 2.0},
     "inner": [{"form": "power", "coefficient": 2.0, "exponent": 0.5},
               {"form": "log", "coefficient": 1.0, "shift": 0.5}]},
    {"type": "ratio", "outer": {"form": "log", "coefficient": 1.0}},
)

NUMBERS = st.one_of(
    st.floats(),  # nan, inf, subnormals and the extremes included
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e300, 1e308,
                     -1e308, 800.0, -800.0]))
LEAVES = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=6),
                   st.sampled_from(["power", "log", "exp", "affine", "acms",
                                    "ratio", "quasi_sum", "cobb_douglas"]))
VALUES = st.recursive(
    LEAVES, lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(max_size=6), kids, max_size=3)),
    max_leaves=8)
KEYS = st.sampled_from(["type", "gamma", "alpha", "a", "rho", "d", "outer",
                        "inner", "form", "coefficient", "exponent", "shift",
                        "note"])


def _slots(value):
    """Every (container, key) of a document, and (container, None) for each
    container itself."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    yield value, None
    for key, item in items:
        yield value, key
        yield from _slots(item)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def documents(draw):
    """A valid document after up to three mutations; mostly a number made
    extreme, sometimes a value of the wrong type, a missing or extra key, or
    a value nested in lists.  One in ten is cut short, and one in ten is
    nested in up to 100,000 lists."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(0, 3))):
        slots = list(_slots(doc))
        op = draw(st.sampled_from(["number"] * 4 + ["replace", "delete",
                                                    "add", "nest"]))
        numbers = [(holder, key) for holder, key in slots
                   if key is not None and _is_number(holder[key])]
        if op == "number" and numbers:
            slots = numbers
        holder, key = draw(st.sampled_from(slots))
        if key is None or op == "add":
            if isinstance(holder, dict):
                holder[draw(KEYS)] = draw(VALUES)
            else:
                holder.append(draw(VALUES))
        elif op == "delete":
            del holder[key]
        elif op == "nest":
            for _ in range(draw(st.integers(1, 40))):
                holder[key] = [holder[key]]
        else:
            holder[key] = draw(NUMBERS if op == "number" else VALUES)
    text = json.dumps(doc)
    damage = draw(st.sampled_from(["none"] * 8 + ["cut", "deep"]))
    if damage == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif damage == "deep":
        depth = draw(st.sampled_from([100, 10_000, 100_000]))
        text = "[" * depth + text + "]" * depth
    return text


COORDINATES = st.one_of(*[st.floats(0.25, 4.0)] * 4, NUMBERS)
BOUNDS = st.one_of(
    st.floats(1e-300, 1e300), st.floats(1e-8, 1e8), st.floats(1e-3, 1e3),
    st.sampled_from([5e-324, 1e-320, 1e-300, 1e-100, 1e-12, 0.01, 0.5, 2.0,
                     100.0, 1e12, 1e100, 1e300, 1.7976931348623157e308]))


@st.composite
def box_axes(draw):
    """One "lo:hi" box axis: extreme bounds, a width of a few ulps up to
    1e-6 relative, a lo:hi ratio up to 1e300, or any two numbers."""
    lo = draw(BOUNDS)
    shape = draw(st.sampled_from(["tiny"] * 2 + ["ratio"] * 2 + ["any"]))
    if shape == "tiny":
        hi = lo * (1.0 + draw(st.sampled_from([2e-16, 1e-12, 1e-6])))
    elif shape == "ratio":
        hi = lo * draw(st.sampled_from([1e6, 1e12, 1e100, 1e300]))
    else:
        hi = draw(st.one_of(BOUNDS, NUMBERS))
    return f"{lo!r}:{hi!r}"


@st.composite
def requests(draw):
    """Every command, mostly with a point and a box of the right arity."""
    command = draw(st.sampled_from(["eval", "curvature", "elasticity",
                                    "classify", "verify", "scan"]))
    argv = [command]
    if command in ("eval", "curvature") or draw(st.booleans()):
        n = draw(st.sampled_from([2] * 5 + [1, 3]))
        at = draw(st.lists(COORDINATES, min_size=n, max_size=n))
        argv.append("--at=" + ",".join(map(str, at)))
    if draw(st.booleans()):
        n = draw(st.sampled_from([2] * 5 + [1, 3]))
        argv.append("--box=" + ",".join(draw(st.lists(
            box_axes(), min_size=n, max_size=n))))
    if command == "verify":
        argv += ["--theorem", draw(st.sampled_from(["1.1", "4.1", "4.2"]))]
    # Now and then ten times the point bound, which is refused unevaluated.
    argv += ["--samples", draw(st.sampled_from(
        ["4" if command == "scan" else "8"] * 9 + [str(10 * MAX_POINTS)]))]
    if command in ("scan", "verify") and draw(st.booleans()):
        argv += ["--out", "csv"]
    return argv


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(text=documents(), argv=requests())
# One case per documented non-finite field, whatever the drawn examples hold.
@example(text=json.dumps(BASES[3]), argv=["scan", "--samples", "4"])
@example(text=json.dumps(BASES[3]), argv=["verify", "--theorem", "4.1"])
@example(text=json.dumps(BASES[2]), argv=["verify", "--theorem", "1.1"])
@example(text=json.dumps(BASES[3]), argv=["scan", "--samples", "4",
                                          "--out", "csv"])
@example(text=json.dumps(BASES[3]), argv=["verify", "--theorem", "4.1",
                                          "--out", "csv"])
@example(text=json.dumps(BASES[2]), argv=["verify", "--theorem", "1.1",
                                          "--out", "csv"])
# Boxes of extreme bounds, tiny widths and huge lo:hi ratios that reach the
# kernel, whatever the drawn boxes hold.
@example(text=json.dumps(BASES[0]), argv=["scan", "--samples", "4",
                                          "--box=1e-300:1e-290,0.5:2"])
@example(text=json.dumps(BASES[2]), argv=["verify", "--theorem", "4.1",
                                          "--box=1:1.000000000001,1:1.000001"])
@example(text=json.dumps(BASES[1]), argv=["classify",
                                          "--box=1e-12:1e12,1e-12:1e12"])
@example(text=json.dumps(BASES[3]), argv=["scan", "--samples", "4", "--out",
                                          "csv", "--box=1e-12:1e12,1e-6:1e6"])
# Boxes whose hi/lo overflows a float.
@example(text=json.dumps(BASES[0]), argv=["elasticity",
                                          "--box=1e-300:1e300,1e-300:1e300"])
@example(text=json.dumps(BASES[1]), argv=["verify", "--theorem", "4.2",
                                          "--box=1e-300:1e300,0.5:2"])
@example(text=json.dumps(BASES[3]), argv=["classify",
                                          "--box=1e-300:1e300,1e-300:1e300"])
# Boxes where the CES residual's or |Hess|'s intermediates once overflowed.
@example(text=json.dumps(BASES[0]), argv=["verify", "--theorem", "1.1",
                                          "--box=1e-150:1e150,1e-150:1e150"])
@example(text=json.dumps(BASES[0]), argv=["verify", "--theorem", "4.1",
                                          "--box=1e-100:1e100,1e-100:1e100"])
# Value, gradient, h' and h'' are finite, F' h'' leaves the float range.
@example(text=json.dumps({**BASES[0], "gamma": 1e250}),
         argv=["elasticity", "--box=1e-100:1e-99,1e-100:1e-99"])
@example(text=json.dumps({**BASES[0], "gamma": 1e250}),
         argv=["eval", "--at", "5e-100,5e-100"])
# Theorem 4.2's statistic against 4.1's, with two inputs and with three.
@example(text=json.dumps(BASES[0]), argv=["verify", "--theorem", "4.2"])
@example(text=json.dumps(BASES[1]), argv=["verify", "--theorem", "4.2"])
@example(text=json.dumps(BASES[3]), argv=["verify", "--theorem", "4.2"])
@example(text=json.dumps({**BASES[0], "alpha": [0.3, 0.3, 0.4]}),
         argv=["verify", "--theorem", "4.2"])
# x . grad f overflows where the Euler quotient, 4, is representable.
@example(text=json.dumps({"type": "cobb_douglas", "gamma": 1e-312,
                          "alpha": [1, 1, 1, 1]}),
         argv=["verify", "--theorem", "4.1", "--samples", "8",
               "--box=" + ",".join(["1e155:1.1e155"] * 4)])
def test_any_document_keeps_the_exit_contract(tmp_path, text, argv):
    path = tmp_path / "fn.json"
    path.write_text(text)
    status, stdout = _main(argv, path)
    assert status in (0, 1, 2)
    lines = stdout.split("\n")
    assert lines[-1] == ""
    if status == 0 and "csv" in argv:
        _check_csv(lines[:-1], argv, path, text)
        return
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert ("error" in record) == (status != 0)
    if status == 0:
        report = record["report"]
        for where in _non_finite(report):
            assert _documented(report, where, text), where
        if "4.2" in argv:
            _check_minor_cancellation(report, argv, path, text)


# -- command lines ------------------------------------------------------------------

COMMANDS = ["eval", "curvature", "elasticity", "classify", "verify", "scan",
            "fit"]
# The --fn paths name the files of doc_dir: the BASES and one missing file.
FLAG_VALUES = {
    "--fn": [f"{{dir}}/{k}.json" for k in range(len(BASES) + 1)],
    "--at": ["1,2", "1.5,0.7", "1"],
    "--box": ["0.5:2,0.5:2", "1e-300:1e300,0.5:2", "1:2"],
    "--samples": ["4", "16"], "--pair": ["1,2", "2,1"],
    "--theorem": ["1.1", "4.1", "4.2"], "--out": ["json", "csv"],
    "--seed": ["7"], "--jobs": ["1", "4"]}
ODD_VALUES = ["a", "-1", "0", "nan", "1e400", "1:0.5", "1,2,3"]


@st.composite
def command_lines(draw):
    """Token lists: usually --fn first, then up to seven flags, each with a
    value of its own, or one in four a malformed or extreme value or none;
    a command (a bogus one now and then) between them, or no command."""
    groups = []
    if draw(st.integers(0, 9)):
        groups.append(["--fn", draw(st.sampled_from(FLAG_VALUES["--fn"]))])
    for _ in range(draw(st.integers(0, 7))):
        flag = draw(st.sampled_from(sorted(FLAG_VALUES)))
        value = draw(st.sampled_from(FLAG_VALUES[flag])
                     if draw(st.integers(0, 3)) else
                     st.sampled_from(ODD_VALUES + [None]))
        groups.append([flag] if value is None else [flag, value])
    if draw(st.integers(0, 9)):
        groups.insert(draw(st.integers(0, len(groups))),
                      [draw(st.sampled_from(COMMANDS))])
    return [token for group in groups for token in group]


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    """The fuzzer's documents as numbered files; one number past them has
    none."""
    path = tmp_path_factory.mktemp("docs")
    for k, doc in enumerate(BASES):
        (path / f"{k}.json").write_text(json.dumps(doc))
    return path


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(argv=command_lines())
def test_any_command_line_keeps_the_exit_contract(doc_dir, argv):
    status, text = run([arg.format(dir=doc_dir) for arg in argv])
    assert status in (0, 1, 2)
    if status:
        assert "\n" not in text
        assert "error" in json.loads(text)


def _check_minor_cancellation(report, argv, path, text):
    """Theorem 4.2's statistic is 4.1's, bit for bit, with two inputs (the
    one 2x2 minor is det Hess), and 0 or 1 with more."""
    minors = report["hypothesis_check"]["max_minor_cancellation"]
    if expr_from_dict(json.loads(text)).n > 2:
        assert minors in (0.0, 1.0)
        return
    status, stdout = _main(["4.1" if a == "4.2" else a for a in argv], path)
    if status == 0:
        check = json.loads(stdout)["report"]["hypothesis_check"]
        assert check["max_det_cancellation"] == minors


def _main(argv, path):
    """Exit status and stdout of one request, which must write nothing to
    stderr and raise no Python warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        status = main([*argv, "--fn", str(path)])
    assert [str(w.message) for w in caught] == [] and err.getvalue() == ""
    return status, out.getvalue()


def _check_csv(lines, argv, path, text):
    """A CSV report: "#" envelope lines, a header, then data lines; inf and
    nan only where the JSON report of the same request may hold them."""
    body = [line for line in lines if not line.startswith("#")]
    if argv[0] == "scan":
        width = len(body[0].split(","))
        for line in body[1:]:
            cells = line.split(",")
            assert len(cells) == width, line
            assert all(c not in ("inf", "-inf", "nan") for c in cells[:-1])
        return
    assert body[0] == "key,value"
    report = None
    for line in body[1:]:
        key, value = line.rsplit(",", 1)
        if value in ("inf", "-inf", "nan"):
            if report is None:
                json_argv = [a for a in argv if a not in ("--out", "csv")]
                report = json.loads(_main(json_argv, path)[1])["report"]
            where = tuple(int(k) if k.isdigit() else k
                          for k in re.findall(r"[^.\[\]]+", key))
            assert _documented(report, where, text), where


def _non_finite(value, where=()):
    """The key paths of the non-finite numbers of a report, which render as
    the strings "inf", "-inf" and "nan"."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, (*where, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _non_finite(item, (*where, index))
    elif value in ("inf", "-inf", "nan"):
        yield where


def _documented(report, where, text):
    """Whether README lists ``where`` as a field that may be non-finite:
    scan's Hicks column, the residuals of a NotCES classification, and the
    Euler degree gap of a verifier where f vanishes at a sample."""
    if where[:1] == ("rows",):
        return where[2:] == ("cells", len(report["columns"]) - 1)
    if where[-2:] == ("residuals", "ces"):
        holder = report
        for key in where[:-2]:
            holder = holder[key]
        return holder["case"] == "NotCES"
    if where == ("conclusion_check", "euler_degree_gap"):
        bare = shift_free(expr_from_dict(json.loads(text)))
        points = [row["point"] for row in report["per_point_data"]]
        return not bare.derivatives(points).value.all()
    return False


# -- quasi-sum validation against a jet oracle ---------------------------------------


@st.composite
def scalar_records(draw):
    """A scalar function record of any form and sign, with an exponent in
    -3..5 (integers often) and sometimes a shift."""
    form = draw(st.sampled_from(["power", "log", "exp", "affine"]))
    record = {"form": form, "coefficient": draw(st.sampled_from([-1.0, 1.0]))
              * draw(st.floats(0.1, 10.0))}
    if form == "power":
        record["exponent"] = draw(st.one_of(
            st.sampled_from([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
            st.floats(-3.0, 5.0).filter(bool)))
    if draw(st.booleans()):
        record["shift"] = draw(st.floats(-3.0, 3.0))
    return record


@st.composite
def quasi_sums(draw):
    """A quasi-sum document of two or three inputs and its box (None, the
    default, or lo in [0.05, 5] with hi/lo in [1.01, 20] per axis)."""
    n = draw(st.integers(2, 3))
    doc = {"type": "quasi_sum", "outer": draw(scalar_records()),
           "inner": draw(st.lists(scalar_records(), min_size=n, max_size=n))}
    axes = st.tuples(st.floats(0.05, 5.0), st.floats(1.01, 20.0))
    box = draw(st.one_of(st.none(), st.lists(
        axes.map(lambda a: (a[0], a[0] * a[1])), min_size=n, max_size=n)))
    return doc, box


def _jet_slope(record, x):
    """(value, slope) of a scalar function at x by jet arithmetic; None
    where it is undefined, (inf, inf) where a float operation overflows."""
    try:
        jet = scalar_fn_jet(ScalarFn.from_dict(record),
                            Jet(x, [1.0], [[0.0]]))
    except DomainError:
        return None
    except OverflowError:
        return math.inf, math.inf
    return jet.value, float(jet.gradient[0])


def _grid_faults(doc, box):
    """Every fault the oracle sees on 65-point grids of each box axis and
    of the inner-sum range (0 included when inside), as (kind, inner index
    or None)."""
    faults, lo_sum, hi_sum = [], 0.0, 0.0
    for i, (record, (lo, hi)) in enumerate(zip(doc["inner"], box)):
        rows = [_jet_slope(record, x) for x in np.linspace(lo, hi, 65)]
        if not all(map(math.isfinite, [v for row in rows for v in row])):
            faults.append(("inner overflow", i))
            continue
        faults += [("inner flat", i) for _, slope in rows
                   if slope == 0.0 or (slope < 0.0) != (rows[0][1] < 0.0)]
        lo_sum += min(value for value, _ in rows)
        hi_sum += max(value for value, _ in rows)
    if faults:
        return faults
    us = [*np.linspace(lo_sum, hi_sum, 65)] + [0.0] * (lo_sum < 0.0 < hi_sum)
    for u in us:
        row = _jet_slope(doc["outer"], u)
        if row is None:
            faults.append(("outer undefined", None))
        elif not math.isfinite(row[1]):
            faults.append(("outer overflow", None))
        elif row[1] <= 0.0:
            faults.append(("outer flat", None))
    return faults


# The pole of -1/(x1 + x2 - 2.6) and the flat point of (x1 + x2 - 2.6)^3,
# both inside the default box, where a grid of the range that leaves out 0
# sees no fault.
SHIFTED = {"form": "affine", "coefficient": 1.0, "shift": -1.3}


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=quasi_sums())
@example(case=({"type": "quasi_sum", "inner": [SHIFTED] * 2, "outer": {
    "form": "power", "coefficient": -1.0, "exponent": -1.0}}, None))
@example(case=({"type": "quasi_sum", "inner": [SHIFTED] * 2, "outer": {
    "form": "power", "coefficient": 1.0, "exponent": 3.0}}, None))
# u itself over the same inners: F' = 1 at u = 0 too, so it is accepted.
@example(case=({"type": "quasi_sum", "inner": [SHIFTED] * 2, "outer": {
    "form": "power", "coefficient": 1.0, "exponent": 1.0}}, None))
# An inner slope that underflows to 0, and an inner value that overflows.
@example(case=({"type": "quasi_sum", "outer": {"form": "affine",
                                               "coefficient": 1.0},
                "inner": [{"form": "power", "coefficient": 1.0,
                           "exponent": 400.0}] * 2},
               [(0.001, 0.01)] * 2))
@example(case=({"type": "quasi_sum", "outer": {"form": "affine",
                                               "coefficient": 1.0},
                "inner": [{"form": "affine", "coefficient": 1.0},
                          {"form": "exp", "coefficient": 1.0}]},
               [(1.0, 2.0), (1.0, 800.0)]))
def test_quasi_sum_validation_refuses_exactly_the_faults_a_jet_grid_sees(
        case):
    doc, box = case
    box = validate_box(box, len(doc["inner"]))
    faults = _grid_faults(doc, box)
    try:
        expr_from_dict(doc, box)
    except (SpecError, DomainError) as exc:
        message = str(exc)
    else:
        assert faults == []
        return
    kinds = {kind for kind, _ in faults}
    named = re.fullmatch(r"inner component (\d+) (.*)", message)
    if named:  # the grid's first fault names the same inner
        i, what = int(named[1]), named[2]
        kind = "inner flat" if "monotone" in what else "inner overflow"
        assert faults[0] == (kind, i), message
        if kind == "inner flat":
            x = float(what.rpartition("=")[2])
            slope = _jet_slope(doc["inner"][i], x)[1]
            first = _jet_slope(doc["inner"][i], box[i][0])[1]
            assert slope == 0.0 or (slope < 0.0) != (first < 0.0), message
        return
    u = float(message.rpartition("u=")[2]) if "u=" in message else None
    if message.startswith("outer undefined"):
        assert "outer undefined" in kinds and _jet_slope(doc["outer"], u) is None
    elif message.startswith("outer slope is not finite"):
        assert "outer overflow" in kinds
    else:
        assert message.startswith("outer must be strictly increasing")
        assert "outer flat" in kinds and _jet_slope(doc["outer"], u)[1] <= 0.0
