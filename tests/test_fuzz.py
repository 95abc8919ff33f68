"""Document fuzzing: whatever the document and the --box bounds, the command
line keeps its exit contract (0, 1 or 2), writes nothing to stderr, raises
no Python warning, writes an error or a JSON report as exactly one JSON
line, and puts inf or nan only in the report fields documented as possibly
non-finite.  A CSV report (scan and verify may draw ``--out csv``) has the
same non-finite fields, and every scan data line has the header's cell
count."""

import contextlib
import copy
import io
import json
import re
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from prodgeo import expr_from_dict
from prodgeo.cli import main
from prodgeo.families import normalize_outer_shift

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
    argv += ["--samples", "4" if command == "scan" else "8"]
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
    if where[-2:] in (("residuals", "ces"), ("residuals", "structure")):
        holder = report
        for key in where[:-2]:
            holder = holder[key]
        return holder["case"] == "NotCES"
    if where == ("conclusion_check", "euler_degree_gap"):
        bare = normalize_outer_shift(expr_from_dict(json.loads(text)))
        points = [row["point"] for row in report["per_point_data"]]
        return not bare.derivatives(points).value.all()
    return False
