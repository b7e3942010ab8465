import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropinv import build, errors, green
from tropinv.cli import main
from tropinv.graphs import EdgePoint, dumps
from tropinv.rational import decimal_string, parse_rational


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    write("sunset.json", dumps(build("I", (1, 1, 1))))
    write("loop.json", dumps(build("III", (1,))))
    write("typeII.json", dumps(build("II", (1,))))
    write("point.json", dumps(build("trivial")))
    write(
        "disconnected.json",
        json.dumps(
            {
                "vertices": [{"id": "a", "q": 1}, {"id": "b", "q": 1}],
                "edges": [],
            }
        ),
    )
    write("countsII.json", json.dumps({"h": 2, "delta_i": ["1"]}))
    write("countsII_wrong.json", json.dumps({"h": 2, "xi0_fixed": "1"}))
    write("bad.json", "{not json")
    return paths, tmp_path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    return json.loads(out)["payload"]


def test_invariants_sunset(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["invariants", paths["sunset.json"]])
    assert code == 0
    body = payload(out)
    assert body["phi"] == "1/9"
    assert body["h"] == 2
    assert body["crosschecks"]["foster_identity"] is True


def test_invariants_point_graph(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["invariants", paths["point.json"]])
    assert code == 0
    assert payload(out)["phi"] == "0"


def test_invariants_disconnected_exit_3(files, capsys):
    paths, _ = files
    code, _, err = run(capsys, ["invariants", paths["disconnected.json"]])
    assert code == 3
    body = json.loads(err)["payload"]
    assert body["error"] == "DisconnectedGraph"
    assert "components" in body["message"]


def test_parse_error_exit_2(files, capsys):
    paths, _ = files
    code, _, err = run(capsys, ["invariants", paths["bad.json"]])
    assert code == 2
    assert json.loads(err)["payload"]["error"] == "ParseError"


def test_green_values(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["green", paths["loop.json"], "--at", "vertex:v", "--at", "vertex:v"])
    assert code == 0
    assert payload(out)["green"] == "1/48"

    code, out, _ = run(capsys, ["green", paths["typeII.json"], "--at", "vertex:a", "--at", "vertex:b"])
    assert code == 0
    assert payload(out)["green"] == "-1/4"


def test_green_unknown_point_exit_3(files, capsys):
    paths, _ = files
    code, _, err = run(capsys, ["green", paths["loop.json"], "--at", "vertex:zz", "--at", "vertex:v"])
    assert code == 3
    assert json.loads(err)["payload"]["error"] == "UnknownPoint"


def test_green_offset_out_of_range_exit_3(files, capsys):
    paths, _ = files
    code, _, err = run(capsys, ["green", paths["loop.json"], "--at", "edge:e1@2", "--at", "vertex:v"])
    assert code == 3
    assert json.loads(err)["payload"]["error"] == "OffsetOutOfRange"


def test_point_syntax_exit_2(files, capsys):
    paths, _ = files
    code, _, err = run(capsys, ["green", paths["loop.json"], "--at", "v", "--at", "vertex:v"])
    assert code == 2


def test_green_offset_measured_from_smaller_endpoint(tmp_path, capsys):
    # stored orientation (b, a); the CLI measures from "a", the smaller id
    text = json.dumps(
        {
            "vertices": [{"id": "a", "q": 1}, {"id": "b", "q": 0}],
            "edges": [
                {"id": "e1", "ends": ["b", "a"], "length": "1"},
                {"id": "e2", "ends": ["b", "b"], "length": "1"},
            ],
        }
    )
    path = tmp_path / "iv_reversed.json"
    path.write_text(text)
    code = main(["green", str(path), "--at", "vertex:a", "--at", "edge:e1@1/4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0

    from tropinv import at_vertex
    from tropinv.graphs import loads
    from tropinv.rational import format_rational

    # offset 1/4 from "a" is offset 3/4 from the stored first end "b"
    g = loads(text)
    value = green(g, at_vertex("a"), EdgePoint("e1", Fraction(3, 4)))
    assert out["payload"]["green"] == format_rational(value)


def test_edge_id_containing_at_sign(tmp_path, capsys):
    # the offset follows the last "@", so an edge id may contain one
    from tropinv import PolarizedMetricGraph, potential
    from tropinv.rational import format_rational

    g = PolarizedMetricGraph.build([("a", 1), ("b", 0)], [("x@1", ("a", "b"), 3), ("e2", ("b", "b"), 2)])
    path = tmp_path / "at_sign.json"
    path.write_text(dumps(g))
    code, out, err = run(capsys, ["potential", str(path), "--at", "edge:x@1@1/2"])
    assert (code, err) == (0, "")
    assert payload(out)["potential"] == format_rational(potential(g, EdgePoint("x@1", Fraction(1, 2))))


def test_potential_diagonal_identity(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["potential", paths["loop.json"], "--at", "vertex:v"])
    assert code == 0
    body = payload(out)
    assert body["potential"] == "1/12"
    assert body["capacity"] == "1/16"
    assert body["green_diagonal"] == "1/48"

    code, out2, _ = run(capsys, ["green", paths["loop.json"], "--at", "vertex:v", "--at", "vertex:v"])
    assert payload(out2)["green"] == body["green_diagonal"]


def test_genus2_command(files, capsys):
    code, out, _ = run(capsys, ["genus2", "I", "2", "3", "5"])
    assert code == 0
    body = payload(out)
    assert body["equal"] is True
    assert body["identities"]["phi_identity"]["holds"] is True
    assert body["rescaled_form"]["equal"] is True

    code, out, _ = run(capsys, ["genus2", "trivial"])
    assert code == 0

    code, _, err = run(capsys, ["genus2", "II", "1", "2"])
    assert code == 2  # arity mismatch


def test_hyperelliptic_command(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["hyperelliptic", paths["typeII.json"], paths["countsII.json"]])
    assert code == 0
    body = payload(out)
    assert body["phi_identity"]["holds"] and body["psi_identity"]["holds"]

    code, _, _ = run(capsys, ["hyperelliptic", paths["typeII.json"], paths["countsII_wrong.json"]])
    assert code == 5


def test_fit_command_deterministic(files, capsys):
    paths, _ = files
    code, out1, _ = run(capsys, ["fit", paths["typeII.json"], "--seed", "7"])
    assert code == 0
    code, out2, _ = run(capsys, ["fit", paths["typeII.json"], "--seed", "7"])
    assert out1 == out2  # byte-identical under a fixed seed
    body = payload(out1)
    assert body["numerator"] == {"1": "1"}
    assert body["denominator"] == {"0": "1"}


def test_oracle_command_with_csv(files, capsys):
    paths, tmp = files
    csv_path = str(tmp / "ladder.csv")
    code, out, _ = run(
        capsys,
        ["oracle", paths["loop.json"], "--orders", "8,16,32,64", "--csv", csv_path],
    )
    assert code == 0
    body = payload(out)
    assert body["within_tolerance"] is True
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0].startswith("quantity,order")
    assert len(lines) == 5


def test_oracle_epsilon_quantity(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["oracle", paths["typeII.json"], "--quantity", "epsilon"])
    assert code == 0
    assert payload(out)["final_error"] == 0.0


def test_oracle_rejects_bad_orders(files, capsys):
    paths, _ = files
    for orders in ("1,4", "abc", ""):
        code, _, err = run(capsys, ["oracle", paths["loop.json"], "--orders", orders])
        assert code == 2


def test_oracle_value_beyond_float_range_exits_3(tmp_path):
    # a loop of length 10^400: phi is exact, but its float is not
    g = build("III", (10**400,))
    path = tmp_path / "huge.json"
    path.write_text(dumps(g))
    proc = subprocess.run(
        [sys.executable, "-m", "tropinv", "oracle", str(path), "--orders", "2,4"], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["payload"]["error"] == "FloatOverflow"


def test_value_beyond_string_limit_exits_3(capsys):
    # the lengths parse, but phi has more digits than str(int) writes
    rng = random.Random(1)
    lengths = [str(rng.randrange(10**1999, 10**2000)) for _ in range(3)]
    code, out, err = run(capsys, ["genus2", "I", *lengths])
    assert (code, out) == (errors.ValueTooLarge.exit_code, "") == (3, "")
    assert "Traceback" not in err
    assert payload(err)["error"] == "ValueTooLarge"


def test_fit_rejects_edgeless_family(files, capsys):
    paths, _ = files
    code, _, err = run(capsys, ["fit", paths["point.json"]])
    assert code == 2
    assert json.loads(err)["payload"]["error"] == "ArityMismatch"


def test_decimal_flag(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["green", paths["typeII.json"], "--at", "vertex:a",
                                "--at", "vertex:b", "--decimal", "6"])
    body = payload(out)
    assert body["green_decimal"] == "-0.25"
    # each `_decimal` field of green and potential is `decimal_string` of the
    # exact field it names, and each exact field has one
    for argv in (
        ["green", paths["sunset.json"], "--at", "vertex:p", "--at", "edge:e2@1/3"],
        ["potential", paths["sunset.json"], "--at", "edge:e1@2/7"],
    ):
        code, out, _ = run(capsys, [*argv, "--decimal", "15"])
        assert code == 0
        body = payload(out)
        exact = [key for key in body if key not in ("x", "y") and not key.endswith("_decimal")]
        assert sorted(key for key in body if key.endswith("_decimal")) == sorted(f"{key}_decimal" for key in exact)
        for key in exact:
            assert body[f"{key}_decimal"] == decimal_string(parse_rational(body[key]), 15)
    # invariants renders 12 digits by default, K on request, none at K = 0
    _, out, _ = run(capsys, ["invariants", paths["sunset.json"]])
    assert payload(out)["phi_decimal"] == "0.111111111111"
    _, out, _ = run(capsys, ["invariants", paths["sunset.json"], "--decimal", "4"])
    assert payload(out)["phi_decimal"] == "0.1111"
    _, out, _ = run(capsys, ["invariants", paths["sunset.json"], "--decimal", "0"])
    assert not [key for key in payload(out) if key.endswith("_decimal")]
    # the largest K: as many digits as any literal or output may have
    code, out, _ = run(capsys, ["invariants", paths["sunset.json"], "--decimal", "4300"])
    assert code == 0
    assert payload(out)["phi_decimal"] == "0." + "1" * 4300


def test_module_entry_point(files):
    paths, _ = files
    proc = subprocess.run(
        [sys.executable, "-m", "tropinv", "invariants", paths["sunset.json"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["phi"] == "1/9"


def test_envelope_shape(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["invariants", paths["sunset.json"]])
    envelope = json.loads(out)
    assert set(envelope) == {"command", "input_digest", "payload", "status"}
    assert envelope["status"] == 0
    assert envelope["command"] == ["invariants", paths["sunset.json"]]
    assert len(envelope["input_digest"]["graph"]) == 64


def test_crosscheck_failure_exit_4(files, capsys, monkeypatch):
    # no real input can trigger an internal crosscheck failure, so inject one
    from tropinv.errors import CrosscheckFailure
    import tropinv.cli as cli

    def boom(g):
        raise CrosscheckFailure("phi paths disagree: injected")

    monkeypatch.setattr(cli.invariants, "report", boom)
    paths, _ = files
    code, _, err = run(capsys, ["invariants", paths["sunset.json"]])
    assert code == 4
    assert json.loads(err)["payload"]["error"] == "CrosscheckFailure"


def _readme_exit_codes():
    """{name: code} for every name in backticks in a row of the README's exit-code table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Exit codes", 1)[1].split("\n\n")[1]
    codes = {}
    for code, meaning in re.findall(r"^\| (\d) \| (.*) \|$", table, flags=re.M):
        for name in re.findall(r"`(\w+)`", meaning):
            assert name not in codes, f"{name} is in two rows of the exit-code table"
            codes[name] = int(code)
    return codes


_ERROR_CLASSES = sorted(
    (obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, errors.TropinvError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("error", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_exits_with_its_readme_code(files, capsys, monkeypatch, error):
    # the README's table, the class's exit_code and the code `main` returns agree
    expected = _readme_exit_codes()[error.__name__]
    assert error.exit_code == expected

    def boom(g):
        raise error("injected")

    monkeypatch.setattr("tropinv.invariants.report", boom)
    paths, _ = files
    code, out, err = run(capsys, ["invariants", paths["sunset.json"]])
    assert (code, out) == (expected, "")
    assert json.loads(err)["payload"] == {"error": error.__name__, "message": "injected"}


_TYPE_II = dumps(build("II", (1,))).encode()
_DEEP = b"[" * 100000 + b"]" * 100000
# more digits than Python converts between int and str by default (4300)
_HUGE = "1" + "0" * 5000
_TYPE_II_HUGE = _TYPE_II.replace(b'"length": "1"', f'"length": "{_HUGE}"'.encode())
_TYPE_II_HUGE_NUMBER = _TYPE_II.replace(b'"length": "1"', f'"length": {_HUGE}'.encode())


@pytest.mark.parametrize(
    "graph, counts, argv",
    [
        (b'{"vertices": [], "edges": []}\xff', None, None),
        (_TYPE_II, b'{"h": 2}\xff', None),
        (
            json.dumps({
                "vertices": [{"id": "a", "q": 2}],
                "edges": [{"id": "e", "ends": [["a"], "a"], "length": "1"}],
            }).encode(),
            None,
            None,
        ),
        (_TYPE_II, json.dumps({"h": 2, "xi": 5}).encode(), None),
        (_DEEP, None, None),
        (_TYPE_II, _DEEP, None),
        (_TYPE_II, None, ["invariants"]),
        (_TYPE_II, None, ["invariants", "GRAPH", "--no-such-option"]),
        (_TYPE_II, None, ["no-such-command", "GRAPH"]),
        (_TYPE_II, None, ["invariants", "GRAPH", "--decimal", "-1"]),
        # more digits than any output may have; a huge K would overflow decimal's precision or memory
        (_TYPE_II, None, ["invariants", "GRAPH", "--decimal", "4301"]),
        (_TYPE_II, None, ["invariants", "GRAPH", "--decimal", "10000000000000000000"]),
        (_TYPE_II, None, ["oracle", "GRAPH", "--orders", "2,4", "--csv", "."]),
        # --seed belongs to fit alone, --decimal to invariants, green and potential
        (_TYPE_II, None, ["invariants", "GRAPH", "--seed", "3"]),
        (_TYPE_II, None, ["green", "GRAPH", "--at", "vertex:a", "--at", "vertex:b", "--seed", "3"]),
        (_TYPE_II, None, ["potential", "GRAPH", "--at", "vertex:a", "--seed", "3"]),
        (_TYPE_II, None, ["genus2", "I", "1", "2", "3", "--decimal", "5"]),
        (_TYPE_II, None, ["hyperelliptic", "GRAPH", "GRAPH", "--decimal", "5"]),
        (_TYPE_II, None, ["fit", "GRAPH", "--decimal", "5"]),
        (_TYPE_II, None, ["oracle", "GRAPH", "--seed", "3", "--decimal", "4"]),
        # a non-finite tolerance would put NaN or Infinity, which are not JSON, in the envelope
        (_TYPE_II, None, ["oracle", "GRAPH", "--tolerance", "nan"]),
        (_TYPE_II, None, ["oracle", "GRAPH", "--tolerance", "inf"]),
        (_TYPE_II, None, ["oracle", "GRAPH", "--tolerance=-inf"]),
        (_TYPE_II_HUGE, None, None),
        (_TYPE_II, None, ["genus2", "II", _HUGE]),
        (_TYPE_II_HUGE_NUMBER, None, None),
        (_TYPE_II, f'{{"h": {_HUGE}}}'.encode(), None),
    ],
    ids=[
        "graph-not-utf8",
        "counts-not-utf8",
        "endpoint-not-a-string",
        "xi-not-a-list",
        "graph-nested-too-deeply",
        "counts-nested-too-deeply",
        "missing-positional",
        "unknown-option",
        "unknown-subcommand",
        "negative-decimal-digits",
        "decimal-digits-over-limit",
        "decimal-digits-huge",
        "csv-path-is-a-directory",
        "invariants-seed",
        "green-seed",
        "potential-seed",
        "genus2-decimal",
        "hyperelliptic-decimal",
        "fit-decimal",
        "oracle-seed-and-decimal",
        "tolerance-nan",
        "tolerance-inf",
        "tolerance-minus-inf",
        "huge-length-literal",
        "huge-genus2-length",
        "huge-length-json-number",
        "huge-counts-json-number",
    ],
)
def test_malformed_input_exit_2_without_traceback(tmp_path, graph, counts, argv):
    # argv defaults to reading the graph (and the counts file, if given);
    # "GRAPH" in an explicit argv stands for the graph file's path
    graph_path = tmp_path / "graph.json"
    graph_path.write_bytes(graph)
    if argv is not None:
        argv = [str(graph_path) if arg == "GRAPH" else arg for arg in argv]
    elif counts is not None:
        counts_path = tmp_path / "counts.json"
        counts_path.write_bytes(counts)
        argv = ["hyperelliptic", str(graph_path), str(counts_path)]
    else:
        argv = ["invariants", str(graph_path)]
    proc = subprocess.run([sys.executable, "-m", "tropinv", *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["payload"]["error"] == "ParseError"


def test_help_exits_0_with_usage_text(capsys):
    code, out, err = run(capsys, ["invariants", "--help"])
    assert code == 0
    assert out.startswith("usage: tropinv invariants") and err == ""


# Runs each argv of a JSON list on stdin in a forked child of an interpreter
# that has imported the CLI but never called `main`, so each child starts as
# a fresh `tropinv` process would; the child's stdout and stderr go to the
# files N.out and N.err in the directory argv[1], and the exit codes, in
# order, are the one line this prints.
_FRESH_CALLS = """
import json, os, sys
from tropinv.cli import main

codes = []
for i, argv in enumerate(json.load(sys.stdin)):
    pid = os.fork()
    if pid == 0:
        for fd, name in ((1, "out"), (2, "err")):
            os.dup2(os.open(os.path.join(sys.argv[1], f"{i}.{name}"), os.O_WRONLY | os.O_CREAT), fd)
        code = main(argv)
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
print(json.dumps(codes))
"""


def test_repeated_main_calls_match_fresh_processes(files, capsys, monkeypatch):
    # `main` builds its parser once per process; every call must still print
    # what a fresh process prints for its argv, with nothing carried over
    # from an earlier call: no --at point, no help text, no usage error
    import tropinv.cli as cli

    paths, tmp_path = files
    sunset, loop, type_ii = paths["sunset.json"], paths["loop.json"], paths["typeII.json"]
    argvs = [
        ["invariants", sunset],
        ["green", sunset, "--at", "vertex:p", "--at", "edge:e1@1/3"],
        ["--help"],
        ["green", sunset, "--at", "edge:e2@1/2", "--at", "vertex:q", "--decimal", "3"],
        ["potential", loop, "--at", "edge:e1@1/4"],
        ["green", sunset, "--at"],
        ["invariants", loop, "--decimal", "5"],
        ["genus2", "I", "1", "2", "3"],
        ["hyperelliptic", type_ii, paths["countsII.json"]],
        ["fit", type_ii, "--seed", "3"],
        ["oracle", loop, "--orders", "8,16"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CALLS, str(fresh)],
        input=json.dumps(argvs), capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    codes = json.loads(proc.stdout)
    monkeypatch.setattr(cli, "_parser", None)
    for i, argv in enumerate(argvs):
        expected = (codes[i], (fresh / f"{i}.out").read_text(), (fresh / f"{i}.err").read_text())
        assert run(capsys, argv) == expected, argv


# --- fuzzed inputs under a fixed, well-formed argv ---------------------------

def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 JSON does not have."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


_IDS = st.sampled_from(["a", "b", "c", "e1", ""]) | st.integers(-1, 2) | st.none()
_LENGTHS = st.one_of(
    st.sampled_from(["1", "2/3", "0", "-1/2", "1/0", "1.5", "", "x"]),
    st.fractions(min_value=-2, max_value=5, max_denominator=7).map(str),
    st.integers(-2, 10**30),
    st.floats(allow_nan=True),
    st.booleans(),
    st.none(),
)
_VERTEX = st.fixed_dictionaries(
    {"id": _IDS, "q": st.integers(-1, 2) | st.booleans() | st.sampled_from(["1", 1.0])}
)
_EDGE = st.fixed_dictionaries(
    {"id": _IDS, "ends": st.lists(_IDS, max_size=3) | _IDS, "length": _LENGTHS}
)
_WELL_FORMED_GRAPH = st.lists(
    st.tuples(st.sampled_from("ab"), st.sampled_from("ab"), st.fractions(min_value=0, max_value=5, max_denominator=7)),
    max_size=4,
).flatmap(
    lambda edges: st.fixed_dictionaries({
        "vertices": st.just([{"id": "a", "q": 1}, {"id": "b", "q": 0}]),
        "edges": st.just([
            {"id": f"e{i}", "ends": [p, q], "length": str(length)}
            for i, (p, q, length) in enumerate(edges, start=1)
        ]),
    })
)
_GRAPH = _WELL_FORMED_GRAPH | st.fixed_dictionaries(
    {"vertices": st.lists(_VERTEX, max_size=3), "edges": st.lists(_EDGE, max_size=4)}
)
_COUNTS = st.fixed_dictionaries(
    {"h": st.integers(-1, 4) | st.sampled_from([10**12, "2", True])},
    optional={
        "xi0_fixed": _LENGTHS,
        "xi": st.lists(_LENGTHS, max_size=3) | _LENGTHS,
        "delta_i": st.lists(_LENGTHS, max_size=3) | _LENGTHS,
        "delta0": _LENGTHS,
    },
)
_JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _file_bytes(structured):
    return st.one_of(
        structured.map(lambda obj: json.dumps(obj).encode()),
        _JSON_JUNK.map(lambda obj: json.dumps(obj).encode()),
        st.binary(max_size=12),
    )


_POINT = st.one_of(
    st.builds(lambda vid: f"vertex:{vid}", st.sampled_from(["a", "b", "c", ""])),
    st.builds(lambda eid, off: f"edge:{eid}@{off}", st.sampled_from(["e1", "x", ""]), _LENGTHS),
    st.text(max_size=8),
)


@given(
    command=st.sampled_from(["invariants", "green", "potential", "hyperelliptic"]),
    graph=_file_bytes(_GRAPH),
    counts=_file_bytes(_COUNTS),
    points=st.tuples(_POINT, _POINT),
)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_fuzzed_inputs_keep_the_cli_contract(tmp_path_factory, command, graph, counts, points):
    # exit 0, 2, 3, 4 or 5; a failure writes one JSON envelope to stderr,
    # except exit 5 (a check ran and failed), which reports on stdout like
    # exit 0; no exception ever escapes `main`
    tmp = tmp_path_factory.mktemp("fuzz")
    graph_path, counts_path = tmp / "graph.json", tmp / "counts.json"
    graph_path.write_bytes(graph)
    counts_path.write_bytes(counts)
    argv = {
        "invariants": ["invariants", str(graph_path)],
        "green": ["green", str(graph_path), "--at", points[0], "--at", points[1]],
        "potential": ["potential", str(graph_path), "--at", points[0]],
        "hyperelliptic": ["hyperelliptic", str(graph_path), str(counts_path)],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code in (0, 5):
        assert _strict_json(out.getvalue())["status"] == code
    else:
        envelope = _strict_json(err.getvalue())
        assert envelope["status"] == code
        assert set(envelope["payload"]) == {"error", "message"}


# --- fuzzed argv --------------------------------------------------------------

# one well-formed invocation per subcommand; paths are files the test writes
# into a fresh working directory, which also takes any file a token names
_TEMPLATES = {
    "invariants": ["loop.json"],
    "green": ["loop.json", "--at", "vertex:v", "--at", "edge:e1@1/2"],
    "potential": ["typeII.json", "--at", "vertex:p"],
    "genus2": ["I", "1", "2", "3"],
    "hyperelliptic": ["typeII.json", "countsII.json"],
    "fit": ["typeII.json"],
    "oracle": ["loop.json", "--orders", "2,4"],
}
# no digits in junk: a drawn token never asks for a huge order or precision
_JUNK = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=5)
_PATH = st.sampled_from(["loop.json", "typeII.json", "countsII.json", "junk.json", "missing.json", "out", ""])
_POINT_ARG = st.sampled_from(["vertex:v", "vertex:p", "vertex:z", "edge:e1@1/2", "edge:e1@2", "edge:e9@1/2", "edge:e1"])
_SMALL_INT = st.integers(-3, 40).map(str)
# each option with values near the edges of what it accepts
_OPTION_VALUES = {
    "--at": _POINT_ARG,
    "--seed": _SMALL_INT | st.sampled_from(["-1", "1/2"]),
    "--decimal": _SMALL_INT | st.sampled_from(["-1", "0", "1/2"]),
    "--orders": st.sampled_from(["8,16", "2,3,4", "1,8", "8,x", "", ",", "-2"]),
    "--quantity": st.sampled_from(["phi", "epsilon", "psi", ""]),
    "--tolerance": st.sampled_from(["1e-3", "0", "-1", "nan", "inf", "x"]),
    "--csv": st.sampled_from(["ladder.csv", "out", "missing/x.csv", ""]),
    "--no-such-option": _JUNK,
}
_VALUES = st.one_of(_SMALL_INT, _PATH, _POINT_ARG, st.sampled_from(["I", "VI", "1/2", "-1/3", "0"]), _JUNK)
_OPTION = st.sampled_from(sorted(_OPTION_VALUES)).flatmap(lambda opt: st.tuples(st.just(opt), _OPTION_VALUES[opt]))


@given(
    command=st.sampled_from([*sorted(_TEMPLATES), "no-such-command", ""]),
    positionals=st.integers(0, 3).flatmap(lambda k: st.lists(_VALUES, max_size=4) if k == 0 else st.none()),
    options=st.lists(_OPTION, max_size=3),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fuzzed_argv_keeps_the_cli_contract(tmp_path_factory, command, positionals, options):
    # the same contract as for fuzzed files: exit 0, 2, 3, 4 or 5, a JSON
    # envelope on stderr for every failure, no exception escaping `main`;
    # exit 5 (a check ran and failed) reports on stdout like exit 0.  No
    # positionals stands for the subcommand's well-formed ones
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "loop.json").write_text(dumps(build("III", (1,))))
    (tmp / "typeII.json").write_text(dumps(build("II", (1,))))
    (tmp / "countsII.json").write_text(json.dumps({"h": 2, "delta_i": ["1"]}))
    (tmp / "junk.json").write_bytes(b"\xff{")
    (tmp / "out").mkdir()
    if positionals is None:
        positionals = _TEMPLATES.get(command, [])
    argv = [command, *positionals, *(token for pair in options for token in pair)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(tmp), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code == 0 and out.getvalue().startswith("usage:"):
        return  # an abbreviation of --help prints the help text
    if code in (0, 5):
        assert _strict_json(out.getvalue())["status"] == code
    else:
        envelope = _strict_json(err.getvalue())
        assert envelope["status"] == code
        assert set(envelope["payload"]) == {"error", "message"}
