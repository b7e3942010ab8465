"""Command-line surface.

Subcommands: invariants, green, potential, genus2, hyperelliptic, fit,
oracle.  All numeric output is exact "p/q"; `invariants` adds 12-digit
decimal renderings, and --decimal K on invariants, green or potential sets
the digit count (0: none).  --seed is an option of fit alone.  Identical
inputs and seeds produce byte-identical output.

Exit codes:
    0  success
    2  parse error (usage, JSON, schema, rational or point syntax, arity)
    3  validation error (disconnected, bad length/offset, genus 0, unknown
       ids, mismatched counts, zero denominator, a value too large for a
       float)
    4  internal crosscheck failure (dual paths or certificates disagree)
    5  identity or equality check failure (reported, nothing crashed)

Codes 2-4 are the `exit_code` of the error class raised (`errors`).
"""

import argparse
import csv
import hashlib
import json
import math
import sys

from . import genus2, graphs, hyperelliptic, invariants, oracle, potentials, recovery
from .errors import ParseError, TropinvError
from .rational import decimal_string, format_rational, parse_rational

EXIT_OK = 0
EXIT_CHECK_FAILED = 5


def _read_file(path):
    """The file's UTF-8 text and the sha256 digest of its bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8: {exc}") from exc
    return text, hashlib.sha256(data).hexdigest()


def _load_graph(path):
    text, digest = _read_file(path)
    return graphs.loads(text), digest


def _load_counts(path, genus):
    text, digest = _read_file(path)
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number too long to convert
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"invalid JSON in {path!r}: nested too deeply") from exc
    return hyperelliptic.NodeTypeCounts.from_json(obj, genus), digest


def parse_point(g, text):
    """Parse "vertex:ID" or "edge:ID@p/q".

    Edge offsets are measured from the lexicographically smaller endpoint id;
    for loops, from the stored orientation.
    """
    if text.startswith("vertex:"):
        vid = text[len("vertex:"):]
        g.vertex(vid)
        return graphs.VertexPoint(vid)
    if text.startswith("edge:"):
        body = text[len("edge:"):]
        if "@" not in body:
            raise ParseError(f"edge point needs an offset: {text!r}")
        eid, _, offset_text = body.rpartition("@")  # an edge id may contain "@", an offset never
        offset = parse_rational(offset_text)
        e = g.edge(eid)
        if e.ends[0] > e.ends[1]:
            offset = e.length - offset
        return graphs.check_point(g, graphs.EdgePoint(eid, offset))
    raise ParseError(f"point must look like 'vertex:ID' or 'edge:ID@p/q', got {text!r}")


def _emit(command, digests, payload, status, stream=None):
    envelope = {
        "command": command,
        "input_digest": digests,
        "payload": payload,
        "status": status,
    }
    out = stream if stream is not None else sys.stdout
    json.dump(envelope, out, sort_keys=True, indent=2)
    out.write("\n")
    return status


def _with_decimals(payload, keys, digits):
    if not digits:
        return payload
    for key in keys:
        if key in payload:
            payload[key + "_decimal"] = decimal_string(parse_rational(payload[key]), digits)
    return payload


def cmd_invariants(args):
    g, digest = _load_graph(args.graph)
    rep = invariants.report(g)
    payload = rep.to_dict(decimal_digits=args.decimal)
    return _emit(args.argv, {"graph": digest}, payload, EXIT_OK)


def cmd_green(args):
    g, digest = _load_graph(args.graph)
    if len(args.at) != 2:
        raise ParseError("green needs exactly two --at points")
    x = parse_point(g, args.at[0])
    y = parse_point(g, args.at[1])
    value = potentials.green(g, x, y)
    payload = {"x": args.at[0], "y": args.at[1], "green": format_rational(value)}
    _with_decimals(payload, ["green"], args.decimal)
    return _emit(args.argv, {"graph": digest}, payload, EXIT_OK)


def cmd_potential(args):
    g, digest = _load_graph(args.graph)
    if len(args.at) != 1:
        raise ParseError("potential needs exactly one --at point")
    x = parse_point(g, args.at[0])
    f = potentials.potential(g, x)
    c = potentials.capacity(g)
    payload = {
        "x": args.at[0],
        "potential": format_rational(f),
        "capacity": format_rational(c),
        "green_diagonal": format_rational(f - c),
    }
    _with_decimals(payload, ["potential", "capacity", "green_diagonal"], args.decimal)
    return _emit(args.argv, {"graph": digest}, payload, EXIT_OK)


def cmd_genus2(args):
    lengths = tuple(parse_rational(x) for x in args.lengths)
    if args.tag != "trivial":
        # one graph: the identity report's phi is the engine phi of the equality check
        identity = genus2.catalog_identity_report(args.tag, lengths)
        equality = genus2.EqualityReport(
            args.tag, lengths, identity.phi, genus2.closed_form_phi(args.tag, lengths)
        )
        payload = equality.to_dict()
        payload["identities"] = identity.to_dict()
        payload["node_counts"] = genus2.node_counts(args.tag, lengths).to_json()
        ok = equality.equal and identity.all_hold
    else:
        equality = genus2.check_closed_form(args.tag, lengths)
        payload = equality.to_dict()
        ok = equality.equal
    if args.tag == "I":
        rescaled = genus2.check_sunset_rescaling(lengths)
        payload["rescaled_form"] = rescaled.to_dict()
        ok = ok and rescaled.equal
    status = EXIT_OK if ok else EXIT_CHECK_FAILED
    return _emit(args.argv, {}, payload, status)


def cmd_hyperelliptic(args):
    g, gd = _load_graph(args.graph)
    counts, cd = _load_counts(args.counts, graphs.genus(g)[1])
    report = hyperelliptic.check_identities(g, counts)
    status = EXIT_OK if report.all_hold else EXIT_CHECK_FAILED
    return _emit(
        args.argv,
        {"graph": gd, "counts": cd},
        report.to_dict(),
        status,
    )


def cmd_fit(args):
    g, digest = _load_graph(args.family)
    result = recovery.fit_phi(g, seed=args.seed)
    return _emit(args.argv, {"family": digest}, result.to_dict(), EXIT_OK)


def cmd_oracle(args):
    g, digest = _load_graph(args.graph)
    try:
        orders = [int(x) for x in args.orders.split(",") if x]
    except ValueError as exc:
        raise ParseError(f"--orders needs comma-separated integers: {exc}") from exc
    if not orders or any(m < 2 for m in orders):
        raise ParseError("--orders needs a comma-separated list of integers >= 2")
    report = oracle.convergence_report(
        g, quantity=args.quantity, orders=orders, tolerance=args.tolerance
    )
    payload = report.to_dict()
    if args.csv:
        try:
            with open(args.csv, "w", newline="") as fh:
                csv.writer(fh).writerows(report.csv_rows())
        except OSError as exc:
            raise ParseError(f"cannot write {args.csv!r}: {exc}") from exc
        payload["csv"] = args.csv
    ok = report.errors_non_increasing and report.within_tolerance
    status = EXIT_OK if ok else EXIT_CHECK_FAILED
    return _emit(args.argv, {"graph": digest}, payload, status)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (so they get the envelope), in subparsers too."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


# the most digits a literal or an output may have (Python's default int/str limit)
_MAX_DIGITS = 4300


def _digits(text):
    """The --decimal digit count K: an integer from 0 to `_MAX_DIGITS`."""
    try:
        digits = int(text)
    except ValueError:
        digits = -1
    if not 0 <= digits <= _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"K must be an integer from 0 to {_MAX_DIGITS}, got {text!r}")
    return digits


def _tolerance(text):
    """The oracle's --tolerance: a finite float, so the envelope stays valid JSON."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number, got {text!r}")
    return value


def build_parser():
    parser = _Parser(
        prog="tropinv",
        description="Exact invariants, measures and Green's functions of polarized metric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def decimal(p, default):
        p.add_argument("--decimal", type=_digits, default=default, metavar="K",
                       help=f"decimal renderings with K significant digits, 0 for none (default {default})")

    p = sub.add_parser("invariants", help="full invariant report for a graph file")
    p.add_argument("graph")
    decimal(p, 12)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("green", help="Green function value at two points")
    p.add_argument("graph")
    p.add_argument("--at", action="append", default=[], metavar="POINT",
                   help="vertex:ID or edge:ID@p/q (twice)")
    decimal(p, 0)
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("potential", help="potential, capacity and diagonal Green value")
    p.add_argument("graph")
    p.add_argument("--at", action="append", default=[], metavar="POINT")
    decimal(p, 0)
    p.set_defaults(fn=cmd_potential)

    p = sub.add_parser("genus2", help="catalog closed form vs engine for a genus-2 type")
    p.add_argument("tag", choices=list(genus2.TAGS))
    p.add_argument("lengths", nargs="*", help="edge lengths as p/q")
    p.set_defaults(fn=cmd_genus2)

    p = sub.add_parser("hyperelliptic", help="node-count identities for a graph + counts file")
    p.add_argument("graph")
    p.add_argument("counts")
    p.set_defaults(fn=cmd_hyperelliptic)

    p = sub.add_parser("fit", help="recover phi as an exact rational function")
    p.add_argument("family", help="graph file; edge lengths are treated as symbolic")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("oracle", help="quadrature convergence ladder")
    p.add_argument("graph")
    p.add_argument("--orders", default="8,16,32,64", help="comma-separated midpoint orders")
    p.add_argument("--quantity", choices=["phi", "epsilon"], default="phi")
    p.add_argument("--tolerance", type=_tolerance, default=1e-3)
    p.add_argument("--csv", metavar="PATH", help="also write the ladder as CSV")
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(raw)
    except ParseError as exc:
        return _fail(raw, exc, exc.exit_code)
    except SystemExit as exc:
        # --help prints its text and exits 0
        return int(exc.code) if exc.code else EXIT_OK
    args.argv = raw
    try:
        return args.fn(args)
    except TropinvError as exc:
        return _fail(raw, exc, exc.exit_code)


def _fail(argv, exc, status):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    _emit(argv, {}, payload, status, stream=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
