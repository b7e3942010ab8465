"""The four benchmark workloads.

A workload turns a seed into a deterministic stream of operation inputs.
`prepare(i)` builds the input of operation i outside the timed region,
`call` is the timed operation through the public API, and `check` verifies
its result exactly, again outside the timed region.  `deep_check` is a
costlier verification the worker runs on one sampled operation per run.

Inputs come in blocks that cover the same sizes or types once each, so
that every seed runs the same mix and the figures of different seeds stay
comparable; a timed run ends on a block boundary.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import tropinv
from tropinv import cli, genus2, graphs, oracle, polys, recovery

import exact
import gen

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "report_cold_digests.json"
# relative to the repository root, which the worker makes its working
# directory: the CLI echoes argv, so the path is part of the pinned output
GRAPH_FILE = ".bench_work/report_cold.json"


def _rational(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def graph_file_bytes(g):
    """The graph in the CLI's JSON file format, serialized by the benchmark."""
    obj = {
        "vertices": [{"id": v.id, "q": v.q} for v in g.vertices],
        "edges": [
            {"id": e.id, "ends": list(e.ends), "length": _rational(e.length)}
            for e in g.edges
        ],
    }
    return json.dumps(obj, sort_keys=True).encode()


def digest(data):
    return hashlib.sha256(data).hexdigest()[:20]


def _with_extra_point(rng, g, avoid=()):
    """g refined at one more interior point, at a seventeenth of an edge.

    Generated points use denominators up to 13, so a point at k/17 of an
    edge never coincides with one of them: the refinement is always a real
    extra valence-2 vertex.  Returns (refined graph, vertex ids of `avoid`).
    """
    e = rng.choice(g.edges)
    extra = graphs.EdgePoint(e.id, e.length * Fraction(rng.randint(1, 16), 17))
    refined, vids = graphs.with_points(g, [*avoid, extra])
    return refined, vids[:-1]


class Workload:
    name = ""
    block = 1           # ops per input block; a timed run ends on a block boundary
    min_ops = 1         # every timed run completes at least this many ops, a multiple of block
    trace_ops = 1       # ops in a traced run
    setup_repeats = 15  # fresh-interpreter set-ups whose median is setup_s

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        # deep checks draw from their own stream, so they never shift inputs
        self.check_rng = random.Random(f"{self.name}:{seed}:check")
        self._inputs = []

    def setup(self):
        """Generate the inputs of the first min_ops ops, plus any warm-up."""
        self._grow(self.min_ops)

    def _grow(self, count):
        while len(self._inputs) < count:
            self._inputs.extend(self.make_block())

    def input(self, i):
        self._grow(i + 1)
        return self._inputs[i]

    def prepare(self, i):
        return self.input(i)

    def make_block(self):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError

    def deep_check(self, inp, out):
        return True


class ReportCold(Workload):
    """`tropinv invariants FILE` in-process on never-seen random graphs."""

    name = "report_cold"
    sizes = range(8, 21)
    shares = (Fraction(3, 2), Fraction(7, 4), Fraction(2))
    # sweep j gives V the edge share shares[(V + j) % 3], so every block of
    # three sweeps holds the same (V, E) pairs whatever the seed
    block = len(shares) * len(sizes)
    min_ops = 2 * block
    trace_ops = len(sizes)

    def setup(self):
        super().setup()
        Path(GRAPH_FILE).parent.mkdir(parents=True, exist_ok=True)
        pins = json.loads(PINS_PATH.read_text())
        self.pinned = self.seed in pins["seeds"]
        self.pinned_ops = pins["ops"]
        self.digests = pins["digests"]

    def make_block(self):
        # each sweep draws its graphs in a seeded order of sizes, which fixes
        # the pinned inputs, but runs them in ascending V, so every seed runs
        # the same sequence of sizes while the memo tables grow
        out = []
        for sweep in range(len(self.shares)):
            drawn = {
                v: gen.random_graph(self.rng, v, round(v * self.shares[(v + sweep) % 3]))
                for v in gen.stratified(self.rng, self.sizes)
            }
            out.extend((drawn[v], graph_file_bytes(drawn[v])) for v in self.sizes)
        return out

    def prepare(self, i):
        g, data = self.input(i)
        Path(GRAPH_FILE).write_bytes(data)
        return i, g, data

    def call(self, inp):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["invariants", GRAPH_FILE])
        return code, out.getvalue()

    def check(self, inp, out):
        """Exit code 0, the pinned stdout digest, and the independent reference."""
        i, g, data = inp
        code, text = out
        if code != 0:
            return False
        if self.pinned and i < self.pinned_ops and self.digests.get(digest(data)) != digest(text.encode()):
            return False
        envelope = json.loads(text)
        return envelope["status"] == 0 and exact.payload_matches(g, envelope["payload"])


class GreenWarm(Workload):
    """green(g, x, y) at random point pairs on one graph whose report ran in set-up."""

    name = "green_warm"
    n_vertices, n_edges = 20, 34
    block = 5
    min_ops = 200
    trace_ops = 100
    setup_repeats = 3

    def setup(self):
        self.graph = gen.random_graph(self.rng, self.n_vertices, self.n_edges)
        super().setup()
        tropinv.report(self.graph)

    def make_block(self):
        # six of the ten points of a block are interior
        interior = gen.stratified(self.rng, [True] * 6 + [False] * 4)
        pts = [gen.random_point(self.rng, self.graph, flag) for flag in interior]
        return list(zip(pts[0::2], pts[1::2]))

    def call(self, inp):
        return tropinv.green(self.graph, *inp)

    def check(self, inp, out):
        return isinstance(out, Fraction)

    def deep_check(self, inp, out):
        """The same value on a refinement with an extra valence-2 vertex."""
        refined, (xi, yi) = _with_extra_point(self.check_rng, self.graph, inp)
        return tropinv.green(refined, graphs.VertexPoint(xi), graphs.VertexPoint(yi)) == out


class FitFamily(Workload):
    """fit_phi on genus-2 types I and VI with seeded template lengths and fit seeds."""

    name = "fit_family"
    # type I fits cost about twice type VI; two I per VI put the median and
    # the tail percentile inside the type I cluster, not in the gap between.
    # The order is fixed for the reason given at OracleLadder.
    tags = ("I", "VI", "I")
    block = len(tags)
    min_ops = 20 * block
    trace_ops = 3 * block

    def make_block(self):
        return [
            (tag, [gen.random_length(self.rng) for _ in range(genus2.arity(tag))], self.rng.randrange(2**31))
            for tag in self.tags
        ]

    def prepare(self, i):
        tag, lengths, fit_seed = self.input(i)
        return tag, genus2.build(tag, lengths), fit_seed

    def call(self, inp):
        _, g, fit_seed = inp
        return recovery.fit_phi(g, seed=fit_seed)

    def check(self, inp, fit):
        tag = inp[0]
        p_tab, q_tab = genus2.closed_form_pair(tag)
        p_fit = fit.function.numerator_poly()
        q_fit = fit.function.denominator_poly()
        return (
            fit.validated
            and fit.function.degrees == (2 * fit.b1 + 1, 2 * fit.b1)
            and polys.poly_equal(polys.poly_mul(p_fit, q_tab), polys.poly_mul(p_tab, q_fit))
        )


class OracleLadder(Workload):
    """The phi quadrature ladder 8..128 on genus-2 types I, IV, V and VI."""

    name = "oracle_ladder"
    # per-op cost rises IV < V < VI < I; with VI and I twice each, the
    # median falls inside the VI cluster and the tail percentile inside the
    # I cluster, not in a gap between clusters.  Each op adds hundreds of
    # refined graphs to the memo tables; a fixed type order gives every seed
    # the same sequence of types, so the heap grows alike whatever the seed.
    tags = ("I", "VI", "IV", "I", "VI", "V")
    orders = (8, 16, 32, 64, 128)
    block = len(tags)
    min_ops = 12 * block
    trace_ops = 2 * block

    def make_block(self):
        return [
            (tag, [gen.random_length(self.rng, 6, 3) for _ in range(genus2.arity(tag))])
            for tag in self.tags
        ]

    def prepare(self, i):
        tag, lengths = self.input(i)
        return tag, lengths, genus2.build(tag, lengths)

    def call(self, inp):
        return oracle.convergence_report(inp[2], "phi", self.orders)

    def check(self, inp, rep):
        """Exact value equals the closed form; ratios in [3, 5]; final error in tolerance."""
        tag, lengths, _ = inp
        return (
            Fraction(rep.exact_rational) == genus2.closed_form_phi(tag, lengths)
            and all(r is None or 3 <= r <= 5 for r in rep.ratios)
            and rep.within_tolerance
        )


WORKLOADS = {w.name: w for w in (ReportCold, GreenWarm, FitFamily, OracleLadder)}
