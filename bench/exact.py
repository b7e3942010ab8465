"""An independent exact reference for the report_cold check.

It recomputes r(e), both measures, the capacity and epsilon, phi and psi
of a polarized metric graph from one exact inverse of the grounded vertex
Laplacian and closed-form integrals of the resistance kernel along edges.
It shares no code and no algebra with the engine's solves, potential
profiles or dual-path reductions.

For y at distance s from the end a of an edge e = (a, b) of length L, and
any point v off the interior of e,

    r(v, y) = (1 - s/L) r(v, a) + (s/L) r(v, b) + s (L - s) / (L + r_e)

where r_e is the resistance between a and b with e removed: 0 for a loop,
infinite for a bridge, where the last term vanishes.  Two points of one
edge at distance d have r = d (L + r_e - d) / (L + r_e).  Integrating these
gives every double integral below in closed form.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def _inverse(a):
    """The exact inverse of a positive definite matrix, by Gauss-Jordan elimination."""
    n = len(a)
    rows = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        pivot = rows[k][k]  # positive: the matrix is positive definite
        rows[k] = pk = [x / pivot if x else x for x in rows[k]]
        for i in range(n):
            f = rows[i][k]
            if i != k and f:
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], pk)]
    return [row[n:] for row in rows]


def vertex_resistances(vids, edges):
    """{(v, w): r(v, w)} for every vertex pair of a connected graph.

    `edges` holds (a, b, length) triples.  The first vertex is grounded; the
    inverse M of the remaining Laplacian gives r(v, w) = M_vv + M_ww - 2 M_vw.
    """
    index = {v: i - 1 for i, v in enumerate(vids)}
    n = len(vids) - 1
    lap = [[_ZERO] * n for _ in range(n)]
    for a, b, length in edges:
        i, j = index[a], index[b]
        if i == j:
            continue
        c = 1 / length
        for p, q in ((i, i), (j, j)):
            if p >= 0:
                lap[p][q] += c
        if i >= 0 and j >= 0:
            lap[i][j] -= c
            lap[j][i] -= c
    inv = _inverse(lap) if n else []

    def m(i, j):
        return inv[i][j] if i >= 0 and j >= 0 else _ZERO

    return {
        (v, w): m(i, i) + m(j, j) - 2 * m(i, j)
        for v, i in index.items()
        for w, j in index.items()
    }


def reference_report(g):
    """The report fields of `g`, recomputed from scratch.

    Returns a dict with b1, h, delta, epsilon, phi, psi and capacity as
    Fractions, edge_resistance as {eid: Fraction or None for infinity}, and
    the canonical and admissible measures as {"atoms": {...}, "densities":
    {...}} with their non-zero values.
    """
    vids = [v.id for v in g.vertices]
    edges = [(e.id, e.ends[0], e.ends[1], e.length) for e in g.edges]
    r = vertex_resistances(vids, [(a, b, length) for _, a, b, length in edges])

    r_e = {}
    for eid, a, b, length in edges:
        if a == b:
            r_e[eid] = _ZERO
        elif r[a, b] == length:  # no other path from a to b: a bridge
            r_e[eid] = None
        else:
            r_e[eid] = length * r[a, b] / (length - r[a, b])

    def bulge(eid, length):
        """The s (L - s) / (L + r_e) coefficient 1 / (L + r_e), 0 on a bridge."""
        return _ZERO if r_e[eid] is None else 1 / (length + r_e[eid])

    valence = dict.fromkeys(vids, 0)
    for _, a, b, _ in edges:
        valence[a] += 1
        valence[b] += 1
    q = {v.id: v.q for v in g.vertices}
    b1 = len(edges) - len(vids) + 1
    h = b1 + sum(q.values())
    k_q = {v: valence[v] - 2 + 2 * q[v] for v in vids}

    can_atoms = {v: 1 - Fraction(valence[v], 2) for v in vids}
    can_dens = {eid: bulge(eid, length) for eid, _, _, length in edges}
    atoms = {v: (k_q[v] + 2 * can_atoms[v]) / (2 * h) for v in vids}
    dens = {eid: 2 * d / (2 * h) for eid, d in can_dens.items()}

    # I[w, e] = integral of r(w, y) over y on e
    integral = {
        (w, eid): length * (r[w, a] + r[w, b]) / 2 + length**3 * bulge(eid, length) / 6
        for w in vids
        for eid, a, b, length in edges
    }
    f = {
        w: sum((atoms[u] * r[w, u] for u in vids), _ZERO)
        + sum((dens[eid] * integral[w, eid] for eid, *_ in edges), _ZERO)
        for w in vids
    }
    mass_f = sum((atoms[w] * f[w] for w in vids), _ZERO)
    for eid, a, b, length in edges:
        if not dens[eid]:
            continue
        # integral of f over e
        f_e = sum((atoms[w] * integral[w, eid] for w in vids), _ZERO)
        for other, _, _, other_length in edges:
            if not dens[other]:
                continue
            if other == eid:
                double = length**3 / 3 - length**4 * bulge(eid, length) / 6
            else:
                double = (
                    length * (integral[a, other] + integral[b, other]) / 2
                    + other_length * length**3 * bulge(eid, length) / 6
                )
            f_e += dens[other] * double
        mass_f += dens[eid] * f_e

    delta = sum((length for *_, length in edges), _ZERO)
    capacity = mass_f / 2
    eps = sum((k_q[v] * f[v] for v in vids), _ZERO)
    ph = -delta / 4 + 3 * h * capacity - eps / 4

    def nonzero(values):
        return {k: v for k, v in values.items() if v}

    return {
        "b1": b1,
        "h": h,
        "delta": delta,
        "epsilon": eps,
        "phi": ph,
        "psi": eps + Fraction(2 * h - 2, 2 * h + 1) * ph,
        "capacity": capacity,
        "edge_resistance": r_e,
        "canonical_measure": {"atoms": nonzero(can_atoms), "densities": nonzero(can_dens)},
        "admissible_measure": {"atoms": nonzero(atoms), "densities": nonzero(dens)},
    }


def payload_matches(g, payload):
    """True when a CLI `invariants` payload equals the reference report of g exactly."""
    ref = reference_report(g)

    def measure(printed):
        return {
            part: {k: Fraction(v) for k, v in printed[part].items() if Fraction(v)}
            for part in ("atoms", "densities")
        }

    return (
        payload["b1"] == ref["b1"]
        and payload["h"] == ref["h"]
        and all(
            Fraction(payload[k]) == ref[k]
            for k in ("delta", "epsilon", "phi", "psi", "capacity")
        )
        and payload["edge_resistance"]
        == {eid: "inf" if v is None else str(v) for eid, v in ref["edge_resistance"].items()}
        and all(
            measure(payload[k]) == ref[k] and payload[k]["mass"] == "1"
            for k in ("canonical_measure", "admissible_measure")
        )
    )
