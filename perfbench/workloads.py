"""Seeded workloads for the quivar benchmark: input generators, timed ops
and the correctness oracle of every op.

Inputs are generated in two steps. ``round_specs(workload, seed, r)`` draws
round ``r`` as plain JSON-able data (ints and lists only) from a
``random.Random`` seeded by the workload name, the seed and the round
index, so a round never depends on how many rounds came before it.
``build_op(spec)`` then turns one spec into library objects through the
public constructors only (``Mat``, ``Rep``, ``FramedRep``, ``AdhmData``,
``FiniteKernel``, ``finset``, ``Quiver``, ``FiniteGroup`` and the field
classes), and computes the expected answer with the benchmark's own
arithmetic. A round always has the same mix of op kinds; only the content
of the inputs depends on the seed.

An op's ``call`` is the timed part. ``judge(op, result, error)`` is the
oracle, run outside the timed part; it makes no call into the library, so
a traced run counts only the work of the ops themselves.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

from quivar import adhm, convolution, mckay, reps, roots
from quivar.adhm import AdhmData, AdhmError
from quivar.convolution import (Correspondence, FiniteGroup, FiniteKernel,
                                finset)
from quivar.fields import QQ, CyclotomicField, PrimeField
from quivar.linalg import Mat
from quivar.quiver import Edge, Quiver
from quivar.reps import FramedRep, Rep

OK, FAILED, REFUSED = "ok", "failed", "refused"


class Op:
    """One timed call with its inputs and expected answer."""

    __slots__ = ("kind", "call", "expected", "check", "refusable")

    def __init__(self, kind, call, expected, check, refusable=False):
        self.kind = kind
        self.call = call            # zero-argument callable, the timed part
        self.expected = expected
        self.check = check          # check(result, expected) -> bool
        self.refusable = refusable  # a known-unsupported case (see judge)


def judge(op: Op, result, error) -> str:
    """Outcome of one op: ``ok``, ``failed`` or ``refused``.

    A wrong answer or any exception is a failure. The one exception is an
    explicit ``AdhmError`` refusal on a spectrum case that the root search
    is known not to support today (eigenvalue 0 next to nonzero ones, or
    eigenvalues outside Q over Q(zeta_m)); that is counted as a refusal.
    The same refusal on a supported case is a failure.
    """
    if error is not None:
        if op.refusable and isinstance(error, AdhmError):
            return REFUSED
        return FAILED
    try:
        return OK if op.check(result, op.expected) else FAILED
    except Exception:  # a malformed result is a wrong answer
        return FAILED


def _same(result, expected):
    return result == expected


# -- quivers, built from the Quiver/Edge constructors --------------------

def _doubled(vertices, edges) -> Quiver:
    """A doubled quiver with star provenance, without ``quiver.double``."""
    all_edges = [Edge(n, t, h) for n, t, h in edges]
    all_edges += [Edge(n + "*", h, t) for n, t, h in edges]
    return Quiver(tuple(vertices), tuple(all_edges),
                  {"kind": "double",
                   "star_pairs": {n: n + "*" for n, _, _ in edges},
                   "original_vertices": list(vertices)})


FP_QUIVERS = {
    "one_vertex": (("1",), ()),
    "a2": (("1", "2"), (("a1", "2", "1"),)),
    "jordan": (("0",), (("x", "0", "0"),)),
}

# (quiver, dimension vector in vertex order); total dimension <= 4. The
# one-vertex quiver at v = 1 is left out: its 0.5 ms quadruples would put
# op_p90_ms at the edge of a cost gap, where it jumps between runs.
FP_SHAPES = [("one_vertex", (2,)), ("one_vertex", (3,)), ("one_vertex", (4,)),
             ("a2", (1, 1)), ("a2", (2, 1)), ("a2", (1, 2)), ("a2", (2, 2)),
             ("a2", (3, 1)),
             ("jordan", (1,)), ("jordan", (2,)), ("jordan", (3,)),
             ("jordan", (4,))]
FP_KINDS = ("generic", "sparse", "nilpotent", "zero")
# every round: each shape over F_2, F_3 and F_5 in each kind, except the
# edgeless one-vertex quiver at v = 4 over F_5 (1,120 subspaces, 0.3 s a
# quadruple, where the kinds differ only in i and j); the Jordan double
# at v = 4 over F_5 keeps the largest subspace family in the mix
FP_CASES = [(p, qname, dims, kind) for p in (2, 3, 5)
            for qname, dims in FP_SHAPES for kind in FP_KINDS
            if (p, qname, dims) != (5, "one_vertex", (4,))]


# -- oracle_fp ----------------------------------------------------------

def _fp_matrix(rng, p, rows, cols, kind, square_loop):
    if kind == "zero" and square_loop is not None:
        return [[0] * cols for _ in range(rows)]
    if kind == "sparse":
        return [[rng.randrange(1, p) if rng.random() < 0.25 else 0
                 for _ in range(cols)] for _ in range(rows)]
    if kind == "nilpotent" and square_loop:
        return [[rng.randrange(p) if c > r else 0 for c in range(cols)]
                for r in range(rows)]
    if kind == "nilpotent" and square_loop is False:
        u = [rng.randrange(p) for _ in range(rows)]
        w = [rng.randrange(p) for _ in range(cols)]
        return [[(a * b) % p for b in w] for a in u]
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def _oracle_fp_round(rng):
    specs = []
    for p, qname, dims, kind in FP_CASES:
        verts, edges = FP_QUIVERS[qname]
        v = dict(zip(verts, dims))
        mats = {}
        for name, t, h in edges:
            loop = t == h
            mats[name] = _fp_matrix(rng, p, v[h], v[t], kind, loop)
            mats[name + "*"] = _fp_matrix(rng, p, v[t], v[h], kind, loop)
        i = {k: _fp_matrix(rng, p, v[k], 1, kind, None) for k in verts}
        j = {k: _fp_matrix(rng, p, 1, v[k], kind, None) for k in verts}
        specs.append({"op": "stability", "quiver": qname, "p": p,
                      "kind": kind, "v": v, "mats": mats, "i": i, "j": j})
    rng.shuffle(specs)
    return specs


def _build_stability(spec):
    p = spec["p"]
    f = PrimeField(p)
    verts, edges = FP_QUIVERS[spec["quiver"]]
    dq = _doubled(verts, edges)
    v = spec["v"]
    mats = {e.name: Mat(f, spec["mats"][e.name], v[e.head], v[e.tail])
            for e in dq.edges}
    rep = Rep(dq, f, v, mats)
    fr = FramedRep(rep, {k: 1 for k in verts},
                   {k: Mat(f, spec["i"][k], v[k], 1) for k in verts},
                   {k: Mat(f, spec["j"][k], 1, v[k]) for k in verts})
    plus = {k: 1 for k in verts}
    minus = {k: -1 for k in verts}

    def call():
        return (reps.is_stable_plus(fr), reps.is_stable_minus(fr),
                reps.semistable_bruteforce(fr, plus)["stable"],
                reps.semistable_bruteforce(fr, minus)["stable"])

    def agree(res, _):
        return res[0] == res[2] and res[1] == res[3]

    return Op("stability", call, None, agree)


# -- field helpers for exact_char0 (benchmark-side arithmetic) -----------

def _field(spec):
    return CyclotomicField(spec["m"]) if spec.get("m") else QQ


def _elem(f, c):
    """An int, or a coefficient list in powers of zeta."""
    return f.from_coeffs(c) if isinstance(c, list) else f.from_int(c)


def _mm(f, a, b):
    return [[_dot(f, row, [b[k][c] for k in range(len(b))])
             for c in range(len(b[0]))] for row in a]


def _dot(f, u, w):
    acc = f.zero()
    for x, y in zip(u, w):
        acc = f.add(acc, f.mul(x, y))
    return acc


def _unitri_inverse(f, t, upper):
    """Inverse of a unitriangular matrix by substitution."""
    n = len(t)
    inv = [[f.one() if r == c else f.zero() for c in range(n)] for r in range(n)]
    order = range(n - 1, -1, -1) if upper else range(n)
    for r in order:
        ks = range(r + 1, n) if upper else range(r)
        for c in range(n):
            acc = f.one() if r == c else f.zero()
            for k in ks:
                acc = f.add(acc, f.neg(f.mul(t[r][k], inv[k][c])))
            inv[r][c] = acc
    return inv


def _random_unitri(rng, n, upper, m):
    """Entries as specs: small ints, or a + b*zeta lists when m is set."""
    def entry():
        if m:
            return [rng.randint(-2, 2), rng.randint(-1, 1)]
        return rng.randint(-2, 2)
    return [[1 if r == c else (entry() if (c > r) == upper else 0)
             for c in range(n)] for r in range(n)]


def _conjugator(f, spec_u, spec_l):
    """g = U L and g^-1 = L^-1 U^-1 from unitriangular factor specs."""
    u = [[_elem(f, c) for c in row] for row in spec_u]
    low = [[_elem(f, c) for c in row] for row in spec_l]
    g = _mm(f, u, low)
    ginv = _mm(f, _unitri_inverse(f, low, False), _unitri_inverse(f, u, True))
    return g, ginv


def _conjugate_diag(f, g, ginv, diag):
    n = len(diag)
    d = [[diag[r] if r == c else f.zero() for c in range(n)] for r in range(n)]
    return _mm(f, _mm(f, g, d), ginv)


# -- exact_char0 --------------------------------------------------------

MCKAY_TABLES = ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
                "bd:2", "bd:3", "bd:4", "bd:5", "bt", "bo", "bi"]


def _mckay_expected(name):
    if name.startswith("cyclic:"):
        n = int(name.split(":")[1])
        return f"A~{n - 1}", n
    if name.startswith("bd:"):
        n = int(name.split(":")[1])
        return f"D~{n + 2}", 4 * n
    return {"bt": ("E~6", 24), "bo": ("E~7", 48), "bi": ("E~8", 120)}[name]


NARROW = [-4, -3, -2, -1, 1, 2, 3, 4]

# spectrum cases in every exact_char0 round: (case, n, m); m = 0 is Q
SPECTRUM_CASES = ([("narrow", n, 0) for n in range(2, 8)]
                  + [("wide", n, 0) for n in (3, 4, 5)]
                  + [("cyclotomic", 2, 3), ("cyclotomic", 3, 4),
                     ("cyclotomic", 4, 3)]
                  + [("nonrational", 2, 3), ("nonrational", 3, 5)]
                  + [("singular", 3, 0), ("singular", 4, 0)])
# cases the root search refuses today; judge() counts those as refusals
REFUSED_CASES = ("nonrational", "singular")


def _zeta_pow_spec(k):
    return [0] * k + [1]


def _spectrum_eigenvalues(rng, case, n, m):
    ys = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
    if case == "narrow":
        # one eigenvalue twice, so y is split on a 2-dimensional block
        xs = rng.sample(NARROW, n - 1)
        xs.append(xs[0])
    elif case == "wide":
        # two wide eigenvalues, so the divisor enumeration of the constant
        # term does real work; |constant term| stays in [4e4, 2e5)
        while True:
            xs = [rng.choice([-1, 1]) * rng.randint(11, 150) for _ in range(2)]
            xs += rng.sample(NARROW, n - 2)
            prod = 1
            for x in xs:
                prod *= x
            if 40000 <= abs(prod) < 200000 and len(set(xs)) == n:
                break
    elif case == "cyclotomic":
        # a Galois-closed pair of roots of unity next to rational values:
        # the characteristic polynomial has rational coefficients
        pair = {3: (1, 2), 4: (1, 3)}[m]
        xs = [_zeta_pow_spec(pair[0]), _zeta_pow_spec(pair[1])]
        xs += [rng.choice(NARROW) for _ in range(n - 2)]
    elif case == "nonrational":
        # zeta^k without its conjugates: a coefficient is not rational
        xs = [_zeta_pow_spec(rng.randrange(1, m))]
        xs += [rng.choice(NARROW) for _ in range(n - 1)]
    else:  # singular: eigenvalue 0 next to distinct nonzero ones
        xs = [0] + rng.sample([1, 2, 3, 4, -1, -2, -3, -4], n - 1)
    order = list(range(n))
    rng.shuffle(order)
    return [xs[k] for k in order], [ys[k] for k in order]


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        return [[]]
    return [[k] + rest for k in range(min(n, largest), 0, -1)
            for rest in _partitions(n - k, k)]


GG_QUIVERS = {
    "a2": (("1", "2"), (("a1", "2", "1"),), "finite"),
    "a3": (("1", "2", "3"), (("a1", "2", "1"), ("a2", "3", "2")), "finite"),
    "affine_a1": (("1", "2"), (("e", "1", "2"), ("f", "1", "2")), "affine"),
    "affine_a2": (("1", "2", "3"),
                  (("e1", "1", "2"), ("e2", "2", "3"), ("e3", "3", "1")),
                  "affine"),
    "jordan": (("0",), (("x", "0", "0"),), "affine"),
}
# (quiver, v, random lambda?); lambda = 0 otherwise
GG_CASES = [("a2", (1, 1), False), ("a3", (1, 2, 1), True),
            ("affine_a1", (2, 2), True), ("affine_a2", (1, 1, 1), False),
            ("jordan", (3,), False)]

A2_CARTAN = [[2, -1], [-1, 2]]


def _exact_char0_round(rng):
    specs = [{"op": "mckay", "table": name} for name in MCKAY_TABLES]
    for case, n, m in SPECTRUM_CASES:
        xs, ys = _spectrum_eigenvalues(rng, case, n, m)
        specs.append({"op": "spectrum", "case": case, "n": n, "m": m,
                      "eig_x": xs, "eig_y": ys,
                      "u": _random_unitri(rng, n, True, m),
                      "l": _random_unitri(rng, n, False, m)})
    for n in range(2, 7):
        specs.append({"op": "ideal", "n": n,
                      "partition": rng.choice(_partitions(n)),
                      "u": _random_unitri(rng, n, True, 0),
                      "l": _random_unitri(rng, n, False, 0)})
    for qname, v, random_lam in GG_CASES:
        verts = GG_QUIVERS[qname][0]
        lam = [0] * len(verts)
        if random_lam:
            # random lambda with lambda . v = 0, solved on the last vertex
            lam = [rng.randint(-2, 2) for _ in verts[:-1]]
            lam.append(str(Fraction(-sum(a * b for a, b in zip(lam, v)),
                                    v[-1])))
        specs.append({"op": "gg", "quiver": qname, "v": list(v), "lam": lam})
    for n in (2, 3, 4):
        e1 = [rng.choice(NARROW) for _ in range(n)]
        e2 = list(e1) if rng.random() < 0.5 else \
            [rng.choice(NARROW) for _ in range(n)]
        rng.shuffle(e2)
        specs.append({"op": "traces", "eig1": e1, "eig2": e2,
                      "g1": [_random_unitri(rng, n, True, 0),
                             _random_unitri(rng, n, False, 0)],
                      "g2": [_random_unitri(rng, n, True, 0),
                             _random_unitri(rng, n, False, 0)]})
    for lam in ([1, 2], [2, 2], [3, 1]):
        k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
        mu = [lam[0] - 2 * k1 + k2, lam[1] + k1 - 2 * k2]
        specs.append({"op": "freudenthal", "lam": lam, "mu": mu})
    rng.shuffle(specs)
    return specs


def _build_mckay(spec):
    name = spec["table"]
    ade, order = _mckay_expected(name)

    def call():
        t = mckay.table_by_name(name)
        return mckay.mckay_quiver(t), mckay.verify_ade(t)

    def check(res, _):
        a, ver = res
        k = len(a)
        return (ver["type"] == ade and ver["kernel_ok"]
                and ver["trivial_vertex_degree_one"]
                and sum(d * d for d in ver["delta"]) == order
                and all(a[i][j] == a[j][i] and a[i][j] >= 0
                        for i in range(k) for j in range(k)))

    return Op("mckay", call, None, check)


def _build_spectrum(spec):
    f = _field(spec)
    n = spec["n"]
    xs = [_elem(f, c) for c in spec["eig_x"]]
    ys = [_elem(f, c) for c in spec["eig_y"]]
    g, ginv = _conjugator(f, spec["u"], spec["l"])
    x = Mat(f, _conjugate_diag(f, g, ginv, xs), n, n)
    y = Mat(f, _conjugate_diag(f, g, ginv, ys), n, n)
    maxdeg = 3
    traces = {}
    for d in range(maxdeg + 1):
        for b in range(d + 1):
            a = d - b
            acc = f.zero()
            for ex, ey in zip(xs, ys):
                term = f.one()
                for _ in range(a):
                    term = f.mul(term, ex)
                for _ in range(b):
                    term = f.mul(term, ey)
                acc = f.add(acc, term)
            traces[(a, b)] = acc
    expected = (Counter(zip(xs, ys)), traces)

    def call():
        return adhm.joint_spectrum(x, y), adhm.power_traces(x, y, maxdeg)

    def check(res, exp):
        pairs, tr = res
        return Counter(pairs) == exp[0] and tr == exp[1]

    return Op("spectrum", call, expected, check,
              refusable=spec["case"] in REFUSED_CASES)


def _minimal_generators(cells):
    out = []
    n = len(cells)
    for d in range(n + 1):
        for b in range(d + 1):
            a = d - b
            if (a, b) in cells:
                continue
            if (a == 0 or (a - 1, b) in cells) and (b == 0 or (a, b - 1) in cells):
                out.append((a, b))
    return tuple(sorted(out))


def _build_ideal(spec):
    n = spec["n"]
    cells = {(a, b) for b, row in enumerate(spec["partition"])
             for a in range(row)}
    order = sorted(cells)
    index = {c: k for k, c in enumerate(order)}
    f = QQ
    x = [[f.zero()] * n for _ in range(n)]
    y = [[f.zero()] * n for _ in range(n)]
    for (a, b), k in index.items():
        if (a + 1, b) in index:
            x[index[(a + 1, b)]][k] = f.one()
        if (a, b + 1) in index:
            y[index[(a, b + 1)]][k] = f.one()
    ivec = [[f.one() if c == (0, 0) else f.zero()] for c in order]
    g, ginv = _conjugator(f, spec["u"], spec["l"])
    d = AdhmData(n, Mat(f, _mm(f, _mm(f, g, x), ginv), n, n),
                 Mat(f, _mm(f, _mm(f, g, y), ginv), n, n),
                 Mat(f, _mm(f, g, ivec), n, 1),
                 Mat(f, [[f.zero()] * n], 1, n), f)
    expected = (tuple(order), _minimal_generators(cells), n)

    def call():
        return adhm.ideal_from_triple(d)

    def check(view, exp):
        return (tuple(sorted(view.staircase)), tuple(sorted(view.leading_terms)),
                view.codim) == exp

    return Op("ideal", call, expected, check)


def _gg_expected(qname, v, lam):
    """Independent decomposition count for the lambda-fiber analysis."""
    verts, edges, ctype = GG_QUIVERS[qname]
    pos = {k: i for i, k in enumerate(verts)}
    n = len(verts)

    def aform(a):
        return sum(a[pos[t]] * a[pos[h]] for _, t, h in edges)

    def defect(a):
        return 1 + aform(a) - sum(x * x for x in a)

    box = [()]
    for k in range(n):
        box = [b + (x,) for b in box for x in range(v[k] + 1)]
    rts = [a for a in box if any(a)
           and 2 * sum(x * x for x in a) - 2 * aform(a) <= 2
           and sum(Fraction(lam[k]) * a[k] for k in range(n)) == 0]
    rts.sort(reverse=True)
    decomps = []

    def rec(rest, start, parts):
        if not any(rest):
            decomps.append(tuple(parts))
            return
        for k in range(start, len(rts)):
            r = rts[k]
            if all(x >= y for x, y in zip(rest, r)):
                rec(tuple(x - y for x, y in zip(rest, r)), k, parts + [r])

    rec(tuple(v), 0, [])
    pv = defect(v)
    totals = [sum(defect(r) for r in d) for d in decomps]
    comps = Counter(tuple(sorted(d)) for d, t in zip(decomps, totals) if t == pv)
    return {"cartan_type": ctype, "flat": all(t <= pv for t in totals),
            "strict": all(len(c) == 1 for c in comps),
            "num_decompositions": len(decomps), "components": comps,
            "component_dim": 1 + 2 * aform(v) - sum(x * x for x in v)}


def _build_gg(spec):
    qname = spec["quiver"]
    verts, edges, _ = GG_QUIVERS[qname]
    q = Quiver(tuple(verts), tuple(Edge(nm, t, h) for nm, t, h in edges))
    v = dict(zip(verts, spec["v"]))
    lam = {k: Fraction(x) for k, x in zip(verts, spec["lam"])}
    expected = _gg_expected(qname, spec["v"], spec["lam"])

    def call():
        return roots.gg_analysis(q, lam, v)

    def check(res, exp):
        comps = Counter(tuple(sorted(tuple(a[k] for k in verts) for a in comp))
                        for comp in res["components"])
        return all(res[k] == exp[k] for k in ("cartan_type", "flat", "strict",
                                              "num_decompositions",
                                              "component_dim")) \
            and comps == exp["components"]

    return Op("gg", call, expected, check)


def _build_traces(spec):
    f = QQ
    jq = Quiver(("0",), (Edge("x", "0", "0"),))
    out = []
    for eig, (su, sl) in ((spec["eig1"], spec["g1"]), (spec["eig2"], spec["g2"])):
        n = len(eig)
        g, ginv = _conjugator(f, su, sl)
        diag = [f.from_int(e) for e in eig]
        rep = Rep(jq, f, {"0": n}, {"x": Mat(f, _conjugate_diag(f, g, ginv, diag),
                                             n, n)})
        sig = [(("x",) * k, sum(Fraction(e) ** k for e in eig))
               for k in range(1, n + 1)]
        out.append((rep, n, sig))
    (r1, n1, s1), (r2, n2, s2) = out

    def call():
        return (reps.trace_signature(r1, n1), reps.trace_signature(r2, n2))

    def check(res, exp):
        return [tuple(t) for t in res[0]] == exp[0] and \
            [tuple(t) for t in res[1]] == exp[1]

    return Op("traces", call, (s1, s2), check)


def _a2_weyl_group():
    """The six elements of W(A2) acting on fundamental-weight coordinates,
    with their signs."""
    gens = [lambda w: (-w[0], w[0] + w[1]), lambda w: (w[0] + w[1], -w[1])]
    elems = {((1, 0), (0, 1)): 1}
    frontier = [((1, 0), (0, 1))]
    while frontier:
        nxt = []
        for img in frontier:
            for s in gens:
                new = (s(img[0]), s(img[1]))
                if new not in elems:
                    elems[new] = -elems[img]
                    nxt.append(new)
        frontier = nxt
    return list(elems.items())


def _kostant_a2(b):
    """Kostant partition function of A2 at b (fundamental-weight coords)."""
    k1, r1 = divmod(2 * b[0] + b[1], 3)
    k2, r2 = divmod(b[0] + 2 * b[1], 3)
    if r1 or r2 or k1 < 0 or k2 < 0:
        return 0
    return min(k1, k2) + 1


def _a2_multiplicity(lam, mu):
    """Weight multiplicity by Kostant's formula, independent of roots.py."""
    lr = (lam[0] + 1, lam[1] + 1)
    mr = (mu[0] + 1, mu[1] + 1)
    total = 0
    for (c0, c1), sign in _a2_weyl_group():
        # image of lr under the linear map sending (1,0)->c0, (0,1)->c1
        w = (lr[0] * c0[0] + lr[1] * c1[0], lr[0] * c0[1] + lr[1] * c1[1])
        total += sign * _kostant_a2((w[0] - mr[0], w[1] - mr[1]))
    return total


def _build_freudenthal(spec):
    lam, mu = spec["lam"], spec["mu"]

    def call():
        return roots.freudenthal_mult(A2_CARTAN, lam, mu)

    return Op("freudenthal", call, _a2_multiplicity(lam, mu), _same)


# -- flags_fq -----------------------------------------------------------

HECKE_CASES = [(3, 2), (2, 3), (2, 3), (2, 2), (2, 2)]
GROUP_CASES = [4, 3, 3]
# (p, sizes of X1..X4) of the convolution ops of every round; p = 0 is Q.
# Fixed, so that the seed moves only entries and relations, not op costs.
_SHAPES = random.Random("flags_fq conv shapes")
CONV_CASES = [((0, 0, 3, 5)[k % 4], tuple(_SHAPES.randint(3, 9) for _ in range(4)))
              for k in range(22)]


def _flags_fq_round(rng):
    specs = [{"op": "hecke", "n": n, "q": q} for n, q in HECKE_CASES]
    for n in GROUP_CASES:
        size = len(list(permutations(range(n))))
        relabel = list(range(size))
        rng.shuffle(relabel)
        specs.append({"op": "group", "n": n, "relabel": relabel})
    for p, sizes in CONV_CASES:
        def kernel(rows, cols):
            return [[(rng.randrange(p) if p else rng.randint(-4, 4))
                     for _ in range(cols)] for _ in range(rows)]

        def relation(a, b):
            return sorted([x, y] for x in range(a) for y in range(b)
                          if rng.random() < 0.3)

        specs.append({"op": "conv", "p": p, "sizes": list(sizes),
                      "k": [kernel(sizes[k + 1], sizes[k]) for k in range(3)],
                      "z12": relation(sizes[0], sizes[1]),
                      "z23": relation(sizes[1], sizes[2])})
    rng.shuffle(specs)
    return specs


def _q_factorial(n, q):
    out = 1
    for k in range(1, n + 1):
        out *= (q ** k - 1) // (q - 1)
    return out


def _build_hecke(spec):
    n, q = spec["n"], spec["q"]
    perms = list(permutations(range(n)))
    mahonian = Counter(q ** sum(1 for a in range(n) for b in range(a + 1, n)
                                if w[a] > w[b]) for w in perms)
    expected = (len(perms), _q_factorial(n, q), mahonian)

    def call():
        return convolution.hecke_algebra(n, q)

    def check(h, exp):
        n_orb, n_flags, dist = exp
        c, u = h["constants"], h["unit_index"]
        k = h["num_orbits"]
        if (k, h["num_flags"]) != (n_orb, n_flags) or len(c) != k:
            return False
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    if c[u][j][m] != (j == m) or c[i][u][m] != (i == m):
                        return False
        seen = Counter()
        for i in range(k):
            hits = [c[i][j][u] for j in range(k) if c[i][j][u]]
            if len(hits) != 1:
                return False
            seen[hits[0]] += 1
        if seen != dist:
            return False
        simple = [s for s in range(k) if c[s][s][u] == q]
        if len(simple) != n - 1:
            return False
        for s in simple:
            want = [0] * k
            want[s], want[u] = q - 1, q
            if c[s][s] != want:
                return False
        return True

    return Op("hecke", call, expected, check)


def _build_group(spec):
    n = spec["n"]
    perms = sorted(permutations(range(n)))
    idx = {p: k for k, p in enumerate(perms)}
    sigma = spec["relabel"]
    table = [[0] * len(perms) for _ in perms]
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            prod = idx[tuple(pa[pb[i]] for i in range(n))]
            table[sigma[a]][sigma[b]] = sigma[prod]
    names = [""] * len(perms)
    for a, pa in enumerate(perms):
        names[sigma[a]] = "".join(map(str, pa))
    g = FiniteGroup(tuple(tuple(r) for r in table), tuple(names))

    def call():
        return convolution.group_algebra_matches_invariant(g)

    return Op("group", call, True, _same)


def _build_conv(spec):
    p = spec["p"]
    f = PrimeField(p) if p else QQ
    sizes = spec["sizes"]
    sets = [finset([f"s{k}_{i}" for i in range(n)]) for k, n in enumerate(sizes)]
    ks = [FiniteKernel(sets[k], sets[k + 1],
                       Mat(f, [[f.from_int(x) for x in row] for row in spec["k"][k]],
                           sizes[k + 1], sizes[k]))
          for k in range(3)]
    z12 = Correspondence(sets[0], sets[1], frozenset(
        (sets[0].labels[a], sets[1].labels[b]) for a, b in spec["z12"]))
    z23 = Correspondence(sets[1], sets[2], frozenset(
        (sets[1].labels[b], sets[2].labels[c]) for b, c in spec["z23"]))

    def indicator(rel, src, tgt):
        # over Q, so path counts cannot vanish mod p
        return FiniteKernel(src, tgt, Mat(QQ, [[QQ.from_int(int((a, b) in rel))
                                                for a in range(len(src))]
                                               for b in range(len(tgt))],
                                          len(tgt), len(src)))

    ind12 = indicator({tuple(x) for x in spec["z12"]}, sets[0], sets[1])
    ind23 = indicator({tuple(x) for x in spec["z23"]}, sets[1], sets[2])

    def reduce(x):
        return x % p if p else Fraction(x)

    def product(a, b):
        return tuple(tuple(reduce(sum(a[r][k] * b[k][c] for k in range(len(b))))
                           for c in range(len(b[0]))) for r in range(len(a)))

    k21 = product(spec["k"][1], spec["k"][0])
    k321 = product(spec["k"][2], k21)
    composed = {(a, c) for a, b in spec["z12"] for b2, c in spec["z23"] if b == b2}
    expected = (k321, k21, frozenset(
        (sets[0].labels[a], sets[2].labels[c]) for a, c in composed), composed)

    def call():
        left = convolution.convolve(ks[2], convolution.convolve(ks[1], ks[0]))
        right = convolution.convolve(convolution.convolve(ks[2], ks[1]), ks[0])
        pull = convolution.convolve_via_pullback(ks[1], ks[0])
        corr = convolution.compose_corr(z12, z23)
        ind = convolution.convolve(ind23, ind12)
        return left, right, pull, corr, ind

    def check(res, exp):
        left, right, pull, corr, ind = res
        support = {(a, c) for c, row in enumerate(ind.mat.data)
                   for a, val in enumerate(row) if val != 0}
        return (left.mat.data == exp[0] and right.mat.data == exp[0]
                and pull.mat.data == exp[1] and corr.pairs == exp[2]
                and support == exp[3])

    return Op("conv", call, expected, check)


# -- registry -----------------------------------------------------------

_ROUNDS = {"oracle_fp": _oracle_fp_round, "exact_char0": _exact_char0_round,
           "flags_fq": _flags_fq_round}
_MAKE_OP = {"stability": _build_stability, "mckay": _build_mckay,
             "spectrum": _build_spectrum, "ideal": _build_ideal,
             "gg": _build_gg, "traces": _build_traces,
             "freudenthal": _build_freudenthal, "hecke": _build_hecke,
             "group": _build_group, "conv": _build_conv}
WORKLOADS = tuple(_ROUNDS)


def round_specs(workload: str, seed: int, r: int) -> list:
    """Round ``r`` of a workload as plain data; a pure function of its args."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    return _ROUNDS[workload](rng)


def build_op(spec) -> Op:
    return _MAKE_OP[spec["op"]](spec)


def build_round(workload: str, seed: int, r: int) -> list:
    return [build_op(s) for s in round_specs(workload, seed, r)]
