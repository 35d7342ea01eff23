"""Acceptance checks shared by ``qv selftest`` and the test suite.

Each check returns a report dict with keys name, ok, detail, elapsed, and
bound (the stated time budget in seconds). All arithmetic is exact; the
randomized checks are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product
from math import factorial

from .adhm import count_codim2_ideals_f2, count_hilbert_orbits_f2_n2
from .convolution import (FiniteKernel, convolve, convolve_via_pullback,
                          finset, group_algebra_matches_invariant,
                          hecke_algebra, symmetric_group)
from .fields import PrimeField, QQ
from .linalg import Mat
from .mckay import cyclic_table, binary_dihedral_table, exceptional_table, \
    mckay_quiver, verify_ade
from .quiver import (cartan, dims, double, jordan_quiver, make_quiver,
                     type_a_quiver)
from .reps import (FramedRep, Rep, is_stable_minus, is_stable_plus,
                   moment_residual, random_framed_rep, semistable_bruteforce,
                   trace_signature, unframed_fiber_obstruction)
from .roots import freudenthal_mult, gg_analysis, weight_of


def _timed(bound):
    def wrap(fn):
        def run(seed=0):
            t0 = time.perf_counter()
            ok, detail = fn(seed)
            elapsed = time.perf_counter() - t0
            return {"name": fn.__name__[len("check_"):], "ok": bool(ok),
                    "detail": detail, "elapsed": round(elapsed, 3),
                    "bound": bound}
        return run
    return wrap


# 1 -- closed-form dimension counts ------------------------------------

@_timed(1.0)
def check_dimension_formulas(seed):
    jq = jordan_quiver()
    for v in range(1, 6):
        d = dims(jq, {"0": v}, {"0": 1})
        if d["nakajima_dim"] != 2 * v:
            return False, f"jordan v={v}: got {d['nakajima_dim']}, want {2*v}"
    a1 = make_quiver(["1"], [])
    for r in range(0, 6):
        for k in range(0, r + 1):
            d = dims(a1, {"1": k}, {"1": r})
            if d["nakajima_dim"] != 2 * k * (r - k):
                return False, f"a1 k={k} r={r}: got {d['nakajima_dim']}"
    return True, "jordan 2v for v=1..5; one-vertex 2k(r-k) for 0<=k<=r<=5"


# 2 -- flag convolution ------------------------------------------------

@_timed(5.0)
def check_hecke_relation(seed):
    for n, q in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        h = hecke_algebra(n, q)
        c, u, k = h["constants"], h["unit_index"], h["num_orbits"]
        if k != factorial(n):
            return False, f"n={n} q={q}: {k} orbits"
        if n == 2 and h["relation"] != {"T_coeff": q - 1, "unit_coeff": q}:
            return False, f"n=2 q={q}: relation {h['relation']}"
        # simple orbits s: q flags in relative position s to a fixed flag
        simple = [s for s in range(k) if c[s][s][u] == q]
        want = [[(q - 1) * (m == s) + q * (m == u) for m in range(k)]
                for s in simple]
        if len(simple) != n - 1 or [c[s][s] for s in simple] != want:
            return False, f"n={n} q={q}: T_s^2 = (q-1)T_s + q fails"
    return True, ("n! orbits and T_s^2=(q-1)T_s+q for (n, q) = (2, 2), "
                  "(2, 3), (3, 2), (3, 3), (4, 2)")


# 3 -- character-theoretic quivers -------------------------------------

@_timed(2.0)
def check_mckay_tables(seed):
    cyclic = [cyclic_table(n) for n in range(2, 7)]
    for n, t in zip(range(2, 7), cyclic):
        a = mckay_quiver(t)
        want = [[(2 if n == 2 and i != j else
                  int((i - j) % n == 1) + int((j - i) % n == 1))
                 for j in range(n)] for i in range(n)]
        if a != want:
            return False, f"cyclic {n}: adjacency {a}"
    bd2 = binary_dihedral_table(2)
    tables = cyclic + [bd2, binary_dihedral_table(3)]
    tables += [exceptional_table(k) for k in ("bt", "bo", "bi")]
    if verify_ade(bd2)["type"] != "D~4":
        return False, "binary dihedral order 8 is not affine D4"
    for t in tables:
        rep = verify_ade(t)
        a = mckay_quiver(t)
        k = len(a)
        if not rep["kernel_ok"]:
            return False, f"{t.name}: C delta != 0"
        if any(a[i][j] != a[j][i] or a[i][j] < 0 for i in range(k)
               for j in range(k)):
            return False, f"{t.name}: multiplicity matrix not symmetric/integral"
    return True, "cyclic doubles for n=2..6, BD2 -> D~4, C delta = 0 on all tables"


# 4 -- stability oracle agreement --------------------------------------

def _all_mats(field, rows, cols):
    vals = [field.from_int(k) for k in range(field.p)]
    for entries in product(vals, repeat=rows * cols):
        yield Mat(field, [list(entries[r * cols:(r + 1) * cols])
                          for r in range(rows)], rows, cols)


def _all_framed(dq, v, w, field):
    shapes = [(e.name, v[e.head], v[e.tail]) for e in dq.edges]
    fr_shapes = [(k, v[k], w.get(k, 0)) for k in dq.vertices]
    pools = [list(_all_mats(field, r, c)) for _, r, c in shapes]
    ipools = [list(_all_mats(field, r, c)) for _, r, c in fr_shapes]
    jpools = [list(_all_mats(field, c, r)) for _, r, c in fr_shapes]
    for mats in product(*pools):
        rep = Rep(dq, field, v, {nm: m for (nm, _, _), m in zip(shapes, mats)})
        for imats in product(*ipools):
            for jmats in product(*jpools):
                yield FramedRep(rep, w,
                                {k: m for (k, _, _), m in zip(fr_shapes, imats)},
                                {k: m for (k, _, _), m in zip(fr_shapes, jmats)})


def _agree(fr) -> bool:
    # both verdicts read the invariant subspaces the quadruple keeps
    plus = semistable_bruteforce(fr, {k: 1 for k in fr.v})
    minus = semistable_bruteforce(fr, {k: -1 for k in fr.v})
    return (plus["stable"] == is_stable_plus(fr)
            and minus["stable"] == is_stable_minus(fr))


@_timed(60.0)
def check_stability_oracle(seed):
    f2 = PrimeField(2)
    checked = 0
    # exhaustive families (edgeless one-vertex, the A2 double, and the
    # Jordan double at total dimension <= 2; the Jordan double at total
    # dimension 3 has 2^24 quadruples and is covered by sampling below)
    a1d = double(make_quiver(["1"], []))
    for v in (1, 2, 3):
        for fr in _all_framed(a1d, {"1": v}, {"1": 1}, f2):
            if not _agree(fr):
                return False, f"one-vertex v={v} disagreement"
            checked += 1
    a2d = double(type_a_quiver(2))
    for v in ({"1": 1, "2": 1}, {"1": 2, "2": 1}, {"1": 1, "2": 2}):
        for fr in _all_framed(a2d, v, {"1": 1, "2": 1}, f2):
            if not _agree(fr):
                return False, f"a2 v={v} disagreement"
            checked += 1
    jd = double(jordan_quiver())
    for v in (1, 2):
        for fr in _all_framed(jd, {"0": v}, {"0": 1}, f2):
            if not _agree(fr):
                return False, f"jordan v={v} disagreement"
            checked += 1
    # seeded sampling at total dimension <= 4 over F2 and F3
    rng = random.Random(seed)
    samples = 0
    cases = [(jd, {"0": 3}, {"0": 1}), (jd, {"0": 4}, {"0": 1}),
             (a2d, {"1": 2, "2": 2}, {"1": 1, "2": 1}),
             (a2d, {"1": 3, "2": 1}, {"1": 1, "2": 1})]
    for p in (2, 3):
        fp = PrimeField(p)
        for _ in range(125):
            for dq, v, w in cases:
                fr = random_framed_rep(dq, v, w, fp, rng)
                if not _agree(fr):
                    return False, f"sampled disagreement p={p} v={v}"
                samples += 1
    return True, f"{checked} exhaustive + {samples} sampled quadruples agree"


# 5 -- two counts of length-2 cyclic triples ---------------------------

@_timed(30.0)
def check_hilbert_bijection(seed):
    orbits = count_hilbert_orbits_f2_n2()
    ideals = count_codim2_ideals_f2()
    return orbits == ideals, f"orbit count {orbits}, ideal count {ideals}"


# 6 -- flat fiber with two components ----------------------------------

@_timed(1.0)
def check_fiber_components(seed):
    a2 = type_a_quiver(2)
    rep = gg_analysis(a2, {"1": 0, "2": 0}, {"1": 1, "2": 1})
    if not (rep["flat"] and len(rep["components"]) == 2
            and rep["component_dim"] == 1):
        return False, f"analysis report {rep}"
    # independent solver: the fiber is {(x, y) : xy = 0, yx = 0} in two
    # scalar variables; two affine lines give 2q - 1 points over F_q
    for q in (2, 3, 5, 7, 11):
        count = sum(1 for x in range(q) for y in range(q)
                    if (x * y) % q == 0 and (y * x) % q == 0)
        if count != 2 * q - 1:
            return False, f"point count over F_{q}: {count}"
    return True, "flat, 2 components of dim 1; point counts match 2q-1"


# 7 -- trace separation of semisimple representations ------------------

@_timed(10.0)
def check_trace_separation(seed):
    rng = random.Random(seed)
    jq = jordan_quiver()
    pool = [Fraction(k) for k in range(-3, 4)]
    for _ in range(200):
        v = rng.randint(1, 4)
        eig1 = sorted(rng.choice(pool) for _ in range(v))
        eig2 = sorted(rng.choice(pool) for _ in range(v))
        mats = []
        for eig in (eig1, eig2):
            diag = Mat(QQ, [[eig[r] if r == c else Fraction(0)
                             for c in range(v)] for r in range(v)], v, v)
            g = _random_invertible(QQ, v, rng)
            mats.append(g @ diag @ g.solve(Mat.identity(QQ, v)))
        r1 = Rep(jq, QQ, {"0": v}, {"x": mats[0]})
        r2 = Rep(jq, QQ, {"0": v}, {"x": mats[1]})
        same_sig = trace_signature(r1, v) == trace_signature(r2, v)
        if same_sig != (eig1 == eig2):
            return False, f"eigenvalues {eig1} vs {eig2}: separation failed"
    return True, "200 seeded pairs separated exactly by conjugacy"


def _random_invertible(field, n, rng):
    while True:
        m = Mat(field, [[field.random(rng, 3) for _ in range(n)]
                        for _ in range(n)], n, n)
        if not field.is_zero(m.det()):
            return m


# 8 -- convolution laws ------------------------------------------------

@_timed(5.0)
def check_convolution_laws(seed):
    rng = random.Random(seed)
    for _ in range(100):
        sizes = [rng.randint(1, 4) for _ in range(4)]
        sets = [finset([f"s{k}_{i}" for i in range(n)])
                for k, n in enumerate(sizes)]
        ks = [FiniteKernel(sets[k], sets[k + 1],
                           Mat(QQ, [[QQ.random(rng, 4)
                                     for _ in range(sizes[k])]
                                    for _ in range(sizes[k + 1])],
                               sizes[k + 1], sizes[k]))
              for k in range(3)]
        left = convolve(ks[2], convolve(ks[1], ks[0]))
        right = convolve(convolve(ks[2], ks[1]), ks[0])
        if left.mat != right.mat:
            return False, "associativity failed"
        if convolve(ks[1], ks[0]).mat != convolve_via_pullback(ks[1], ks[0]).mat:
            return False, "dual convolution formulas disagree"
    if not group_algebra_matches_invariant(symmetric_group(3)):
        return False, "group algebra vs invariant algebra mismatch for S3"
    return True, "100 triples associative; dual formulas agree; S3 identification"


# 9 -- moment-map trace identity ---------------------------------------

@_timed(5.0)
def check_moment_trace_identity(seed):
    rng = random.Random(seed)
    jd = double(jordan_quiver())
    a2d = double(type_a_quiver(2))
    cases = [(jd, {"0": 2}, {"0": 1}), (jd, {"0": 3}, {"0": 2}),
             (a2d, {"1": 2, "2": 1}, {"1": 1, "2": 1}),
             (a2d, {"1": 1, "2": 2}, {"1": 0, "2": 2}),
             (a2d, {"1": 2, "2": 2}, {"1": 1, "2": 0})]
    for k in range(500):
        dq, v, w = cases[k % len(cases)]
        fr = random_framed_rep(dq, v, w, QQ, rng)
        lam = {key: Fraction(rng.randint(-3, 3)) for key in dq.vertices}
        res = moment_residual(fr, lam)
        lhs = sum((res[key].trace() for key in dq.vertices), Fraction(0)) \
            + sum(lam[key] * v[key] for key in dq.vertices)
        rhs = sum(((fr.i[key] @ fr.j[key]).trace() for key in dq.vertices),
                  Fraction(0))
        if lhs != rhs:
            return False, f"trace identity failed at sample {k}"
    rep = unframed_fiber_obstruction(jordan_quiver(), {"0": 2}, {"0": 1})
    if not rep["empty_by_obstruction"]:
        return False, "nonzero pairing not flagged as obstruction"
    return True, "500 samples satisfy the identity; obstruction flagged"


# 10 -- weights and multiplicities -------------------------------------

def _a2_weyl_orbit_mult(lam, mu):
    """Weight multiplicity in type A2 by the alternating Weyl sum over the
    rank-2 Kostant partition function (positive roots a1, a2, a1+a2)."""
    c = [[2, -1], [-1, 2]]

    def reflect(i, m):
        return tuple(m[j] - m[i] * c[i][j] for j in range(2))

    # the 6 Weyl elements as shortest words in the simple reflections
    words = [()]
    for _ in range(3):
        words += [w + (i,) for w in words for i in (0, 1)]
    actions = {}
    for w in words:
        def act(m, w=w):
            for i in w:
                m = reflect(i, m)
            return m
        key = tuple(act((1, 0))) + tuple(act((0, 1)))
        if key not in actions or len(w) < len(actions[key][1]):
            actions[key] = (act, w)
    six = list(actions.values())

    def kostant(beta):
        # beta in simple-root coordinates
        k1, k2 = beta
        if k1 < 0 or k2 < 0:
            return 0
        return min(k1, k2) + 1

    cinv = [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]]

    def root_coords(m):
        ks = [cinv[0][0] * m[0] + cinv[0][1] * m[1],
              cinv[1][0] * m[0] + cinv[1][1] * m[1]]
        if any(k.denominator != 1 for k in ks):
            return None
        return (int(ks[0]), int(ks[1]))

    rho = (1, 1)
    total = 0
    for act, w in six:
        shifted = act(tuple(lam[i] + rho[i] for i in range(2)))
        diff = tuple(shifted[i] - mu[i] - rho[i] for i in range(2))
        rc = root_coords(diff)
        if rc is not None:
            total += (-1) ** len(w) * kostant(rc)
    return total


@_timed(2.0)
def check_weight_bookkeeping(seed):
    a2 = type_a_quiver(2)
    rng = random.Random(seed)
    c = cartan(a2)
    for _ in range(20):
        v = {"1": rng.randint(0, 3), "2": rng.randint(0, 3)}
        w = {"1": rng.randint(0, 3), "2": rng.randint(0, 3)}
        wt = weight_of(a2, v, w)
        want = {"1": w["1"] - c[0][0] * v["1"] - c[0][1] * v["2"],
                "2": w["2"] - c[1][0] * v["1"] - c[1][1] * v["2"]}
        if wt != want:
            return False, f"weight_of({v},{w}) = {wt}, want {want}"
    c1 = [[2]]
    for r in range(6):
        for k in range(r + 1):
            if freudenthal_mult(c1, (r,), (r - 2 * k,)) != 1:
                return False, f"sl2 string failed at r={r}, k={k}"
    got = freudenthal_mult(c, (1, 1), (0, 0))
    oracle = _a2_weyl_orbit_mult((1, 1), (0, 0))
    if got != 2 or oracle != 2:
        return False, f"adjoint zero-weight mult {got}, oracle {oracle}"
    return True, "w - Cv identity, sl2 strings, sl3 adjoint mult 2 (vs Weyl sum)"


ALL_CHECKS = [
    check_dimension_formulas,
    check_hecke_relation,
    check_mckay_tables,
    check_stability_oracle,
    check_hilbert_bijection,
    check_fiber_components,
    check_trace_separation,
    check_convolution_laws,
    check_moment_trace_identity,
    check_weight_bookkeeping,
]


def run_all(seed=0):
    reports = [chk(seed) for chk in ALL_CHECKS]
    return {"seed": seed, "passed": all(r["ok"] for r in reports),
            "checks": reports}
