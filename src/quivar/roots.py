"""Root combinatorics: the defect p(v), bounded root lists, regularity of
hyper-Kaehler parameters, moment-fiber flatness/component analysis, Cartan
classification, and weight bookkeeping with a Freudenthal oracle."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .fields import QQ
from .linalg import Mat
from .quiver import (Quiver, aq_form, cartan, cartan_form, check_dimvector,
                     dot)


class RootsError(ValueError):
    pass


@dataclass(frozen=True)
class HKParam:
    """Hyper-Kaehler parameter: complex lambda (exact re/im parts) and
    integral theta, both indexed by the vertices."""
    lam: dict  # vertex -> (Fraction re, Fraction im)
    theta: dict  # vertex -> int

    @staticmethod
    def make(lam_re: dict, theta: dict, lam_im: dict = None):
        lam = {k: (Fraction(lam_re.get(k, 0)),
                   Fraction((lam_im or {}).get(k, 0))) for k in set(lam_re) | set(theta)}
        return HKParam(lam, {k: int(x) for k, x in theta.items()})


def p_defect(q: Quiver, v: dict) -> int:
    """p(v) = 1 + A_Q v.v - v.v; controls flatness and component counts."""
    v = check_dimvector(q, v)
    return 1 + aq_form(q, v, v) - dot(v, v)


def rprime_below(q: Quiver, v: dict):
    """All 0 < alpha <= v with C_Q alpha.alpha <= 2, by box enumeration."""
    v = check_dimvector(q, v)
    verts = list(q.vertices)
    out = []
    for tup in product(*[range(v[k] + 1) for k in verts]):
        if all(x == 0 for x in tup):
            continue
        alpha = dict(zip(verts, tup))
        if cartan_form(q, alpha, alpha) <= 2:
            out.append(alpha)
    out.sort(key=lambda a: tuple(a[k] for k in verts))
    return out


def is_v_regular(q: Quiver, param: HKParam, v: dict) -> dict:
    """True iff no alpha <= v in the bounded root list is annihilated by both
    lambda (as a complex pairing) and theta."""
    result = {"regular": True, "witness": None}
    for alpha in rprime_below(q, v):
        lre = sum(param.lam[k][0] * alpha[k] for k in alpha)
        lim = sum(param.lam[k][1] * alpha[k] for k in alpha)
        th = sum(param.theta[k] * alpha[k] for k in alpha)
        if lre == 0 and lim == 0 and th == 0:
            return {"regular": False, "witness": alpha}
    return result


def classify_cartan(c) -> str:
    """finite | affine | indefinite, for symmetric C with C_ii <= 2.

    finite: positive definite (leading principal minors > 0); affine:
    det = 0 with all proper principal minors > 0; otherwise indefinite.
    """
    n = len(c)
    if any(c[i][j] != c[j][i] for i in range(n) for j in range(n)):
        raise RootsError("Cartan matrix must be symmetric")
    if any(c[i][i] > 2 for i in range(n)):
        raise RootsError("diagonal entries must be <= 2")
    m = Mat.from_ints(QQ, c)

    def minor(idx):
        return m.submatrix(idx, idx).det()

    leading = [minor(list(range(k + 1))) for k in range(n)]
    if all(x > 0 for x in leading):
        return "finite"
    # proper principal minors, all subsets of size < n
    full = minor(list(range(n)))
    if full == 0:
        proper_ok = True
        for mask in range(1, 2 ** n - 1):
            idx = [i for i in range(n) if mask >> i & 1]
            if minor(idx) <= 0:
                proper_ok = False
                break
        if proper_ok:
            return "affine"
    return "indefinite"


def _decompositions(v_tup, roots, start):
    """Multiset decompositions of v_tup into roots[start:], non-increasing."""
    if all(x == 0 for x in v_tup):
        return [()]
    out = []
    for k in range(start, len(roots)):
        r = roots[k]
        if all(a >= b for a, b in zip(v_tup, r)):
            rest = tuple(a - b for a, b in zip(v_tup, r))
            for tail in _decompositions(rest, roots, k):
                out.append((k,) + tail)
    return out


def gg_analysis(q: Quiver, lam: dict, v: dict) -> dict:
    """Flatness and component analysis of the lambda-fiber of the moment map.

    Enumerates all multiset decompositions of v into roots alpha <= v with
    lambda . alpha = 0, compares p(v) with the summed defects, and reports
    the equality decompositions (the irreducible components) together with
    the common component dimension 1 + 2 A_Q v.v - v.v.

    Restricted to finite/affine Cartan type, where the bounded root list
    coincides with the genuine root system.
    """
    v = check_dimvector(q, v)
    lam = {k: Fraction(lam.get(k, 0)) for k in q.vertices}
    if sum(lam[k] * v[k] for k in v) != 0:
        raise RootsError("lambda . v must vanish for the fiber to be nonempty")
    kind = classify_cartan(cartan(q))
    if kind == "indefinite":
        raise RootsError("indefinite Cartan type is not supported")
    verts = list(q.vertices)
    rlam = [a for a in rprime_below(q, v)
            if sum(lam[k] * a[k] for k in a) == 0]
    roots_tup = sorted([tuple(a[k] for k in verts) for a in rlam], reverse=True)
    v_tup = tuple(v[k] for k in verts)
    decomps = _decompositions(v_tup, roots_tup, 0)
    pv = p_defect(q, v)
    pr = {r: p_defect(q, dict(zip(verts, r))) for r in roots_tup}
    flat = True
    strict = True
    components = []
    for d in decomps:
        parts = [roots_tup[k] for k in d]
        total = sum(pr[r] for r in parts)
        if total > pv:
            flat = False
        if total == pv:
            components.append([dict(zip(verts, r)) for r in parts])
            if len(parts) > 1:
                strict = False
    component_dim = 1 + 2 * aq_form(q, v, v) - dot(v, v)
    return {"cartan_type": kind, "flat": flat, "strict": strict,
            "num_decompositions": len(decomps),
            "components": components,
            "component_dim": component_dim}


# -- weights -----------------------------------------------------------

def weight_of(q: Quiver, v: dict, w: dict) -> dict:
    """w - C_Q v, in the fundamental-weight basis."""
    v = check_dimvector(q, v)
    w = check_dimvector(q, w)
    c = cartan(q)
    idx = q.vertex_index
    return {i: w[i] - sum(c[idx[i]][idx[j]] * v[j] for j in q.vertices)
            for i in q.vertices}


def is_dominant(weight: dict) -> bool:
    return all(x >= 0 for x in weight.values())


# -- Freudenthal recursion (finite type oracle) ------------------------

def positive_roots(c):
    """Positive roots of a finite-type symmetric Cartan matrix, in
    simple-root coordinates, generated by simple reflections."""
    n = len(c)
    simple = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for j in range(n):
                pairing = sum(beta[i] * c[i][j] for i in range(n))
                refl = tuple(beta[i] - (pairing if i == j else 0)
                             for i in range(n))
                if refl not in roots:
                    new.add(refl)
        roots |= new
        frontier = new
    return sorted(r for r in roots if all(x >= 0 for x in r))


def freudenthal_mult(c, lam, mu) -> int:
    """Weight multiplicity of mu in the irreducible module with highest
    weight lam (both in fundamental-weight coordinates), via the
    Freudenthal recursion over the finite positive-root list.

    C^-1 is cleared once to adj(C) / det(C), so the recursion runs in ints:
    ``inner`` is det(C) times the form, which cancels from the quotient of
    the recursion, and the root coordinates C^-1 (lam - m) are a divmod by
    det(C) > 0."""
    if classify_cartan(c) != "finite":
        raise RootsError("Freudenthal recursion requires finite type")
    n = len(c)
    lam = tuple(int(x) for x in lam)
    mu = tuple(int(x) for x in mu)
    if any(x < 0 for x in lam):
        raise RootsError("highest weight must be dominant")
    cm = Mat.from_ints(QQ, c)
    det = cm.det()  # > 0: the finite type is positive definite
    adj = cm.solve(Mat.identity(QQ, n)).scale(det).data  # integral

    def inner(a, b):  # det(C) (a, b), both in fundamental-weight coords
        return sum(a[i] * adj[i][j] * b[j] for i in range(n) for j in range(n))

    def root_gap(m):
        # coefficients k with lam - m = sum k_i alpha_i, or None
        diff = [lam[i] - m[i] for i in range(n)]
        ks = []
        for row in adj:
            k, r = divmod(sum(x * y for x, y in zip(row, diff)), det)
            if r or k < 0:
                return None
            ks.append(k)
        return tuple(ks)

    pos = positive_roots(c)
    pos_w = [tuple(sum(c[i][j] * r[j] for j in range(n)) for i in range(n))
             for r in pos]  # in fundamental-weight coords
    rho = (1,) * n
    lr = tuple(lam[i] + rho[i] for i in range(n))
    top = inner(lr, lr)
    memo = {}

    def mult(m):
        if m in memo:
            return memo[m]
        gap = root_gap(m)
        if gap is None:
            return 0
        if all(k == 0 for k in gap):
            memo[m] = 1
            return 1
        num = 0
        for aw in pos_w:
            k = 1
            while True:
                nu = tuple(m[i] + k * aw[i] for i in range(n))
                if root_gap(nu) is None:
                    break
                mv = mult(nu)
                if mv:
                    num += mv * inner(nu, aw)
                k += 1
        mr = tuple(m[i] + rho[i] for i in range(n))
        denom = top - inner(mr, mr)
        if denom <= 0:
            memo[m] = 0
            return 0
        val, rest = divmod(2 * num, denom)
        if rest or val < 0:
            raise RootsError("Freudenthal recursion produced a non-integer")
        memo[m] = val
        return val

    return mult(mu)
