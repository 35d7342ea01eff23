"""Root combinatorics: the defect p(v), bounded root lists, regularity of
hyper-Kaehler parameters, moment-fiber flatness/component analysis, Cartan
classification, and weight bookkeeping with a Freudenthal oracle. Each
Cartan matrix is decided once, into a cached datum, and the decompositions
of v into roots are counted by a memo instead of listed."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul, sub

from . import MathFailure
from .fields import QQ
from .linalg import Mat
from .quiver import Quiver, aq_form, cartan, check_dimvector, dot


class RootsError(MathFailure):
    pass


def _ints(xs, what: str, n: int = None) -> tuple:
    """The entries of xs as ints, n of them if n is given, or RootsError."""
    xs = tuple(xs)
    ints = tuple(map(int, xs))
    if ints != xs or bool in map(type, xs):  # int(True) == True
        raise RootsError(f"{what} entries must be integers: {list(xs)}")
    if n is not None and len(ints) != n:
        raise RootsError(f"{what} must have {n} entries, not {len(ints)}")
    return ints


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
        return HKParam(lam, dict(zip(theta, _ints(theta.values(), "theta"))))


def p_defect(q: Quiver, v: dict) -> int:
    """p(v) = 1 + A_Q v.v - v.v; controls flatness and component counts."""
    v = check_dimvector(q, v)
    return 1 + aq_form(q, v, v) - dot(v, v)


def rprime_below(q: Quiver, v: dict):
    """All 0 < alpha <= v with C_Q alpha.alpha <= 2, in lexicographic order."""
    v = check_dimvector(q, v)
    verts = list(q.vertices)
    c = cartan(q)
    return [dict(zip(verts, tup))
            for tup in product(*[range(v[k] + 1) for k in verts])
            if any(tup) and
            sum(x * sum(map(mul, row, tup)) for x, row in zip(tup, c)) <= 2]


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


# the type of C and, in finite type, det C, adj C and the positive roots in
# simple-root and in fundamental-weight coordinates
_Datum = namedtuple("_Datum", "kind det adj pos pos_w", defaults=[None] * 4)


def _datum_of(c) -> _Datum:
    """The datum of C: its entries are checked on every call, as the cache
    of ``_datum`` would take a bool for the int it equals."""
    return _datum(tuple(_ints(row, "Cartan matrix row", len(c)) for row in c))


@lru_cache(maxsize=32)
def _datum(c: tuple) -> _Datum:
    """The datum of C, given as a tuple of int rows of its length; the rest
    of C is validated once."""
    n = len(c)
    if any(c[i][j] != c[j][i] for i in range(n) for j in range(n)):
        raise RootsError("Cartan matrix must be symmetric")
    if any(c[i][i] > 2 for i in range(n)):
        raise RootsError("diagonal entries must be <= 2")
    m = Mat.from_ints(QQ, c)

    def minor(idx):
        return m.submatrix(idx, idx).det()

    def definite(idx):  # Sylvester: the leading principal minors are > 0
        return all(minor(idx[:k]) > 0 for k in range(1, len(idx) + 1))

    det = minor(list(range(n)))
    if det > 0 and definite(list(range(n - 1))):
        adj = m.solve(Mat.identity(QQ, n)).scale(det).data  # integral
        pos = tuple(positive_roots(c))
        return _Datum("finite", det, tuple(map(tuple, adj)), pos,
                      tuple(tuple(sum(map(mul, row, r)) for row in c)
                            for r in pos))
    if det == 0 and all(definite([j for j in range(n) if j != i])
                        for i in range(n)):
        return _Datum("affine")
    return _Datum("indefinite")


def classify_cartan(c) -> str:
    """finite | affine | indefinite, for symmetric C with C_ii <= 2.

    finite: positive definite (leading principal minors > 0); affine:
    det = 0 with all proper principal minors > 0 (each of the n submatrices
    that drop one vertex positive definite); otherwise indefinite.
    """
    return _datum_of(c).kind


def gg_analysis(q: Quiver, lam: dict, v: dict) -> dict:
    """Flatness and component analysis of the lambda-fiber of the moment map.

    Counts the multiset decompositions of v into roots alpha <= v with
    lambda . alpha = 0, and the set of their summed defects, by a table
    over (first root, remainder) filled root by root in order of the
    remainder; flat when no sum exceeds p(v). A walk on an explicit stack
    through the remainders that can still reach p(v) finds the equality
    ones (the irreducible components), of common dimension
    1 + 2 A_Q v.v - v.v. Neither recurses, so a decomposition may have any
    number of roots.

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
    roots = sorted([tuple(a[k] for k in verts) for a in rprime_below(q, v)
                    if sum(lam[k] * a[k] for k in a) == 0], reverse=True)
    pr = [p_defect(q, dict(zip(verts, r))) for r in roots]  # >= 0
    v_tup = tuple(v[k] for k in verts)
    # a remainder rem <= v by its mixed-radix index: index order is
    # lexicographic order, and rem - root has index idx(rem) - idx(root)
    strides, size = [], 1
    for x in reversed(v_tup):
        strides.insert(0, size)
        size *= x + 1

    def idx(t):
        return sum(map(mul, t, strides))

    # count[i]: the number of decompositions of remainder i into the roots;
    # sums[s][i]: the bitset of the summed defects of those into roots[s:].
    # As in coin change, the roots are added one at a time, the last first:
    # adding roots[s] adds, in order of the remainder, roots[s] plus each
    # decomposition of i - roots[s] into roots[s:], which is filled already
    offs = [idx(r) for r in roots]
    count = [1] + [0] * (size - 1)
    sums = [count[:]]
    for k in reversed(range(len(roots))):
        off, shift, row = offs[k], pr[k], sums[-1][:]
        for i in map(idx, product(*[range(r, x + 1)
                                    for r, x in zip(roots[k], v_tup)])):
            count[i] += count[i - off]
            row[i] |= row[i - off] << shift
        sums.append(row)
    sums.reverse()
    reach = sums[0][-1]
    pv = p_defect(q, v)
    # the decompositions with summed defect p(v) (the components), each
    # non-increasing, in the order of a full listing: a depth-first walk on
    # an explicit stack through the remainders that can still reach p(v)
    equal, stack = [], []
    if pv >= 0 and reach >> pv & 1:
        stack.append((v_tup, size - 1, 0, pv, ()))
    while stack:
        rem, i, start, need, path = stack.pop()
        if not any(rem):
            equal.append(path)
        for k in reversed(range(start, len(roots))):
            rest, left = tuple(map(sub, rem, roots[k])), need - pr[k]
            if min(rest) >= 0 and left >= 0 and \
                    sums[k][i - offs[k]] >> left & 1:
                stack.append((rest, i - offs[k], k, left, path + (k,)))
    return {"cartan_type": kind,
            "flat": not reach or reach.bit_length() - 1 <= pv,
            "strict": all(len(d) <= 1 for d in equal),
            "num_decompositions": count[-1],
            "components": [[dict(zip(verts, roots[k])) for k in d]
                           for d in equal],
            "component_dim": 1 + 2 * aq_form(q, v, v) - dot(v, v)}


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
    det(C) > 0. Both, and the positive roots, come from the datum of C."""
    kind, det, adj, _, pos_w = _datum_of(c)
    if kind != "finite":
        raise RootsError("Freudenthal recursion requires finite type")
    n = len(adj)
    lam, mu = _ints(lam, "highest weight", n), _ints(mu, "weight", n)
    if any(x < 0 for x in lam):
        raise RootsError("highest weight must be dominant")

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
