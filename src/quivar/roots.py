"""Root combinatorics: the defect p(v), bounded root lists, regularity of
hyper-Kaehler parameters, moment-fiber flatness/component analysis, Cartan
classification, and weight bookkeeping with a Freudenthal oracle. Each
Cartan matrix is decided once, into a cached datum, and the decompositions
of v into roots are counted by a memo instead of listed. The Freudenthal
recursion runs on the dimension vector beta of mu = lam - beta, as the
lectures index a weight space of L(w) by v."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
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
    try:
        ints = tuple(map(int, xs))
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        ints = None
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

    def definite(minors):  # Sylvester: the leading principal minors are > 0
        return all(x > 0 for x in minors)

    minors = m.leading_minors()
    det = minors[-1] if minors else 1
    if definite(minors):
        adj = m.solve(Mat.identity(QQ, n)).scale(det).data  # integral
        pos = tuple(positive_roots(c))
        return _Datum("finite", det, tuple(map(tuple, adj)), pos,
                      tuple(tuple(sum(map(mul, row, r)) for row in c)
                            for r in pos))
    if det == 0 and all(definite(m.submatrix(rest, rest).leading_minors())
                        for rest in combinations(range(n), n - 1)):
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
    """Positive roots of a finite-type symmetric Cartan matrix (C_ii = 2),
    in simple-root coordinates, by height. A positive root beta that is not
    simple has (beta, alpha_i) = 1 for some i with beta_i > 0, and then
    beta - alpha_i = s_i(beta) is a positive root; so each one is reached
    from a simple root by adding alpha_i where (beta, alpha_i) = -1."""
    n = len(c)
    level = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    roots = set(level)
    while level:
        above = []
        for beta in level:
            for i, row in enumerate(c):
                if sum(map(mul, beta, row)) == -1:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in roots:
                        roots.add(up)
                        above.append(up)
        level = above
    return sorted(roots)


def freudenthal_mult(c, lam, mu) -> int:
    """Weight multiplicity of mu in the irreducible module with highest
    weight lam (both in fundamental-weight coordinates), via the
    Freudenthal recursion over the finite positive-root list.

    The recursion runs on dimension vectors: mu = lam - beta with
    beta = C^-1 (lam - mu) = adj(C) (lam - mu) / det(C), read from the
    datum of C once, and 0 unless beta is a vector of ints >= 0. Since
    (omega_i, alpha_j) = delta_ij and (alpha_i, alpha_j) = C_ij, a term
    lam - gamma with gamma = beta - k alpha >= 0 pairs with alpha as
    lam . alpha - gamma . C alpha, C gamma steps by C alpha from
    C beta = lam - mu, and (lam + rho, lam + rho) - (mu + rho, mu + rho)
    is 2 (lam + rho) . beta - beta . C beta, all in ints."""
    kind, det, adj, pos, pos_w = _datum_of(c)
    if kind != "finite":
        raise RootsError("Freudenthal recursion requires finite type")
    n = len(adj)
    if any(c[i][i] != 2 for i in range(n)):
        raise RootsError("Freudenthal recursion requires diagonal entries 2")
    lam, mu = _ints(lam, "highest weight", n), _ints(mu, "weight", n)
    if any(x < 0 for x in lam):
        raise RootsError("highest weight must be dominant")
    c_beta = tuple(map(sub, lam, mu))
    divs = [divmod(sum(map(mul, row, c_beta)), det) for row in adj]
    if any(r or k < 0 for k, r in divs):
        return 0
    lr = tuple(x + 1 for x in lam)  # lam + rho
    # each positive root alpha with C alpha and lam . alpha
    steps = [(a, aw, sum(map(mul, lam, a))) for a, aw in zip(pos, pos_w)]
    memo = {}

    def mult(g, cg):  # the multiplicity of lam - g, for g >= 0 and cg = C g
        if g in memo:
            return memo[g]
        if not any(g):
            return 1
        num = 0
        for a, aw, la in steps:
            h, ch = tuple(map(sub, g, a)), tuple(map(sub, cg, aw))
            while min(h) >= 0:
                mv = mult(h, ch)
                if mv:
                    num += mv * (la - sum(map(mul, h, aw)))
                h, ch = tuple(map(sub, h, a)), tuple(map(sub, ch, aw))
        denom = 2 * sum(map(mul, lr, g)) - sum(map(mul, g, cg))
        if denom <= 0:
            memo[g] = 0
            return 0
        val, rest = divmod(2 * num, denom)
        if rest or val < 0:
            raise RootsError("Freudenthal recursion produced a non-integer")
        memo[g] = val
        return val

    return mult(tuple(k for k, _ in divs), c_beta)
