"""Jordan-quiver specialization: commuting pairs with a cyclic vector,
their ideals in k[x,y], joint spectra, power-trace invariants, and the
deformed (Calogero-Moser) equation.

Monomials x^a y^b are ordered degree-lexicographically with x < y, so the
staircase extracted from a triple is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .fields import CyclotomicField, Field, FieldError, PrimeField, QQ
from .linalg import Mat, col_span, subspace_contains, subspace_sum


class AdhmError(ValueError):
    pass


@dataclass(frozen=True)
class AdhmData:
    n: int
    x: Mat
    y: Mat
    i: Mat  # n x 1
    j: Mat  # 1 x n
    field: Field

    def __post_init__(self):
        n = self.n
        if (self.x.rows, self.x.cols) != (n, n) or (self.y.rows, self.y.cols) != (n, n):
            raise AdhmError("x, y must be n x n")
        if (self.i.rows, self.i.cols) != (n, 1) or (self.j.rows, self.j.cols) != (1, n):
            raise AdhmError("i must be n x 1 and j must be 1 x n")


def commutator(a: Mat, b: Mat) -> Mat:
    return a @ b - b @ a


def monomials_upto(deg: int):
    """(a, b) for x^a y^b with a+b <= deg, in deglex order with x < y."""
    out = []
    for d in range(deg + 1):
        for b in range(d + 1):
            out.append((d - b, b))
    return out


def monomial_vector(d: AdhmData, a: int, b: int) -> Mat:
    """x^a y^b applied to the cyclic vector i."""
    v = d.i
    for _ in range(b):
        v = d.y @ v
    for _ in range(a):
        v = d.x @ v
    return v


def is_hilbert_point(d: AdhmData) -> bool:
    """[x,y] = 0, j = 0, and i cyclic under x and y."""
    if not commutator(d.x, d.y).is_zero():
        return False
    if not d.j.is_zero():
        return False
    span = Mat.zeros(d.field, d.n, 0)
    for a, b in monomials_upto(d.n):
        span = subspace_sum(span, monomial_vector(d, a, b))
    return span.cols == d.n


@dataclass(frozen=True)
class MonomialIdealView:
    """A codimension-n ideal of k[x,y] through its quotient data: the
    staircase of standard monomials and the leading terms."""
    staircase: tuple  # sorted (a, b) pairs, an order ideal in N^2
    leading_terms: tuple
    codim: int


def _minimal_generators(staircase_set, deg_bound):
    """Minimal monomials outside the staircase, under divisibility."""
    gens = []
    for a, b in monomials_upto(deg_bound):
        if (a, b) in staircase_set:
            continue
        if (a == 0 or (a - 1, b) in staircase_set) and \
           (b == 0 or (a, b - 1) in staircase_set):
            gens.append((a, b))
    return tuple(sorted(gens))


def ideal_from_triple(d: AdhmData) -> MonomialIdealView:
    """Staircase of the annihilator ideal of the cyclic vector.

    Spins m(x,y) i over monomials in deglex order; a monomial enters the
    staircase iff its vector is independent of the previously accepted
    ones. Degree n suffices: the quotient has dimension n and the
    staircase is an order ideal (stabilization is checked dynamically).
    """
    if not is_hilbert_point(d):
        raise AdhmError("input is not a commuting cyclic triple with j = 0")
    span = Mat.zeros(d.field, d.n, 0)
    staircase = []
    for a, b in monomials_upto(d.n):
        vec = monomial_vector(d, a, b)
        if not subspace_contains(span, vec):
            span = subspace_sum(span, vec)
            staircase.append((a, b))
    if len(staircase) != d.n:
        raise AdhmError("spinning did not stabilize at dimension n")
    ss = set(staircase)
    return MonomialIdealView(tuple(sorted(staircase)),
                             _minimal_generators(ss, d.n), d.n)


def is_order_ideal(staircase) -> bool:
    s = set(staircase)
    return all((a == 0 or (a - 1, b) in s) and (b == 0 or (a, b - 1) in s)
               for a, b in s)


def triple_from_staircase(staircase, fieldobj: Field = QQ) -> AdhmData:
    """Monomial-ideal point with the given staircase as quotient basis.

    x and y act by monomial multiplication, with products falling outside
    the staircase sent to 0; i is the coordinate vector of 1.
    """
    staircase = tuple(sorted(staircase))
    if not is_order_ideal(staircase):
        raise AdhmError("staircase is not an order ideal")
    n = len(staircase)
    index = {m: k for k, m in enumerate(staircase)}
    f = fieldobj
    x = [[f.zero()] * n for _ in range(n)]
    y = [[f.zero()] * n for _ in range(n)]
    for (a, b), k in index.items():
        if (a + 1, b) in index:
            x[index[(a + 1, b)]][k] = f.one()
        if (a, b + 1) in index:
            y[index[(a, b + 1)]][k] = f.one()
    ivec = [[f.zero()] for _ in range(n)]
    ivec[index[(0, 0)]][0] = f.one()
    return AdhmData(n, Mat(f, x), Mat(f, y), Mat(f, ivec),
                    Mat.zeros(f, 1, n), f)


# -- spectra and traces ------------------------------------------------

def _char_poly(m: Mat):
    """Characteristic polynomial det(t I - m), low degree first, by
    cofactor expansion with polynomial entries. Fine for desk-scale n."""
    f = m.field
    n = m.rows

    def padd(p, q):
        out = [f.zero()] * max(len(p), len(q))
        for k, c in enumerate(p):
            out[k] = f.add(out[k], c)
        for k, c in enumerate(q):
            out[k] = f.add(out[k], c)
        return out

    def pmul(p, q):
        out = [f.zero()] * (len(p) + len(q) - 1)
        for a, ca in enumerate(p):
            for b, cb in enumerate(q):
                out[a + b] = f.add(out[a + b], f.mul(ca, cb))
        return out

    entries = [[[f.neg(m.data[r][c])] if r != c else
                [f.neg(m.data[r][c]), f.one()] for c in range(n)]
               for r in range(n)]

    def det(rows, cols):
        if not rows:
            return [f.one()]
        r = rows[0]
        acc = [f.zero()]
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = pmul(entries[r][c], minor)
            if k % 2:
                term = [f.neg(t) for t in term]
            acc = padd(acc, term)
        return acc

    return det(list(range(n)), list(range(n)))


def _poly_roots(poly, f):
    """Roots in the field with multiplicity, or None when the search finds
    no root of a nonlinear factor. Rational-root extraction over Q and
    exhaustive search over prime fields, where None means the polynomial
    does not split; over cyclotomic fields only rational multiples of
    roots of unity are tried, for rational coefficients, so None there
    decides nothing."""
    roots = []
    cur = list(poly)

    def eval_at(p, r):
        acc = f.zero()
        for c in reversed(p):
            acc = f.add(f.mul(acc, r), c)
        return acc

    def deflate(p, r):
        # synthetic division by (t - r)
        out = [f.zero()] * (len(p) - 1)
        carry = f.zero()
        for k in range(len(p) - 1, 0, -1):
            carry = f.add(p[k], f.mul(r, carry))
            out[k - 1] = carry
        return out

    def candidates(p):
        if isinstance(f, PrimeField):
            return [f.from_int(a) for a in range(f.p)]
        # rational-root candidates; requires rational coefficients
        fracs = []
        for c in p:
            if isinstance(c, tuple):  # cyclotomic element
                if any(x != 0 for x in c[1:]):
                    return None
                fracs.append(c[0])
            else:
                fracs.append(Fraction(c))
        from math import lcm
        den = lcm(*[x.denominator for x in fracs]) if fracs else 1
        ints = [int(x * den) for x in fracs]
        lead, const = ints[-1], ints[0]

        def divisors(n):
            n = abs(n)
            return [d for d in range(1, n + 1) if n % d == 0]
        cand = set()
        for pn in divisors(const):
            for qn in divisors(lead):
                cand.add(Fraction(pn, qn))
                cand.add(Fraction(-pn, qn))
        out = [f.from_fraction(x) for x in sorted(cand)]
        if isinstance(f, CyclotomicField):
            # rational coefficients: roots come in rational multiples of
            # roots of unity as far as this searcher is concerned
            out = [f.mul(c, f.zeta_pow(k)) for c in out for k in range(f.m)]
        return out

    while len(cur) > 1 and f.is_zero(cur[0]):  # candidates need cur[0] != 0
        roots.append(f.zero())
        cur = cur[1:]
    # candidates of the stripped polynomial cover every deflation stage
    # (each remaining root is still a root of it)
    cand = candidates(cur) if len(cur) > 2 else []
    while len(cur) > 1:
        if len(cur) == 2:
            roots.append(f.neg(f.div(cur[0], cur[1])))
            break
        if cand is None:
            return None
        hit = None
        for r in cand:
            if f.is_zero(eval_at(cur, r)):
                hit = r
                break
        if hit is None:
            return None
        roots.append(hit)
        cur = deflate(cur, hit)
    return roots


def joint_spectrum(x: Mat, y: Mat):
    """Multiset of eigenvalue pairs of a commuting pair, via iterated
    common generalized-eigenspace extraction (simultaneous
    triangularization). Raises when a characteristic polynomial does not
    split over Q or F_p, and over Q(zeta_m) when the eigenvalue search
    finds no root."""
    if not commutator(x, y).is_zero():
        raise AdhmError("matrices do not commute")
    f = x.field

    def restrict(m, basis):
        sol = basis.solve(m @ basis)
        if sol is None:
            raise AdhmError("subspace not invariant")
        return sol

    def split(xm, ym, mult_ctx):
        n = xm.rows
        if n == 0:
            return []
        poly = _char_poly(xm)
        roots = _poly_roots(poly, f)
        if roots is None:
            if isinstance(f, CyclotomicField):
                raise AdhmError("eigenvalue search over Q(zeta_m) is "
                                "unsupported beyond rational multiples of "
                                f"roots of unity: {poly}")
            raise AdhmError(f"characteristic polynomial does not split: {poly}")
        out = []
        seen = set()
        for r in roots:
            if r in seen:
                continue
            seen.add(r)
            shifted = xm - Mat.identity(f, n).scale(r)
            power = Mat.identity(f, n)
            for _ in range(n):
                power = power @ shifted
            basis = power.kernel_basis()
            if mult_ctx is None:
                # recurse on y within the generalized eigenspace of x
                yr = restrict(ym, basis)
                xr = restrict(xm, basis)
                for (s, dim) in split(yr, xr, "leaf"):
                    out.extend([(r, s)] * dim)
            else:
                out.append((r, basis.cols))
        return out

    pairs = split(x, y, None)
    return sorted(pairs, key=str)


def power_traces(x: Mat, y: Mat, maxdeg: int):
    """Table of Tr(x^a y^b) for a + b <= maxdeg (commuting pair)."""
    if not commutator(x, y).is_zero():
        raise AdhmError("matrices do not commute")
    f = x.field
    n = x.rows
    xp = [Mat.identity(f, n)]
    yp = [Mat.identity(f, n)]
    for _ in range(maxdeg):
        xp.append(xp[-1] @ x)
        yp.append(yp[-1] @ y)
    return {(a, b): (xp[a] @ yp[b]).trace()
            for a, b in monomials_upto(maxdeg)}


# -- Calogero-Moser ----------------------------------------------------

def calogero_moser_check(d: AdhmData, lam) -> dict:
    """Verify a deformed triple: residual [x,y] + i j = lam Id, cyclicity
    of i, and triviality of the homogeneous stabilizer system."""
    f = d.field
    lam_e = f.from_fraction(Fraction(lam))
    if f.is_zero(lam_e):
        raise AdhmError("deformation parameter must be nonzero")
    residual = commutator(d.x, d.y) + d.i @ d.j - Mat.identity(f, d.n).scale(lam_e)
    if not residual.is_zero():
        raise AdhmError("residual of the deformed equation is nonzero")
    span = Mat.zeros(f, d.n, 0)
    frontier = [d.i]
    for _ in range(d.n + 1):
        new = []
        for v in frontier:
            if not subspace_contains(span, v):
                span = subspace_sum(span, v)
                new.extend([d.x @ v, d.y @ v])
        frontier = new
    cyclic = span.cols == d.n
    # homogeneous stabilizer: g x = x g, g y = y g, g i = 0, j g = 0
    from .quiver import double, jordan_quiver
    from .reps import FramedRep, Rep, endomorphism_space
    dq = double(jordan_quiver())
    rep = Rep(dq, f, {"0": d.n}, {"x": d.x, "x*": d.y})
    frp = FramedRep(rep, {"0": 1}, {"0": d.i}, {"0": d.j})
    stab_dim = endomorphism_space(frp)["dimension"]
    return {"residual_zero": True, "cyclic": cyclic,
            "stabilizer_dim": stab_dim,
            "free_point": cyclic and stab_dim == 0,
            "expected_dim": 2 * d.n}


# -- exhaustive enumerations over F_2, n = 2 ---------------------------

def count_hilbert_orbits_f2_n2() -> int:
    """Number of GL_2(F_2)-orbits of triples (x, y, i) with [x,y] = 0,
    j = 0, and i cyclic, by direct orbit partition."""
    f = PrimeField(2)
    mats = [Mat.from_ints(f, [[a, b], [c, d]])
            for a, b, c, d in product(range(2), repeat=4)]
    gl = [g for g in mats if not f.is_zero(g.det())]
    gl_inv = {g: g.solve(Mat.identity(f, 2)) for g in gl}
    vecs = [Mat.from_ints(f, [[a], [b]]) for a, b in product(range(2), repeat=2)]
    triples = set()
    for x in mats:
        for y in mats:
            if not commutator(x, y).is_zero():
                continue
            for i in vecs:
                span = subspace_sum(subspace_sum(col_span(i), x @ i), y @ i)
                if span.cols == 2:
                    triples.add((x, y, i))
    orbits = 0
    seen = set()
    for t in triples:
        if t in seen:
            continue
        orbits += 1
        x, y, i = t
        for g in gl:
            gi = gl_inv[g]
            seen.add((g @ x @ gi, g @ y @ gi, g @ i))
    return orbits


def count_codim2_ideals_f2() -> int:
    """Number of codimension-2 ideals of F_2[x,y], by enumerating
    4-dimensional subspaces W of the span of monomials of degree <= 2 and
    keeping those with W + xW + yW of codimension 2 in degree <= 3 and
    W = (ideal) intersect (degree <= 2). Independent of the triple side."""
    f = PrimeField(2)
    mon2 = monomials_upto(2)          # 6 monomials
    mon3 = monomials_upto(3)          # 10 monomials
    idx3 = {m: k for k, m in enumerate(mon3)}

    def embed(vec6):  # degree<=2 coefficient vector into degree<=3 space
        out = [0] * len(mon3)
        for k, m in enumerate(mon2):
            out[idx3[m]] = vec6[k]
        return out

    def shift(vec6, dx, dy):
        out = [0] * len(mon3)
        for k, (a, b) in enumerate(mon2):
            out[idx3[(a + dx, b + dy)]] = vec6[k]
        return out

    deg1 = [embed([1 if mon2[k] == m else 0 for k in range(len(mon2))])
            for m in [(0, 0), (1, 0), (0, 1)]]
    proj3 = Mat.from_ints(
        f, [[1 if c == k else 0 for c in range(len(mon3))]
            for k in range(len(mon3)) if mon3[k] not in mon2])

    count = 0
    from .linalg import enumerate_subspaces
    # 4-dim subspaces of the 6-dim space of polynomials of degree <= 2
    for w in enumerate_subspaces(2, 6):
        if w.cols != 4:
            continue
        rows = []
        for r in w.transpose().data:  # rows are basis vectors of W
            vec = [int(c) for c in r]
            rows.append(embed(vec))
            rows.append(shift(vec, 1, 0))
            rows.append(shift(vec, 0, 1))
        big = Mat.from_ints(f, rows)  # spans W + xW + yW inside degree<=3
        if big.rank() != len(mon3) - 2:
            continue
        # 1, x, y must span the quotient: the staircase sits in degree<=1,
        # which closes the reduction of all higher monomials
        if Mat.from_ints(f, rows + [list(r) for r in Mat.from_ints(f, deg1).data]).rank() != len(mon3):
            continue
        # the generated ideal must meet degree<=2 exactly in W: the part of
        # span(big) killed by projection to the degree-3 coordinates
        sat = col_span(big.transpose())
        if (proj3 @ sat).kernel_basis().cols == 4:
            count += 1
    return count
