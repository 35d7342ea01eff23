"""Jordan-quiver specialization: commuting pairs with a cyclic vector,
their ideals in k[x,y], joint spectra, power-trace invariants, and the
deformed (Calogero-Moser) equation.

Monomials x^a y^b are ordered degree-lexicographically with x < y, so the
staircase extracted from a triple is deterministic. One deglex spin of the
cyclic vector, the vectors m(x, y) i added to one :class:`linalg.Echelon`,
both decides whether a triple is a Hilbert point and reads off its staircase.

Joint spectra take characteristic polynomials by Berkowitz's
division-free algorithm and find eigenvalues by a search that depends on
the field: rational roots among the divisor quotients of the end
coefficients over Q, every element of F_p for p up to
``FP_ROOT_SEARCH_CAP`` (a larger p is refused with ``FieldError``), and
rational multiples of roots of unity over Q(zeta_m), where a failed search
is reported as unsupported rather than as "does not split". The search
clears the polynomial to integers once and tests each candidate exactly
in ints (mod p over F_p) by the integer steps of :mod:`quivar.poly`, with
the multiplicity from the first Hasse derivative that does not vanish; Q
is the case m = 1 of Q(zeta_m). Over Q a candidate p / q is tested only
when p - q divides f(1) and p + q divides f(-1) for the cleared f, as
every rational root does by Gauss's lemma.

The pairs of a joint spectrum come from three characteristic polynomials:
those of x and of y give the eigenvalues, and for the least positive
integer t that separates them (r + t s injective on the distinct pairs)
the polynomial of z = x + t y is prod (T - r - t s) over the pairs, so the
multiplicity of (r, s) is that of the root r + t s. Only when no t
separates (over F_p with p small) or the search on y fails does the
spectrum of y on each generalized eigenspace of x come from a kernel
basis, read off its free coordinates; a refusal then names the
polynomial of y on that eigenspace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from math import gcd, isqrt

from . import MathFailure
from .fields import CyclotomicField, Field, FieldError, PrimeField, QQ
# subspace_contains is unused here: perfbench's tracer test reads it here
from .linalg import Echelon, Mat, col_span, subspace_contains
from .poly import (at_plus_minus_one, cleared, hasse, may_be_root,
                   roots_mod, scaled)


class AdhmError(MathFailure):
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
        for name in ("x", "y", "i", "j"):
            if getattr(self, name).field != self.field:
                raise FieldError(f"matrix {name} over the wrong field")


def monomials_upto(deg: int):
    """(a, b) for x^a y^b with a+b <= deg, in deglex order with x < y."""
    out = []
    for d in range(deg + 1):
        for b in range(d + 1):
            out.append((d - b, b))
    return out


def _staircase(d: AdhmData):
    """The staircase of the annihilator ideal of i, or None when d is not
    a Hilbert point ([x,y] = 0, j = 0 and i cyclic).

    One spin of m(x,y) i over the monomials of degree <= n in deglex
    order: a monomial enters the staircase iff its vector is independent
    of the vectors of the monomials already accepted. Degree n suffices,
    since the quotient has dimension n and the staircase is an order ideal.
    """
    if d.x @ d.y != d.y @ d.x or not d.j.is_zero():
        return None
    span = Echelon(d.field, d.n)
    vecs = {}
    staircase = []
    for a, b in monomials_upto(d.n):
        if len(span.stored) == d.n:
            break
        # x^a y^b i is x (x^(a-1) y^b i), or y (y^(b-1) i) when a = 0
        vec = vecs[a, b] = (d.x @ vecs[a - 1, b] if a else
                            d.y @ vecs[a, b - 1] if b else d.i)
        if span.add([r[0] for r in vec.data]) is not None:
            staircase.append((a, b))
    return staircase if len(staircase) == d.n else None


def is_hilbert_point(d: AdhmData) -> bool:
    """[x,y] = 0, j = 0, and i cyclic under x and y."""
    return _staircase(d) is not None


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
    """Staircase and leading terms of the annihilator ideal of the cyclic
    vector, by one deglex spin (see ``_staircase``)."""
    staircase = _staircase(d)
    if staircase is None:
        raise AdhmError("input is not a commuting cyclic triple with j = 0")
    return MonomialIdealView(tuple(sorted(staircase)),
                             _minimal_generators(set(staircase), d.n), d.n)


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
    Berkowitz's division-free algorithm (Inf. Process. Lett. 18, 1984).

    For each leading principal block [[M, c], [r, a]] of m, the
    coefficient vector of det(t I - M), high degree first, is multiplied
    by the lower-triangular Toeplitz matrix with first column 1, -a, -r c,
    -r M c, ..., -r M^(k-1) c, where M is k x k. O(n^4) field operations.
    """
    f = m.field
    dot, neg = f.dot, f.neg
    poly = [f.one()]
    for k, row in enumerate(m.data):
        block = [r[:k] for r in m.data[:k]]
        toeplitz = [f.one(), neg(row[k])]
        v = [r[k] for r in m.data[:k]]
        for _ in range(k):
            toeplitz.append(neg(dot(row, v)))
            v = [dot(r, v) for r in block]
        poly = [dot(poly, toeplitz[i::-1]) for i in range(k + 2)]
    return poly[::-1]


# p beyond which the exhaustive root search over F_p is refused: p
# integer evaluations of a polynomial of degree n <= 12 take about 0.2 s on
# CPython 3.11 (2-core x86-64 VM)
FP_ROOT_SEARCH_CAP = 1 << 17


def _divisors(n: int):
    """Positive divisors of n != 0, ascending, by trial division up to
    isqrt(|n|)."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _root_candidates(poly, f):
    """(ints, candidates) for poly with poly[0] != 0: its coefficients
    cleared to integers once, and the pairs (p, q) of the rational numbers
    p / q that may be roots, or roots up to a power of zeta over Q(zeta_m),
    in search order. None when a coefficient is not rational. Over Q the
    divisor quotients are sieved lazily by ``may_be_root`` on f(1) and
    f(-1) of the cleared f; over Q(zeta_m) they are not, since c stands
    for every c zeta^k and the sieve holds only for c itself."""
    if f.kind == "prime":
        if f.p > FP_ROOT_SEARCH_CAP:
            raise FieldError(f"root search over F_{f.p} would try every "
                             f"element; p exceeds the cap of "
                             f"{FP_ROOT_SEARCH_CAP}")
        # the roots are found by evaluation mod p (0 is none)
        return poly, ((r, 1) for r in roots_mod(poly, f.p))
    try:
        ints = cleared([f.rational_part(c) for c in poly])[0]
    except FieldError:
        return None
    # every q divides the lead, so p / q = p (lead // q) / lead: the ints
    # p (lead // q) order the candidates as the rationals do, and equal
    # rationals share one
    lead = abs(ints[-1])
    quotients = [lead // qn for qn in _divisors(lead)]
    keys = {s * pn * q for pn in _divisors(ints[0]) for q in quotients
            for s in (1, -1)}
    if f.kind == "cyclotomic" and f.m % 2 == 0:
        # -zeta^k = zeta^(k + m/2): the negative c, first in the sorted
        # order, already give every c zeta^k
        keys = [c for c in keys if c < 0]
    cand = []
    for c in sorted(keys):
        g = gcd(c, lead)  # lead // q for the p / q in lowest terms
        cand.append((c // g, lead // g))
    if f.kind == "cyclotomic":
        return ints, cand
    # over Q, the rational roots among them, sieved as the search reaches
    # each one
    values = at_plus_minus_one(ints)
    return ints, (pq for pq in cand if may_be_root(*pq, values))


def _multiplicity(s, vanishes):
    """The multiplicity of z as a root of g = sum s_e t^e, where
    ``vanishes(v)`` tells whether sum v_e t^e has the root z: the least j
    with a nonzero Hasse derivative sum_e C(e, j) s_e z^(e - j), which
    counts correctly in every characteristic (ordinary derivatives miss a
    multiplicity >= p over F_p). Requires z != 0. The 0-th derivative
    is s itself."""
    if not vanishes(s):
        return 0
    return next(j for j in count(1) if not vanishes(hasse(s, j)))


def _poly_roots(poly, f):
    """Roots in the field with multiplicity, or None when the search finds
    no root of a nonlinear factor. Rational-root extraction over Q and
    exhaustive search over prime fields up to FP_ROOT_SEARCH_CAP, where
    None means the polynomial does not split; over cyclotomic fields only
    rational multiples of roots of unity are tried, for rational
    coefficients, so None there decides nothing.

    Each candidate is tested exactly on the integer coefficients, and its
    multiplicity read off the integer Hasse derivatives; over Q(zeta_m)
    the conjugates c zeta^k with the same gcd(k, m) share theirs, since
    the coefficients are rational. The roots come in search order, the
    last one from Vieta's formula once only one is left."""
    roots = []
    cur = list(poly)
    while len(cur) > 1 and f.is_zero(cur[0]):  # candidates need cur[0] != 0
        roots.append(f.zero())
        cur = cur[1:]
    left = len(cur) - 1  # roots of cur not found yet
    if left > 1:
        found = _root_candidates(cur, f)
        if found is None:
            return None
        ints, cands = found
        if f.kind == "cyclotomic":
            m, vanishes = f.m, f.vanishes_at_zeta_pow
        elif f.kind == "prime":
            m, vanishes = 1, lambda v, k: sum(v) % f.p == 0
        else:
            m, vanishes = 1, lambda v, k: sum(v) == 0
        for p, q in cands:
            s = scaled(ints, p, q)
            mults = {}  # by gcd(k, m)
            for k in range(m):
                g = gcd(k, m)
                if g not in mults:
                    mults[g] = _multiplicity(s, lambda v: vanishes(v, k))
                mult = mults[g]
                if mult:
                    c = Fraction(p, q)
                    roots += [f.from_coeffs([0] * k + [c]) if k else
                              f.from_fraction(c)] * mult
                    left -= mult
                    if left <= 1:
                        break
            if left <= 1:
                break
        else:
            return None
    if left == 1:
        # the roots of cur sum to -cur[-2] / cur[-1]
        known = f.dot(roots, [f.one()] * len(roots))
        roots.append(f.sub(f.neg(f.div(cur[-2], cur[-1])), known))
    return roots


def _eigenvalues(m: Mat):
    """Eigenvalues of m with algebraic multiplicity. Raises when the
    characteristic polynomial does not split over Q or F_p, and over
    Q(zeta_m) when the eigenvalue search finds no root."""
    poly = _char_poly(m)
    roots = _poly_roots(poly, m.field)
    if roots is None:
        shown = list(map(m.field.show, poly))
        if isinstance(m.field, CyclotomicField):
            raise AdhmError("eigenvalue search over Q(zeta_m) is "
                            "unsupported beyond rational multiples of "
                            f"roots of unity: {shown}")
        raise AdhmError(f"characteristic polynomial does not split: {shown}")
    return roots


def _kernel_pairs(x: Mat, y: Mat, xs):
    """The pairs of a commuting pair with the eigenvalues xs of x: each
    eigenvalue r of x, with multiplicity k, pairs with the eigenvalues of y
    restricted to the generalized eigenspace ker (x - r)^k."""
    f = x.field
    pairs = []
    for r, k in Counter(xs).items():
        shifted = Mat._of(f, tuple(
            tuple(f.sub(e, r) if c == i else e for c, e in enumerate(row))
            for i, row in enumerate(x.data)), x.rows, x.cols)
        power = shifted
        for _ in range(k - 1):
            power = power @ shifted
        # column c of the kernel basis B is 1 at its free coordinate, its
        # last nonzero entry, and 0 at the other free coordinates; so if
        # y B = B Y, Y is the rows of y B at the free coordinates, and the
        # product B Y = y B checks that the kernel is y-invariant
        basis = power.kernel_basis()
        free = [max(i for i, e in enumerate(col) if not f.is_zero(e))
                for col in zip(*basis.data)]
        yb = y @ basis
        yr = Mat._of(f, tuple(yb.data[i] for i in free), len(free), len(free))
        if basis @ yr != yb:
            raise AdhmError("subspace not invariant")
        for s, mult in Counter(_eigenvalues(yr)).items():
            pairs.extend([(r, s)] * mult)
    return pairs


def _separating(f, rs, ss):
    """(t, points): the least positive integer t, as an element of f, that
    is nonzero in f and makes (r, s) -> r + t s injective on rs x ss, and
    the map {(r, s): r + t s}; None when there is no such t. Two of the
    N = |rs| |ss| pairs collide at one t at most, so at most N (N - 1) / 2
    integers fail: None needs F_p with p - 1 <= N (N - 1) / 2, and the
    search ends on every field. Each t is one ``row_sub`` of the field."""
    pairs = [(r, s) for r in rs for s in ss]
    firsts, seconds = [r for r, _ in pairs], [s for _, s in pairs]
    for n in count(1):
        t = f.from_int(n)
        if f.is_zero(t):
            return None
        values = f.row_sub(firsts, f.neg(t), seconds)
        if len(set(values)) == len(pairs):
            return t, dict(zip(pairs, values))


def _deflate(poly, v, f, cap):
    """(mult, rest): the multiplicity of v as a root of poly (low degree
    first), counted up to cap, and poly divided by (T - v)^mult, by
    synthetic division in the field."""
    mult = 0
    while mult < cap:
        acc = f.zero()
        quotient = []
        for c in reversed(poly):
            acc = f.add(f.mul(acc, v), c)
            quotient.append(acc)
        if not f.is_zero(quotient.pop()):
            break
        poly = quotient[::-1]
        mult += 1
    return mult, poly


def _pairs(x: Mat, y: Mat):
    """The pairs of ``joint_spectrum``, in no particular order."""
    f = x.field
    xs = _eigenvalues(x)
    y_poly = _char_poly(y)
    try:
        ys = _poly_roots(y_poly, f)
    except FieldError:
        ys = None
    if ys is None:
        return _kernel_pairs(x, y, xs)
    kx, ky = Counter(xs), Counter(ys)
    if len(kx) == 1:
        return [(xs[0], s) for s in ys]
    if len(ky) == 1:
        return [(r, ys[0]) for r in xs]
    separated = _separating(f, kx, ky)
    if separated is None:
        return _kernel_pairs(x, y, xs)
    t, points = separated
    minus_t = f.neg(t)
    poly = _char_poly(Mat._of(f, tuple(
        tuple(f.row_sub(rx, minus_t, ry)) for rx, ry in zip(x.data, y.data)),
        x.rows, x.cols))
    # the pairs of r sum to k and the pairs of s to its multiplicity l_s:
    # the last eigenvalue of x takes what each s has left, and the last s
    # that r can still pair with takes what r has left
    left = dict(ky)
    pairs = []
    last = len(kx) - 1
    for i, (r, k) in enumerate(kx.items()):
        open_s = [s for s, l in left.items() if l]
        for j, s in enumerate(open_s):
            if i == last:
                mult = left[s]
            elif j == len(open_s) - 1:
                mult = k
            else:
                mult, poly = _deflate(poly, points[r, s], f,
                                      min(k, left[s]))
            pairs += [(r, s)] * mult
            k -= mult
            left[s] -= mult
            if not k:
                break
    return pairs


def joint_spectrum(x: Mat, y: Mat):
    """Multiset of eigenvalue pairs of a commuting pair, sorted by the str
    of the pair as its field shows it (``Field.show``): over Q two
    Fractions, integral or not, over F_p two ints, and over Q(zeta_m) two
    coefficient tuples.

    Commuting x and y whose spectra split are triangular in one basis, so
    for every t, det(T - x - t y) = prod (T - r - t s) over the pairs (r, s)
    with multiplicity. With the eigenvalues of x and of y known, the least
    positive integer t that is nonzero in the field and separates the
    distinct pairs (r + t s injective on them) makes the multiplicity of
    (r, s) the root multiplicity of r + t s in the characteristic
    polynomial of z = x + t y: three characteristic polynomials and no
    kernel (the separating element of Rouillier, AAECC 9, 1999). When x or
    y has one distinct eigenvalue, the pairs are read off the other's
    spectrum.

    Each eigenvalue r of x, with multiplicity k, is paired instead with the
    eigenvalues of y restricted to the generalized eigenspace ker (x - r)^k
    in two cases: no t separates the pairs (only over F_p for small p), or
    the eigenvalue search on y fails, so that the refusal names the
    polynomial of y on that eigenspace. Over Q(zeta_m) the search on y can
    succeed where the one on such an eigenspace would not, when the
    polynomial there is not rational; the pairs are then exact all the same.

    Raises AdhmError when a characteristic polynomial does not split over
    Q or F_p, and over Q(zeta_m) when the eigenvalue search finds no root;
    raises FieldError over F_p when the search would need
    p > FP_ROOT_SEARCH_CAP."""
    if x @ y != y @ x:
        raise AdhmError("matrices do not commute")
    show = x.field.show
    return sorted(_pairs(x, y), key=lambda rs: str(tuple(map(show, rs))))


def power_traces(x: Mat, y: Mat, maxdeg: int):
    """Table of Tr(x^a y^b) for a + b <= maxdeg (commuting pair).

    Only the powers x^a and y^b with 1 <= a, b < maxdeg are formed, never
    a product x^a y^b: its trace is the sum over i of (row i of x^a) .
    (column i of y^b), one inner product of the entries of x^a read by rows
    and those of y^b read by columns. Tr(x^a) for a >= 2 is the same inner
    product of x^(a-1) by rows with x by columns, and Tr(y^b) of y by rows
    with y^(b-1) by columns."""
    if x @ y != y @ x:
        raise AdhmError("matrices do not commute")
    f = x.field
    xp, yp = [x], [y]   # x^a and y^b at index a - 1 and b - 1
    for _ in range(maxdeg - 2):
        xp.append(xp[-1] @ x)
        yp.append(yp[-1] @ y)
    x_rows = [[e for r in m.data for e in r] for m in xp]
    y_cols = [[e for c in zip(*m.data) for e in c] for m in yp]
    x_cols = [e for c in zip(*x.data) for e in c]
    y_rows = [e for r in y.data for e in r]
    out = {}
    for a, b in monomials_upto(maxdeg):
        if a and b:
            out[a, b] = f.dot(x_rows[a - 1], y_cols[b - 1])
        elif a > 1:
            out[a, b] = f.dot(x_rows[a - 2], x_cols)
        elif b > 1:
            out[a, b] = f.dot(y_rows, y_cols[b - 2])
        elif a or b:
            out[a, b] = (x if a else y).trace()
        else:
            out[a, b] = f.from_int(x.rows)
    return out


# -- Calogero-Moser ----------------------------------------------------

def calogero_moser_check(d: AdhmData, lam) -> dict:
    """A deformed triple as a framed point of the Jordan double: residual
    [x,y] + i j - lam Id zero, i cyclic (theta = -1), stabilizer trivial."""
    f = d.field
    if f.is_zero(f.from_fraction(Fraction(lam))):
        raise AdhmError("deformation parameter must be nonzero")
    from .quiver import double, jordan_quiver
    from .reps import (FramedRep, Rep, endomorphism_space, is_stable_minus,
                       moment_residual)
    rep = Rep(double(jordan_quiver()), f, {"0": d.n}, {"x": d.x, "x*": d.y})
    frp = FramedRep(rep, {"0": 1}, {"0": d.i}, {"0": d.j})
    if not moment_residual(frp, lam)["0"].is_zero():
        raise AdhmError("residual of the deformed equation is nonzero")
    cyclic = is_stable_minus(frp)
    stab_dim = endomorphism_space(frp)["dimension"]
    return {"residual_zero": True, "cyclic": cyclic,
            "stabilizer_dim": stab_dim,
            "free_point": cyclic and stab_dim == 0,
            "expected_dim": 2 * d.n}


# -- exhaustive enumerations over F_2, n = 2 ---------------------------

def count_hilbert_orbits_f2_n2() -> int:
    """Number of GL_2(F_2)-orbits of triples (x, y, i) with [x,y] = 0,
    j = 0, and i cyclic. GL_2(F_2) acts freely on such triples, so this
    is their number divided by |GL_2(F_2)| = (4 - 1)(4 - 2) = 6."""
    f = PrimeField(2)
    mats = [Mat.from_ints(f, [[a, b], [c, d]])
            for a, b, c, d in product(range(2), repeat=4)]
    vecs = [Mat.from_ints(f, [[a], [b]]) for a, b in product(range(2), repeat=2)]
    j = Mat.zeros(f, 1, 2)
    points = sum(is_hilbert_point(AdhmData(2, x, y, i, j, f))
                 for x in mats for y in mats for i in vecs)
    orbits, rest = divmod(points, 6)
    if rest:
        raise AdhmError(f"{points} stable triples is not a multiple of "
                        "|GL_2(F_2)| = 6")
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
