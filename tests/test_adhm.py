import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

import pytest

from quivar.adhm import (FP_ROOT_SEARCH_CAP, AdhmData, AdhmError, _char_poly,
                         _eigenvalues, _poly_roots, _root_candidates,
                         calogero_moser_check, count_codim2_ideals_f2,
                         count_hilbert_orbits_f2_n2, ideal_from_triple,
                         is_hilbert_point, is_order_ideal, joint_spectrum,
                         monomials_upto, power_traces, triple_from_staircase)
from quivar.fields import (CyclotomicField, FieldError, PrimeField, QQ,
                           cyclotomic_coeffs)
from quivar.linalg import Mat


def qmat(rows):
    return Mat.from_ints(QQ, rows)


def all_staircases(n):
    """All order ideals of size n inside the degree-n triangle."""
    cells = monomials_upto(n)
    return [set(c) for c in combinations(cells, n) if is_order_ideal(c)]


def test_monomial_order():
    # deglex with x < y: within a degree, pure x powers come first
    assert monomials_upto(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_hilbert_point_detection():
    d = AdhmData(2, qmat([[0, 1], [0, 0]]), qmat([[0, 0], [0, 0]]),
                 qmat([[0], [1]]), qmat([[0, 0]]), QQ)
    assert is_hilbert_point(d)
    # non-commuting pair
    bad = AdhmData(2, qmat([[0, 1], [0, 0]]), qmat([[0, 0], [1, 0]]),
                   qmat([[0], [1]]), qmat([[0, 0]]), QQ)
    assert not is_hilbert_point(bad)
    # non-cyclic i
    notcyc = AdhmData(2, qmat([[0, 0], [0, 0]]), qmat([[0, 0], [0, 0]]),
                      qmat([[1], [0]]), qmat([[0, 0]]), QQ)
    assert not is_hilbert_point(notcyc)
    # nonzero j
    withj = AdhmData(2, qmat([[0, 1], [0, 0]]), qmat([[0, 0], [0, 0]]),
                     qmat([[0], [1]]), qmat([[1, 0]]), QQ)
    assert not is_hilbert_point(withj)


def test_ideal_example():
    d = AdhmData(2, qmat([[0, 1], [0, 0]]), qmat([[0, 0], [0, 0]]),
                 qmat([[0], [1]]), qmat([[0, 0]]), QQ)
    view = ideal_from_triple(d)
    assert view.staircase == ((0, 0), (1, 0))
    assert view.leading_terms == ((0, 1), (2, 0))
    assert view.codim == 2


def test_staircase_roundtrip_all_small():
    # every order ideal of size <= 6 survives the round trip
    for n in range(1, 7):
        for sc in all_staircases(n):
            d = triple_from_staircase(sc)
            assert is_hilbert_point(d)
            view = ideal_from_triple(d)
            assert set(view.staircase) == sc


def test_staircase_rejects_non_order_ideal():
    with pytest.raises(AdhmError):
        triple_from_staircase([(0, 0), (1, 1)])


def test_roundtrip_gl_invariance():
    rng = random.Random(9)
    d = triple_from_staircase([(0, 0), (1, 0), (0, 1)])
    view0 = ideal_from_triple(d)
    for _ in range(10):
        while True:
            g = Mat(QQ, [[QQ.random(rng, 3) for _ in range(3)]
                         for _ in range(3)], 3, 3)
            if not QQ.is_zero(g.det()):
                break
        ginv = g.solve(Mat.identity(QQ, 3))
        moved = AdhmData(3, g @ d.x @ ginv, g @ d.y @ ginv, g @ d.i,
                         d.j @ ginv, QQ)
        assert ideal_from_triple(moved) == view0


def test_joint_spectrum_diagonal():
    x = qmat([[1, 0], [0, 2]])
    y = qmat([[5, 0], [0, 7]])
    assert joint_spectrum(x, y) == sorted([(Fraction(1), Fraction(5)),
                                           (Fraction(2), Fraction(7))], key=str)


def test_joint_spectrum_nilpotent_and_triangular():
    x = qmat([[0, 1], [0, 0]])
    y = qmat([[0, 0], [0, 0]])
    assert joint_spectrum(x, y) == [(Fraction(0), Fraction(0))] * 2
    x2 = qmat([[1, 1], [0, 1]])
    y2 = qmat([[3, 5], [0, 3]])
    assert joint_spectrum(x2, y2) == [(Fraction(1), Fraction(3))] * 2


def conjugated_diagonal(xs, ys):
    """p diag(xs) p^-1 and p diag(ys) p^-1 for a fixed dense p over Q."""
    n = len(xs)
    upper = qmat([[int(r == c) + (r + c if r < c else 0) for c in range(n)]
                  for r in range(n)])
    lower = qmat([[int(r >= c) for c in range(n)] for r in range(n)])
    p = upper @ lower
    pinv = p.solve(Mat.identity(QQ, n))

    def conj(diag):
        d = qmat([[diag[r] if r == c else 0 for c in range(n)]
                  for r in range(n)])
        return p @ d @ pinv

    return conj(xs), conj(ys)


@pytest.mark.parametrize("xs, ys", [
    ([0, 3, -1], [1, 2, 4]),
    ([0, 0, 2, -5], [0, 6, 3, 0]),
])
def test_joint_spectrum_zero_eigenvalue(xs, ys):
    # eigenvalue 0 beside distinct nonzero ones: the characteristic
    # polynomial has a factor t but still splits over Q
    x, y = conjugated_diagonal(xs, ys)
    want = sorted(zip(map(Fraction, xs), map(Fraction, ys)), key=str)
    spec = joint_spectrum(x, y)
    assert spec == want
    for (a, b), t in power_traces(x, y, 3).items():
        assert t == sum(ex ** a * ey ** b for ex, ey in want)


@pytest.mark.parametrize("xs, ys", [
    ([1, 1, 2, -3, 5, 0, 1], [2, -1, 3, 3, 0, 4, 2]),
    ([2, -1, 2, 3, 4, 2, -5, 1], [1, 1, -2, 3, 1, 1, 0, 6]),
])
def test_joint_spectrum_larger_conjugated_diagonal(xs, ys):
    # 7x7 and 8x8, each x with an eigenvalue of multiplicity 3 on which y
    # is not scalar
    x, y = conjugated_diagonal(xs, ys)
    assert joint_spectrum(x, y) == sorted(
        zip(map(Fraction, xs), map(Fraction, ys)), key=str)


def evaluate(f, poly, t):
    acc = f.zero()
    for c in reversed(poly):
        acc = f.add(f.mul(acc, t), c)
    return acc


@pytest.mark.parametrize("field, sizes, points", [
    (QQ, range(1, 13), lambda n: range(n + 1)),
    (PrimeField(7), range(1, 7), lambda n: range(7)),
    (CyclotomicField(5), range(1, 6), lambda n: range(n + 1)),
], ids=["Q", "F7", "Q(zeta5)"])
def test_char_poly_matches_det(field, sizes, points):
    # det(t I - M) at enough points to pin a monic polynomial of degree n
    rng = random.Random(f"char-poly:{field.spec()}")
    for n in sizes:
        m = Mat(field, [[field.random(rng, 4) for _ in range(n)]
                        for _ in range(n)], n, n)
        poly = _char_poly(m)
        assert len(poly) == n + 1 and poly[-1] == field.one()
        for t in map(field.from_int, points(n)):
            want = (Mat.identity(field, n).scale(t) - m).det()
            assert evaluate(field, poly, t) == want


# -- the root search against the deflating one it replaced -------------

def reference_divisors(n: int):
    """Positive divisors of n != 0, ascending, by trial division up to
    isqrt(|n|)."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def reference_root_candidates(poly, f):
    """Every possible root of poly (poly[0] != 0) in the field, or None
    when its coefficients are beyond the search."""
    if f.kind == "prime":
        if f.p > FP_ROOT_SEARCH_CAP:
            raise FieldError(f"root search over F_{f.p} would try every "
                             f"element; p exceeds the cap of "
                             f"{FP_ROOT_SEARCH_CAP}")
        return map(f.from_int, range(f.p))
    # rational-root candidates; requires rational coefficients
    try:
        fracs = [f.rational_part(c) for c in poly]
    except FieldError:
        return None
    den = lcm(*[x.denominator for x in fracs])
    ints = [int(x * den) for x in fracs]
    cand = set()
    for pn in reference_divisors(ints[0]):
        for qn in reference_divisors(ints[-1]):
            cand.add(Fraction(pn, qn))
            cand.add(Fraction(-pn, qn))
    out = [f.from_fraction(x) for x in sorted(cand)]
    if f.kind == "cyclotomic":
        # rational coefficients: roots come in rational multiples of
        # roots of unity as far as this searcher is concerned
        out = [f.mul(c, f.zeta_pow(k)) for c in out for k in range(f.m)]
    return out


def reference_poly_roots(poly, f):
    """Roots in the field with multiplicity, or None when the search finds
    no root of a nonlinear factor: Horner evaluation and deflation with one
    field operation per step."""
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

    while len(cur) > 1 and f.is_zero(cur[0]):  # candidates need cur[0] != 0
        roots.append(f.zero())
        cur = cur[1:]
    if len(cur) > 2:
        cand = reference_root_candidates(cur, f)
        if cand is None:
            return None
        # one pass: every root of a deflation is a root of cur, so a
        # candidate that fails once never needs trying again
        for r in cand:
            while len(cur) > 2 and f.is_zero(eval_at(cur, r)):
                roots.append(r)
                cur = deflate(cur, r)
            if len(cur) == 2:
                break
        else:
            return None
    if len(cur) == 2:
        roots.append(f.neg(f.div(cur[0], cur[1])))
    return roots


def poly_mul(f, a, b):
    out = [f.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return out


def seeded_polys(f, rng, factors, count, most=9):
    """``count`` products of at most ``most`` factors drawn by
    ``factors(rng)``, each times a random nonzero constant."""
    for _ in range(count):
        if f.kind == "prime":
            poly = [rng.randrange(1, f.p)]
        else:
            poly = [f.from_fraction(Fraction(rng.choice([1, 1, -1, 2, -3]),
                                             rng.choice([1, 1, 2, 5])))]
        for _ in range(rng.randint(0, most)):
            poly = poly_mul(f, poly, factors(rng))
        yield poly


def rational_factor(f, rng):
    """t - c for a small rational c, often repeated across draws, or one
    of a few quadratics irreducible over Q."""
    if rng.random() < 0.2:
        return [f.from_int(c) for c in rng.choice(
            [(1, 0, 1), (-2, 0, 1), (1, 1, 1), (3, 0, -2), (5, 1, 1)])]
    c = Fraction(rng.choice([0, 1, -1, 2, -2, 3, 6, -12]),
                 rng.choice([1, 1, 1, 2, 3, 4]))
    return [f.from_fraction(-c), f.one()]


def assert_same_roots(f, poly):
    got, want = _poly_roots(poly, f), reference_poly_roots(poly, f)
    # the same list, so the same multiset in the same order
    assert got == want, (f, poly)
    if want is not None:
        assert len(want) == len(poly) - 1


def test_root_search_matches_the_deflating_reference_over_q():
    rng = random.Random("roots over Q")
    for poly in seeded_polys(QQ, rng, lambda r: rational_factor(QQ, r), 150):
        assert_same_roots(QQ, poly)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_root_search_matches_the_deflating_reference_over_fp(p):
    # multiplicities up to p + 2: ordinary derivatives vanish identically
    # from the p-th on, Hasse derivatives do not
    f = PrimeField(p)
    rng = random.Random(f"roots over F{p}")
    nonresidue = next(n for n in range(1, p) if pow(n, (p - 1) // 2, p) != 1) \
        if p > 2 else None
    quadratic = [1, 1, 1] if p == 2 else [(-nonresidue) % p, 0, 1]

    def factor(rng):
        if rng.random() < 0.15:
            return quadratic
        r = rng.randrange(p)
        poly = [1]
        for _ in range(rng.choice([1, 1, 1, p - 1, p, p + 2])):
            poly = poly_mul(f, poly, [(-r) % p, 1])
        return poly

    for poly in seeded_polys(f, rng, factor, 60, most=4):
        assert_same_roots(f, poly)


@pytest.mark.parametrize("m", range(1, 13))
def test_root_search_matches_the_deflating_reference_over_cyclotomic(m):
    # rescaled cyclotomic factors c^phi(o) Phi_o(t / c), whose roots are the
    # c zeta with zeta of order o, for o | 2m: Q(zeta_m) holds -zeta^k;
    # also rational factors, quadratics irreducible over Q, and factors
    # t - zeta^k with a coefficient that is not rational
    f = CyclotomicField(m)
    rng = random.Random(f"roots over Q(zeta{m})")
    orders = [o for o in range(1, 2 * m + 1) if (2 * m) % o == 0]

    def factor(rng):
        roll = rng.random()
        if roll < 0.45:
            c = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 2]))
            phi = cyclotomic_coeffs(rng.choice(orders))
            deg = len(phi) - 1
            return [f.from_fraction(a * c ** (deg - e))
                    for e, a in enumerate(phi)]
        if roll < 0.5:
            return [f.neg(f.zeta_pow(rng.randrange(1, m) if m > 1 else 0)),
                    f.one()]
        return rational_factor(f, rng)

    for poly in seeded_polys(f, rng, factor, 30, most=4):
        assert_same_roots(f, poly)


def fraction_sorted_candidates(ints, f):
    """The search order of the rational candidates as Fractions: the
    sorted set of +-p / q over the divisors of the end coefficients, only
    the negative ones over Q(zeta_m) for even m."""
    cand = sorted({Fraction(s * pn, qn) for pn in reference_divisors(ints[0])
                   for qn in reference_divisors(ints[-1]) for s in (1, -1)})
    if f.kind == "cyclotomic" and f.m % 2 == 0:
        cand = [c for c in cand if c < 0]
    return [(c.numerator, c.denominator) for c in cand]


def ends_divide(ints, p, q):
    """Whether p - q divides f(1) and p + q divides f(-1) for f = ints,
    where a zero divisor divides only a zero value."""
    for at, d in ((1, p - q), (-1, p + q)):
        value = sum(a * at ** e for e, a in enumerate(ints))
        if (value != 0 if d == 0 else value % d != 0):
            return False
    return True


@pytest.mark.parametrize("f", [QQ, CyclotomicField(3), CyclotomicField(4)],
                         ids=["Q", "Q(zeta3)", "Q(zeta4)"])
def test_integer_root_candidates_match_the_fraction_order(f):
    # the candidates are sorted by the ints p (|lead| // q); non-monic
    # polynomials with composite end coefficients, some negative, give
    # many equal quotients p / q and leads with many divisors. Over Q the
    # candidates that fail the test of f(1) and f(-1) are left out, in
    # the same order; over Q(zeta_m) a candidate c stands for every
    # c zeta^k, and none is left out
    rng = random.Random(f"candidates over {f.spec()}")
    for _ in range(200):
        deg = rng.randint(2, 6)
        coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 720),
                           rng.choice([1, 1, 2, 3, 4, 6, 10]))]
        coeffs += [Fraction(rng.randint(-50, 50), rng.choice([1, 2, 7]))
                   for _ in range(deg - 1)]
        coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(2, 360),
                               rng.choice([1, 3, 5])))
        poly = [f.from_fraction(c) for c in coeffs]
        ints, cand = _root_candidates(poly, f)
        want = fraction_sorted_candidates(ints, f)
        if f.kind == "rational":
            want = [(p, q) for p, q in want if ends_divide(ints, p, q)]
        assert list(cand) == want, (f, coeffs)


def wide_split_polys(rng, count):
    """(roots, poly): ``count`` polynomials c prod (t - r) over Q with
    their roots r, as in the benchmark's wide spectra: two roots of
    numerator 11 to 150 and up to four small ones, so that the product of
    the nonzero numerators is at least 4 * 10^4, some roots repeated,
    some zero, and non-integral roots and leads c."""
    for _ in range(count):
        while True:
            roots = [Fraction(rng.choice([-1, 1]) * rng.randint(11, 150),
                              rng.choice([1, 1, 1, 2, 3]))
                     for _ in range(2)]
            roots += [Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                               rng.choice([1, 1, 1, 2, 5]))
                      for _ in range(rng.randint(0, 4))]
            numerators = 1
            for r in roots:
                numerators *= r.numerator
            if abs(numerators) >= 40000:
                break
        if rng.random() < 0.4:
            roots += [rng.choice(roots)] * rng.randint(1, 2)
        if rng.random() < 0.3:
            roots += [Fraction(0)] * rng.randint(1, 2)
        rng.shuffle(roots)
        lead = Fraction(rng.choice([1, -1, 2, -3, 6]), rng.choice([1, 1, 7]))
        poly = [QQ.from_fraction(lead)]
        for r in roots:
            poly = poly_mul(QQ, poly, [QQ.from_fraction(-r), QQ.one()])
        yield roots, poly


def test_root_sieve_keeps_every_root_and_skips_the_scaled_test(monkeypatch):
    # by Gauss's lemma a root p / q of f in Z[t] gives f = (q t - p) g with
    # g in Z[t], so p - q divides f(1) and p + q divides f(-1): every root
    # passes, and the search finds the same list in the same order as the
    # deflating reference. Each candidate the search reaches is tested
    # once, in the order of the unsieved list, and only one that passes
    # reaches ``scaled``, once
    from quivar import adhm, poly as poly_mod
    reached, scaled_at = [], []

    def counted_test(p, q, values):
        reached.append(((p, q), poly_mod.may_be_root(p, q, values)))
        return reached[-1][1]

    def counted_scaled(ints, p, q):
        scaled_at.append((p, q))
        return poly_mod.scaled(ints, p, q)

    monkeypatch.setattr(adhm, "may_be_root", counted_test)
    monkeypatch.setattr(adhm, "scaled", counted_scaled)
    rng = random.Random("sieve over Q")
    totals = [0, 0]  # candidates reached, and passed (each scaled once)
    for roots, poly in wide_split_polys(rng, 60):
        ints, _ = poly_mod.cleared(poly)
        values = poly_mod.at_plus_minus_one(ints)
        for r in roots:
            assert poly_mod.may_be_root(r.numerator, r.denominator, values), \
                (roots, r)
        reached.clear()
        scaled_at.clear()
        assert _poly_roots(poly, QQ) == reference_poly_roots(poly, QQ), roots
        nonzero = poly[next(e for e, c in enumerate(poly) if c):]
        full = fraction_sorted_candidates(poly_mod.cleared(nonzero)[0], QQ)
        tried = [pq for pq, _ in reached]
        assert tried == full[:len(tried)], roots
        passed = [pq for pq, ok in reached if ok]
        assert scaled_at == passed, roots
        totals = [t + len(x) for t, x in zip(totals, (tried, passed))]
    # without the sieve, each of the 12580 candidates reached was scaled
    assert totals == [12580, 1169]


def test_power_traces_newton_identities():
    # p_k + c_{n-1} p_{k-1} + ... + c_{n-k+1} p_1 + k c_{n-k} = 0 for
    # k <= n, with det(t I - x) = sum c_j t^j and p_k = Tr(x^k)
    rng = random.Random("newton")
    for n in range(1, 9):
        x = Mat(QQ, [[QQ.random(rng, 3) for _ in range(n)] for _ in range(n)],
                n, n)
        c = _char_poly(x)
        tr = power_traces(x, x @ x + Mat.identity(QQ, n), n)
        p = [None] + [tr[(k, 0)] for k in range(1, n + 1)]
        for k in range(1, n + 1):
            assert p[k] + sum(c[n - i] * p[k - i] for i in range(1, k)) \
                + k * c[n - k] == 0


def test_joint_spectrum_non_split_signaled():
    # x^2 = -1 has no rational roots
    x = qmat([[0, -1], [1, 0]])
    y = Mat.identity(QQ, 2)
    with pytest.raises(AdhmError):
        joint_spectrum(x, y)


def test_joint_spectrum_rational_non_split_says_so():
    # x^2 + 1 is irreducible over Q: the rational-root search is complete
    x = qmat([[0, -1], [1, 0]])
    with pytest.raises(AdhmError, match="does not split"):
        joint_spectrum(x, Mat.zeros(QQ, 2, 2))


@pytest.mark.parametrize("case", ["zeta_and_one", "sqrt_minus_3"])
def test_joint_spectrum_cyclotomic_search_refusal(case):
    # both characteristic polynomials split over Q(zeta_3), but the roots
    # are beyond the search, which must say so rather than "does not split"
    f = CyclotomicField(3)
    z = f.zeta()
    s = f.add(f.one(), f.add(z, z))  # 1 + 2 zeta = sqrt(-3)
    assert f.mul(s, s) == f.from_int(-3)
    a, b = {"zeta_and_one": (z, f.one()), "sqrt_minus_3": (s, f.neg(s))}[case]
    x = Mat(f, [[a, f.zero()], [f.zero(), b]], 2, 2)
    with pytest.raises(AdhmError, match="unsupported") as err:
        joint_spectrum(x, Mat.identity(f, 2))
    assert "does not split" not in str(err.value)


def test_joint_spectrum_splits_over_cyclotomic():
    f = CyclotomicField(4)
    i = f.zeta()
    x = Mat(f, [[f.zero(), f.neg(f.one())], [f.one(), f.zero()]], 2, 2)
    y = Mat.identity(f, 2)
    spec = joint_spectrum(x, y)
    assert sorted(spec, key=str) == sorted([(i, f.one()), (f.neg(i), f.one())],
                                           key=str)


def test_joint_spectrum_wide_rational_eigenvalue():
    # the divisors of the constant term 10^12 are found in O(sqrt) time
    x = qmat([[10 ** 12, 0], [0, 1]])
    t0 = time.perf_counter()
    spec = joint_spectrum(x, Mat.identity(QQ, 2))
    assert time.perf_counter() - t0 < 1.0
    assert spec == [(Fraction(1), Fraction(1)), (Fraction(10 ** 12), Fraction(1))]


def test_joint_spectrum_large_prime_refused():
    # the search over F_p would try every element: refused before it starts
    f = PrimeField(2 ** 61 - 1)
    t0 = time.perf_counter()
    with pytest.raises(FieldError, match="cap"):
        joint_spectrum(Mat.from_ints(f, [[1, 0], [0, 2]]), Mat.identity(f, 2))
    assert time.perf_counter() - t0 < 1.0


def test_joint_spectrum_prime_under_cap_answers():
    p = next(q for q in range(FP_ROOT_SEARCH_CAP, 1, -1)
             if all(q % d for d in range(2, isqrt(q) + 1)))
    f = PrimeField(p)
    # eigenvalues at the end of the search order, so every element is tried
    x = Mat.from_ints(f, [[p - 1, 0], [0, p - 2]])
    assert joint_spectrum(x, Mat.identity(f, 2)) == [(p - 2, 1), (p - 1, 1)]


def test_joint_spectrum_prime_under_cap_twelve_eigenvalues():
    # a 12 x 12 diagonal with its eigenvalues at the end of the search
    # order: the search tests every residue in ints
    p = next(q for q in range(FP_ROOT_SEARCH_CAP, 1, -1)
             if all(q % d for d in range(2, isqrt(q) + 1)))
    f = PrimeField(p)
    x = Mat.from_ints(f, [[p - 1 - r if r == c else 0 for c in range(12)]
                          for r in range(12)])
    t0 = time.perf_counter()
    spec = joint_spectrum(x, Mat.identity(f, 12))
    assert time.perf_counter() - t0 < 1.0
    assert spec == sorted(((p - 1 - r, 1) for r in range(12)), key=str)


def test_joint_spectrum_requires_commuting():
    with pytest.raises(AdhmError):
        joint_spectrum(qmat([[0, 1], [0, 0]]), qmat([[0, 0], [1, 0]]))


def reference_joint_spectrum(x: Mat, y: Mat):
    """joint_spectrum before the separating combination x + t y: one kernel
    of (x - r)^k per eigenvalue r of x, and the spectrum of y on it."""
    if x @ y != y @ x:
        raise AdhmError("matrices do not commute")
    f = x.field
    pairs = []
    for r, k in Counter(_eigenvalues(x)).items():
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
    if isinstance(f, CyclotomicField):
        return sorted(pairs, key=lambda rs: str(tuple(map(f.coeffs, rs))))
    if f.kind == "rational":
        return sorted(pairs, key=lambda rs: str(tuple(map(Fraction, rs))))
    return sorted(pairs, key=str)


SPECTRUM_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5),
                   PrimeField(7), PrimeField(11), CyclotomicField(3),
                   CyclotomicField(4)]


def eigenvalue_pool(f):
    """A few elements with 0 among them, so that random lists repeat; over
    Q(zeta_m) also zeta and 1 + 2 zeta, which the eigenvalue search does not
    reach (sqrt(-3) for m = 3)."""
    if f.kind == "prime":
        return [f.from_int(k) for k in range(min(f.p, 4))]
    pool = [f.from_int(k) for k in (0, 1, -1, 2)]
    if f.kind == "rational":
        return pool + [f.from_fraction(Fraction(1, 2))]
    z = f.zeta()
    return pool + [z, f.add(f.one(), f.add(z, z))]


def draw_eigenvalues(f, n, rng):
    """n elements of the pool; each non-real one is followed by its complex
    conjugate while there is room, so most lists are Galois-closed and
    their polynomials rational."""
    pool = eigenvalue_pool(f)
    out = []
    while len(out) < n:
        e = rng.choice(pool)
        out.append(e)
        if f.conj(e) != e and len(out) < n:
            out.append(f.conj(e))
    rng.shuffle(out)
    return out


def seeded_commuting_pair(f, n, kind, rng):
    """(x, y, pairs): x and y conjugated by one random g, and their joint
    spectrum as a list. ``diagonal``: x and y diagonal before conjugation;
    ``polynomial``: p(a) and q(a) for an upper-triangular a and integer
    polynomials p, q of degree <= 2, so x and y have nilpotent parts."""
    z, o = f.zero(), f.one()
    upper = Mat(f, [[o if r == c else f.random(rng, 2) if r < c else z
                     for c in range(n)] for r in range(n)], n, n)
    lower = Mat(f, [[o if r == c else f.random(rng, 2) if r > c else z
                     for c in range(n)] for r in range(n)], n, n)
    g = upper @ lower
    ginv = g.solve(Mat.identity(f, n))
    if kind == "diagonal":
        xs, ys = draw_eigenvalues(f, n, rng), draw_eigenvalues(f, n, rng)
        x = Mat(f, [[xs[r] if r == c else z for c in range(n)]
                    for r in range(n)], n, n)
        y = Mat(f, [[ys[r] if r == c else z for c in range(n)]
                    for r in range(n)], n, n)
        pairs = list(zip(xs, ys))
    else:
        diag = draw_eigenvalues(f, n, rng)
        a = Mat(f, [[diag[r] if r == c else f.random(rng, 2) if r < c else z
                     for c in range(n)] for r in range(n)], n, n)
        powers = [Mat.identity(f, n), a, a @ a]

        def poly_of():
            coeffs = [f.from_int(rng.randint(-2, 2)) for _ in powers]
            m = Mat.zeros(f, n, n)
            for c, power in zip(coeffs, powers):
                m = m + power.scale(c)
            return m, lambda e: f.add(coeffs[0], f.add(
                f.mul(coeffs[1], e), f.mul(coeffs[2], f.mul(e, e))))

        (x, px), (y, py) = poly_of(), poly_of()
        pairs = [(px(e), py(e)) for e in diag]
    return g @ x @ ginv, g @ y @ ginv, pairs


def spectrum_outcome(spectrum, x, y):
    try:
        return repr(spectrum(x, y))
    except (AdhmError, FieldError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("f", SPECTRUM_FIELDS,
                         ids=lambda f: "-".join(map(str, f.spec().values())))
def test_joint_spectrum_matches_the_kernel_reference(f):
    rng = random.Random(f"joint spectrum {f.spec()}")
    answered = 0
    for n in range(1, 8):
        for kind in ("diagonal", "polynomial"):
            for _ in range(3):
                x, y, pairs = seeded_commuting_pair(f, n, kind, rng)
                got = spectrum_outcome(joint_spectrum, x, y)
                want = spectrum_outcome(reference_joint_spectrum, x, y)
                if got != want:
                    # over Q(zeta_m) the search can reach the eigenvalues
                    # of y on the whole space and not those of y on an
                    # eigenspace of x, whose polynomial is not rational
                    assert f.kind == "cyclotomic" and type(got) is str
                    assert "unsupported" in want[1]
                if type(got) is str:
                    answered += 1
                    assert Counter(joint_spectrum(x, y)) == Counter(pairs)
    assert answered >= 10


def count_kernels(monkeypatch):
    calls = []
    kernel_basis = Mat.kernel_basis
    monkeypatch.setattr(Mat, "kernel_basis",
                        lambda m: calls.append(m) or kernel_basis(m))
    return calls


def test_joint_spectrum_separated_takes_no_kernel(monkeypatch):
    # 7 x 7 over Q, x with 5 distinct eigenvalues: the reference takes one
    # kernel per eigenvalue, the separating combination none
    x, y = conjugated_diagonal([1, 1, 2, -3, 5, 0, 1], [2, -1, 3, 3, 0, 4, 2])
    calls = count_kernels(monkeypatch)
    spec = joint_spectrum(x, y)
    assert not calls
    assert repr(spec) == repr(reference_joint_spectrum(x, y))
    assert len(calls) == 5


def test_joint_spectrum_unseparated_takes_the_kernel_path(monkeypatch):
    # the four pairs of F_2^2: r + t s is not injective for t = 1, the only
    # nonzero t of F_2
    f = PrimeField(2)
    x = Mat.from_ints(f, [[int(r == c and r >= 2) for c in range(4)]
                          for r in range(4)])
    y = Mat.from_ints(f, [[int(r == c and r % 2) for c in range(4)]
                          for r in range(4)])
    calls = count_kernels(monkeypatch)
    assert joint_spectrum(x, y) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(calls) == 2


def test_adhm_data_refuses_matrices_over_another_field():
    # rational matrices labelled F_3 ran F_3 elimination on Fractions
    f3 = PrimeField(3)
    half = qmat([[1, 0], [0, 1]]).scale(Fraction(1, 2))
    with pytest.raises(FieldError, match="over the wrong field"):
        AdhmData(2, half, half, qmat([[1], [0]]), qmat([[0, 0]]), f3)
    x = Mat.from_ints(f3, [[0, 1], [0, 0]])
    with pytest.raises(FieldError, match="i over the wrong field"):
        AdhmData(2, x, x, qmat([[1], [0]]), Mat.zeros(f3, 1, 2), f3)


def test_power_traces_match_spectrum():
    x = qmat([[1, 0], [0, 2]])
    y = qmat([[5, 0], [0, 7]])
    tr = power_traces(x, y, 3)
    spec = joint_spectrum(x, y)
    for (a, b), t in tr.items():
        assert t == sum(ev_x ** a * ev_y ** b for ev_x, ev_y in spec)


def test_power_traces_prime_field():
    f3 = PrimeField(3)
    x = Mat.from_ints(f3, [[1, 0], [0, 2]])
    y = Mat.from_ints(f3, [[2, 0], [0, 2]])
    tr = power_traces(x, y, 2)
    assert tr[(0, 0)] == 2 % 3
    assert tr[(1, 1)] == (1 * 2 + 2 * 2) % 3


def test_calogero_moser_witness():
    d = AdhmData(2, qmat([[0, 1], [0, 0]]), qmat([[0, 0], [-1, 0]]),
                 qmat([[1], [0]]), qmat([[2, 0]]), QQ)
    rep = calogero_moser_check(d, 1)
    assert rep["residual_zero"] and rep["cyclic"]
    assert rep["stabilizer_dim"] == 0 and rep["free_point"]
    assert rep["expected_dim"] == 4


def test_calogero_moser_rejects():
    d = AdhmData(1, qmat([[0]]), qmat([[0]]), qmat([[0]]), qmat([[0]]), QQ)
    with pytest.raises(AdhmError):
        calogero_moser_check(d, 0)  # zero deformation parameter
    with pytest.raises(AdhmError):
        calogero_moser_check(d, 1)  # residual -1 != 0


def calogero_moser_point(f, qs, lam):
    """x = diag(q), y_ab = -lam / (q_a - q_b) off the diagonal, i = 1 and
    j = lam 1^T: [x, y] = lam (Id - 1 1^T), so [x, y] + i j = lam Id."""
    n = len(qs)

    def el(r):
        return f.from_fraction(Fraction(r))

    x = Mat(f, [[el(qs[a] if a == b else 0) for b in range(n)]
                for a in range(n)], n, n)
    y = Mat(f, [[f.zero() if a == b else
                 f.mul(el(-lam), f.inv(el(qs[a] - qs[b])))
                 for b in range(n)] for a in range(n)], n, n)
    i = Mat(f, [[f.one()] for _ in range(n)], n, 1)
    j = Mat(f, [[el(lam)] * n], 1, n)
    return AdhmData(n, x, y, i, j, f)


@pytest.mark.parametrize("f", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_calogero_moser_seeded_points(f, n):
    # distinct diagonal entries, distinct mod 7 too, and lam nonzero mod 7
    rng = random.Random(100 * n + f.spec().get("p", 0))
    qs = rng.sample(range(7), n)
    lam = rng.choice([1, 2, 3, -2])  # lam + 1 stays nonzero
    d = calogero_moser_point(f, qs, lam)
    rep = calogero_moser_check(d, lam)
    assert rep == {"residual_zero": True, "cyclic": True,
                   "stabilizer_dim": 0, "free_point": True,
                   "expected_dim": 2 * n}
    with pytest.raises(AdhmError, match="residual"):
        calogero_moser_check(d, lam + 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_calogero_moser_weyl_points_in_characteristic_p(p):
    # at n = p over F_p, x e_k = e_(k+1) and y e_k = k e_(k-1) give
    # [x, y] = -Id with j = 0: i = e_0 is cyclic with a trivial stabilizer
    # although theta = +1 stability fails (j = 0), and i = 0 is neither
    # cyclic nor free (the scalars fix it)
    f = PrimeField(p)
    x = Mat.from_ints(f, [[int(a == b + 1) for b in range(p)]
                          for a in range(p)])
    y = Mat.from_ints(f, [[b * (a == b - 1) for b in range(p)]
                          for a in range(p)])
    j = Mat.zeros(f, 1, p)
    e0 = Mat.from_ints(f, [[int(a == 0)] for a in range(p)])
    rep = calogero_moser_check(AdhmData(p, x, y, e0, j, f), -1)
    assert rep["cyclic"] and rep["free_point"] and rep["stabilizer_dim"] == 0
    rep = calogero_moser_check(AdhmData(p, x, y, Mat.zeros(f, p, 1), j, f), -1)
    assert not rep["cyclic"] and not rep["free_point"]
    assert rep["stabilizer_dim"] == 1


def test_hilbert_counts_agree():
    # Ellingsrud-Stromme: sum over partitions lambda of 2 of q^(2 + len)
    cells = 2 ** (2 + 1) + 2 ** (2 + 2)
    assert count_hilbert_orbits_f2_n2() == cells == 24
    assert count_codim2_ideals_f2() == cells
