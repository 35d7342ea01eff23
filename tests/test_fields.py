import random
import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from quivar.adhm import monomials_upto, power_traces
from quivar.fields import (CyclotomicField, Field, FieldError, PrimeField, QQ,
                           _is_prime, cyclotomic_coeffs, field_from_spec)
from quivar.linalg import Mat


def test_rationals_roundtrip():
    a = QQ.from_fraction(Fraction(3, 7))
    assert QQ.to_str(a) == "3/7"
    assert QQ.parse("3/7") == a
    assert QQ.parse("-4") == Fraction(-4)
    assert QQ.div(QQ.from_int(1), QQ.from_int(3)) == Fraction(1, 3)


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.add(f5.from_int(3), f5.from_int(4)) == 2
    assert f5.mul(f5.inv(f5.from_int(2)), f5.from_int(2)) == 1
    with pytest.raises(ZeroDivisionError):
        f5.inv(f5.zero())
    with pytest.raises(FieldError):
        PrimeField(6)


def test_prime_field_fermat():
    for p in (2, 3, 5, 7, 11):
        f = PrimeField(p)
        for a in range(1, p):
            x = f.one()
            for _ in range(p - 1):
                x = f.mul(x, f.from_int(a))
            assert x == f.one()


def test_cyclotomic_polynomial_degrees():
    # phi(m) for the shipped degrees
    assert len(cyclotomic_coeffs(3)) - 1 == 2
    assert len(cyclotomic_coeffs(8)) - 1 == 4
    assert len(cyclotomic_coeffs(5)) - 1 == 4
    assert len(cyclotomic_coeffs(12)) - 1 == 4


def _zpoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_divisor_product_and_degree():
    # prod over d | m of Phi_d is x^m - 1, and deg Phi_m = phi(m)
    for m in range(1, 201):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _zpoly_mul(prod, cyclotomic_coeffs(d))
        assert prod == [-1] + [0] * (m - 1) + [1], m
        totient = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert len(cyclotomic_coeffs(m)) - 1 == totient, m


def test_cyclotomic_105_has_coefficient_minus_two():
    # the least m with a coefficient outside {-1, 0, 1}
    c = cyclotomic_coeffs(105)
    assert min(c) == -2 and c.count(-2) == 2
    assert all(set(cyclotomic_coeffs(m)) <= {-1, 0, 1} for m in range(1, 105))


def test_from_coeffs_reduces_by_zeta_m():
    # a coefficient list of length 3m equals its fold by zeta^m = 1
    for m in (1, 2, 3, 5, 7, 8, 9, 12, 15):
        f = CyclotomicField(m)
        coeffs = [Fraction((7 * k) % 11 - 5, 1 + k % 3) for k in range(3 * m)]
        folded = [sum(coeffs[j::m], Fraction(0)) for j in range(m)]
        assert f.from_coeffs(coeffs) == f.from_coeffs(folded)
        acc = f.zero()
        for k, c in enumerate(coeffs):
            acc = f.add(acc, f.mul(f.from_fraction(c), f.zeta_pow(k)))
        assert f.from_coeffs(coeffs) == acc


def test_is_prime_matches_trial_division():
    for n in range(100_000):
        trial = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        assert _is_prime(n) == trial, n


@pytest.mark.parametrize("n", [561, 41041, 3215031751, 3825123056546413051])
def test_strong_pseudoprimes_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(FieldError):
        PrimeField(n)


def test_large_prime_accepted_fast():
    t0 = time.perf_counter()
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - t0 < 0.1


def test_prime_beyond_exact_bound_refused():
    with pytest.raises(FieldError, match="primality bound"):
        PrimeField(2 ** 89 - 1)


def test_cyclotomic_zeta_order():
    for m in (3, 4, 5, 8, 12):
        f = CyclotomicField(m)
        z = f.zeta()
        x = f.one()
        for _ in range(m):
            x = f.mul(x, z)
        assert x == f.one()
        # no smaller power is 1
        x = f.one()
        for k in range(1, m):
            x = f.mul(x, z)
            assert x != f.one()


def test_fields_of_one_m_share_the_zeta_table():
    # the table of zeta^j is built once per m, as tuples that no field
    # can change; a field on the shared table computes as one whose table
    # was built afresh
    from quivar import fields
    rng = random.Random(20)
    for m in (1, 12, 20):
        f, g = CyclotomicField(m), CyclotomicField(m)
        assert f._zeta_sparse is g._zeta_sparse
        assert f._zeta_pows is g._zeta_pows
        assert isinstance(f._zeta_pows, tuple)
        assert all(isinstance(row, tuple) for row in f._zeta_sparse)
        fields._shared_zeta_table.cache_clear()
        h = CyclotomicField(m)
        assert h._zeta_pows is not f._zeta_pows
        for j in range(-m, 2 * m):
            assert f.zeta_pow(j) == g.zeta_pow(j) == h.zeta_pow(j)
        for _ in range(20):
            a, b = f.random(rng), f.random(rng)
            assert f.mul(a, b) == g.mul(a, b) == h.mul(a, b)
            assert f.mul(f.mul(a, f.zeta_pow(7)), b) == \
                h.mul(a, h.mul(h.zeta_pow(7), b))
    # the table of m = 20, rebuilt by multiplying by zeta from 1
    f = CyclotomicField(20)
    x = f.one()
    for j in range(40):
        assert f.zeta_pow(j) == x
        x = f.mul(x, f.zeta())


def test_shared_zeta_tables_cover_every_mckay_table():
    # every table the McKay cap admits has m up to the shared bound, so it
    # reuses its zeta^j table; a larger field keeps its own, freed with it.
    # k^3 alone exceeds the cap from k = 631, so the range is exhaustive
    from quivar import fields
    from quivar.mckay import McKayError, _check_work

    def admitted(k, m):
        try:
            _check_work(k, m)
        except McKayError:
            return False
        return True

    ms = [n for n in range(1, 631) if admitted(n, n)]
    ms += [4 * n for n in range(2, 628) if admitted(n + 3, 4 * n)]
    assert max(ms) == fields._SHARED_ZETA_M == 168
    assert CyclotomicField(168)._zeta_pows is CyclotomicField(168)._zeta_pows
    assert CyclotomicField(169)._zeta_pows is not \
        CyclotomicField(169)._zeta_pows


def test_cyclotomic_inverse_and_conjugate():
    f = CyclotomicField(8)
    a = f.add(f.one(), f.zeta())
    assert f.mul(a, f.inv(a)) == f.one()
    # a * conj(a) has zero imaginary part: it is fixed by conjugation
    prod = f.mul(a, f.conj(a))
    assert f.conj(prod) == prod


def test_cyclotomic_rational_part():
    f = CyclotomicField(5)
    # 1 + z + z^2 + z^3 + z^4 = 0, so the sum of the nontrivial powers is -1
    acc = f.zero()
    for k in range(5):
        acc = f.add(acc, f.zeta_pow(k))
    assert f.is_zero(acc)
    assert f.rational_part(f.from_fraction(Fraction(7, 2))) == Fraction(7, 2)


def test_field_from_spec_roundtrip():
    for spec in ({"kind": "rational"}, {"kind": "prime", "p": 7},
                 {"kind": "cyclotomic", "m": 8}):
        f = field_from_spec(spec)
        assert f.spec() == spec
    with pytest.raises(FieldError):
        field_from_spec({"kind": "padic"})


def test_cyclotomic_spec_index_is_capped(monkeypatch):
    # the cap admits every m of a McKay table and refuses a larger m
    # before the field is built, which once took 3.4 s and 259 MB at 4001
    from quivar import fields
    cap = fields.CYCLOTOMIC_INDEX_CAP
    assert cap >= fields._SHARED_ZETA_M == 168
    f = field_from_spec({"kind": "cyclotomic", "m": cap})
    assert f.spec() == {"kind": "cyclotomic", "m": cap}

    def refuse(m):
        raise AssertionError(f"Q(zeta_{m}) was built")

    monkeypatch.setattr(fields, "CyclotomicField", refuse)
    for m in (cap + 1, 4001, 10 ** 30):
        with pytest.raises(FieldError, match=f"field m = {m} exceeds the cap "
                                             f"of {cap}"):
            field_from_spec({"kind": "cyclotomic", "m": m})


def test_random_elements_deterministic():
    import random
    f = PrimeField(3)
    a = [f.random(random.Random(42)) for _ in range(5)]
    b = [f.random(random.Random(42)) for _ in range(5)]
    assert a == b


def test_field_equality_is_by_spec_with_identity_first():
    f = PrimeField(7)
    assert f == f and f == PrimeField(7) and f != PrimeField(5) and f != QQ
    assert CyclotomicField(5) == CyclotomicField(5)
    # a field equals itself without its spec being built
    g = PrimeField(11)
    g.spec = None
    assert g == g


# -- the inner-product kernel against the generic loop ----------------------

def _schoolbook_mul(f, a, b):
    """Product in Q(zeta_m) of two coefficient tuples, by Fraction schoolbook
    multiplication and long division by the monic Phi_m; shares no code
    with the field's kernel."""
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    phi = cyclotomic_coeffs(f.m)
    d = len(phi) - 1
    for k in reversed(range(d, len(prod))):
        c = prod[k]
        for i, pc in enumerate(phi):
            prod[k - d + i] -= c * pc
    return tuple(prod[:d])


def _reference_mul(f, a, b):
    if isinstance(f, CyclotomicField):
        return f.from_coeffs(_schoolbook_mul(f, f.coeffs(a), f.coeffs(b)))
    return f.mul(a, b)


def _reference_dot(f, u, v):
    """The generic loop: one field add and mul per term."""
    acc = f.zero()
    for a, b in zip(u, v):
        acc = f.add(acc, _reference_mul(f, a, b))
    return acc


def _random_fraction(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 35)))


def _random_element(f, rng):
    if isinstance(f, PrimeField):
        return 0 if rng.random() < 0.3 else rng.randrange(f.p)
    if isinstance(f, CyclotomicField):
        if rng.random() < 0.2:
            return f.zero()
        return f.from_coeffs([_random_fraction(rng) for _ in range(f.degree)])
    return _random_fraction(rng)


def _assert_canonical(f, x):
    if isinstance(f, PrimeField):
        assert type(x) is int and 0 <= x < f.p
        return
    if isinstance(f, CyclotomicField):
        # d numerators over one denominator, in lowest terms
        assert type(x) is tuple and len(x) == f.degree + 1
        assert all(type(c) is int for c in x)
        assert x[-1] > 0 and gcd(*x) == 1
        return
    # an int when integral, else a Fraction in lowest terms
    if type(x) is int:
        return
    assert type(x) is Fraction
    assert x.denominator > 1 and gcd(x.numerator, x.denominator) == 1


def test_rational_ops_return_the_canonical_form():
    # an int when integral, also from Fraction operands, else a Fraction
    # in lowest terms; every op and kernel against Fraction arithmetic
    half = Fraction(1, 2)
    for got, want in [(QQ.add(half, half), 1), (QQ.mul(2, half), 1),
                      (QQ.inv(-1), -1), (QQ.parse("4/2"), 2),
                      (QQ.from_int(Fraction(7)), 7),
                      (QQ.zero(), 0), (QQ.one(), 1), (QQ.dot([], []), 0)]:
        assert type(got) is int and got == want
    rng = random.Random("canonical Q")
    pool = [0, 1, -1, 3, Fraction(0), Fraction(4), Fraction(-2), half,
            Fraction(-3, 2), Fraction(5, 6), Fraction(10 ** 20, 3)]
    for a in pool:
        for b in pool:
            ops = [(QQ.add(a, b), Fraction(a) + b),
                   (QQ.sub(a, b), Fraction(a) - b),
                   (QQ.mul(a, b), Fraction(a) * b)]
            if b:
                ops += [(QQ.div(a, b), Fraction(a) / b),
                        (QQ.inv(b), 1 / Fraction(b))]
            for got, want in ops:
                _assert_canonical(QQ, got)
                assert got == want
    for _ in range(200):
        n = rng.randint(0, 5)
        u, v = rng.choices(pool, k=n), rng.choices(pool, k=n)
        c = rng.choice(pool)
        got = [QQ.dot(u, v), QQ.neg(c), QQ.from_fraction(c),
               QQ.rational_part(c), QQ.parse(str(c)), QQ.random(rng)]
        got += QQ.row_sub(u, c, v) + QQ.row_scale(c, u)
        for x in got:
            _assert_canonical(QQ, x)
        assert got[0] == sum((Fraction(a) * b for a, b in zip(u, v)),
                             Fraction(0))
        assert got[6:] == [a - c * b for a, b in zip(u, v)] + \
            [c * a for a in u]


DOT_FIELDS = {"Q": [QQ], "F2": [PrimeField(2)], "F7": [PrimeField(7)],
              "F_(2^61-1)": [PrimeField(2 ** 61 - 1)],
              "Q(zeta_m)": [CyclotomicField(m) for m in
                            (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 20)]}


@pytest.mark.parametrize("name", DOT_FIELDS)
def test_dot_matches_reference(name):
    rng = random.Random(name)
    for f in DOT_FIELDS[name]:
        for n in [0, 1, 1, 2, 3, 5, 8] * 6:
            u = [_random_element(f, rng) for _ in range(n)]
            v = [_random_element(f, rng) for _ in range(n)]
            got = f.dot(u, v)
            _assert_canonical(f, got)
            assert got == _reference_dot(f, u, v), (f, u, v)
            # zip semantics: the shorter argument bounds the sum
            assert f.dot(u, v + v[:1]) == got


@pytest.mark.parametrize("name", DOT_FIELDS)
def test_row_kernels_match_the_per_entry_loop(name):
    # one call per row, in place of one field sub and mul per entry
    rng = random.Random(name + " rows")
    for f in DOT_FIELDS[name]:
        assert {"row_sub", "row_scale"} <= set(vars(type(f))), f
        for n in [0, 1, 2, 3, 5, 8] * 4:
            u = [_random_element(f, rng) for _ in range(n)]
            v = [_random_element(f, rng) for _ in range(n)]
            for c in (f.zero(), f.one(), _random_element(f, rng),
                      _random_element(f, rng)):
                got = f.row_sub(u, c, v)
                assert got == [f.sub(a, f.mul(c, b)) for a, b in zip(u, v)]
                scaled = f.row_scale(c, u)
                assert scaled == [f.mul(c, a) for a in u]
                for x in got + scaled:
                    _assert_canonical(f, x)
                # zip semantics, as for dot
                assert f.row_sub(u, c, v + v[:1]) == got


def test_cyclotomic_mul_matches_schoolbook():
    rng = random.Random(7)
    for m in range(1, 41):
        f = CyclotomicField(m)
        for _ in range(8):
            a, b = _random_element(f, rng), _random_element(f, rng)
            got = f.mul(a, b)
            _assert_canonical(f, got)
            assert f.coeffs(got) == _schoolbook_mul(f, f.coeffs(a),
                                                    f.coeffs(b)), (m, a, b)
        z = f.zeta()
        assert f.conj(z) == f.zeta_pow(-1) and f.mul(z, f.conj(z)) == f.one()


@pytest.mark.parametrize("f", [QQ, PrimeField(7), CyclotomicField(5)],
                         ids=["Q", "F7", "Q(zeta_5)"])
def test_is_zero_and_sub_per_field(f):
    assert "is_zero" in vars(type(f))
    rng = random.Random(3)
    assert f.is_zero(f.zero()) and not f.is_zero(f.one())
    for _ in range(60):
        a, b = _random_element(f, rng), _random_element(f, rng)
        assert f.is_zero(a) == (a == f.zero())
        diff = f.sub(a, b)
        _assert_canonical(f, diff)
        assert diff == f.add(a, f.neg(b))
    if not isinstance(f, PrimeField):
        assert "sub" in vars(type(f))


def _reference_matmul(f, a, b):
    cols = [[b.data[k][j] for k in range(b.rows)] for j in range(b.cols)]
    return Mat(f, [[_reference_dot(f, r, c) for c in cols] for r in a.data],
               a.rows, b.cols)


@pytest.mark.parametrize("f", [QQ, PrimeField(7), CyclotomicField(5)],
                         ids=["Q", "F7", "Q(zeta_5)"])
def test_power_traces_match_product_then_trace(f):
    rng = random.Random(11)
    for n in (1, 2, 3):
        x = Mat(f, [[_random_element(f, rng) for _ in range(n)]
                    for _ in range(n)])
        # y = c0 + c1 x + c2 x^2 commutes with x
        one = Mat.identity(f, n)
        x2 = _reference_matmul(f, x, x)
        c0, c1, c2 = (_random_element(f, rng) for _ in range(3))
        y = one.scale(c0) + x.scale(c1) + x2.scale(c2)
        for maxdeg in range(5):
            xp, yp = [one], [one]
            for _ in range(maxdeg):
                xp.append(_reference_matmul(f, xp[-1], x))
                yp.append(_reference_matmul(f, yp[-1], y))
            expect = {(a, b): _reference_matmul(f, xp[a], yp[b]).trace()
                      for a, b in monomials_upto(maxdeg)}
            got = power_traces(x, y, maxdeg)
            assert got == expect
            for t in got.values():
                _assert_canonical(f, t)


def _matmul_cases():
    """(name, field, entry maker taking the rng, and the factor "a" or "b"
    whose last row gets one Fraction, or None)."""
    def ints(rng):  # small ints and ints far above 2^64
        return rng.choice((rng.randint(-4, 4), rng.randint(-2**80, 2**80)))

    yield "Q", QQ, lambda rng: _random_element(QQ, rng), None
    yield "Q ints", QQ, ints, None
    yield "Q Fraction in a", QQ, ints, "a"
    yield "Q Fraction in b", QQ, ints, "b"
    for f in (PrimeField(2), PrimeField(3), PrimeField(2**61 - 1),
              CyclotomicField(8)):
        yield repr(f), f, lambda rng, f=f: _random_element(f, rng), None


def test_matmul_matches_reference_loop():
    # Mat @ runs on the field's product kernel: the dot loop, the all-int
    # sums over Q with their fallback on a Fraction, or the sums mod p
    for name, f, entry, lone in _matmul_cases():
        rng = random.Random(5)
        for rows, inner, cols in ((2, 3, 4), (1, 1, 1), (3, 0, 2), (0, 2, 3)):
            a = [[entry(rng) for _ in range(inner)] for _ in range(rows)]
            b = [[entry(rng) for _ in range(cols)] for _ in range(inner)]
            side = {"a": a, "b": b}.get(lone)
            if side and side[-1]:  # one Fraction: the last row's last entry
                side[-1][-1] = Fraction(2 * side[-1][-1] + 1, 2)
            a, b = Mat(f, a, rows, inner), Mat(f, b, inner, cols)
            prod = a @ b
            assert (prod.rows, prod.cols) == (rows, cols), name
            assert prod == _reference_matmul(f, a, b), name
            for row in prod.data:
                for x in row:
                    _assert_canonical(f, x)


PAIR_FIELDS = [QQ, PrimeField(2), PrimeField(7)] + [
    CyclotomicField(m) for m in (1, 2, 3, 8, 20, 37)]


def _pair_element(f, rng):
    """Zero, a power of zeta times a rational (sparse in the power basis,
    like the entries of a character table), or a dense random element."""
    if isinstance(f, CyclotomicField) and rng.random() < 0.4:
        return f.mul(f.zeta_pow(rng.randrange(f.m)),
                     f.from_fraction(_random_fraction(rng)))
    return _random_element(f, rng)


@pytest.mark.parametrize("f", PAIR_FIELDS, ids=lambda f: "-".join(
    map(str, f.spec().values())))
def test_pair_of_prepared_vectors_is_the_dot(f):
    # the product kernel pairs each row with each column by dot: every
    # entry against the reference loop of field add and mul, on mixed
    # denominators, sparse zeta^k q entries, a zero row and empty shapes
    rng = random.Random(repr(f))
    for rows, inner, cols in ((2, 3, 2), (1, 1, 1), (3, 0, 2), (0, 2, 3),
                              (2, 5, 3), (3, 8, 2)):
        a = [[_pair_element(f, rng) for _ in range(inner)]
             for _ in range(rows)]
        b = [[_pair_element(f, rng) for _ in range(inner)]
             for _ in range(cols)]
        if a:
            a[-1] = [f.zero()] * inner
        got = f.matmul(a, b)
        assert got == tuple(
            tuple(_reference_dot(f, r, c) for c in b) for r in a), f
        for row in got:
            for x in row:
                _assert_canonical(f, x)


# -- the integer layout against the Fraction-tuple reference -----------------

def _reference_cleared(a):
    """(integer coefficients, denominator): a sequence of Fractions as integers
    over the lcm of its denominators."""
    den = lcm(*[x.denominator for x in a])
    if den == 1:
        return [x.numerator for x in a], 1
    return [x.numerator * (den // x.denominator) for x in a], den


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a, b):
    """Division with remainder in Q[x]; coefficient lists, low degree first."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    _poly_trim(r)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = r[-1] / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
        _poly_trim(r)
    return q, r


class FractionCyclotomicField(Field):
    """Q(zeta_m) with each element a tuple of phi(m) Fractions: the field as
    it was before its elements became integers over one denominator, kept
    verbatim as the reference for every operation."""

    kind = "fraction-cyclotomic"

    def __init__(self, m: int):
        if m < 1:
            raise FieldError("cyclotomic index must be >= 1")
        self.m = m
        phi = cyclotomic_coeffs(m)
        d = self.degree = len(phi) - 1
        self._phi = phi
        # zeta^j for j = 0..m-1, reduced mod Phi_m, as integer rows (Phi_m
        # is monic); zeta^m = 1 makes it cover every power, indexed by j % m
        table = []
        for k in range(m):
            if k < d:
                table.append(tuple(int(i == k) for i in range(d)))
            else:
                # x^k = x * x^(k-1), reduced via x^d = -(phi_0 + ... + phi_{d-1} x^{d-1})
                prev = table[k - 1]
                top = prev[d - 1]
                table.append(tuple((prev[i - 1] if i else 0) - top * phi[i]
                                   for i in range(d)))
        self._zeta_ints = table
        self._zeta_pows = [tuple(map(Fraction, row)) for row in table]

    def from_int(self, n):
        return tuple([Fraction(n)] + [Fraction(0)] * (self.degree - 1))

    def from_fraction(self, q):
        return tuple([Fraction(q)] + [Fraction(0)] * (self.degree - 1))

    def from_coeffs(self, coeffs):
        """Element from coefficients of 1, z, z^2, ... (any length), reduced."""
        return self._reduce(*_reference_cleared([Fraction(c) for c in coeffs]))

    def _reduce(self, coeffs, den):
        """The element (sum of coeffs[k] z^k) / den for integer coeffs of
        any length: the powers from z^d on are reduced by the integer table
        of zeta^j, then each coefficient becomes one Fraction."""
        d, m, table = self.degree, self.m, self._zeta_ints
        out = coeffs[:d] + [0] * (d - len(coeffs))
        for k in range(d, len(coeffs)):
            c = coeffs[k]
            if c:
                out = [o + c * z for o, z in zip(out, table[k % m])]
        return tuple(Fraction(c, den) for c in out)

    def zeta(self):
        """The distinguished primitive m-th root of unity."""
        return self.zeta_pow(1)

    def zeta_pow(self, j: int):
        return self._zeta_pows[j % self.m]

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        return self.dot((a,), (b,))

    def dot(self, u, v):
        # the integer coefficients of the unreduced sum of products, over
        # the running lcm of the terms' denominators
        acc = [0] * (2 * self.degree - 1)
        den = 1
        for a, b in zip(u, v):
            ca, da = _reference_cleared(a)
            if not any(ca):
                continue
            cb, db = _reference_cleared(b)
            if not any(cb):
                continue
            t = da * db
            if t == den:
                r = 1
            else:
                g = gcd(den, t)
                s, r = t // g, den // g
                if s != 1:
                    acc = [c * s for c in acc]
                    den *= s
            for i, x in enumerate(ca):
                if x:
                    x *= r
                    for j, y in enumerate(cb, i):
                        acc[j] += x * y
        return self._reduce(acc, den)

    def neg(self, a):
        return tuple(-x for x in a)

    def is_zero(self, a):
        return not any(a)

    def inv(self, a):
        if all(x == 0 for x in a):
            raise ZeroDivisionError("inverse of 0")
        # extended Euclid for gcd(a, Phi_m) in Q[x]; Phi_m irreducible so gcd is 1
        r0, r1 = [Fraction(c) for c in self._phi], [Fraction(x) for x in a]
        s0, s1 = [], [Fraction(1)]
        _poly_trim(r1)
        while r1:
            q, r = _poly_divmod(r0, r1)
            s = list(s0)
            s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
            for i, qi in enumerate(q):
                for j, sj in enumerate(s1):
                    s[i + j] -= qi * sj
            r0, r1 = r1, r
            s0, s1 = s1, _poly_trim(s)
        c = r0[-1]  # gcd as a constant (deg 0 since Phi_m is irreducible)
        if len(r0) != 1:
            raise FieldError("cyclotomic polynomial unexpectedly reducible")
        return self.from_coeffs([x / c for x in s0])

    def conj(self, a):
        # zeta -> zeta^-1 moves the coefficient of z^k to z^((m - k) % m)
        num, den = _reference_cleared(a)
        coeffs = [0] * self.m
        for k, c in enumerate(num):
            coeffs[-k % self.m] = c
        return self._reduce(coeffs, den)

    def rational_part(self, a) -> Fraction:
        """Constant coefficient; raises if the element is not rational."""
        if any(x != 0 for x in a[1:]):
            raise FieldError(f"element {a} is not rational")
        return a[0]

    def spec(self):
        return {"kind": "fraction-cyclotomic", "m": self.m}

    def to_str(self, a):
        return "[" + ",".join(str(x) for x in a) + "]"

    def parse(self, s):
        if isinstance(s, (list, tuple)):
            return self.from_coeffs([Fraction(str(x)) for x in s])
        body = str(s).strip().strip("[]")
        coeffs = [Fraction(t) for t in body.split(",")] if body else []
        return self.from_coeffs(coeffs)

    def random(self, rng, span=5):
        return tuple(Fraction(rng.randint(-span, span)) for _ in range(self.degree))


def _coefficient_lists(rng, d):
    """Seeded coefficient lists of length d: zero, rational, and integer
    and rational ones with large numerators and denominators."""
    big = 10 ** 30
    yield [0] * d
    yield [Fraction(rng.randint(-3, 3), 7)] + [0] * (d - 1)
    yield [_random_fraction(rng) for _ in range(d)]
    yield [rng.randint(-big, big) if rng.random() < 0.7 else 0
           for _ in range(d)]
    yield [Fraction(rng.randint(-big, big), rng.randint(1, 10 ** 12))
           for _ in range(d)]


def _rational_part_or_error(f, a):
    try:
        return f.rational_part(a)
    except FieldError as err:
        return str(err)


def test_galois_tower_builds_the_unit_group():
    # the cosets g^j H, j < e, of each step are disjoint and fill H <g>,
    # so the steps' indices multiply to phi(m) and the last H is (Z/m)^*
    from quivar.fields import _galois_tower
    for m in range(1, 200):
        units = {k % m for k in range(1, m + 1) if gcd(k, m) == 1}
        sub = {1 % m}
        for g, e in _galois_tower(m):
            assert g not in sub and pow(g, e, m) in sub
            assert all(pow(g, j, m) not in sub for j in range(1, e))
            grown = {h * pow(g, j, m) % m for h in sub for j in range(e)}
            assert len(grown) == e * len(sub)
            sub = grown
        assert sub == units


def test_cyclotomic_inverse_by_the_norm():
    # degree-20 elements with 30-digit coefficients, whose Euclid in Q[x]
    # took 3 to 23 s each; then every seeded element up to m = 40, where
    # the conjugates multiplied one by one took about 1.5 s per inverse in
    # Q(zeta_37)
    rng = random.Random("norm inverse")
    big = 10 ** 30
    t0 = time.perf_counter()
    for m in (25, 33, 32):
        f = CyclotomicField(m)
        a = f.from_coeffs([rng.randint(-big, big) for _ in range(21)])
        inv = f.inv(a)
        assert f.mul(a, inv) == f.one()
    assert time.perf_counter() - t0 < 1.0
    for m in range(1, 41):
        f = CyclotomicField(m)
        for c in _coefficient_lists(rng, f.degree):
            a = f.from_coeffs(c)
            if not f.is_zero(a):
                inv = f.inv(a)
                _assert_canonical(f, inv)
                assert f.mul(a, inv) == f.one() == f.mul(inv, a)


def test_cyclotomic_matches_the_fraction_tuple_reference():
    for m in range(1, 41):
        f, ref = CyclotomicField(m), FractionCyclotomicField(m)
        rng = random.Random(m)
        d = f.degree
        lists = list(_coefficient_lists(rng, d))
        # a longer list exercises the reduction by zeta^m = 1 and Phi_m
        lists.append([rng.randint(-5, 5) for _ in range(2 * m + 1)])
        pairs = [(f.from_coeffs(c), ref.from_coeffs(c)) for c in lists]
        for a, ra in pairs:
            _assert_canonical(f, a)
            assert f.coeffs(a) == ra
            assert f.is_zero(a) == ref.is_zero(ra)
            assert f.coeffs(f.neg(a)) == ref.neg(ra)
            assert f.coeffs(f.conj(a)) == ref.conj(ra)
            assert _rational_part_or_error(f, a) == \
                _rational_part_or_error(ref, ra)
            text = f.to_str(a)
            assert text == ref.to_str(ra)
            assert f.parse(text) == a and f.parse(list(f.coeffs(a))) == a
            # Euclid in Q[x] swells coefficients: large ones at degree <= 4,
            # the others at degree <= 8
            height = max(abs(x.numerator) + x.denominator for x in ra)
            if not ref.is_zero(ra) and (d <= 4 or d <= 8 and height < 10 ** 6):
                inv = f.inv(a)
                _assert_canonical(f, inv)
                assert f.coeffs(inv) == ref.inv(ra)
            for b, rb in pairs:
                for op in ("add", "sub", "mul"):
                    got = getattr(f, op)(a, b)
                    _assert_canonical(f, got)
                    assert f.coeffs(got) == getattr(ref, op)(ra, rb), (m, op)
        elems, refs = zip(*pairs)
        for k in range(len(elems) + 1):
            got = f.dot(elems[:k], elems[::-1][:k])
            _assert_canonical(f, got)
            assert f.coeffs(got) == ref.dot(refs[:k], refs[::-1][:k])
        for j in range(-m, 2 * m):
            assert f.coeffs(f.zeta_pow(j)) == ref.zeta_pow(j)
        for n in (0, 5, -3, 10 ** 30):
            assert f.coeffs(f.from_int(n)) == ref.from_int(n)
        for q in (Fraction(0), Fraction(-7, 4), Fraction(10 ** 20, 3)):
            assert f.coeffs(f.from_fraction(q)) == ref.from_fraction(q)
        assert f.coeffs(f.random(random.Random(m))) == \
            ref.random(random.Random(m))
        assert f.parse("") == f.zero() and ref.parse("") == ref.zero()
