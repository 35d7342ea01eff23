import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from quivar.adhm import monomials_upto, power_traces
from quivar.fields import (CyclotomicField, FieldError, PrimeField, QQ,
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
    """Product in Q(zeta_m) by Fraction schoolbook multiplication and long
    division by the monic Phi_m; shares no code with the field's kernel."""
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
    return _schoolbook_mul(f, a, b) if isinstance(f, CyclotomicField) \
        else f.mul(a, b)


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
        return tuple(_random_fraction(rng) for _ in range(f.degree))
    return _random_fraction(rng)


def _assert_canonical(f, x):
    if isinstance(f, PrimeField):
        assert type(x) is int and 0 <= x < f.p
        return
    coeffs = x if isinstance(f, CyclotomicField) else (x,)
    if isinstance(f, CyclotomicField):
        assert type(x) is tuple and len(x) == f.degree
    for c in coeffs:
        assert type(c) is Fraction
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


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


def test_cyclotomic_mul_matches_schoolbook():
    rng = random.Random(7)
    for m in range(1, 41):
        f = CyclotomicField(m)
        for _ in range(8):
            a, b = _random_element(f, rng), _random_element(f, rng)
            got = f.mul(a, b)
            _assert_canonical(f, got)
            assert got == _schoolbook_mul(f, a, b), (m, a, b)
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


def test_matmul_matches_reference_loop():
    rng = random.Random(5)
    for f in (QQ, PrimeField(3), CyclotomicField(8)):
        for rows, inner, cols in ((2, 3, 4), (1, 1, 1), (3, 0, 2), (0, 2, 3)):
            a = Mat(f, [[_random_element(f, rng) for _ in range(inner)]
                        for _ in range(rows)], rows, inner)
            b = Mat(f, [[_random_element(f, rng) for _ in range(cols)]
                        for _ in range(inner)], inner, cols)
            prod = a @ b
            assert (prod.rows, prod.cols) == (rows, cols)
            assert prod == _reference_matmul(f, a, b)
