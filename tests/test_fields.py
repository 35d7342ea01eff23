import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from quivar.fields import (CyclotomicField, FieldError, PrimeField, QQ,
                           _is_prime, cyclotomic_coeffs, field_from_spec)


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
