import random
from fractions import Fraction

import pytest

from quivar.poly import at_plus_minus_one, cleared, divmod_monic, hasse, \
    may_be_root, q_binomial, roots_mod, scaled


def mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def value(ints, x):
    return sum(a * x ** e for e, a in enumerate(ints))


def padded(a, n):
    return list(a) + [0] * (n - len(a))


def test_divmod_monic_is_euclidean_division():
    rng = random.Random(0)
    for _ in range(200):
        den = [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))] + [1]
        num = [rng.randint(-9, 9) for _ in range(rng.randint(0, 9))]
        quo, rem = divmod_monic(num, den)
        assert len(rem) == len(den) - 1
        # num = quo den + rem, with rem of lower degree than den
        back = mul(quo, den) if quo else []
        n = max(len(num), len(back), len(rem))
        assert [a + b for a, b in zip(padded(back, n), padded(rem, n))] == \
            padded(num, n)


def test_cleared_puts_fractions_over_their_lcm():
    assert cleared([Fraction(1, 2), Fraction(-1, 3), Fraction(5)]) == \
        ([3, -2, 30], 6)
    assert cleared([Fraction(4), Fraction(0)]) == ([4, 0], 1)


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_roots_mod_is_every_vanishing_residue(p):
    rng = random.Random(p)
    for _ in range(30):
        ints = [rng.randint(-20, 20) for _ in range(rng.randint(1, 6))]
        assert list(roots_mod(ints, p)) == \
            [r for r in range(p) if value(ints, r) % p == 0]


def test_scaled_moves_the_root_p_over_q_to_one():
    # (t - 2/3)^2 (t + 5), cleared: (3t - 2)^2 (t + 5)
    f = mul(mul([-2, 3], [-2, 3]), [5, 1])
    s = scaled(f, 2, 3)
    assert value(s, 1) == 0 and value(s, Fraction(-15, 2)) == 0


def test_at_plus_minus_one_and_the_root_sieve():
    # f = (2t - 3)(t - 1)(t + 1) t vanishes at 1 and -1, so the zero
    # divisors p - q of 1 and p + q of -1 pass; g = (2t - 3)(t - 5) has
    # g(1) = 4, which 5 - 2 = 3 does not divide, so 5/2 fails, as do the
    # zero divisors of 1 and -1 at g(1), g(-1) != 0
    f = mul(mul(mul([-3, 2], [-1, 1]), [1, 1]), [0, 1])
    assert at_plus_minus_one(f) == (value(f, 1), value(f, -1)) == (0, 0)
    assert all(may_be_root(p, q, at_plus_minus_one(f))
               for p, q in [(3, 2), (1, 1), (-1, 1), (0, 1)])
    g = mul([-3, 2], [-5, 1])
    assert at_plus_minus_one(g) == (4, 30)
    assert may_be_root(3, 2, (4, 30)) and may_be_root(5, 1, (4, 30))
    assert not may_be_root(5, 2, (4, 30))
    assert not may_be_root(1, 1, (4, 30)) and not may_be_root(-1, 1, (4, 30))


def test_hasse_derivatives_read_the_multiplicity():
    # (t - 1)^3 t has the root 1 three times, also over F_2 and F_3, where
    # the third ordinary derivative vanishes there as well
    f = mul(mul([-1, 1], [-1, 1]), [0, -1, 1])
    for p in (2, 3, 0):
        vals = [sum(hasse(f, j)) for j in range(5)]
        if p:
            vals = [v % p for v in vals]
        assert vals[:3] == [0, 0, 0] and vals[3] != 0


def test_q_binomial_counts_subspaces():
    assert [q_binomial(4, k, 2) for k in range(5)] == [1, 15, 35, 15, 1]
    assert q_binomial(3, 1, 5) == 31 and q_binomial(5, 0, 3) == 1
    for q in (2, 3, 4):
        for n in range(1, 6):
            for k in range(1, n):
                # q-Pascal: [n, k] = [n-1, k-1] + q^k [n-1, k]
                assert q_binomial(n, k, q) == q_binomial(n - 1, k - 1, q) + \
                    q ** k * q_binomial(n - 1, k, q)
