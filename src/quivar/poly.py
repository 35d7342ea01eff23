"""Dense integer polynomials, lists of ints with the low degree first, and
the q-numbers at an integer q, all in exact integer arithmetic. No module
of the package is imported here, so that ``fields`` can build Phi_m on it."""

from math import comb, lcm


def divmod_monic(num, den):
    """(quotient, remainder) of num by the monic den in Z[t], by long
    division; the remainder has exactly len(den) - 1 coefficients."""
    n = len(den) - 1
    num = list(num) + [0] * (n - len(num))
    quo = [0] * (len(num) - n)
    for k in reversed(range(len(quo))):
        c = quo[k] = num[k + n]
        for i, b in enumerate(den):
            num[k + i] -= c * b
    return quo, num[:n]


def cleared(fracs):
    """(ints, den): the Fractions ``fracs`` as integers over the lcm den of
    their denominators."""
    den = lcm(*[x.denominator for x in fracs])
    return [x.numerator * (den // x.denominator) for x in fracs], den


def roots_mod(ints, p):
    """The residues r mod p, ascending, at which ints vanishes mod p, by
    Horner's rule in ints."""
    for r in range(p):
        acc = 0
        for a in reversed(ints):
            acc = (acc * r + a) % p
        if not acc:
            yield r


def at_plus_minus_one(ints):
    """(f(1), f(-1)) of f = ints."""
    return sum(ints), sum(ints[::2]) - sum(ints[1::2])


def may_be_root(p, q, values):
    """False when p / q, in lowest terms, is not a root of an f in Z[t]
    with values = (f(1), f(-1)). By Gauss's lemma a root gives
    f = (q t - p) g with g in Z[t], so p - q divides f(1) and p + q
    divides f(-1); a zero divisor asks for a zero value."""
    at_one, at_minus_one = values
    d, e = p - q, p + q
    return not (at_one % d if d else at_one) and \
        not (at_minus_one % e if e else at_minus_one)


def scaled(ints, p, q):
    """The coefficients a_e p^e q^(n-e) of q^n f(p t / q), f = ints of degree
    n: z is a root of it of the multiplicity of (p / q) z in f."""
    n = len(ints) - 1
    return [a * p ** e * q ** (n - e) for e, a in enumerate(ints)]


def hasse(ints, j):
    """t^j times the j-th Hasse derivative of ints: the C(e, j) a_e."""
    return [comb(e, j) * a for e, a in enumerate(ints)]


def q_binomial(n, k, q):
    """The Gaussian binomial [n choose k]_q at the integer q >= 2: for a
    prime power q, the number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den
