"""Exact scalar arithmetic over Q, prime fields F_p, and cyclotomic fields Q(zeta_m).

Every field exposes the same small interface (zero/one/add/sub/mul/dot/
inv/is_zero/...), with elements stored as plain immutable Python values:

* rationals        -> ``fractions.Fraction`` (always in lowest terms)
* prime field      -> ``int`` in ``[0, p)``
* cyclotomic field -> flat tuple of ``euler_phi(m) + 1`` ints
                      ``(n_0, ..., n_{d-1}, den)``, the element
                      ``(n_0 + n_1 z + ... + n_{d-1} z^(d-1)) / den`` reduced
                      modulo the m-th cyclotomic polynomial, with den > 0 and
                      gcd(n_0, ..., n_{d-1}, den) = 1. The form is canonical,
                      so elements compare and hash as tuples; ``coeffs``
                      gives the d coefficients as Fractions, which is what
                      ``to_str``, ``rational_part`` and their messages print.

Cyclotomic arithmetic works in ints and puts each result in lowest terms
once, with one gcd (``_lowest``): ``add``/``sub`` over the lcm of the two
denominators, ``conj`` and ``from_coeffs`` after one reduction by the table
of zeta^j; ``neg`` keeps the denominator and needs none. Fractions appear
only at the edges: reading input (``from_fraction``, ``from_coeffs``,
``parse``), the ``coeffs`` accessor, and the extended Euclid in Q[x] that
``inv`` keeps.

``dot(u, v)`` is the exact inner product sum u_k v_k, the one kernel that
matrix products, characteristic polynomials, character pairings and power
traces go through. It accumulates in Python ints and normalises once, at
the end: over Q the numerators over a running common denominator, then one
``Fraction``; over F_p the integer sum, then one reduction mod p; over
Q(zeta_m) the integer product polynomials over a running common
denominator, then one reduction by the integer table of zeta^j (Phi_m is
monic) and one gcd. ``mul`` over Q(zeta_m) is the dot product of length
one.

Phi_m comes from integer long division, Phi_m = (x^m - 1) / prod(Phi_d :
d | m, d < m), and a single table of zeta^j for j < m, with integer
entries, serves reduction (of products, ``from_coeffs`` and ``conj``) and
powers, since zeta^m = 1. Primality of p is decided by deterministic
Miller-Rabin. No floating point anywhere and no dependency outside the
standard library; rank decisions downstream rely on exactness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class FieldError(ValueError):
    """Raised on invalid field parameters or cross-field operations."""


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n it cannot decide exactly."""
    if n >= _MR_LIMIT:
        raise FieldError(f"{n} exceeds the exact primality bound {_MR_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Abstract exact field; concrete fields implement the element ops."""

    kind: str = ""

    # -- element constructors ------------------------------------------
    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    # -- arithmetic ----------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def dot(self, u, v):
        """sum of u[k] * v[k] over zip(u, v); the zero for empty input."""
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def conj(self, a):
        """Complex conjugation; the identity on Q and F_p."""
        return a

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    # -- serialization -------------------------------------------------
    def spec(self) -> dict:
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    def parse(self, s):
        raise NotImplementedError

    def random(self, rng, span: int = 5):
        """Deterministic random element, for property tests."""
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (isinstance(other, Field)
                                 and self.spec() == other.spec())

    def __hash__(self):
        return hash(str(self.spec()))

    def __repr__(self):
        return f"Field({self.spec()})"


class Rationals(Field):
    kind = "rational"

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, q):
        return Fraction(q)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def dot(self, u, v):
        # numerators over the running lcm of the terms' denominators
        num, den = 0, 1
        for a, b in zip(u, v):
            n = a.numerator * b.numerator
            if n:
                d = a.denominator * b.denominator
                if d == den:
                    num += n
                else:
                    g = gcd(den, d)
                    num, den = num * (d // g) + n * (den // g), den // g * d
        return Fraction(num, den)

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / a

    def rational_part(self, a) -> Fraction:
        return a

    def spec(self):
        return {"kind": "rational"}

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        return Fraction(s)

    def random(self, rng, span=5):
        return Fraction(rng.randint(-span, span))


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, q):
        return self.div(self.from_int(q.numerator), self.from_int(q.denominator))

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def dot(self, u, v):
        return sum(map(int.__mul__, u, v)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a):
        return a == 0

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def spec(self):
        return {"kind": "prime", "p": self.p}

    def to_str(self, a):
        return f"{a % self.p} mod {self.p}"

    def parse(self, s):
        return int(str(s).split("mod")[0].strip()) % self.p

    def random(self, rng, span=5):
        return rng.randrange(self.p)


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


def cyclotomic_coeffs(m: int):
    """Integer coefficients of the m-th cyclotomic polynomial, low degree
    first: Phi_d = (x^d - 1) / prod(Phi_e : e | d, e < d) for each d | m in
    increasing order, by exact long division by monic divisors in Z[x]."""
    phi = {}
    for d in (d for d in range(1, m + 1) if m % d == 0):
        num = [-1] + [0] * (d - 1) + [1]
        for e, den in phi.items():
            if d % e == 0:
                quo = [0] * (len(num) - len(den) + 1)
                for k in reversed(range(len(quo))):
                    c = quo[k] = num[k + len(den) - 1]
                    for i, b in enumerate(den):
                        num[k + i] -= c * b
                num = quo
        phi[d] = num
    return phi[m]


def _cleared(a):
    """(integer coefficients, denominator): a sequence of Fractions as integers
    over the lcm of its denominators."""
    den = lcm(*[x.denominator for x in a])
    if den == 1:
        return [x.numerator for x in a], 1
    return [x.numerator * (den // x.denominator) for x in a], den


def _lowest(nums, den):
    """The element (*nums, den) of Q(zeta_m) in lowest terms: divided by
    gcd(den, *nums). ``nums`` is a list of d ints and den > 0."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    nums.append(den)
    return tuple(nums)


def _combine(op, a, b):
    """a + b or a - b (op is int add or sub) of two Q(zeta_m) elements, with
    the numerators over the lcm of the two denominators."""
    da, db = a[-1], b[-1]
    if da == db:
        s = list(map(op, a, b))
    else:
        g = gcd(da, db)
        ra, rb = db // g, da // g
        s = [op(x * ra, y * rb) for x, y in zip(a, b)]
        da *= ra
    s.pop()
    return _lowest(s, da)


class CyclotomicField(Field):
    kind = "cyclotomic"

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
        self._zeta_pows = [row + (1,) for row in table]
        self._zeros = (0,) * (d - 1)
        self._int_tail = self._zeros + (1,)

    def from_int(self, n):
        return (n,) + self._int_tail

    def from_fraction(self, q):
        q = Fraction(q)
        return (q.numerator,) + self._zeros + (q.denominator,)

    def from_coeffs(self, coeffs):
        """Element from coefficients of 1, z, z^2, ... (any length), reduced."""
        return self._reduce(*_cleared([Fraction(c) for c in coeffs]))

    def coeffs(self, a) -> tuple:
        """The coefficients of 1, z, ..., z^(d-1), as d Fractions."""
        den = a[-1]
        return tuple(Fraction(n, den) for n in a[:-1])

    def _reduce(self, coeffs, den):
        """The element (sum of coeffs[k] z^k) / den for integer coeffs of
        any length: the powers from z^d on are reduced by the integer table
        of zeta^j, then the whole is put in lowest terms once."""
        d, m, table = self.degree, self.m, self._zeta_ints
        out = coeffs[:d] + [0] * (d - len(coeffs))
        for k in range(d, len(coeffs)):
            c = coeffs[k]
            if c:
                out = [o + c * z for o, z in zip(out, table[k % m])]
        return _lowest(out, den)

    def zeta(self):
        """The distinguished primitive m-th root of unity."""
        return self.zeta_pow(1)

    def zeta_pow(self, j: int):
        return self._zeta_pows[j % self.m]

    def add(self, a, b):
        return _combine(int.__add__, a, b)

    def sub(self, a, b):
        return _combine(int.__sub__, a, b)

    def mul(self, a, b):
        return self.dot((a,), (b,))

    def dot(self, u, v):
        # the integer coefficients of the unreduced sum of products, over
        # the running lcm of the terms' denominators
        d = self.degree
        acc = [0] * (2 * d - 1)
        den = 1
        for a, b in zip(u, v):
            t = a[-1] * b[-1]
            if t == den:
                r = 1
            else:
                g = gcd(den, t)
                s, r = t // g, den // g
                if s != 1:
                    acc = [c * s for c in acc]
                    den *= s
            cb = b[:d]
            for i in range(d):
                x = a[i]
                if x:
                    x *= r
                    for j, y in enumerate(cb, i):
                        acc[j] += x * y
        return self._reduce(acc, den)

    def neg(self, a):
        out = [-x for x in a]
        out[-1] = a[-1]
        return tuple(out)

    def is_zero(self, a):
        return not any(a[:-1])

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        # extended Euclid for gcd(a, Phi_m) in Q[x]; Phi_m irreducible so gcd is 1
        r0, r1 = [Fraction(c) for c in self._phi], list(self.coeffs(a))
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
        coeffs = [0] * self.m
        for k in range(self.degree):
            coeffs[-k % self.m] = a[k]
        return self._reduce(coeffs, a[-1])

    def rational_part(self, a) -> Fraction:
        """Constant coefficient; raises if the element is not rational."""
        if any(a[1:-1]):
            raise FieldError(f"element {self.coeffs(a)} is not rational")
        return Fraction(a[0], a[-1])

    def spec(self):
        return {"kind": "cyclotomic", "m": self.m}

    def to_str(self, a):
        return "[" + ",".join(str(x) for x in self.coeffs(a)) + "]"

    def parse(self, s):
        if isinstance(s, (list, tuple)):
            return self.from_coeffs([Fraction(str(x)) for x in s])
        body = str(s).strip().strip("[]")
        coeffs = [Fraction(t) for t in body.split(",")] if body else []
        return self.from_coeffs(coeffs)

    def random(self, rng, span=5):
        return tuple([rng.randint(-span, span) for _ in range(self.degree)]
                     + [1])


QQ = Rationals()


def field_from_spec(spec: dict) -> Field:
    kind = spec.get("kind")
    if kind == "rational":
        return QQ
    if kind == "prime":
        return PrimeField(int(spec["p"]))
    if kind == "cyclotomic":
        return CyclotomicField(int(spec["m"]))
    raise FieldError(f"unknown field spec {spec!r}")
