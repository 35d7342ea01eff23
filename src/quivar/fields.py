"""Exact scalar arithmetic over Q, prime fields F_p, and cyclotomic fields Q(zeta_m).

Every field exposes the same small interface (zero/one/add/sub/mul/dot/
matmul/row_sub/row_scale/inv/is_zero/...), with elements stored as plain
immutable Python values:

* rationals        -> ``int`` when integral, else ``fractions.Fraction`` in
                      lowest terms with denominator > 1. The type follows
                      the value, so ``==``, ``hash`` and ``str`` are those
                      of the number; every constructor and op returns this
                      form. ``repr`` does differ (``3`` against
                      ``Fraction(3, 1)``), so ``show`` gives the Fraction
* prime field      -> ``int`` in ``[0, p)``
* cyclotomic field -> flat tuple of ``euler_phi(m) + 1`` ints
                      ``(n_0, ..., n_{d-1}, den)``, the element
                      ``(n_0 + n_1 z + ... + n_{d-1} z^(d-1)) / den`` reduced
                      modulo the m-th cyclotomic polynomial, with den > 0 and
                      gcd(n_0, ..., n_{d-1}, den) = 1. The form is canonical,
                      so elements compare and hash as tuples; ``coeffs``
                      (which is ``show``) gives the d coefficients as
                      Fractions, which is what ``to_str``, ``rational_part``
                      and their messages print.

Each field decides its own layout in two methods: ``element(x)`` returns x
in the canonical form above or raises FieldError (``linalg.Mat`` checks
every entry through it), and ``show(a)`` gives the value that messages and
sort keys print (``joint_spectrum`` of :mod:`quivar.adhm` sorts by it).

Cyclotomic arithmetic works in ints and puts each result in lowest terms
once, with one gcd (``_lowest``): ``add``/``sub`` over the lcm of the two
denominators, ``conj`` and ``from_coeffs`` after one reduction by the table
of zeta^j (``conj`` returns a rational element as it is); ``neg`` keeps the
denominator and needs none. ``inv`` is the
product of the other Galois conjugates zeta -> zeta^k over the rational
norm, all in ints, built over a tower of subgroups of (Z/m)^* by doubling
(``_galois_tower``, ``_orbit_product``): about 2 log2 phi(m) products
instead of phi(m) - 1. Fractions appear only at the edges: reading input
(``from_fraction``, ``from_coeffs``, ``parse``) and the ``coeffs`` accessor.
``rational_ints`` gives a rational element as its ints (num, den), for the
McKay degrees.

The kernels compute in Python ints and normalise each result once. Over Q
they first try the C-level integer path, ``sum(map(int.__mul__, u, v))``
and ``int.__sub__``/``int.__mul__`` over the rows, which raises TypeError
at the first Fraction; only then do they read each operand once, as its
``as_integer_ratio`` pair, and build one canonical ratio per result.
``dot(u, v)`` is the exact inner product sum u_k v_k, and over Q(zeta_m)
the one product kernel: over Q one integer sum, or the numerators over a
running common denominator; over F_p the integer sum, then one reduction
mod p; over Q(zeta_m) the integer product polynomials over a running
common denominator, then one reduction by the integer table of zeta^j
(Phi_m is monic) and one gcd. ``mul`` over Q(zeta_m) is the dot product
of length one. ``matmul(rows, cols)`` is the product kernel of
``linalg.Mat @``: in the base class, which Q(zeta_m) uses, ``dot`` per
entry; over F_p one integer sum through ``operator.mul`` and one
reduction mod p per entry; over Q one type scan of both operands, then on
all ints one integer sum through ``operator.mul`` per entry, at half the
cost of the ``int.__mul__`` descriptor, and on any Fraction ``dot`` per
entry. ``row_sub(u, c, v)`` = [u_k - c v_k] and ``row_scale(c, u)`` =
[c u_k] are the row updates of elimination and of the pullback
convolution in :mod:`quivar.convolution`: over Q one int per entry of
integer rows, else one ratio per changed entry; ``(a - c b) % p`` over
F_p; and over Q(zeta_m) u_k - c v_k is the ``dot`` of (1, -c) and (u_k,
v_k), c u_k is ``mul``, and a zero v_k or u_k leaves its entry as it is,
so that each changed entry is reduced once. ``clear_row``,
``primitive_row`` and ``unit_row`` give the form in which
``linalg.Echelon`` stores a basis row: 1 at its pivot over F_p and
Q(zeta_m), and over Q a primitive integer vector, so that elimination
over Q stays on the integer paths.
Class functions, the rows of a McKay character table, are paired as
residues modulo N = Phi_m(2^B) (``class_residues``): zeta -> 2^B is a
ring map Z[zeta_m] -> Z/N, each distinct value is packed once, a
conjugate is the reversed coordinates times 2^(B(m - d + 1)), and each
pairing is one integer sum of products over the classes, reduced mod N
once (``ClassResidues.pairings``), with no canonical element built per
entry. B is chosen per call from a bound on the pairing's coordinates,
proved in ``class_residues`` to make the centred residue decide it.
``vanishes_at_zeta_pow`` tests an integer polynomial at a power of zeta,
for the root search of :mod:`quivar.adhm`.

Phi_m, the table of zeta^j for j < m and the clearing of ``from_coeffs``
come from :mod:`quivar.poly`. ``_fold`` is the one reduction by that
table, for products, conjugates and evaluations: each power z^k beyond
z^(d-1) adds its coefficient times the nonzero entries of zeta^(k mod m),
since zeta^m = 1. A field spec names m up to
``CYCLOTOMIC_INDEX_CAP``. Primality of p is decided by deterministic
Miller-Rabin. No floating point anywhere and no dependency outside the
standard library; rank decisions downstream rely on exactness.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import gcd

from .poly import cleared, divmod_monic


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

    def element(self, x):
        """x in canonical form, or FieldError when x is not an element."""
        raise NotImplementedError

    def show(self, a):
        """The value that messages and sort keys print for the element a."""
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

    def matmul(self, rows, cols):
        """The matrix product as a tuple of row tuples, entry (i, j) the
        ``dot`` of rows[i] and cols[j]: the kernel of ``linalg.Mat @``."""
        dot = self.dot
        return tuple(tuple([dot(r, c) for c in cols]) for r in rows)

    def row_sub(self, u, c, v):
        """The list [u[k] - c * v[k]] over zip(u, v)."""
        raise NotImplementedError

    def row_scale(self, c, u):
        """The list [c * u[k]]."""
        raise NotImplementedError

    # -- echelon rows --------------------------------------------------
    # ``linalg.Echelon`` stores each basis row in the form its field picks:
    # here the row with entry 1 at its pivot, over Q a primitive integer
    # vector. A stored row is a nonzero multiple of the unit row, so it
    # spans the same line, and a row with entry 1 at its pivot is stored
    # as it is on every field.
    def clear_row(self, vec):
        """(u, s): a new vector as a list u = s vec of entries in the stored
        form, s a positive int; here the entries themselves and s = 1."""
        return list(vec), 1

    def primitive_row(self, u, pivot):
        """The stored form of the reduced row u, nonzero at ``pivot``: here
        u scaled to 1 there."""
        return self.row_scale(self.inv(u[pivot]), u)

    def unit_row(self, row, pivot):
        """The stored row scaled to 1 at its pivot: here the row itself."""
        return row

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


def _canon(q):
    """The canonical form of the rational q, an int or a Fraction: the int
    when q is integral, else q."""
    if type(q) is int:
        return q
    return q.numerator if q.denominator == 1 else q


def _ratio(num, den):
    """The element num / den of Q in canonical form, for den > 0."""
    return num // den if num % den == 0 else Fraction(num, den)


class Rationals(Field):
    kind = "rational"

    def from_int(self, n):
        return n if type(n) is int else _canon(Fraction(n))

    def from_fraction(self, q):
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _canon(q)

    def element(self, x):
        if type(x) is int or isinstance(x, Fraction):
            return _canon(x)
        raise FieldError(f"entry {x!r} is not an element of Q: expected an "
                         f"int or a Fraction")

    def show(self, a):
        # a Fraction, integral or not, so that 3 and Fraction(3) print alike
        return Fraction(a)

    def add(self, a, b):
        return _canon(a + b)

    def sub(self, a, b):
        return _canon(a - b)

    def mul(self, a, b):
        return _canon(a * b)

    def dot(self, u, v):
        # on ints one C-level sum: int.__mul__ raises TypeError on a
        # Fraction first operand and returns NotImplemented for a Fraction
        # second one, which sum refuses with TypeError
        try:
            return sum(map(int.__mul__, u, v))
        except TypeError:
            pass
        # numerators over the running lcm of the terms' denominators; each
        # operand is read once, as its (numerator, denominator) pair
        num, den = 0, 1
        for a, b in zip(u, v):
            an, ad = a.as_integer_ratio()
            if an:
                bn, bd = b.as_integer_ratio()
                if bn:
                    d = ad * bd
                    if d == den:
                        num += an * bn
                    else:
                        g = gcd(den, d)
                        num = num * (d // g) + an * bn * (den // g)
                        den = den // g * d
        return _ratio(num, den)

    def matmul(self, rows, cols):
        # one type scan per operand: on all-int operands each entry is one
        # C-level sum through operator.mul, at half the cost of the
        # int.__mul__ descriptor that dot needs to refuse a Fraction; on any
        # Fraction, dot per entry
        ints, times = {int}.issuperset, operator.mul
        if (ints(map(type, chain.from_iterable(rows)))
                and ints(map(type, chain.from_iterable(cols)))):
            return tuple(tuple([sum(map(times, r, c)) for c in cols])
                         for r in rows)
        return super().matmul(rows, cols)

    def row_sub(self, u, c, v):
        # on ints one C-level pass, which the int.__mul__ and int.__sub__
        # descriptors break off with TypeError at the first Fraction
        if type(c) is int:
            try:
                return list(map(int.__sub__, u, map(int.__mul__, v, repeat(c))))
            except TypeError:
                pass
        # a - c b over the product of the three denominators: one ratio per
        # changed entry, none where b or c is 0
        cn, cd = c.as_integer_ratio()
        if not cn:
            return [_canon(a) for a in u]
        out = []
        for a, b in zip(u, v):
            bn, bd = b.as_integer_ratio()
            if bn:
                an, ad = a.as_integer_ratio()
                out.append(_ratio(an * cd * bd - cn * bn * ad, ad * cd * bd))
            else:
                out.append(_canon(a))
        return out

    def row_scale(self, c, u):
        if type(c) is int:
            try:
                return list(map(int.__mul__, u, repeat(c)))
            except TypeError:
                pass
        cn, cd = c.as_integer_ratio()
        out = []
        for a in u:
            an, ad = a.as_integer_ratio()
            out.append(_ratio(cn * an, cd * ad))
        return out

    # an echelon row over Q is a primitive integer vector: its entries
    # have gcd 1 and it is positive at its pivot, so elimination runs on
    # the integer paths of row_sub and row_scale
    def clear_row(self, vec):
        if {int}.issuperset(map(type, vec)):
            return list(vec), 1
        return cleared(vec)

    def primitive_row(self, u, pivot):
        g = gcd(*u)
        if u[pivot] < 0:
            g = -g
        return u if g == 1 else list(map(int.__floordiv__, u, repeat(g)))

    def unit_row(self, row, pivot):
        lead = row[pivot]
        return row if lead == 1 else [_ratio(a, lead) for a in row]

    def neg(self, a):
        return _canon(-a)

    def is_zero(self, a):
        return a == 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        n, d = a.as_integer_ratio()
        return _ratio(-d, -n) if n < 0 else _ratio(d, n)

    def div(self, a, b):
        # an int over an int is one ratio, with no Fraction arithmetic
        if type(a) is int and type(b) is int and b:
            return _ratio(-a, -b) if b < 0 else _ratio(a, b)
        return super().div(a, b)

    def rational_part(self, a):
        return _canon(a)

    def spec(self):
        return {"kind": "rational"}

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        return _canon(Fraction(s))

    def random(self, rng, span=5):
        return rng.randint(-span, span)


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

    def element(self, x):
        if type(x) is not int or not 0 <= x < self.p:
            raise FieldError(f"entry {x!r} is not an element of F_{self.p}: "
                             f"expected an int in 0..{self.p - 1}")
        return x

    def show(self, a):
        return a

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def dot(self, u, v):
        return sum(map(int.__mul__, u, v)) % self.p

    def matmul(self, rows, cols):
        # the entries of a Mat over F_p are ints in [0, p): one C-level sum
        # and one reduction per entry
        p, times = self.p, operator.mul
        return tuple(tuple([sum(map(times, r, c)) % p for c in cols])
                     for r in rows)

    def row_sub(self, u, c, v):
        p = self.p
        return [(a - c * b) % p for a, b in zip(u, v)]

    def row_scale(self, c, u):
        p = self.p
        return [c * a % p for a in u]

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


def cyclotomic_coeffs(m: int):
    """Integer coefficients of the m-th cyclotomic polynomial, low degree
    first: Phi_d = (x^d - 1) / prod(Phi_e : e | d, e < d) for each d | m in
    increasing order, by exact long division by monic divisors in Z[x]."""
    phi = {}
    for d in (d for d in range(1, m + 1) if m % d == 0):
        num = [-1] + [0] * (d - 1) + [1]
        for e, den in phi.items():
            if d % e == 0:
                num = divmod_monic(num, den)[0]
        phi[d] = num
    return phi[m]


def _zeta_table(m: int):
    """(pows, sparse, height): zeta^j for j < m as that element of
    Q(zeta_m) and as the nonzero (coordinate, int) pairs of its d integer
    coordinates, and the largest |coordinate| of any zeta^j; zeta^m = 1
    makes them cover every power, indexed by j % m. Tuples, so that fields
    may share them."""
    phi = cyclotomic_coeffs(m)
    ints = [(1,) + (0,) * (len(phi) - 2)]
    for _ in range(m - 1):  # z times the power before, mod Phi_m
        ints.append(tuple(divmod_monic([0, *ints[-1]], phi)[1]))
    sparse = tuple(tuple((i, x) for i, x in enumerate(row) if x)
                   for row in ints)
    height = max(abs(x) for row in sparse for _, x in row)
    return tuple((*row, 1) for row in ints), sparse, height


# The fields of one m share the last 32 tables of m up to 168, the largest
# m of a McKay table under mckay.MCKAY_WORK_CAP (bd:42); a larger field
# builds its own table, freed with the field.
_SHARED_ZETA_M = 168
_shared_zeta_table = lru_cache(maxsize=32)(_zeta_table)


@lru_cache(maxsize=32)
def _galois_tower(m: int) -> tuple:
    """Pairs (g, e) that build (Z/m)^* as a tower: g is the least unit
    outside the subgroup H of those before it, and e > 1 the least power
    with g^e in H, so that H <g> is the union of the cosets g^j H, j < e."""
    sub, tower = {1 % m}, []
    for g in range(2, m):
        if gcd(g, m) == 1 and g not in sub:
            e = 2
            while pow(g, e, m) not in sub:
                e += 1
            sub = {h * pow(g, j, m) % m for h in sub for j in range(e)}
            tower.append((g, e))
    return tuple(tower)


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


def _common_den(vec):
    """The least common denominator of the Q(zeta_m) elements vec."""
    den = 1
    for a in vec:
        t = a[-1]
        if den % t:
            den = den // gcd(den, t) * t
    return den


class ClassResidues:
    """Class functions over Q(zeta_m) as residues modulo N = Phi_m(2^B),
    as ``CyclotomicField.class_residues`` gives them: for the i-th row u
    over its common denominator ``dens[i]``, ``left[i]`` holds the
    residues of w_c conj(u_c), ``right[i]`` those of u_c and
    ``twisted[i]`` those of u_c chi_c, over dens[i] ``twist_den``.
    ``pairings`` gives the residues of pairings, and ``rational`` reads
    one."""

    __slots__ = ("modulus", "bound", "dens", "twist_den", "left", "right",
                 "twisted")

    def pairings(self, i, rows):
        """The residues of the pairings of row i with rows[j], j >= i (rows
        is ``right`` or ``twisted``): each one integer sum of products over
        the classes, reduced mod N once."""
        w, n, times = self.left[i], self.modulus, operator.mul
        return [sum(map(times, w, v)) % n for v in rows[i:]]

    def rational(self, r):
        """The integer pairing whose residue is r, or None when the pairing
        is not rational: the centred residue, when it is at most ``bound``
        in size."""
        if r > self.modulus >> 1:
            r -= self.modulus
        return r if -self.bound <= r <= self.bound else None


class CyclotomicField(Field):
    kind = "cyclotomic"

    def __init__(self, m: int):
        if m < 1:
            raise FieldError("cyclotomic index must be >= 1")
        self.m = m
        table = _shared_zeta_table if m <= _SHARED_ZETA_M else _zeta_table
        self._zeta_pows, self._zeta_sparse, self._zeta_height = table(m)
        d = self.degree = len(self._zeta_pows[0]) - 1
        self._zeros = (0,) * (d - 1)
        self._int_tail = self._zeros + (1,)
        self._zero = (0,) + self._int_tail

    def from_int(self, n):
        return (n,) + self._int_tail

    def from_fraction(self, q):
        q = Fraction(q)
        return (q.numerator,) + self._zeros + (q.denominator,)

    def from_coeffs(self, coeffs):
        """Element from coefficients of 1, z, z^2, ... (any length), reduced."""
        return self._reduce(*cleared([Fraction(c) for c in coeffs]))

    def coeffs(self, a) -> tuple:
        """The coefficients of 1, z, ..., z^(d-1), as d Fractions."""
        den = a[-1]
        return tuple(Fraction(n, den) for n in a[:-1])

    show = coeffs

    def element(self, x):
        if (type(x) is not tuple or len(x) != self.degree + 1
                or not {int}.issuperset(map(type, x)) or x[-1] <= 0
                or gcd(*x) != 1):
            raise FieldError(f"entry {x!r} is not an element of Q(zeta_"
                             f"{self.m}): expected a tuple of {self.degree + 1}"
                             f" ints in lowest terms over a denominator > 0")
        return x

    def _reduce(self, coeffs, den):
        """The element (sum of coeffs[k] z^k) / den for integer coeffs of
        any length, in lowest terms."""
        return _lowest(self._fold(coeffs), den)

    def _fold(self, coeffs):
        """The d integer coordinates of sum coeffs[k] z^k, for integer
        coeffs of any length: each power z^k beyond z^(d-1) adds its
        coefficient times the nonzero entries of zeta^(k mod m), since
        zeta^m = 1."""
        d, m, sparse = self.degree, self.m, self._zeta_sparse
        out = coeffs[:d]
        if len(out) < d:
            out += [0] * (d - len(out))
        for k, c in enumerate(coeffs[d:], d):
            if c:
                for i, z in sparse[k % m]:
                    out[i] += c * z
        return out

    def _at_zeta_pow(self, ints, k):
        """The d integer coordinates of sum ints[e] zeta^(k e): the integer
        polynomial ``ints`` (low degree first) at zeta^k. At k coprime to m
        this is the Galois conjugate zeta -> zeta^k of sum ints[e] z^e."""
        m = self.m
        buckets = [0] * m
        for e, x in enumerate(ints):
            if x:
                buckets[k * e % m] += x
        return self._fold(buckets)

    def vanishes_at_zeta_pow(self, ints, k) -> bool:
        """Whether the integer polynomial ``ints`` (low degree first) has
        the root zeta^k."""
        return not any(self._at_zeta_pow(ints, k))

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

    def class_residues(self, weights, rows, twist=()):
        """The class functions ``rows``, and their twists by the class
        function ``twist`` (chi), as residues modulo N = Phi_m(2^B), for
        the class pairings

            S = sum_c w_c conj(u_c) v_c,   S' = sum_c w_c conj(u_c) v_c chi_c

        of rows u, v over the int weights w, one per class. A class
        function of another length is refused, never truncated. Returns a
        ``ClassResidues``; each pairing is then one integer sum of products.

        The map. With X = 2^B, x -> X is a ring map Z[x] -> Z/N that kills
        Phi_m, so a ring map Z[zeta] -> Z/N that sends zeta to X, an m-th
        root of unity mod N since Phi_m divides x^m - 1. An element with
        integer coordinates a_0..a_(d-1) goes to sum a_e X^e mod N, and its
        conjugate sum a_e zeta^-e to X^(m-d+1) sum a_e X^(d-1-e): the
        reversed coordinates times X^(m-d+1) = X^-(d-1). Each function is
        put over its common denominator (``dens``, ``twist_den``), so S and
        S' are integral over D_u D_v and D_u D_v D_chi; each distinct value
        is packed once.

        The bound. Let L bound the l1 norm of the integer coordinates of
        every row value over its row's denominator, E that of chi's (E = 1
        without chi), W = sum |w_c|, D the largest row denominator and Z
        the largest |coordinate| of any zeta^j. conj(u_c) v_c chi_c is
        sum x_a y_b e_g zeta^(-a+b+g), so every reduced coordinate s_e of S
        or S' has |s_e| <= W L^2 max(E, 1) Z. The ``bound`` M = W max(L^2
        max(E, 1) Z, D^2) also covers an integer target |G| D_u D_v with
        |G| <= W. B is the least with X >= 2M + Z + 1.

        Why a residue decides the pairing exactly. S is congruent mod N to
        S_X = sum s_e X^e, and |S_X| <= M (X^d - 1)/(X - 1) < M X^d/(X - 1).
        The coefficients of Phi_m below x^d are those of -zeta^d, of size
        <= Z, so N = Phi_m(X) >= X^d - Z (X^d - 1)/(X - 1) > X^d (1 - Z/(X -
        1)), and X - 1 >= 2M + Z gives M X^d/(X - 1) <= X^d (1 - Z/(X -
        1))/2 < N/2. So the centred residue r of S is S_X itself. If s_e = 0
        for e >= 1, |r| = |s_0| <= M. Otherwise, for the top t >= 1 with
        s_t != 0, |r| >= X^t - M (X^t - 1)/(X - 1) > X^t (1 - M/(X - 1)) >
        X^t/2 >= X/2 > M. So S is rational exactly when |r| <= M, and is
        then r (``ClassResidues.rational``). S equals an integer T with |T|
        <= M exactly when their residues agree, since |S_X - T| < N."""
        k = len(weights)
        if any(len(u) != k for u in chain(rows, [twist] if twist else ())):
            raise FieldError(f"a class function does not have {k} values")
        d, m, zed = self.degree, self.m, self._zeta_height
        values = set(chain.from_iterable(rows))
        every = values.union(twist)
        dens, tden = [_common_den(u) for u in rows], _common_den(twist)
        norm = {a: sum(map(abs, a[:-1])) for a in every}
        top = max(dens, default=1)
        big = max((norm[a] * (top // a[-1]) for a in values), default=0)
        chi = max([1] + [norm[a] * (tden // a[-1]) for a in twist])
        bound = sum(map(abs, weights)) * max(big * big * chi * zed, top * top)
        b = (2 * bound + zed).bit_length()

        def packed(ints):  # sum ints[e] X^(len - 1 - e), in ints
            acc = 0
            for x in ints:
                acc = (acc << b) + x
            return acc

        n = (1 << b * d) - packed(self._zeta_pows[d % m][-2::-1])
        shift = (1 << b * (m - d + 1)) % n
        pack = {a: packed(a[-2::-1]) % n for a in every}
        cpack = {a: packed(a[:-1]) * shift % n for a in values}
        out = ClassResidues()
        out.modulus, out.bound, out.dens, out.twist_den = n, bound, dens, tden
        out.left, out.right = [], []
        for u, den in zip(rows, dens):
            if den == 1:
                out.right.append(list(map(pack.__getitem__, u)))
                out.left.append(list(map(int.__mul__, weights,
                                         map(cpack.__getitem__, u))))
            else:
                out.right.append([pack[a] * (den // a[-1]) % n for a in u])
                out.left.append([w * cpack[a] * (den // a[-1])
                                 for w, a in zip(weights, u)])
        chis = [pack[a] * (tden // a[-1]) % n for a in twist]
        out.twisted = [[x * y % n for x, y in zip(v, chis)]
                       for v in out.right]
        return out

    def row_sub(self, u, c, v):
        # a - c b is the dot of (1, -c) and (a, b): one reduction per
        # changed entry, none where b or c is 0
        zero = self._zero
        if c == zero:
            return list(u)
        dot, ends = self.dot, (self.one(), self.neg(c))
        return [a if b == zero else dot(ends, (a, b)) for a, b in zip(u, v)]

    def row_scale(self, c, u):
        zero, mul = self._zero, self.mul
        return [a if a == zero else mul(c, a) for a in u]

    def neg(self, a):
        out = [-x for x in a]
        out[-1] = a[-1]
        return tuple(out)

    def is_zero(self, a):
        return not any(a[:-1])

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        # a = A / den with A integral: A times the product P of its other
        # Galois conjugates zeta -> zeta^k is the norm N(A), a nonzero
        # integer, so 1 / a = den P / N(A). Over the tower H_0 = 1 < H_1 <
        # ... of (Z/m)^*, H_t = H_(t-1) <g_t> of index e_t, the product
        # N_H of the conjugates over H and P_H = N_H / A extend by R, the
        # product of sigma_(g^j)(N_H) for 0 < j < e: N_H R and P_H R
        full, other = a[:-1] + (1,), self.one()
        for g, e in _galois_tower(self.m):
            r = self._conjugate(self._orbit_product(full, g, e - 1), g)
            full, other = self.mul(full, r), self.mul(other, r)
        norm = full[0]
        scale = a[-1] if norm > 0 else -a[-1]
        return _lowest([x * scale for x in other[:-1]], abs(norm))

    def _conjugate(self, a, k):
        """sigma_k(a) = a at zeta^k, for an integral element a."""
        return (*self._at_zeta_pow(a[:-1], k), 1)

    def _orbit_product(self, a, g, s):
        """The product of sigma_(g^i)(a) over i < s, for integral a and
        s >= 1, by doubling: F(2t) = F(t) sigma_(g^t)(F(t)) and F(t + 1) =
        a sigma_g(F(t)), about 2 log2(s) products."""
        out, t = a, 1
        for bit in bin(s)[3:]:
            out = self.mul(out, self._conjugate(out, pow(g, t, self.m)))
            t *= 2
            if bit == "1":
                out = self.mul(a, self._conjugate(out, g))
                t += 1
        return out

    def conj(self, a):
        # zeta -> zeta^-1, which fixes a rational element
        if not any(a[1:-1]):
            return a
        return _lowest(self._at_zeta_pow(a[:-1], -1), a[-1])

    def rational_ints(self, a) -> tuple:
        """The ints (num, den) of a rational element num / den, den > 0 and
        in lowest terms; raises if the element is not rational."""
        if any(a[1:-1]):
            raise FieldError(f"element {self.coeffs(a)} is not rational")
        return a[0], a[-1]

    def rational_part(self, a) -> Fraction:
        """Constant coefficient; raises if the element is not rational."""
        return Fraction(*self.rational_ints(a))

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


def exact_int(x, what: str) -> int:
    """x as an int: an integral float such as 3.0 is read as 3, but 3.7,
    "3" or True raises FieldError naming ``what``, never truncated."""
    try:  # int(True) == True, so a bool is refused by its type
        if not isinstance(x, bool) and int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise FieldError(f"{what} {x!r} is not an integer")


# Cap on the index m of a cyclotomic field spec. Building Q(zeta_m) takes
# O(m phi(m)) time and memory, for its table of zeta^j: on a shared 2-core
# x86-64 VM, 0.03 s at m = 500 and 0.15 s and 14 MB at m = 1009, against
# 3.4 s and 259 MB at m = 4001. It admits every m of a McKay table (up to
# 168, mckay.MCKAY_WORK_CAP).
CYCLOTOMIC_INDEX_CAP = 1000


def field_from_spec(spec: dict) -> Field:
    """The field a JSON spec names; a spec that is not a dict, and a
    cyclotomic m above CYCLOTOMIC_INDEX_CAP, are refused before any field
    is built."""
    if not isinstance(spec, dict):
        raise FieldError(f"field spec {spec!r} is not an object")
    kind = spec.get("kind")
    if kind == "rational":
        return QQ
    if kind == "prime":
        return PrimeField(exact_int(spec["p"], "field p"))
    if kind == "cyclotomic":
        m = exact_int(spec["m"], "field m")
        if m > CYCLOTOMIC_INDEX_CAP:
            raise FieldError(f"field m = {m} exceeds the cap of "
                             f"{CYCLOTOMIC_INDEX_CAP}")
        return CyclotomicField(m)
    raise FieldError(f"unknown field spec {spec!r}")
