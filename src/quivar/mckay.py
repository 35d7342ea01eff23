"""McKay quivers of finite subgroups of SL2 from exact character tables.

Tables for the cyclic and binary dihedral families are generated from the
standard formulas; the three exceptional groups (orders 24, 48, 120) ship
as embedded exact cyclotomic data. Every table self-verifies at
construction: class sizes, orthogonality, degree sums, the reality and
degree of the distinguished 2-dimensional character, and the McKay matrix,
which the check builds and keeps on the table as ``mckay_matrix``, beside
the integer degrees chi(1) as ``int_degrees``. The shape comes first (k
rows of k values, chi_E of k values, a trivial index below k, int class
sizes), so nothing is truncated. Every pairing
is then an integer residue modulo N = Phi_m(2^B)
(``CyclotomicField.class_residues``, which sends zeta to 2^B and packs
each distinct value once, each row over its common denominator D): for
each i <= j, one sum over the classes gives
|G| D_i D_j <chi_i, chi_j> and one |G| D_i D_j D_E <chi_i, chi_j chi_E>.
B is chosen per table so that N exceeds twice |G| max||chi||_1^2
||chi_E||_1 max_j ||zeta^j||_inf and every target |G| D_i D_j, with a
margin for the coefficients of Phi_m; the kernel proves that a Gram
residue then equals that of |G| D_i^2 or 0 exactly when the pairing
does, and that a centred McKay residue is the numerator itself, a
multiplicity when D_i D_j D_E |G| divides it with a quotient >= 0. No
float and no probabilistic step. Both pairings are Hermitian and chi_E
is real, so only the upper half of each matrix is paired. The row of the
trivial character in the McKay matrix is the multiplicities <chi_E,
chi_j>, so it also decides that chi_E is a character. No pairing builds
a Fraction; ``CharacterTable.inner`` gives the same pairing as one.
Tables are built afresh on every call. The tables ``cyclic:n`` and
``bd:n`` are refused before they are built when their pairing work
k^3 phi(m)^2 (k classes over Q(zeta_m)) exceeds ``MCKAY_WORK_CAP``.

The affine ADE type of a McKay graph is read off its shape: a loop (A~0),
a double edge (A~1), a cycle (A~n), or a tree whose branch vertices and
arm lengths name D~n or E~6, E~7, E~8.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from . import MathFailure
from .fields import CyclotomicField, FieldError
from .quiver import Edge, Quiver


class McKayError(MathFailure):
    pass


@dataclass(frozen=True)
class CharacterTable:
    name: str
    field: CyclotomicField
    order: int
    classes: tuple  # (label, size)
    chars: tuple    # rows of cyclotomic scalars, one per irreducible
    trivial_index: int
    chi_e: tuple    # distinguished 2-dimensional character (may be reducible)
    # chi(1) of each irreducible, and a[i][j] = multiplicity of L_i in
    # L_j (x) E, both checked at construction
    int_degrees: tuple = dataclasses.field(init=False, repr=False,
                                           compare=False)
    mckay_matrix: tuple = dataclasses.field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        degrees, matrix = self.validate()
        object.__setattr__(self, "int_degrees", degrees)
        object.__setattr__(self, "mckay_matrix", matrix)

    @property
    def degrees(self):
        """chi(1) of each irreducible, as a list of ints."""
        return list(self.int_degrees)

    def inner(self, u, v) -> Fraction:
        """Class-weighted Hermitian pairing of two class functions (rows of
        values on the classes): (1/|G|) sum of size * conj(u) * v."""
        res = self.field.class_residues([s for _, s in self.classes], (u, v))
        num = res.rational(res.pairings(0, res.right)[1])
        if num is None:
            raise FieldError("the pairing is not rational")
        return Fraction(num, res.dens[0] * res.dens[1] * self.order)

    def validate(self):
        """Check the table and return its degrees chi(1), as a tuple of
        ints, and its McKay matrix a, as a tuple of row tuples of
        nonnegative ints."""
        if sum(s for _, s in self.classes) != self.order:
            raise McKayError("class sizes do not sum to the group order")
        k = len(self.classes)
        if len(self.chars) != k:
            raise McKayError("number of characters != number of classes")
        for i, row in enumerate(self.chars):
            if len(row) != k:
                raise McKayError(f"character {i} has {len(row)} values "
                                 f"for {k} classes")
        if len(self.chi_e) != k:
            raise McKayError(f"distinguished character has "
                             f"{len(self.chi_e)} values for {k} classes")
        t = self.trivial_index
        if type(t) is not int or not 0 <= t < k:
            raise McKayError(f"trivial index {t!r} is not a row index")
        sizes = [s for _, s in self.classes]
        if not {int}.issuperset(map(type, sizes)):
            raise McKayError("a class size is not an int")
        f, order = self.field, self.order
        res = f.class_residues(sizes, self.chars, self.chi_e)
        # size * conj(chi_i) paired with chi_j is |G| D_i D_j delta_ij for
        # orthonormal rows, compared residue to residue, and with chi_j
        # chi_E it is |G| D_i D_j D_E a[i][j]. Both pairings are Hermitian
        # and chi_E is real, so j >= i suffices and meets the first failure
        # of a row-major scan. The McKay half is decided after the others
        n, dens = res.modulus, res.dens
        twisted = []
        for i in range(k):
            gram = res.pairings(i, res.right)
            gram[0] -= order * dens[i] * dens[i] % n
            for j, r in enumerate(gram, i):
                if r:
                    raise McKayError(f"orthogonality fails at ({i},{j})")
            twisted.append(res.pairings(i, res.twisted))
        try:
            degs = [f.rational_ints(row[0]) for row in self.chars]
        except FieldError:  # not rational, so not an integer either
            degs = [(0, 0)]
        if any(den != 1 for _, den in degs):
            raise McKayError("a character degree is not an integer")
        degrees = tuple(num for num, _ in degs)
        if sum(d * d for d in degrees) != self.order:
            raise McKayError("degree squares do not sum to the group order")
        if any(row != f.one() for row in self.chars[t]):
            raise McKayError("trivial character is not identically 1")
        e = self.chi_e
        if e[0] != f.from_int(2):
            raise McKayError("distinguished character must have degree 2")
        for val in e:
            if f.conj(val) != val:
                raise McKayError("distinguished character must be real-valued")
        # a[i][j] = <chi_i, chi_j chi_E> is a nonnegative integer iff the
        # residue r of its numerator is at most the bound and divisible by
        # den = |G| D_i D_j D_E (> 0 once the degrees passed), else None.
        # Row t, <chi_E, chi_j>, is decided first and in full, so a
        # distinguished row that is not a character is named as such
        bound, scale = res.bound, order * res.twist_den
        a = [[None] * k for _ in range(k)]
        for i, row in enumerate(twisted):
            di = dens[i] * scale
            for j, r in enumerate(row, i):
                den = di * dens[j]
                if r <= bound and not r % den:
                    a[i][j] = a[j][i] = r // den
        if None in a[t]:
            raise McKayError("distinguished row is not a character")
        for i in range(k):
            for j in range(i, k):
                if a[i][j] is None:
                    raise McKayError(f"multiplicity a[{i}][{j}] is not a "
                                     "nonnegative integer")
        return degrees, tuple(map(tuple, a))


# Cap on the pairing work k^3 phi(m)^2 of a table with k classes over
# Q(zeta_m): about k^2 pairings, each a sum of k products of residues of
# phi(m) B bits, whose schoolbook cost grows as phi(m)^2. It accepts every
# cyclic:n with n <= 52 and bd:n with n <= 36 (and some larger n, up to
# cyclic:72 and bd:42, whose phi(m) is small). Built in a fresh process
# pinned to one CPU of a shared 2-core x86-64 VM (median of 3), the
# slowest accepted table, cyclic:70, takes 0.13 s, bd:42 0.10 s,
# cyclic:72 0.08 s, cyclic:52 0.05 s and bd:36 0.04 s.
MCKAY_WORK_CAP = 250_000_000


def _euler_phi(m: int) -> int:
    """The degree phi(m) of Q(zeta_m), from the prime factors of m."""
    out, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    return out - out // rest if rest > 1 else out


def _check_work(k: int, m: int):
    """Refuse the table, before it is built, when its pairing work
    k^3 phi(m)^2 exceeds MCKAY_WORK_CAP; k^3 alone is tried first, so a huge
    n costs nothing. The estimate leaves out the B bits per coordinate of
    a residue, which grow with the l1 norms of the values, so it orders
    the tables only roughly: cyclic:61, refused, builds in 0.25 s with the
    cap lifted, about twice the time of cyclic:70, the slowest one
    accepted, since zeta^60 = -(1 + zeta + ... + zeta^59) takes B to 25
    bits (20 at cyclic:70)."""
    if k ** 3 > MCKAY_WORK_CAP or k ** 3 * _euler_phi(m) ** 2 > MCKAY_WORK_CAP:
        raise McKayError(f"the pairing work k^3 phi(m)^2 with "
                         f"k = {k}, m = {m} exceeds the cap of "
                         f"{MCKAY_WORK_CAP}")


def cyclic_table(n: int) -> CharacterTable:
    """Z/n embedded in SL2 as diag(zeta, zeta^-1)."""
    if n < 1:
        raise McKayError("n must be >= 1")
    _check_work(n, n)
    f = CyclotomicField(max(n, 1))
    classes = tuple((f"g^{a}", 1) for a in range(n))
    chars = []
    for k in range(n):
        chars.append(tuple(f.zeta_pow(k * a) for a in range(n)))
    # chi_E = chi_1 + chi_{n-1} (reducible unless the group is nonabelian)
    chi_e = tuple(f.add(f.zeta_pow(a), f.zeta_pow(-a)) for a in range(n))
    return CharacterTable(f"cyclic:{n}", f, n, classes, tuple(chars),
                          trivial_index=0, chi_e=chi_e)


def binary_dihedral_table(n: int) -> CharacterTable:
    """Dicyclic group of order 4n: <a, b | a^{2n}=1, b^2=a^n, bab^-1=a^-1>."""
    if n < 2:
        raise McKayError("n must be >= 2")
    _check_work(n + 3, 4 * n)
    f = CyclotomicField(4 * n)

    def z2n(k):  # zeta_{2n}^k inside Q(zeta_{4n})
        return f.zeta_pow(2 * k)

    classes = [("1", 1), (f"a^{n}", 1)]
    classes += [(f"a^{k}", 2) for k in range(1, n)]
    classes += [("b", n), ("ab", n)]
    classes = tuple(classes)

    chars = []
    # four linear characters: a -> alpha in {1,-1}, b -> beta with
    # beta^2 = alpha^n
    i4 = f.zeta_pow(n)  # a primitive 4th root when needed: zeta_{4n}^n
    for alpha_sign, beta in [(1, f.one()), (1, f.neg(f.one()))] + (
            [( -1, f.one()), (-1, f.neg(f.one()))] if n % 2 == 0 else
            [(-1, i4), (-1, f.neg(i4))]):
        alpha = f.from_int(alpha_sign)
        row = [f.one(), f.from_int(alpha_sign ** n)]
        row += [f.from_int(alpha_sign ** k) for k in range(1, n)]
        row += [beta, f.mul(alpha, beta)]
        chars.append(tuple(row))
    # two-dimensional characters chi_h, h = 1..n-1
    for h in range(1, n):
        row = [f.from_int(2), f.from_int(2 * (-1) ** h)]
        row += [f.add(z2n(h * k), z2n(-h * k)) for k in range(1, n)]
        row += [f.zero(), f.zero()]
        chars.append(tuple(row))
    return CharacterTable(f"bd:{n}", f, 4 * n, classes, tuple(chars),
                          trivial_index=0, chi_e=chars[4])


def _bt_table() -> CharacterTable:
    """Binary tetrahedral group (order 24), exact data over Q(zeta_3)."""
    f = CyclotomicField(3)
    w = f.zeta()        # primitive cube root
    w2 = f.mul(w, w)
    one, two, three = f.from_int(1), f.from_int(2), f.from_int(3)
    neg = f.neg
    zero = f.zero()
    classes = (("1", 1), ("-1", 1), ("4a", 6),
               ("3a", 4), ("3b", 4), ("6a", 4), ("6b", 4))
    chars = (
        (one, one, one, one, one, one, one),
        (one, one, one, w, w2, w, w2),
        (one, one, one, w2, w, w2, w),
        (two, neg(two), zero, neg(one), neg(one), one, one),        # E
        (two, neg(two), zero, neg(w), neg(w2), w, w2),
        (two, neg(two), zero, neg(w2), neg(w), w2, w),
        (three, three, neg(one), zero, zero, zero, zero),
    )
    return CharacterTable("bt", f, 24, classes, chars,
                          trivial_index=0, chi_e=chars[3])


def _bo_table() -> CharacterTable:
    """Binary octahedral group (order 48), exact data over Q(zeta_8)."""
    f = CyclotomicField(8)
    s2 = f.add(f.zeta_pow(1), f.zeta_pow(-1))  # sqrt(2)
    I = lambda n: f.from_int(n)
    neg = f.neg
    classes = (("1", 1), ("-1", 1), ("4a", 6), ("8a", 6), ("8b", 6),
               ("4b", 12), ("6a", 8), ("3a", 8))
    chars = (
        (I(1), I(1), I(1), I(1), I(1), I(1), I(1), I(1)),
        (I(1), I(1), I(1), I(-1), I(-1), I(-1), I(1), I(1)),
        (I(2), I(-2), I(0), s2, neg(s2), I(0), I(1), I(-1)),         # E
        (I(2), I(-2), I(0), neg(s2), s2, I(0), I(1), I(-1)),
        (I(2), I(2), I(2), I(0), I(0), I(0), I(-1), I(-1)),
        (I(3), I(3), I(-1), I(1), I(1), I(-1), I(0), I(0)),
        (I(3), I(3), I(-1), I(-1), I(-1), I(1), I(0), I(0)),
        (I(4), I(-4), I(0), I(0), I(0), I(0), I(-1), I(1)),
    )
    return CharacterTable("bo", f, 48, classes, chars,
                          trivial_index=0, chi_e=chars[2])


def _bi_table() -> CharacterTable:
    """Binary icosahedral group (order 120), exact data over Q(zeta_5)."""
    f = CyclotomicField(5)
    # golden-ratio conjugates: gp = (1+sqrt5)/2, gm = (1-sqrt5)/2
    gp = f.neg(f.add(f.zeta_pow(2), f.zeta_pow(3)))
    gm = f.neg(f.add(f.zeta_pow(1), f.zeta_pow(4)))
    I = lambda n: f.from_int(n)
    neg = f.neg
    classes = (("1", 1), ("-1", 1), ("10a", 12), ("10b", 12),
               ("5a", 12), ("5b", 12), ("6a", 20), ("3a", 20), ("4a", 30))
    chars = (
        (I(1), I(1), I(1), I(1), I(1), I(1), I(1), I(1), I(1)),
        (I(2), I(-2), gp, gm, neg(gm), neg(gp), I(1), I(-1), I(0)),  # E
        (I(2), I(-2), gm, gp, neg(gp), neg(gm), I(1), I(-1), I(0)),
        (I(3), I(3), gp, gm, gm, gp, I(0), I(0), I(-1)),
        (I(3), I(3), gm, gp, gp, gm, I(0), I(0), I(-1)),
        (I(4), I(4), I(-1), I(-1), I(-1), I(-1), I(1), I(1), I(0)),
        (I(5), I(5), I(0), I(0), I(0), I(0), I(-1), I(-1), I(1)),
        (I(4), I(-4), I(1), I(1), I(-1), I(-1), I(-1), I(1), I(0)),
        (I(6), I(-6), I(-1), I(-1), I(1), I(1), I(0), I(0), I(0)),
    )
    return CharacterTable("bi", f, 120, classes, chars,
                          trivial_index=0, chi_e=chars[1])


_EXCEPTIONAL = {"bt": _bt_table, "bo": _bo_table, "bi": _bi_table}


def exceptional_table(kind: str) -> CharacterTable:
    try:
        return _EXCEPTIONAL[kind.lower()]()
    except KeyError:
        raise McKayError(f"unknown exceptional kind {kind!r}") from None


def table_by_name(name: str) -> CharacterTable:
    """cyclic:n | bd:n | bt | bo | bi, with n in ASCII digits alone."""
    kind, colon, n = name.lower().partition(":")
    build = {"cyclic": cyclic_table, "bd": binary_dihedral_table}.get(kind)
    if not (colon and build):
        return exceptional_table(name)
    if not (n.isascii() and n.isdigit()):
        raise McKayError(f"n = {n!r} is not a string of ASCII digits")
    try:
        n = int(n)
    except ValueError:  # more digits than int() reads
        raise McKayError(f"n has {len(n)} digits") from None
    return build(n)


def mckay_quiver(t: CharacterTable):
    """Adjacency a_ij = multiplicity of L_i in L_j (x) E, as a fresh list
    of lists (see ``CharacterTable.mckay_matrix``)."""
    return [list(r) for r in t.mckay_matrix]


def delta_vector(t: CharacterTable) -> dict:
    return {str(i): d for i, d in enumerate(t.int_degrees)}


def mckay_graph_quiver(t: CharacterTable) -> Quiver:
    """The McKay quiver as a quiver object with the canonical orientation
    (each symmetric pair split with the lower-index vertex as tail)."""
    a = t.mckay_matrix
    k = len(a)
    verts = [str(i) for i in range(k)]
    edges = []
    for i in range(k):
        for m in range(a[i][i] // 2):
            edges.append(Edge(f"l{i}_{m}", str(i), str(i)))
        for j in range(i + 1, k):
            for m in range(a[j][i]):
                edges.append(Edge(f"e{i}_{j}_{m}", str(i), str(j)))
    return Quiver(tuple(verts), tuple(edges),
                  {"kind": "mckay", "note": "orientation is a choice"})


# -- affine ADE recognition -------------------------------------------

def identify_affine_ade(a) -> str:
    """Name of the affine ADE diagram with the given doubled adjacency
    matrix, read off its shape, or raise McKayError."""
    a = [list(r) for r in a]
    n = len(a)
    if a == [[2]]:
        return "A~0"
    if a == [[0, 2], [2, 0]]:
        return "A~1"
    if not n or any(len(r) != n for r in a):
        raise McKayError("adjacency matrix is not square")
    if any(a[i][j] not in (0, 1) or a[i][j] != a[j][i] or (i == j and a[i][j])
           for i in range(n) for j in range(n)):
        raise McKayError("not the adjacency matrix of a simple graph")
    nbrs = [[j for j in range(n) if a[i][j]] for i in range(n)]
    seen, stack = {0}, [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        raise McKayError("graph is not connected")
    deg = [len(x) for x in nbrs]
    if all(d == 2 for d in deg):
        return f"A~{n - 1}"
    branch = [v for v in range(n) if deg[v] > 2]
    shape = [deg[v] for v in branch]
    if sum(deg) == 2 * (n - 1):  # a tree
        if shape == [4] and n == 5:
            return "D~4"
        if shape == [3, 3] and all(
                sum(deg[w] == 1 for w in nbrs[v]) == 2 for v in branch):
            return f"D~{n - 1}"
        if shape == [3]:
            arms = []
            for v in nbrs[branch[0]]:
                prev, size = branch[0], 1
                while deg[v] == 2:
                    prev, v = v, next(w for w in nbrs[v] if w != prev)
                    size += 1
                arms.append(size)
            kind = {(2, 2, 2): "E~6", (1, 3, 3): "E~7",
                    (1, 2, 5): "E~8"}.get(tuple(sorted(arms)))
            if kind:
                return kind
    raise McKayError("graph matches no affine ADE diagram")


def verify_ade(t: CharacterTable) -> dict:
    """Identify the affine ADE type of the McKay quiver and check the
    kernel identity C delta = 0 for the degree vector delta."""
    a = t.mckay_matrix
    k = len(a)
    c = [[(2 if i == j else 0) - a[i][j] for j in range(k)] for i in range(k)]
    delta = t.degrees
    cdelta = [sum(c[i][j] * delta[j] for j in range(k)) for i in range(k)]
    kind = identify_affine_ade(a)
    return {"type": kind, "delta": delta,
            "cartan_times_delta": cdelta,
            "kernel_ok": all(x == 0 for x in cdelta),
            "trivial_vertex_degree_one": delta[t.trivial_index] == 1}
