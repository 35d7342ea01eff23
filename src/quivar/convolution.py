"""Convolution calculus on finite sets.

Kernels on products of finite sets and their convolution (the matrix
product, and the triple-product formula as its cross-check), correspondence
composition, invariant subalgebras under a finite group action (orbits
numbered in one scan of the index pairs, so by their least pair), group
algebras, and flag-variety Hecke algebras over small finite fields.

A group action is checked on the group's generators, which suffices for
a homomorphism (see ``validate_action``); ``FiniteGroup`` picks them once,
greedily. ``hecke_algebra`` lists the projective points of each flag's
subspaces once, so the relative position of a flag pair is read off the
sizes of set intersections, with no elimination per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import product

from .fields import PrimeField
from .linalg import Echelon, Mat
from .poly import q_binomial


class ConvError(ValueError):
    pass


@dataclass(frozen=True)
class FinSet:
    labels: tuple

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ConvError("duplicate labels in finite set")

    def __len__(self):
        return len(self.labels)

    def index(self, x):
        return self.labels.index(x)


def finset(labels) -> FinSet:
    return FinSet(tuple(labels))


@dataclass(frozen=True)
class FiniteKernel:
    """Exact-valued function on target x source, i.e. the matrix of an
    operator from functions on the source to functions on the target."""
    source: FinSet
    target: FinSet
    mat: Mat  # |target| x |source|

    def __post_init__(self):
        if (self.mat.rows, self.mat.cols) != (len(self.target), len(self.source)):
            raise ConvError("kernel shape mismatch")

    @property
    def field(self):
        return self.mat.field


def convolve(k32: FiniteKernel, k21: FiniteKernel) -> FiniteKernel:
    """Convolution as the matrix product; inner sets must agree."""
    if k21.target != k32.source:
        raise ConvError("inner finite sets do not match")
    return FiniteKernel(k21.source, k32.target, k32.mat @ k21.mat)


def convolve_via_pullback(k32: FiniteKernel, k21: FiniteKernel) -> FiniteKernel:
    """The same convolution through the triple-product formula: pull both
    kernels back to X3 x X2 x X1, multiply pointwise, push forward along
    the projection to X3 x X1. Used as a cross-check of ``convolve``.

    For each x3 the pushforward sums over x2 in X2 order, and the pulled-back
    product at (x3, x2, -) is the row k21(x2, -) times the scalar k32(x3, x2).
    So each nonzero k32(x3, x2) is one update acc - (-k32(x3, x2)) row21
    through the field's ``row_sub``, the row kernel of elimination, and a
    zero k32(x3, x2) adds nothing. The check never reaches ``dot``, the
    matrix product or ``convolve``. Refuses mismatched inner sets with
    ConvError and kernels over different fields with FieldError, as
    ``convolve`` does."""
    if k21.target != k32.source:
        raise ConvError("inner finite sets do not match")
    k32.mat._check_same_field(k21.mat)
    fld = k32.field
    is_zero, neg, row_sub = fld.is_zero, fld.neg, fld.row_sub
    x1, x3 = k21.source, k32.target
    zeros = [fld.zero()] * len(x1)
    rows = []
    for row32 in k32.mat.data:  # one row of X3 x X1, summed over X2 in order
        acc = zeros
        for x, row21 in zip(row32, k21.mat.data):
            if not is_zero(x):
                acc = row_sub(acc, neg(x), row21)
        rows.append(tuple(acc))
    return FiniteKernel(x1, x3, Mat._of(fld, tuple(rows), len(x3), len(x1)))


# -- correspondences ---------------------------------------------------

@dataclass(frozen=True)
class Correspondence:
    """Subset of X1 x X2, composable in diagram order."""
    x1: FinSet
    x2: FinSet
    pairs: frozenset

    def __post_init__(self):
        for a, b in self.pairs:
            if a not in self.x1.labels or b not in self.x2.labels:
                raise ConvError("correspondence pair outside the product")


def compose_corr(z12: Correspondence, z23: Correspondence) -> Correspondence:
    """Relational composition: pairs (x1, x3) connected through some x2."""
    if z12.x2 != z23.x1:
        raise ConvError("middle finite sets do not match")
    pairs = frozenset((a, c) for a, b in z12.pairs for b2, c in z23.pairs
                      if b == b2)
    return Correspondence(z12.x1, z23.x2, pairs)


# -- groups by multiplication table ------------------------------------

@dataclass(frozen=True)
class FiniteGroup:
    """Group on elements 0..n-1 given by its multiplication table.

    Checked once, on construction: there is one name per element, the
    table is an n x n Latin square of ints 0..n-1 (each row and each column
    a permutation), it has a two-sided identity, and it is associative, by
    the full n^3 check
    table[table[a][b]] == table[a] o table[b] for every pair (a, b). Such a
    table is a group, so the identity and the inverse of each element are
    computed once here and trusted afterwards, with a generating set: each
    element, in order, that the ones chosen before it do not generate.
    Any failure raises ConvError."""
    table: tuple  # table[a][b] = a * b
    names: tuple
    identity: int = dataclass_field(init=False, repr=False, compare=False)
    _inverses: tuple = dataclass_field(init=False, repr=False, compare=False)
    generators: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.table)
        rows = [tuple(r) for r in self.table]
        if any(len(r) != n for r in rows):
            raise ConvError("multiplication table is not square")
        if len(self.names) != n:
            raise ConvError(f"{len(self.names)} names for {n} elements")
        if any(type(x) is not int for r in rows for x in r):
            raise ConvError("multiplication table entries are not ints")
        elements = set(range(n))
        if any(set(r) != elements for r in rows + list(zip(*rows))):
            raise ConvError("multiplication table is not a Latin square")
        ident = tuple(range(n))
        e = next((e for e, r in enumerate(rows)
                  if r == ident and all(rows[a][e] == a for a in ident)), None)
        if e is None:
            raise ConvError("no identity element")
        for a, row in enumerate(rows):
            for b in ident:  # (a b) c == a (b c) for every c
                if rows[row[b]] != tuple(map(row.__getitem__, rows[b])):
                    raise ConvError(f"multiplication is not associative at "
                                    f"a = {a}, b = {b}")
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "_inverses",
                           tuple(row.index(e) for row in rows))
        # each element outside the subgroup that the generators before it
        # generate is the next generator; the subgroup is then regrown as
        # the products x s, from the identity on
        gens, closure = [], {e}
        for a in ident:
            if a not in closure:
                gens.append(a)
                closure, todo = {e}, [e]
                for x in todo:
                    for y in map(rows[x].__getitem__, gens):
                        if y not in closure:
                            closure.add(y)
                            todo.append(y)
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def n(self):
        return len(self.table)

    def mul(self, a, b):
        return self.table[a][b]


def symmetric_group(n: int) -> FiniteGroup:
    from itertools import permutations
    perms = sorted(permutations(range(n)))
    idx = {p: k for k, p in enumerate(perms)}
    table = tuple(tuple(idx[tuple(p[q[i]] for i in range(n))] for q in perms)
                  for p in perms)
    return FiniteGroup(table, tuple("".join(map(str, p)) for p in perms))


def validate_action(g: FiniteGroup, x: FinSet, action: dict) -> list:
    """action[(g, x)] -> x; checks that every image lies in x, that the
    identity acts trivially, and that pi[s k] = pi[s] o pi[k] for each
    generator s of g and each k, where pi[h] is the tuple of indices of the
    images of x under h. Returns pi.

    The generators suffice: every h is a word s h' in them, and by
    induction on its length pi[s h' k] = pi[s] o pi[h' k]
    = pi[s] o pi[h'] o pi[k] = pi[s h'] o pi[k], so pi[h k] = pi[h] o pi[k]
    for every pair (h, k)."""
    pos = {a: i for i, a in enumerate(x.labels)}
    try:
        pi = [tuple(pos[action[(h, a)]] for a in x.labels) for h in range(g.n)]
    except KeyError as err:
        raise ConvError(f"action is undefined or leaves the set at {err}") \
            from None
    if pi[g.identity] != tuple(range(len(x))):
        raise ConvError("identity does not act trivially")
    for s in g.generators:
        ps, row = pi[s], g.table[s]
        for k, pk in enumerate(pi):
            if pi[row[k]] != tuple(map(ps.__getitem__, pk)):
                raise ConvError("action is not compatible with the product")
    return pi


@dataclass
class OrbitAlgebra:
    """Basis of diagonal-orbit indicator kernels with integer structure
    constants c[i][j][k] for e_i * e_j = sum_k c e_k."""
    x: FinSet
    orbits: list          # list of frozensets of (a, b) pairs
    constants: list       # c[i][j][k]
    unit_index: int


def _orbit_constants(points, reps, orbit_of):
    """Structure constants c[i][j][k] = #{b : orbit_of(a, b) = i,
    orbit_of(b, c) = j} of the orbit basis, counted at the representative
    pair (a, c) = reps[k] of each orbit: one pass over the points per
    target orbit."""
    n_orb = len(reps)
    constants = [[[0] * n_orb for _ in range(n_orb)] for _ in range(n_orb)]
    for k, (a, c) in enumerate(reps):
        for b in points:
            constants[orbit_of(a, b)][orbit_of(b, c)][k] += 1
    return constants


def invariant_algebra(g: FiniteGroup, x: FinSet, action: dict) -> OrbitAlgebra:
    """Orbit-basis presentation of the G-invariant convolution subalgebra
    of kernels on X x X, under the diagonal action.

    One scan of the index pairs (a, b) in order numbers the orbits: the
    first pair not yet numbered opens orbit k, every image (pi[h][a],
    pi[h][b]) gets k, and (a, b) is its representative. So the orbits come
    ordered by their least index pair, and the unit is orbit 0, the
    diagonal. Raises ConvError when X is empty or the diagonal is not one
    orbit (G not transitive on X): then there is no unit orbit."""
    pi = validate_action(g, x, action)
    n = len(x)
    member = [[None] * n for _ in range(n)]
    reps = []
    for a, b in product(range(n), repeat=2):
        if member[a][b] is None:
            for p in pi:
                member[p[a]][p[b]] = len(reps)
            reps.append((a, b))
    if not n or any(member[a][a] for a in range(n)):
        raise ConvError("invariant_algebra needs G transitive on a nonempty X")
    lab = x.labels
    orbits = [frozenset((lab[p[a]], lab[p[b]]) for p in pi) for a, b in reps]
    constants = _orbit_constants(range(n), reps, lambda a, b: member[a][b])
    return OrbitAlgebra(x, orbits, constants, 0)


def group_algebra(g: FiniteGroup) -> dict:
    """Structure constants of the convolution algebra on functions on G:
    delta_a * delta_b = delta_{ab}. Returned with the identification with
    the invariant algebra of G acting on itself by left translations."""
    n = g.n
    constants = [[[int(g.mul(a, b) == c) for c in range(n)]
                  for b in range(n)] for a in range(n)]
    return {"n": n, "constants": constants, "identity": g.identity}


def group_algebra_matches_invariant(g: FiniteGroup) -> bool:
    """The bijection orbit((g1, g2)) <-> g1^{-1} g2 carries the invariant
    algebra of G acting on itself to the group algebra."""
    n, table, inverses = g.n, g.table, g._inverses
    x = finset(range(n))
    action = {(h, k): y for h in range(n) for k, y in enumerate(table[h])}
    inv = invariant_algebra(g, x, action)
    if len(inv.orbits) != n:
        return False
    # orbit k corresponds to the group element g1^{-1} g2 for any member
    orbit_elem = []
    for o in inv.orbits:
        vals = {table[inverses[a]][b] for a, b in o}
        if len(vals) != 1:
            return False
        orbit_elem.append(vals.pop())
    # convolution of indicators composes relations: (x, y) in O_i and
    # (y, z) in O_j give e_i * e_j = e_k for the orbit k of the product
    one_hot = [[e == c for e in orbit_elem] for c in range(n)]  # 1 is True
    return all(inv.constants[i][j] == one_hot[table[a][b]]
               for i, a in enumerate(orbit_elem)
               for j, b in enumerate(orbit_elem))


# -- flag varieties over F_q and Hecke algebras ------------------------

# Cap on the flag pairs, [n]_q! * n!, whose relative position
# hecke_algebra computes; (n, q) = (4, 3) needs 2080 * 24 = 49920.
HECKE_WORK_CAP = 50_000


def complete_flags(n: int, q: int):
    """All complete flags in F_q^n, sorted, as tuples of canonical subspace
    keys of dimensions 1..n-1 (each key a tuple of reduced-echelon row
    tuples). Each flag is built once: the subspaces of dimension k + 1 that
    contain V are V + <v>, one for each line <v> of the coordinate subspace
    on the non-pivot columns of V, which is a complement of V."""
    fld = PrimeField(q)  # raises FieldError unless q is prime
    flags = []

    def extend(chain, rows):
        if len(chain) == n - 1:
            flags.append(tuple(chain))
            return
        free = [c for c in range(n) if c not in rows]
        for k, c in enumerate(free):  # lines whose first nonzero column is c
            for tail in product(range(q), repeat=len(free) - k - 1):
                v = [0] * n
                v[c] = 1
                for c2, x in zip(free[k + 1:], tail):
                    v[c2] = x
                span = Echelon.of(fld, n, [*rows.values(), v]).rows
                extend(chain + [tuple(tuple(span[p]) for p in sorted(span))],
                       span)

    extend([], {})
    return sorted(flags)


def _points(key, q):
    """The projective points of the span of the reduced-echelon rows
    ``key``: the combinations whose first nonzero coefficient is 1, each
    row r_j plus every combination of the rows after it. The rows are
    reduced, so each has first nonzero entry 1 and stands for its line."""
    pts, later = [], [(0,) * len(key[0])]
    for j in range(len(key) - 1, -1, -1):
        r = key[j]
        pts += [tuple((x + y) % q for x, y in zip(r, s)) for s in later]
        if j:
            later = [tuple((c * x + y) % q for x, y in zip(r, s))
                     for c in range(q) for s in later]
    return frozenset(pts)


def hecke_algebra(n: int, q: int) -> dict:
    """Convolution algebra of GL_n(F_q)-orbits on pairs of complete flags.

    The orbit of a pair is its relative position, the rank matrix
    dim(F_i & G_j); there are n! of them (Bruhat). A subspace of dimension
    d has (q^d - 1)/(q - 1) projective points, so the matrix is keyed by
    the counts |P(F_i) & P(G_j)| of common points. GL_n(F_q) is transitive
    on flags, so one pass over the flags b against the least flag f0 gives
    each orbit k with its least pair (f0, b_k), and the structure constants
    are c[i][j][k] = #{b : pos(f0, b) = i, pos(b, b_k) = j}.

    Returns the flag count [n]_q!, the orbit count, the constants, the
    unit (diagonal) orbit index 0, and for n = 2 the quadratic relation.
    Raises ConvError, before any flag is built, unless n >= 2, q >= 2 and
    [n]_q! * n! <= HECKE_WORK_CAP, which accepts q <= 24989, 19 and 3 at
    n = 2, 3 and 4; `qv` exits 2 on it. A q that is not prime raises
    FieldError.
    """
    if n < 2 or q < 2:
        raise ConvError("hecke_algebra needs n >= 2 and q >= 2")
    work = 1
    for k in range(1, n + 1):  # [n]_q! * n!, stopping once over the cap
        work *= k * q_binomial(k, 1, q)
        if work > HECKE_WORK_CAP:
            raise ConvError(f"hecke_algebra({n}, {q}): [n]_q! * n! flag "
                            f"pairs exceed the cap of {HECKE_WORK_CAP}")
    flags = complete_flags(n, q)
    # many flags share each subspace, so each one's points are listed once
    points = {key: _points(key, q) for key in {k for fl in flags for k in fl}}
    pts = [[points[key] for key in fl] for fl in flags]

    def position(a, b):
        return tuple([len(x & y) for x in pts[a] for y in pts[b]])

    index, reps, from_f0 = {}, [], []
    for b in range(len(flags)):
        pos = position(0, b)
        if pos not in index:
            index[pos] = len(reps)
            reps.append((0, b))
        from_f0.append(index[pos])

    def orbit_of(a, b):
        if a == 0:
            return from_f0[b]
        return index[position(a, b)]

    c = _orbit_constants(range(len(flags)), reps, orbit_of)
    result = {"n": n, "q": q, "num_flags": len(flags),
              "num_orbits": len(reps), "constants": c, "unit_index": 0}
    if n == 2:
        # T * T = c[1][1][1] T + c[1][1][0] 1
        result["relation"] = {"T_coeff": c[1][1][1], "unit_coeff": c[1][1][0]}
    return result

