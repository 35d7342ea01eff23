"""Concrete (framed) quiver representations over exact fields.

A :class:`Rep` lives on a quiver (usually a tagged double); a
:class:`FramedRep` adds the framing maps i, j. Stability at the two
distinguished parameters is decided by one spin, over any field: add each
vector to the echelon basis of its vertex (:class:`linalg.Echelon`) and
push along the outgoing maps only the vectors that enlarge it, until the
seeds' closure is found or every vertex is full. At theta = -1 the x-spin
of the columns of i must fill everything. At theta = +1 no nonzero
x-invariant subspace may lie in Ker j; S is x-invariant and inside Ker j
exactly when Ann(S) is x^T-invariant along the reversed edges and contains
the rows of j, so this is the transpose-dual spin of the rows of j, which
must fill everything too. ``min_closure`` is the x-spin of a graded
subspace and ``max_core`` the annihilator of the x^T-spin of its
annihilator. A finite-field brute-force enumerator serves as an
independent oracle.

The oracle shares no elimination with the closures. Over F_p it decides
every subspace at once. The incidence index of :mod:`quivar.linalg` gives
each projective point of a vertex space the subspaces that hold it and
those whose reduced echelon basis has it as a row, and a graded tuple of
subspaces is one bit of a bitset over the product of the vertex families,
first vertex major. Each map is tabulated on all points of its source in
one packed pass (:func:`linalg.point_images`). An edge a: t -> h breaks
the tuples whose subspace at t has a basis row c while the one at h lacks
a(c), grouped by the point of a(c); S lies in Ker j when j kills its basis
rows, and contains Im i when it holds the point of each nonzero column of
i. So each condition is a few bitset operations per point. The work is
bounded by the incidences of points and subspaces, not by the framing;
``limit`` caps the tuples.

Theta is read last. A quadruple's summary is, per dimension vector d,
the lowest invariant tuple of dimension d inside Ker j and the lowest
containing Im i, cut from the two bitsets by dimension masks that every
quadruple of the same dimensions shares (:func:`linalg.dimension_masks`).
Tuples of different dimensions are different bits, so the lowest tuple
that violates theta's inequalities, the witness a lexicographic scan
would meet first, is the least of the summary's entries that theta
rejects, and each theta is a loop of integer comparisons over the
summary. The summary is kept on the quadruple: a :class:`Rep` keeps its
incidence indexes and invariant tuples, a :class:`FramedRep` its summary,
each keyed by the :class:`Mat` objects it read, so rebinding an edge map,
``i[k]`` or ``j[k]`` recomputes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import is_, mul
from fractions import Fraction
from math import prod

from .fields import Field, FieldError, PrimeField
from .linalg import (Echelon, Mat, annihilator_rows, col_span,
                     dimension_masks, enumerate_subspaces,
                     gaussian_binomial_total, incidence_index, point_images, subspace_contains,
                     tensor_bits, vector_code)
from .poly import cleared
from .quiver import Quiver, check_dimvector, cycles, dot, star_pairs


class RepError(ValueError):
    pass


@dataclass(frozen=True)
class Rep:
    quiver: Quiver
    field: Field
    v: dict
    mats: dict  # edge name -> Mat of shape (v[head], v[tail])

    def __post_init__(self):
        object.__setattr__(self, "v", check_dimvector(self.quiver, self.v))
        for e in self.quiver.edges:
            m = self.mats.get(e.name)
            if m is None:
                raise RepError(f"missing matrix for edge {e.name}")
            if (m.rows, m.cols) != (self.v[e.head], self.v[e.tail]):
                raise RepError(f"matrix for edge {e.name} has wrong shape")
            if m.field != self.field:
                raise FieldError(f"matrix for edge {e.name} over wrong field")

    def total_dim(self):
        return sum(self.v.values())


@dataclass(frozen=True)
class FramedRep:
    """Quadruple (x, y, i, j) on the double of a quiver, with framing w."""
    rep: Rep  # on a tagged double
    w: dict
    i: dict  # vertex -> Mat of shape v_i x w_i
    j: dict  # vertex -> Mat of shape w_i x v_i

    def __post_init__(self):
        q, v = self.rep.quiver, self.rep.v
        star_pairs(q)  # require double provenance
        w = check_dimvector(q, {**dict.fromkeys(q.vertices, 0), **self.w})
        object.__setattr__(self, "w", w)
        for k in q.vertices:
            mi, mj = self.i[k], self.j[k]
            if (mi.rows, mi.cols) != (v[k], w[k]):
                raise RepError(f"i[{k}] has wrong shape")
            if (mj.rows, mj.cols) != (w[k], v[k]):
                raise RepError(f"j[{k}] has wrong shape")
            if mi.field != self.rep.field or mj.field != self.rep.field:
                raise FieldError(f"framing at vertex {k} over wrong field")

    @property
    def quiver(self):
        return self.rep.quiver

    @property
    def field(self):
        return self.rep.field

    @property
    def v(self):
        return self.rep.v


class GradedSubspace:
    """Per-vertex subspaces, each kept as a canonical column basis."""

    def __init__(self, field, ambient: dict, bases: dict):
        self.field = field
        self.ambient = dict(ambient)
        self.bases = {k: col_span(bases[k]) for k in ambient}

    @classmethod
    def _canonical(cls, field, ambient: dict, bases: dict):
        """Trusted constructor: each basis is already canonical, as
        :func:`col_span` returns it, so none is reduced again."""
        out = cls.__new__(cls)
        out.field = field
        out.ambient = dict(ambient)
        out.bases = {k: bases[k] for k in ambient}
        return out

    @staticmethod
    def zero(field, ambient):
        return GradedSubspace._canonical(
            field, ambient, {k: Mat.zeros(field, d, 0) for k, d in ambient.items()})

    @staticmethod
    def full(field, ambient):
        return GradedSubspace._canonical(
            field, ambient, {k: Mat.identity(field, d) for k, d in ambient.items()})

    def dims(self):
        return {k: b.cols for k, b in self.bases.items()}

    def total_dim(self):
        return sum(b.cols for b in self.bases.values())

    def is_zero(self):
        return self.total_dim() == 0

    def __eq__(self, other):
        return (isinstance(other, GradedSubspace)
                and self.ambient == other.ambient and self.bases == other.bases)

    def __hash__(self):
        return hash(tuple(sorted((k, b) for k, b in self.bases.items())))

    def __repr__(self):
        return f"GradedSubspace(dims={self.dims()})"

    def contains(self, other) -> bool:
        return all(subspace_contains(self.bases[k], other.bases[k])
                   for k in self.ambient)


# -- moment map --------------------------------------------------------

def _lambda_at(lam, vertex) -> Fraction:
    """lambda at the vertex: lam is a dict by vertex (0 where it has no
    value) or one scalar for every vertex."""
    return Fraction(lam.get(vertex, 0) if isinstance(lam, dict) else lam)


def moment_residual(r, lam) -> dict:
    """Per-vertex residual of the moment-map/ADHM equation.

    residual_i = sum_{head(a)=i} x_a x_{a*} - sum_{tail(a)=i} x_{a*} x_a
                 + i_i j_i - lambda_i Id;  zero residual means the point lies
    on the fiber over lambda.
    """
    fr = r if isinstance(r, FramedRep) else None
    rep = fr.rep if fr else r
    pairs = star_pairs(rep.quiver)
    f = rep.field
    out = {}
    for vert in rep.quiver.vertices:
        n = rep.v[vert]
        acc = Mat.zeros(f, n, n)
        for a, astar in pairs.items():
            ea = rep.quiver.edge(a)
            if ea.head == vert:
                acc = acc + rep.mats[a] @ rep.mats[astar]
            if ea.tail == vert:
                acc = acc - rep.mats[astar] @ rep.mats[a]
        if fr is not None:
            acc = acc + fr.i[vert] @ fr.j[vert]
        lam_i = f.from_fraction(_lambda_at(lam, vert))
        acc = acc - Mat.identity(f, n).scale(lam_i)
        out[vert] = acc
    return out


def unframed_fiber_obstruction(q: Quiver, v: dict, lam) -> dict:
    """Trace obstruction for the unframed fiber over lambda.

    The sum of traces of commutators vanishes, so lambda . v != 0 forces the
    fiber to be empty; the verdict is returned with the pairing value.
    """
    v = check_dimvector(q, v)
    pairing = sum(_lambda_at(lam, k) * v[k] for k in v)
    return {"lambda_dot_v": str(pairing), "empty_by_obstruction": pairing != 0}


# -- trace invariants --------------------------------------------------

def trace_of_cycle(rep: Rep, cycle):
    """Trace of the operator composed along an oriented cycle of edges."""
    if not cycle:
        raise RepError("empty cycle")
    for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
        if a.head != b.tail:
            raise RepError("edge sequence is not a cycle")
    f = rep.field
    op = Mat.identity(f, rep.v[cycle[0].tail])
    for e in cycle:
        op = rep.mats[e.name] @ op
    return op.trace()


def trace_signature(rep: Rep, maxlen: int):
    """Traces of all cycles up to maxlen, in the canonical cycle order."""
    sig = []
    for cyc in cycles(rep.quiver, maxlen):
        sig.append((tuple(e.name for e in cyc), trace_of_cycle(rep, cyc)))
    return sig


# -- invariant-subspace closures ---------------------------------------

def _arrows(rep: Rep, dual: bool = False) -> dict:
    """Per vertex, the maps leaving it as (target vertex, matrix rows): the
    edge maps x_a, or with ``dual`` their transposes along reversed edges."""
    out = {k: [] for k in rep.v}
    for e in rep.quiver.edges:
        m = rep.mats[e.name]
        if dual:
            out[e.head].append((e.tail, m.transpose().data))
        else:
            out[e.tail].append((e.head, m.data))
    return out


def _spin(f, dims: dict, arrows: dict, seeds):
    """Spin the seed vectors under the arrows.

    Keeps one :class:`Echelon` per vertex. Only a vector that enlarges the
    basis at its vertex is pushed along the arrows leaving it. Returns the
    echelon bases of the least arrow-closed graded subspace containing the
    seeds and whether it is everything; the spin stops as soon as it is.
    """
    dot = f.dot
    bases = {k: Echelon(f, d) for k, d in dims.items()}
    missing = sum(dims.values())
    pending = list(seeds)
    while pending and missing:
        k, vec = pending.pop()
        added = bases[k].add(vec)
        if added is None:
            continue
        missing -= 1
        # the row as stored, a nonzero multiple of the vector's reduction
        vec = bases[k].stored[added[0]]
        for head, m in arrows[k]:
            pending.append((head, [dot(row, vec) for row in m]))
    return bases, missing == 0


def min_closure(rep: Rep, seed: GradedSubspace) -> GradedSubspace:
    """Least x-invariant graded subspace containing the seed: the spin of
    its basis columns under the edge maps."""
    f = rep.field
    bases, _ = _spin(f, rep.v, _arrows(rep),
                     ((k, col) for k in rep.v for col in zip(*seed.bases[k].data)))
    return GradedSubspace._canonical(
        f, rep.v, {k: bases[k].column_basis() for k in rep.v})


def max_core(rep: Rep, bound: GradedSubspace) -> GradedSubspace:
    """Greatest x-invariant graded subspace contained in the bound.

    S is x-invariant exactly when Ann(S) is x^T-invariant along the reversed
    edges, and S lies in K exactly when Ann(S) contains Ann(K); so the core
    is the annihilator of the x^T-spin of Ann(K).
    """
    f = rep.field
    bases, _ = _spin(f, rep.v, _arrows(rep, dual=True),
                     ((k, row) for k in rep.v
                      for row in annihilator_rows(bound.bases[k]).data))
    return GradedSubspace(f, rep.v, {
        k: bases[k].column_basis().transpose().kernel_basis() for k in rep.v})


def is_stable_plus(fr: FramedRep) -> bool:
    """No nonzero invariant graded subspace inside Ker j: dually, the
    x^T-spin of the rows of j along the reversed edges is everything."""
    return _spin(fr.field, fr.v, _arrows(fr.rep, dual=True),
                 ((k, row) for k in fr.v for row in fr.j[k].data))[1]


def is_stable_minus(fr: FramedRep) -> bool:
    """The invariant closure of Im i is everything: the x-spin of the
    columns of i is everything."""
    return _spin(fr.field, fr.v, _arrows(fr.rep),
                 ((k, col) for k in fr.v for col in zip(*fr.i[k].data)))[1]


def check_theta(q: Quiver, theta) -> dict:
    """theta as given, after checking that it is a dict with a value at
    exactly the vertices of q, each an int or a Fraction (not a bool, a
    float or a string). Raises RepError."""
    if not isinstance(theta, dict):
        raise RepError("theta must map each vertex to a value")
    if set(theta) != set(q.vertices):
        raise RepError(f"theta must give a value at exactly the vertices "
                       f"{list(q.vertices)}")
    for x in theta.values():
        if type(x) is not int and not isinstance(x, Fraction):
            raise RepError(f"theta has the value {x!r}, not an int or a "
                           f"Fraction")
    return theta


# -- brute-force oracles over small prime fields -----------------------

DEFAULT_SUBSPACE_LIMIT = 10 ** 6


def _members(bits: int):
    """The positions of the set bits of a bitset, in increasing order."""
    digits = bin(bits)[:1:-1]  # bit n of the bitset is digits[n]
    n = digits.find("1")
    while n >= 0:
        yield n
        n = digits.find("1", n + 1)


def _pairs(sizes, t, h, rows):
    """The bitset of the graded tuples whose member at vertex h lies in
    ``rows[n]`` when the one at vertex t is the n-th there.

    Built as one string of bits, highest first: a row per member of the
    earlier of t and h, each bit spread over the vertices after the later
    one, each row repeated for the vertices between them and the whole for
    the vertices before."""
    strs = [format(r, f"0{sizes[h]}b") for r in reversed(rows)]
    if t > h:
        strs = ["".join(col) for col in zip(*strs)]
        t, h = h, t
    inner = prod(sizes[h + 1:])
    if inner > 1:
        strs = [s.translate({48: "0" * inner, 49: "1" * inner}) for s in strs]
    return int("".join(s * prod(sizes[t + 1:h]) for s in strs)
               * prod(sizes[:t]), 2)


def _families(rep: Rep, limit: int):
    """The vertices (in quiver order) and their families from
    :func:`enumerate_subspaces`, after the checks of every brute-force
    call: a prime field, then at most ``limit`` graded tuples."""
    if not isinstance(rep.field, PrimeField):
        raise RepError("brute-force enumeration requires a prime field")
    p = rep.field.p
    verts = list(rep.quiver.vertices)
    count = prod(gaussian_binomial_total(p, rep.v[k]) for k in verts)
    if count > limit:
        raise RepError(f"subspace enumeration size {count} exceeds limit {limit}")
    return verts, [enumerate_subspaces(p, rep.v[k]) for k in verts]


def _memo(owner, name: str, mats: tuple, build):
    """``build()``, kept on ``owner`` as ``name`` together with the
    :class:`Mat` objects it read, and rebuilt once one of ``mats`` is not
    the object it read."""
    held = owner.__dict__.get(name)
    if held is None or not all(map(is_, held[0], mats)):
        held = (mats, build())
        object.__setattr__(owner, name, held)
    return held[1]


def _invariant_tuples(rep: Rep):
    """The incidence indexes of the vertices (in quiver order) and the
    bitset of :func:`_invariant_bits`, kept on ``rep`` until an edge map is
    rebound."""
    mats = tuple(rep.mats[e.name] for e in rep.quiver.edges)
    return _memo(rep, "_invariant_memo", mats,
                 lambda: _invariant_bits(rep, mats))


def _invariant_bits(rep: Rep, mats: tuple):
    """The incidence indexes of the vertices and the invariant graded
    subspaces of a representation over F_p, as a bitset over the graded
    tuples of :func:`_tensor`; ``mats`` are the edge maps in quiver order.

    An edge a: t -> h breaks the tuples whose subspace at t has a basis
    row c while the one at h does not hold a(c), with the rows c grouped
    by the point of a(c). A loop breaks subspaces at t alone; an edge
    between two vertices breaks, for each subspace at t, a row of
    subspaces at h, and the rows are lifted to the graded tuples at once.
    """
    p = rep.field.p
    verts = list(rep.quiver.vertices)
    pos = {k: n for n, k in enumerate(verts)}
    index = [incidence_index(p, rep.v[k]) for k in verts]
    sizes = [ix.size for ix in index]
    everything = [(1 << n) - 1 for n in sizes]
    good = list(everything)  # per vertex: the subspaces no loop breaks
    bad = 0  # the tuples an edge between two vertices breaks
    for e, m in zip(rep.quiver.edges, mats):
        t, h = pos[e.tail], pos[e.head]
        src, dst = index[t], index[h]
        groups = {}  # image point -> the points at t sent onto its line
        for c, q in enumerate(map(dst.locate, point_images(m))):
            if q is not None and (t != h or q != c):
                groups.setdefault(q, []).append(c)
        if t == h:
            good[t] &= ~src.breaking(groups)
        elif groups:
            rows = [0] * sizes[t]  # per subspace at t: those at h it breaks
            for q, points in groups.items():
                lacks = everything[h] & ~dst.holding(q)
                for n in _members(src.based_on_any(points)):
                    rows[n] |= lacks
            bad |= _pairs(sizes, t, h, rows)
    return index, tensor_bits(sizes, good) & ~bad


def _lowest_tuples(fr: FramedRep, verts):
    """The summary of :func:`_lowest_bits`, kept on ``fr`` until an edge
    map, ``i[k]`` or ``j[k]`` is rebound."""
    maps = fr.rep.mats
    mats = (*[maps[e.name] for e in fr.rep.quiver.edges],
            *map(fr.i.__getitem__, verts), *map(fr.j.__getitem__, verts))
    return _memo(fr, "_lowest_memo", mats, lambda: _lowest_bits(fr, verts))


def _lowest_bits(fr: FramedRep, verts):
    """The theta-free summary of a quadruple over F_p: the triples
    (d, k, i) over the dimension vectors d in the order of
    :func:`linalg.dimension_masks`, k being 1 + the position of the lowest
    invariant tuple of dimension d inside Ker j and i the same for the
    lowest containing Im i, 0 for none; a d with neither is left out.

    A subspace lies in Ker j when j sends each row of its reduced echelon
    basis to 0; it contains Im i when it holds the point of each nonzero
    column of i. Each condition is a bitset per vertex, lifted to the
    graded tuples once and cut by the dimension masks that every
    quadruple of the same dimensions shares."""
    p = fr.field.p
    index, tuples = _invariant_tuples(fr.rep)
    in_ker, has_im = [], []
    for k, ix in zip(verts, index):
        outside = ix.based_on_any(  # a basis row that j does not kill
            compress(range(len(ix.codes)), point_images(fr.j[k])))
        in_ker.append(((1 << ix.size) - 1) & ~outside)
        columns = (vector_code(p, col) for col in zip(*fr.i[k].data))
        has_im.append(ix.holding_all(
            q for q in map(ix.locate, columns) if q is not None))
    sizes = [ix.size for ix in index]
    ker = tuples & tensor_bits(sizes, in_ker)
    im = tuples & tensor_bits(sizes, has_im)
    out = []
    for d, mask in dimension_masks(p, tuple(fr.v[k] for k in verts)):
        k, i = ker & mask, im & mask
        if k or i:
            out.append((d, (k & -k).bit_length(), (i & -i).bit_length()))
    return out


def invariant_subspaces_bruteforce(rep: Rep, limit: int = DEFAULT_SUBSPACE_LIMIT):
    """All graded subspaces invariant under every edge map, by exhaustive
    enumeration of row-reduced echelon bases per vertex, in lexicographic
    order. Prime fields only."""
    verts, families = _families(rep, limit)
    _, tuples = _invariant_tuples(rep)
    out = []
    for n in _members(tuples):
        bases, rest = {}, n
        for k, fam in zip(reversed(verts), reversed(families)):
            rest, at = divmod(rest, len(fam))
            bases[k] = fam[at]
        out.append(GradedSubspace._canonical(rep.field, rep.v, bases))
    return out


def semistable_bruteforce(fr: FramedRep, theta: dict,
                          limit: int = DEFAULT_SUBSPACE_LIMIT) -> dict:
    """Semistability/stability of a framed quadruple by checking the two
    subspace conditions over all invariant graded subspaces.

    The criterion characterizes (semi)stability for points on the moment
    fiber; any quadruple is accepted and checked against the same
    inequalities. Per dimension vector d the quadruple's summary
    (:func:`_lowest_tuples`) gives the lowest invariant tuple of dimension
    d inside Ker j, and the lowest containing Im i; theta only decides
    which of them violate an inequality, or keep a proper d from being
    stable, and the witness is the lowest violating tuple, the first in
    lexicographic order.
    """
    verts, _ = _families(fr.rep, limit)
    check_theta(fr.quiver, theta)
    weight = cleared([theta[k] for k in verts])[0]  # ints and Fractions
    full = tuple(fr.v[k] for k in verts)
    tv = sum(map(mul, weight, full))
    first, at, stable = 0, None, True  # 1 + the lowest violating position
    for d, k_d, i_d in _lowest_tuples(fr, verts):
        t = sum(map(mul, weight, d))
        low = k_d if t > 0 else 0
        if t > tv and i_d and (not low or i_d < low):
            low = i_d
        if low:
            if not first or low < first:
                first, at = low, d
        elif (k_d and t >= 0 or i_d and t >= tv) and any(d) and d != full:
            stable = False
    if not first:
        return {"semistable": True, "stable": stable, "witness": None}
    at = dict(zip(verts, at))
    return {"semistable": False, "stable": False,
            "witness": {k: at[k] for k in fr.v}}


# -- endomorphisms -----------------------------------------------------

def endomorphism_space(r) -> dict:
    """Solve the linear system for graded endomorphisms g.

    For a plain Rep: g_head x_a = x_a g_tail for every edge (the commutant).
    For a FramedRep: additionally g i = 0 and j g = 0, i.e. the homogeneous
    stabilizer system; dimension 0 certifies free-action points.
    """
    fr = r if isinstance(r, FramedRep) else None
    rep = fr.rep if fr else r
    f = rep.field
    verts = list(rep.quiver.vertices)
    offs = {}
    pos = 0
    for k in verts:
        offs[k] = pos
        pos += rep.v[k] ** 2
    nvars = pos

    rows = []

    def add_equation(coeffs):
        row = [f.zero()] * nvars
        for var, c in coeffs:
            row[var] = f.add(row[var], c)
        rows.append(row)

    def var(k, a, b):  # entry (a, b) of g_k
        return offs[k] + a * rep.v[k] + b

    for e in rep.quiver.edges:
        x = rep.mats[e.name]
        h, t = e.head, e.tail
        for a in range(rep.v[h]):
            for b in range(rep.v[t]):
                coeffs = []
                for c in range(rep.v[h]):
                    coeffs.append((var(h, a, c), x.data[c][b]))
                for c in range(rep.v[t]):
                    coeffs.append((var(t, c, b), f.neg(x.data[a][c])))
                add_equation(coeffs)
    if fr is not None:
        for k in verts:
            wi = fr.i[k].cols
            for a in range(rep.v[k]):
                for b in range(wi):
                    add_equation([(var(k, a, c), fr.i[k].data[c][b])
                                  for c in range(rep.v[k])])
            for a in range(wi):
                for b in range(rep.v[k]):
                    add_equation([(var(k, c, b), fr.j[k].data[a][c])
                                  for c in range(rep.v[k])])
    system = Mat(f, rows, len(rows), nvars) if rows else Mat.zeros(f, 0, nvars)
    ker = system.kernel_basis()
    return {"dimension": ker.cols, "basis": ker, "variables": nvars}


# -- random generation -------------------------------------------------

def _random_mat(f, rng, rows: int, cols: int) -> Mat:
    return Mat(f, [[f.random(rng, 3) for _ in range(cols)]
                   for _ in range(rows)], rows, cols)


def random_rep(q: Quiver, v: dict, fieldobj, rng) -> Rep:
    v = check_dimvector(q, v)
    return Rep(q, fieldobj, v, {
        e.name: _random_mat(fieldobj, rng, v[e.head], v[e.tail])
        for e in q.edges})


def random_framed_rep(dq: Quiver, v: dict, w: dict, fieldobj, rng):
    """Random quadruple on a tagged double dq with framing w."""
    rep = random_rep(dq, v, fieldobj, rng)
    w = {k: int(w.get(k, 0)) for k in dq.vertices}
    i, j = {}, {}
    for k in dq.vertices:  # i before j at each vertex keeps seeded draws
        i[k] = _random_mat(fieldobj, rng, v[k], w[k])
        j[k] = _random_mat(fieldobj, rng, w[k], v[k])
    return FramedRep(rep, w, i, j)
