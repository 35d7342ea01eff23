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

The oracle shares no elimination with the closures. Over F_p it packs a
vector as its base-p code and decides every containment (invariance under
an edge, S inside Ker j, Im i inside S) on the codes of basis columns: a
map sends each code to the code of its image, and membership of a code in
a subspace is one bit of the subspace's point mask, or, where F_p^d has
more than ``linalg.POINT_MASK_LIMIT`` points, a digit-by-digit check
against its echelon basis. Its work is bounded by the subspace count that
``limit`` caps, not by p^d or by the framing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .fields import Field, FieldError, PrimeField
from .linalg import (Echelon, Mat, annihilator_rows, code_map, col_span,
                     enumerate_subspaces, gaussian_binomial_total, point_test,
                     subspace_contains, subspace_points, vector_code)
from .quiver import Quiver, check_dimvector, dot, star_pairs


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
        star_pairs(self.rep.quiver)  # require double provenance
        v = self.rep.v
        for k in self.rep.quiver.vertices:
            wi = int(self.w.get(k, 0))
            mi, mj = self.i[k], self.j[k]
            if (mi.rows, mi.cols) != (v[k], wi):
                raise RepError(f"i[{k}] has wrong shape")
            if (mj.rows, mj.cols) != (wi, v[k]):
                raise RepError(f"j[{k}] has wrong shape")

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

    def is_full(self):
        return all(b.cols == self.ambient[k] for k, b in self.bases.items())

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


# -- moment map and preprojective relation -----------------------------

def _lambda_scalar(field, lam, vertex):
    val = lam.get(vertex, 0) if isinstance(lam, dict) else lam
    return field.from_fraction(Fraction(val))


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
        lam_i = _lambda_scalar(f, lam, vert)
        acc = acc - Mat.identity(f, n).scale(lam_i)
        out[vert] = acc
    return out


def preprojective_check(rep: Rep, lam) -> bool:
    """True iff the representation of the double satisfies the deformed
    preprojective relation with parameter lambda (no framing)."""
    res = moment_residual(rep, lam)
    return all(m.is_zero() for m in res.values())


def unframed_fiber_obstruction(q: Quiver, v: dict, lam) -> dict:
    """Trace obstruction for the unframed fiber over lambda.

    The sum of traces of commutators vanishes, so lambda . v != 0 forces the
    fiber to be empty; the verdict is returned with the pairing value.
    """
    v = check_dimvector(q, v)
    pairing = sum(Fraction(lam.get(k, 0) if isinstance(lam, dict) else lam) * v[k]
                  for k in v)
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
    from .quiver import cycles as _cycles
    sig = []
    for cyc in _cycles(rep.quiver, maxlen):
        sig.append((tuple(e.name for e in cyc), trace_of_cycle(rep, cyc)))
    return sig


def s_equivalence_probe(r1: Rep, r2: Rep, maxlen: int) -> dict:
    """Compare trace signatures; 'distinguished' is conclusive, the other
    verdict is bounded evidence only."""
    if r1.quiver.edges != r2.quiver.edges or r1.v != r2.v:
        raise RepError("representations not comparable")
    s1 = trace_signature(r1, maxlen)
    s2 = trace_signature(r2, maxlen)
    for (c1, t1), (_, t2) in zip(s1, s2):
        if t1 != t2:
            return {"verdict": "distinguished", "witness_cycle": list(c1)}
    return {"verdict": f"indistinguishable-up-to-{maxlen}"}


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
        vec = bases[k].rows[added[0]]
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


def ker_j(fr: FramedRep) -> GradedSubspace:
    return GradedSubspace(fr.field, fr.v,
                          {k: fr.j[k].kernel_basis() for k in fr.v})


def im_i(fr: FramedRep) -> GradedSubspace:
    return GradedSubspace(fr.field, fr.v,
                          {k: col_span(fr.i[k]) for k in fr.v})


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


def slope(theta: dict, d: dict) -> Fraction:
    total = sum(d.values())
    if total == 0:
        raise RepError("slope of the zero dimension vector is undefined")
    return Fraction(sum(Fraction(theta[k]) * d[k] for k in d), total)


# -- brute-force oracles over small prime fields -----------------------

DEFAULT_SUBSPACE_LIMIT = 10 ** 6


def _invariant_tuples(rep: Rep, limit: int):
    """The invariant graded subspaces of a representation over F_p, as
    indices into the subspace family of each vertex.

    Returns the vertices (in quiver order), their families from
    :func:`enumerate_subspaces`, the packed families from
    :func:`subspace_points` and a generator of the index tuples of the
    subspaces invariant under every edge map, in lexicographic order. An
    edge carries a tail subspace into a head subspace when the image code
    of each tail basis column is a point of the head subspace.
    """
    if not isinstance(rep.field, PrimeField):
        raise RepError("brute-force enumeration requires a prime field")
    p = rep.field.p
    count = 1
    for d in rep.v.values():
        count *= gaussian_binomial_total(p, d)
    if count > limit:
        raise RepError(f"subspace enumeration size {count} exceeds limit {limit}")
    verts = list(rep.quiver.vertices)
    pos = {k: n for n, k in enumerate(verts)}
    families = [enumerate_subspaces(p, rep.v[k]) for k in verts]
    packed = [subspace_points(p, rep.v[k]) for k in verts]
    tests = [point_test(p, rep.v[k]) for k in verts]
    # edges checked once the subspace at depth n is picked: those whose
    # later endpoint is at depth n, as (code map, tail depth, head depth)
    checks = [[] for _ in verts]
    for e in rep.quiver.edges:
        t, h = pos[e.tail], pos[e.head]
        image = code_map(rep.mats[e.name],
                         (b for basis, _ in packed[t] for b in basis))
        checks[max(t, h)].append((image, t, h))
    chosen = [0] * len(verts)
    picked = [None] * len(verts)  # (basis codes, points) per depth

    def rec(depth):
        if depth == len(verts):
            yield tuple(chosen)
            return
        here = checks[depth]
        for idx, sub in enumerate(packed[depth]):
            chosen[depth] = idx
            picked[depth] = sub
            if all(tests[h](picked[h][1], image[b])
                   for image, t, h in here for b in picked[t][0]):
                yield from rec(depth + 1)

    return verts, families, packed, rec(0)


def invariant_subspaces_bruteforce(rep: Rep, limit: int = DEFAULT_SUBSPACE_LIMIT):
    """All graded subspaces invariant under every edge map, by exhaustive
    enumeration of row-reduced echelon bases per vertex. Prime fields only."""
    verts, families, _, tuples = _invariant_tuples(rep, limit)
    return [GradedSubspace._canonical(
                rep.field, rep.v, {k: fam[i] for k, fam, i in zip(verts, families, t)})
            for t in tuples]


def semistable_bruteforce(fr: FramedRep, theta: dict,
                          limit: int = DEFAULT_SUBSPACE_LIMIT) -> dict:
    """Semistability/stability of a framed quadruple by checking the two
    subspace conditions over all invariant graded subspaces.

    The criterion characterizes (semi)stability for points on the moment
    fiber; any quadruple is accepted and checked against the same
    inequalities. A subspace lies in Ker j when j sends the code of each of
    its basis columns to 0; it contains Im i when the code of each column of
    i is one of its points.
    """
    return _bruteforce_reports(fr, [theta], limit)[0]


def _bruteforce_reports(fr: FramedRep, thetas, limit: int = DEFAULT_SUBSPACE_LIMIT):
    """The report of :func:`semistable_bruteforce` at each theta of
    ``thetas``, all from one scan of the invariant graded subspaces; the
    scan stops once every theta has its first violation."""
    verts = list(fr.quiver.vertices)
    undecided = []  # (index, theta * scale per vertex, its pairing with v)
    for n, theta in enumerate(thetas):
        th = [Fraction(theta[k]) for k in verts]
        scale = lcm(*(t.denominator for t in th))
        weight = [int(t * scale) for t in th]
        undecided.append((n, weight, sum(w * fr.v[k] for w, k in zip(weight, verts))))
    _, _, packed, tuples = _invariant_tuples(fr.rep, limit)
    p = fr.field.p
    dims, in_ker, has_im = [], [], []
    for k, fam in zip(verts, packed):
        codes = [b for basis, _ in fam for b in basis]
        j_image = code_map(fr.j[k], codes)
        kernel = {b for b in codes if not j_image[b]}
        i = fr.i[k]
        i_codes = [vector_code(p, [row[c] for row in i.data])
                   for c in range(i.cols)]
        test = point_test(p, fr.v[k])
        holds = [True] * len(fam)  # holds each column of i seen so far
        for c in i_codes:
            holds = [ok and test(pts, c) for ok, (_, pts) in zip(holds, fam)]
        dims.append([len(basis) for basis, _ in fam])
        in_ker.append([kernel.issuperset(basis) for basis, _ in fam])
        has_im.append(holds)
    full = [fr.v[k] for k in verts]
    semistable = [True] * len(thetas)
    stable = [True] * len(thetas)
    witness = [None] * len(thetas)
    for t in tuples:
        ker = all(col[n] for col, n in zip(in_ker, t))
        im = all(col[n] for col, n in zip(has_im, t))
        if not (ker or im):
            continue
        d = [dk[n] for dk, n in zip(dims, t)]
        proper = any(d) and d != full
        decided = False
        for n, weight, tv in undecided:
            ts = sum(w * x for w, x in zip(weight, d))
            if ker and ts > 0 or im and ts > tv:
                # the first violation is the witness; this theta is decided
                semistable[n] = stable[n] = False
                at = dict(zip(verts, d))
                witness[n] = {k: at[k] for k in fr.v}
                decided = True
            elif proper and (ker and ts >= 0 or im and ts >= tv):
                stable[n] = False
        if decided:
            undecided = [u for u in undecided if semistable[u[0]]]
            if not undecided:
                break
    reports = [{"semistable": a, "stable": b, "witness": c}
               for a, b, c in zip(semistable, stable, witness)]
    return reports


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

def random_rep(q: Quiver, v: dict, fieldobj, rng, span: int = 3) -> Rep:
    v = check_dimvector(q, v)
    mats = {}
    for e in q.edges:
        mats[e.name] = Mat(fieldobj,
                           [[fieldobj.random(rng, span) for _ in range(v[e.tail])]
                            for _ in range(v[e.head])], v[e.head], v[e.tail])
    return Rep(q, fieldobj, v, mats)


def random_framed_rep(dq: Quiver, v: dict, w: dict, fieldobj, rng, span: int = 3):
    """Random quadruple on a tagged double dq with framing w."""
    rep = random_rep(dq, v, fieldobj, rng, span)
    i = {}
    j = {}
    for k in dq.vertices:
        wi = int(w.get(k, 0))
        i[k] = Mat(fieldobj, [[fieldobj.random(rng, span) for _ in range(wi)]
                              for _ in range(v[k])], v[k], wi)
        j[k] = Mat(fieldobj, [[fieldobj.random(rng, span) for _ in range(v[k])]
                              for _ in range(wi)], wi, v[k])
    return FramedRep(rep, {k: int(w.get(k, 0)) for k in dq.vertices}, i, j)
