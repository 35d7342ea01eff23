"""Dense exact matrices over the fields of :mod:`quivar.fields`.

Everything is small and dense on purpose: the objects of interest are
desk-scale, and dense Gauss-Jordan over an exact field is auditable.
Matrices are immutable after construction; all operations return new ones.
The product ``@`` has one code path, the field's product kernel
``Field.matmul`` on the rows of the left factor and the columns of the right.
Elimination lives in :class:`Echelon`, which answers span questions only:
RREF, column spans, the spin of :mod:`quivar.reps` and the staircase of
:mod:`quivar.adhm`; the brute-force oracle's packed F_p code needs none.
Over Q it runs on primitive integer rows (fraction-free Gauss-Jordan with
the content divided out, as in Bareiss, Math. Comp. 22, 1968), so every row
update is an integer one, and a row is normalised to pivot 1 only when read.
Determinants have their own one home, ``Mat._berkowitz``: one
division-free pass over the leading principal blocks gives the
characteristic polynomial, the leading principal minors and the
determinant.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from functools import lru_cache, partial
from itertools import chain, combinations, product

from .fields import Field, FieldError, PrimeField
from .poly import q_binomial


class Mat:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data, rows=None, cols=None):
        data = [list(r) for r in data]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise FieldError("ragged matrix data")
        self.field, self.rows, self.cols = field, rows, cols
        self.data = tuple(tuple(map(field.element, r)) for r in data)

    @classmethod
    def _of(cls, field, data, rows, cols):
        """Trusted constructor for results computed here: ``data`` is a
        tuple of ``rows`` row tuples of length ``cols``. No check, no copy."""
        m = object.__new__(cls)
        m.field, m.data, m.rows, m.cols = field, data, rows, cols
        return m

    # -- constructors --------------------------------------------------
    @staticmethod
    def zeros(field, rows, cols):
        z = field.zero()
        return Mat(field, [[z] * cols for _ in range(rows)], rows, cols)

    @staticmethod
    def identity(field, n):
        z, o = field.zero(), field.one()
        return Mat(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_ints(field, data):
        return Mat(field, [[field.from_int(x) for x in r] for r in data])

    @staticmethod
    def column(field, entries):
        return Mat(field, [[e] for e in entries], len(entries), 1)

    # -- basic ops -----------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.data == other.data
                and (self.rows, self.cols) == (other.rows, other.cols))

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.to_str(x) for x in r) for r in self.data)
        return f"Mat[{self.rows}x{self.cols}]({body})"

    def _check_same_field(self, other):
        if self.field != other.field:
            raise FieldError("matrices over different fields")

    def _entrywise(self, op, other):
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise FieldError("shape mismatch in addition")
        return Mat._of(self.field, tuple(tuple(map(op, ra, rb)) for ra, rb
                                         in zip(self.data, other.data)),
                       self.rows, self.cols)

    def __add__(self, other):
        return self._entrywise(self.field.add, other)

    def __sub__(self, other):
        return self._entrywise(self.field.sub, other)

    def scale(self, c):
        f = self.field
        return Mat(f, [[f.mul(c, x) for x in r] for r in self.data],
                   self.rows, self.cols)

    def __matmul__(self, other):
        self._check_same_field(other)
        if self.cols != other.rows:
            raise FieldError("shape mismatch in product")
        cols = tuple(zip(*other.data)) if other.rows else ((),) * other.cols
        return Mat._of(self.field, self.field.matmul(self.data, cols),
                       self.rows, other.cols)

    def transpose(self):
        return Mat._of(self.field, tuple(zip(*self.data)) if self.data else
                       ((),) * self.cols, self.cols, self.rows)

    def trace(self):
        f = self.field
        acc = f.zero()
        for i in range(min(self.rows, self.cols)):
            acc = f.add(acc, self.data[i][i])
        return acc

    def is_zero(self):
        f = self.field
        return all(f.is_zero(x) for r in self.data for x in r)

    def hstack(self, other):
        self._check_same_field(other)
        if self.rows != other.rows:
            raise FieldError("row mismatch in hstack")
        return Mat(self.field, [list(a) + list(b) for a, b in zip(self.data, other.data)],
                   self.rows, self.cols + other.cols)

    def submatrix(self, row_idx, col_idx):
        return Mat._of(self.field,
                       tuple(tuple(self.data[i][j] for j in col_idx)
                             for i in row_idx), len(row_idx), len(col_idx))

    # -- elimination ---------------------------------------------------
    def rref(self):
        """Reduced row-echelon form.

        Returns ``(rank, pivot_columns, reduced)``; the reduced form is the
        unique RREF over the field: the rows of the :class:`Echelon` of the
        row span in pivot order, then zero rows.
        """
        f = self.field
        rows = Echelon.of(f, self.cols, self.data).rows
        pivots = sorted(rows)
        data = tuple(tuple(rows[pc]) for pc in pivots) + \
            ((f.zero(),) * self.cols,) * (self.rows - len(pivots))
        return len(pivots), pivots, Mat._of(f, data, self.rows, self.cols)

    def rank(self):
        return self.rref()[0]

    def kernel_basis(self):
        """Columns form a basis of the null space; shape cols x (cols - rank)."""
        f = self.field
        rank, pivots, red = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        cols = []
        for fc in free:
            v = [f.zero()] * self.cols
            v[fc] = f.one()
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(red.data[r][fc])
            cols.append(v)
        return Mat._of(f, tuple(zip(*cols)) if cols else ((),) * self.cols,
                       self.cols, len(cols))

    def solve(self, b: "Mat"):
        """One solution x of self @ x = b, or None if inconsistent."""
        self._check_same_field(b)
        if b.rows != self.rows:
            raise FieldError("shape mismatch in solve")
        f = self.field
        aug = self.hstack(b)
        rank, pivots, red = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        sol = [[f.zero()] * b.cols for _ in range(self.cols)]
        for r, pc in enumerate(pivots):
            for j in range(b.cols):
                sol[pc][j] = red.data[r][self.cols + j]
        return Mat._of(f, tuple(map(tuple, sol)), self.cols, b.cols)

    def _berkowitz(self):
        """det(t I - M_k), high degree first, for each leading principal
        block M_1, ..., M_n in turn, by Berkowitz's division-free algorithm
        (Inf. Process. Lett. 18, 1984).

        With M_(k+1) = [[M_k, c], [r, a]], the coefficients of
        det(t I - M_(k+1)) are those of det(t I - M_k) times the
        lower-triangular Toeplitz matrix with first column 1, -a, -r c,
        -r M_k c, ..., -r M_k^(k-1) c. O(n^4) field operations, and no
        inverse."""
        if self.rows != self.cols:
            raise FieldError("determinant of non-square matrix")
        f, data = self.field, self.data
        dot, neg = f.dot, f.neg
        poly = [f.one()]
        for k, row in enumerate(data):
            block = [r[:k] for r in data[:k]]
            toeplitz = [f.one(), neg(row[k])]
            v = [r[k] for r in data[:k]]
            for _ in range(k):
                toeplitz.append(neg(dot(row, v)))
                v = [dot(r, v) for r in block]
            poly = [dot(poly, toeplitz[i::-1]) for i in range(k + 2)]
            yield poly

    def char_poly(self):
        """det(t I - self), low degree first."""
        poly = [self.field.one()]
        for poly in self._berkowitz():
            pass
        return poly[::-1]

    def leading_minors(self):
        """det M_1, ..., det M_n of the leading principal blocks M_k: the
        constant term of det(t I - M_k) is (-1)^k det M_k."""
        neg = self.field.neg
        return [neg(poly[-1]) if k % 2 else poly[-1]
                for k, poly in enumerate(self._berkowitz(), 1)]

    def det(self):
        """The last leading principal minor, 1 for a 0 x 0 matrix."""
        minors = self.leading_minors()
        return minors[-1] if minors else self.field.one()


class Echelon:
    """A reduced echelon basis of a subspace of F^n, grown one vector at a
    time. ``stored`` holds it as {pivot: row}, each row a list that is 0 at
    the other pivots, in the form the field picks (``Field.clear_row``,
    ``primitive_row``): over F_p and Q(zeta_m) with 1 at its pivot, over Q
    a primitive integer vector, positive at its pivot. A vector is reduced
    against row v with pivot entry L as L u - c v, through the field's
    ``row_scale`` and ``row_sub``; L is 1 except over Q, where every
    update stays in ints. ``rows`` is the same basis with 1 at each pivot
    on every field, built from the stored rows when read (over Q one ratio
    per entry) and kept until the next ``add``."""

    __slots__ = ("field", "n", "stored", "_view", "_one", "_is_zero",
                 "_row_sub", "_row_scale", "_clear", "_primitive")

    def __init__(self, field: Field, n: int):
        self.field, self.n, self.stored, self._view = field, n, {}, None
        self._one = field.one()
        self._is_zero, self._row_sub, self._row_scale = (
            field.is_zero, field.row_sub, field.row_scale)
        self._clear, self._primitive = field.clear_row, field.primitive_row

    @classmethod
    def of(cls, field: Field, n: int, vectors):
        """The basis of the span of ``vectors``; stops once it is F^n."""
        ech = cls(field, n)
        for vec in vectors:
            if len(ech.stored) == n:
                break
            ech.add(vec)
        return ech

    @property
    def rows(self):
        """{pivot: row}, each row 1 at its pivot and 0 at the others."""
        view = self._view
        if view is None:
            unit = self.field.unit_row
            view = self._view = {pc: unit(row, pc)
                                 for pc, row in self.stored.items()}
        return view

    def add(self, vec):
        """Reduce ``vec`` once against the rows. Return None if it lies in
        their span; else store it, clear its pivot from the other rows and
        return its pivot."""
        is_zero, row_sub, row_scale, one = (
            self._is_zero, self._row_sub, self._row_scale, self._one)
        primitive, rows = self._primitive, self.stored
        vec = self._clear(vec)
        for pc, row in rows.items():
            c = vec[pc]
            if not is_zero(c):
                lead = row[pc]
                if lead != one:  # only over Q, where both are ints
                    vec = row_scale(lead, vec)
                vec = row_sub(vec, c, row)
        for pivot, lead in enumerate(vec):
            if not is_zero(lead):
                break
        else:
            return None
        if lead != one:
            vec = primitive(vec, pivot)
        new = vec[pivot]
        for pc, row in rows.items():
            c = row[pivot]
            if not is_zero(c):
                if new != one:
                    row = row_scale(new, row)
                row = row_sub(row, c, vec)
                # a row with 1 at its pivot is stored as it is
                rows[pc] = row if row[pc] == one else primitive(row, pc)
        rows[pivot] = vec
        self._view = None
        return pivot

    def column_basis(self) -> Mat:
        """The rows in pivot order as columns, as :func:`col_span` gives."""
        rows = self.rows
        cols = [rows[pc] for pc in sorted(rows)]
        return Mat._of(self.field, tuple(zip(*cols)) if cols else
                       ((),) * self.n, self.n, len(cols))


# -- subspaces ---------------------------------------------------------
# A subspace of F^d is carried as a d x k matrix whose columns are a basis,
# in canonical column-echelon form (so equal subspaces compare equal).

def col_span(m: Mat) -> Mat:
    """Canonical column-reduced basis of the column span."""
    return Echelon.of(m.field, m.rows, zip(*m.data)).column_basis()


def subspace_sum(a: Mat, b: Mat) -> Mat:
    return col_span(a.hstack(b))


def subspace_intersect(a: Mat, b: Mat) -> Mat:
    if a.cols == 0 or b.cols == 0:
        return col_span(Mat.zeros(a.field, a.rows, 0))
    ker = a.hstack(b.scale(a.field.from_int(-1))).kernel_basis()
    coeffs = ker.submatrix(range(a.cols), range(ker.cols))
    return col_span(a @ coeffs)


def annihilator_rows(s: Mat) -> Mat:
    """Matrix N with {x : N x = 0} = column span of s."""
    return s.transpose().kernel_basis().transpose()


def subspace_contains(big: Mat, small: Mat) -> bool:
    n = annihilator_rows(big)
    return (n @ small).is_zero()


def preimage(a: Mat, s: Mat) -> Mat:
    """Canonical basis of {x : a @ x in span(s)}."""
    n = annihilator_rows(s)
    return col_span((n @ a).kernel_basis())


def _cells(d: int):
    """The cells of the subspace family of F_p^d, in family order: by
    dimension, then pivot columns. Each is its pivot columns and the free
    entries (row, column) of its reduced row-echelon bases, row by row."""
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            yield pivots, [(r, c) for r, pc in enumerate(pivots)
                           for c in range(pc + 1, d) if c not in pivots]


def _echelon_rows(p: int, d: int):
    """The reduced row-echelon bases of all subspaces of F_p^d, as lists of
    int rows: by dimension, then pivot columns, then free entries."""
    for pivots, free_pos in _cells(d):
        for vals in product(range(p), repeat=len(free_pos)):
            rows = [[0] * d for _ in pivots]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free_pos, vals):
                rows[r][c] = v
            yield rows


@lru_cache(maxsize=32)
def enumerate_subspaces(p: int, d: int):
    """All subspaces of F_p^d as canonical column-basis matrices.

    Enumerates reduced row-echelon bases, so each subspace appears once.
    The family is cached: a repeated call returns the same tuple object.
    """
    field = PrimeField(p)
    return tuple(Mat._of(field, tuple(zip(*rows)), d, len(rows)) if rows else
                 Mat.zeros(field, d, 0) for rows in _echelon_rows(p, d))


# -- packed F_p vectors ------------------------------------------------
# A vector v of F_p^d is packed as its code sum_r v[r] p^r in 0..p^d - 1,
# and the incidence index locates a code by a table over every code while
# p^d <= CODE_TABLE_LIMIT, else arithmetically. The brute-force oracle of
# :mod:`quivar.reps` decides containment on the projective points of
# F_p^d, the nonzero vectors whose first nonzero entry is 1, one on each
# line: a subspace holds a vector exactly when it holds the point on its
# line.
#
# :func:`point_images` tabulates a rows x cols matrix m on all N points of
# F_p^cols in one pass, on B-bit lanes of one int ("SIMD within a
# register"). X_c holds coordinate c of point n in lane n, and row r of the
# images is Y_r = sum_c m[r][c] X_c. A lane of Y_r is at most
# T = cols (p - 1)^2, so no lane carries into the next. Every lane is
# reduced mod p at once by Barrett's multiply-shift (Barrett, CRYPTO '86):
# with 2^s > p T and mu = ceil(2^s / p), floor(y mu / 2^s) = floor(y / p)
# for every 0 <= y <= T. So while T mu < 2^B, Q = ((Y mu) >> s) & LOW, with
# LOW the low B - s bits of each lane, is the quotient lane by lane, and
# R = Y - p Q the remainder. The codes sum_r p^r R_r stay below p^rows. B
# is the least of 8, 16, 32 and 64, or else the least multiple of 8, that
# holds both T mu and p^rows - 1, so every lane is exact; the lanes are
# read back by one memoryview cast, or one by one past 64 bits.
#
# The incidence index of (p, d) gives each point the subspaces of the
# family that hold it, and those whose reduced echelon basis has it as a
# row. Both come from one identity: a point v with leading position l lies
# in the subspace with reduced echelon rows r_j exactly when
# v = sum_j v[pc_j] r_j, so the row of pivot l is
# v - sum_{j != l} v[pc_j] r_j. In each cell of pivot l the other rows' free
# entries run over F_p and fix that row's, and the holders with v itself as
# that row are those of the cells where v vanishes at the other pivots. So
# the index costs its incidences and nothing for a subspace that misses
# the point. Each point keeps them as bitsets, bit n for the
# n-th subspace of :func:`enumerate_subspaces`, while the bitsets of all
# points fit in POINT_BITS_LIMIT bits, and as sorted lists of positions
# beyond: a point then lies in few of many subspaces, and a bitset per
# point would cost the whole family for each point.

CODE_TABLE_LIMIT = 1 << 12
POINT_BITS_LIMIT = 1 << 27
# lane widths in bytes that one memoryview cast decodes, on a little-endian
# host (the lanes are laid out little-endian)
_LANE_FORMATS = ({array(f).itemsize: f for f in "BHIQ"}
                 if sys.byteorder == "little" else {})


def vector_code(p: int, column) -> int:
    """The code sum_r column[r] p^r of a vector of F_p^d."""
    code = 0
    for x in reversed(column):
        code = code * p + x % p
    return code


def code_vector(p: int, d: int, code: int) -> list:
    """The vector of F_p^d with the given code, as d ints."""
    out = []
    for _ in range(d):
        code, x = divmod(code, p)
        out.append(x)
    return out


def _barrett(p: int, cols: int):
    """(T, s, mu): the largest lane T = cols (p - 1)^2 of an image row
    before reduction, and the shift s and multiplier mu = ceil(2^s / p),
    2^s > p T, that reduce every lane up to T exactly."""
    top = cols * (p - 1) ** 2
    shift = (p * top).bit_length()
    return top, shift, -(-(1 << shift) // p)


@lru_cache(maxsize=256)
def lane_width(p: int, rows: int, cols: int) -> int:
    """The lane width B in bits of :func:`point_images` for a rows x cols
    matrix over F_p: the least of 8, 16, 32 and 64, or else the least
    multiple of 8, that holds T mu (:func:`_barrett`) and p^rows - 1."""
    top, _, mu = _barrett(p, cols)
    need = max((top * mu).bit_length(), (p ** rows - 1).bit_length())
    for width in (8, 16, 32, 64):
        if need <= width:
            return width
    return -(-need // 8) * 8


def _pack(values, size: int) -> int:
    """The int whose lane n of ``size`` bytes holds values[n]."""
    return int.from_bytes(b"".join(x.to_bytes(size, "little")
                                   for x in values), "little")


@lru_cache(maxsize=32)
def point_lanes(p: int, cols: int, width: int):
    """The packed points of F_p^cols in lanes of ``width`` bits, in the
    order of :func:`incidence_index`: (X, s, mu, LOW, N), X[c] holding
    coordinate c of point n in lane n, s and mu those of :func:`_barrett`,
    LOW the low width - s bits of each of the N lanes. An entry is
    cols + 1 ints of N * width bits, about the size of cols + 1 point
    images: 5 * 156 * 16 bits (1.6 kB) over F_5^4, and 3 * 30012 * 64 bits
    (720 kB) over F_30011^2."""
    _, shift, mu = _barrett(p, cols)
    size, count = width // 8, (p ** cols - 1) // (p - 1)
    coords = []
    for c in range(cols):
        values = []
        for lead in range(cols):  # the points with 1 at lead, 0 before
            n = p ** (cols - lead - 1)
            if lead < c:  # entry c is digit c - lead - 1 of the tail code
                w = p ** (c - lead - 1)
                values += [t // w % p for t in range(n)]
            else:
                values += [int(lead == c)] * n
        coords.append(_pack(values, size))
    low = _pack([(1 << (width - shift)) - 1] * count, size)
    return tuple(coords), shift, mu, low, count


def point_images(m: Mat) -> list:
    """The codes of m @ v for the points v of F_p^cols, in the order of
    :func:`incidence_index`: by leading position, then by the code of the
    entries after it. One pass over the rows of m on the packed points,
    every lane reduced mod p at once, decoded lane by lane."""
    p = m.field.p
    width = lane_width(p, m.rows, m.cols)
    coords, shift, mu, low, count = point_lanes(p, m.cols, width)
    codes = 0
    for row in reversed(m.data):  # codes = sum_r p^r (row r of m @ X)
        y = 0
        for x, coord in zip(row, coords):
            if x:
                y += x * coord
        codes = codes * p + y - p * (y * mu >> shift & low)
    size = width // 8
    raw = codes.to_bytes(count * size, "little")
    fmt = _LANE_FORMATS.get(size)
    if fmt is not None:
        return memoryview(raw).cast(fmt).tolist()
    return [int.from_bytes(raw[n:n + size], "little")
            for n in range(0, len(raw), size)]


def _bitset(positions, size: int) -> int:
    """The bitset over ``size`` places with the given positions set."""
    marks = bytearray((size + 7) >> 3)
    for n in positions:
        marks[n >> 3] |= 1 << (n & 7)
    return int.from_bytes(marks, "little")


def _cell_table(p: int, d: int):
    """The cells of :func:`_cells` by the leading position l of the points
    their subspaces may hold, that is, by each pivot column l.

    The free entry at place j of a cell's m weighs p^(m - 1 - j) in the
    subspace's position within the cell. Under l a cell is its first
    position; per column c with free entries, the terms (pivot column,
    weight) of those in rows other than the row of pivot l, and the weight
    of the one in that row, 0 if it has none; and its other pivot columns.
    A point v with leading position l lies in the subspace with reduced
    echelon rows r_j exactly when v = sum_j v[pc_j] r_j, so, v being 1 at
    l, the row of pivot l is v - sum_{j != l} v[pc_j] r_j: its entry in
    column c is (v[c] - sum v[pc] x) mod p over the terms' entries x, which
    run over F_p."""
    by_lead, start = [[] for _ in range(d)], 0
    for pivots, free_pos in _cells(d):
        m = len(free_pos)
        weights = [p ** (m - 1 - j) for j in range(m)]
        entries = list(zip(free_pos, weights))
        for r, lead in enumerate(pivots):
            columns = [(c, [(pivots[s], w) for (s, e), w in entries
                            if e == c and s != r],
                        sum(w for (s, e), w in entries if e == c and s == r))
                       for c in dict.fromkeys(c for _, c in free_pos)]
            by_lead[lead].append((start, columns,
                                  [pc for pc in pivots if pc != lead]))
        start += p ** m
    return by_lead


def _point_incidences(p: int, cells, v) -> tuple:
    """The positions in the family of the subspaces that hold the point v,
    and of those whose reduced echelon basis has v as a row, from the cells
    of v's leading position l: in each, the other rows' free entries run
    over F_p and fix the row of pivot l column by column by the identity of
    :func:`_cell_table`. Where v vanishes at the other pivots, that row is
    v itself in every holder, and nowhere else is v a basis row."""
    held, based = [], []
    for start, columns, others in cells:
        offsets = [start]
        for c, terms, own in columns:
            part = [(0, v[c])]  # (offset, v[c] - sum v[pc] x)
            for pc, w in terms:
                a = v[pc]
                part = [(o + w * x, t - a * x) for o, t in part
                        for x in range(p)]
            part = [o + own * (t % p) for o, t in part]
            offsets = [o + x for o in offsets for x in part]
        held += offsets
        if not any(map(v.__getitem__, others)):
            based += offsets
    return held, based


def _to_point(p: int, d: int, code: int):
    """The index of the point of F_p^d on the line of the vector with
    ``code``, or None for the zero vector: the vector is scaled to its
    point. The points with leading position l start at index
    sum p^(d - 1 - k) over k < l, and run by the code of their entries
    after l."""
    if not code:
        return None
    at, lead = 0, 0
    while not code % p:
        code //= p
        at += p ** (d - 1 - lead)
        lead += 1
    code, a = divmod(code, p)
    if a != 1:
        scale, tail, w = pow(a, -1, p), 0, 1
        while code:
            code, x = divmod(code, p)
            tail += x * scale % p * w
            w *= p
        code = tail
    return at + code


class Incidence:
    """The points of F_p^d against its subspace family.

    ``size`` counts the subspaces, in the order of
    :func:`enumerate_subspaces`; bit n of a bitset stands for the n-th, and
    ``by_dim[k]`` is the bitset of those of dimension k. ``codes[i]`` is
    the code of point i; the points run by leading position, then by the
    code of their entries after it, as in :func:`point_images`, and
    ``locate(code)`` is the index of the point on the line of the vector
    with that code, None for the zero vector.

    For each point the index keeps the subspaces that hold it, and those
    whose reduced echelon basis has it as a row: a subspace is invariant
    under a map, or lies in a kernel, when the images of its basis rows
    are. Both come from one identity: v lies in the subspace with reduced
    echelon rows r_j exactly when v = sum_j v[pc_j] r_j. Both are bitsets
    while they fit in POINT_BITS_LIMIT bits, and
    sorted lists of positions otherwise; the queries answer in bitsets
    either way.
    """

    __slots__ = ("p", "d", "size", "codes", "by_dim", "_held", "_based",
                 "_as_bits", "locate")

    def __init__(self, p, d, codes, held, based, counts, as_bits):
        self.p, self.d, self.codes = p, d, codes
        self._held, self._based, self._as_bits = held, based, as_bits
        self.size, by_dim = 0, []
        for count in counts:
            by_dim.append(((1 << count) - 1) << self.size)
            self.size += count
        self.by_dim = tuple(by_dim)
        # locate is a lookup in a table of every nonzero code while there
        # are few codes; neither form holds a reference back to the index
        if p ** d <= CODE_TABLE_LIMIT:
            self.locate = {
                vector_code(p, [a * x for x in code_vector(p, d, c)]): i
                for i, c in enumerate(codes) for a in range(1, p)}.get
        else:
            self.locate = partial(_to_point, p, d)

    def holding(self, i: int) -> int:
        """The bitset of the subspaces that hold point i."""
        held = self._held[i]
        return held if self._as_bits else _bitset(held, self.size)

    def holding_all(self, points) -> int:
        """The bitset of the subspaces that hold all of the points."""
        acc = (1 << self.size) - 1
        for i in points:
            acc &= self.holding(i)
        return acc

    def based_on_any(self, points) -> int:
        """The bitset of the subspaces with a basis row among the points."""
        if not self._as_bits:
            return _bitset(chain.from_iterable(map(self._based.__getitem__,
                                                   points)), self.size)
        acc = 0
        for i in points:
            acc |= self._based[i]
        return acc

    def breaking(self, groups) -> int:
        """The bitset of the subspaces with a basis row among the points
        ``groups[q]`` that do not hold the point q, for some q."""
        if self._as_bits:
            acc = 0
            for q, points in groups.items():
                acc |= self.based_on_any(points) & ~self._held[q]
            return acc
        out = []
        for q, points in groups.items():
            held = self._held[q]
            for c in points:
                for n in self._based[c]:
                    at = bisect_left(held, n)
                    if at == len(held) or held[at] != n:
                        out.append(n)
        return _bitset(out, self.size)


@lru_cache(maxsize=32)
def incidence_index(p: int, d: int) -> Incidence:
    """The incidence index of F_p^d, built point by point by
    :func:`_point_incidences` over the cells of the family."""
    cells = _cell_table(p, d)
    counts = [0] * (d + 1)  # the family runs by dimension
    for pivots, free_pos in _cells(d):
        counts[len(pivots)] += p ** len(free_pos)
    size = sum(counts)
    # the points by leading position l: 1 at l, 0 before, anything after
    codes = tuple(p ** l + p ** (l + 1) * t
                  for l in range(d) for t in range(p ** (d - l - 1)))
    as_bits = len(codes) * size <= POINT_BITS_LIMIT
    held, based = [], []
    kind = "i" if size < 1 << 31 else "q"  # a type code wide enough
    for l in range(d):
        for t in range(p ** (d - l - 1)):
            v = [0] * l + [1] + code_vector(p, d - l - 1, t)
            h, b = _point_incidences(p, cells[l], v)
            if as_bits:
                held.append(_bitset(h, size))
                based.append(_bitset(b, size))
            else:
                held.append(array(kind, sorted(h)))
                based.append(array(kind, b))
    return Incidence(p, d, codes, tuple(held), tuple(based), counts, as_bits)


def tensor_bits(sizes, parts) -> int:
    """The bitset of the graded tuples whose member at each vertex n lies in
    the bitset ``parts[n]`` over the ``sizes[n]`` subspaces there.

    A graded tuple is numbered in the product of the vertex families in
    lexicographic order, the first vertex major, so each set bit of the
    tuples over the vertices so far opens a block holding the next part."""
    acc, width = parts[0], sizes[0]
    for bits, size in zip(parts[1:], sizes[1:]):
        if acc:
            acc = int(format(acc, f"0{width}b").translate(
                {48: "0" * size, 49: format(bits, f"0{size}b")}), 2)
        width *= size
    return acc


@lru_cache(maxsize=32)
def dimension_masks(p: int, dims: tuple) -> tuple:
    """The graded tuples of subspaces of the F_p^dims[n] by dimension: the
    pairs (d, the bitset of :func:`tensor_bits` of the tuples of dimension
    vector d), d running over ``itertools.product`` of range(dims[n] + 1).

    The masks of one entry are disjoint and cover the graded tuples, so an
    entry holds as many bits as there are tuples, which the brute-force
    oracle's ``limit`` caps: the 32 entries hold at most 32 * 10^6 bits,
    4 MB, under the default limit of :mod:`quivar.reps`, and 32 * limit
    bits under a larger one."""
    index = [incidence_index(p, n) for n in dims]
    sizes = [ix.size for ix in index]
    return tuple((d, tensor_bits(sizes, [ix.by_dim[k]
                                         for ix, k in zip(index, d)]))
                 for d in product(*(range(n + 1) for n in dims)))


@lru_cache(maxsize=32)
def gaussian_binomial_total(p: int, d: int) -> int:
    """Total number of subspaces of F_p^d (sum of Gaussian binomials), kept
    per (p, d) like the family of :func:`enumerate_subspaces`: the limit
    check of every brute-force call reads it before the family is built."""
    return sum(q_binomial(d, k, p) for k in range(d + 1))
