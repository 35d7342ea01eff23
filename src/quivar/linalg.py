"""Dense exact matrices over the fields of :mod:`quivar.fields`.

Everything is small and dense on purpose: the objects of interest are
desk-scale, and dense Gauss-Jordan over an exact field is auditable.
Matrices are immutable after construction; all operations return new ones.
Elimination lives in :class:`Echelon`, under RREF, determinants, column
spans, the spin of :mod:`quivar.reps` and the staircase of :mod:`quivar.adhm`;
only the brute-force oracle's packed F_p code keeps its own.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations, product

from .fields import Field, FieldError, PrimeField


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
        if field.kind == "prime":
            p = field.p
            for r in data:
                for x in r:
                    if type(x) is not int or not 0 <= x < p:
                        raise FieldError(f"entry {x!r} is not an element of "
                                         f"F_{p}: expected an int in "
                                         f"0..{p - 1}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(r) for r in data)

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
        return Mat(field, [[field.from_int(x) for x in r] for r in data],
                   len(data), len(data[0]) if data else 0)

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
        dot = self.field.dot
        cols = tuple(zip(*other.data)) if other.rows else ((),) * other.cols
        return Mat._of(self.field,
                       tuple(tuple([dot(r, c) for c in cols]) for r in self.data),
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

    def det(self):
        """The rows added to an :class:`Echelon` in order are row operations
        that end at a permutation matrix, so the determinant is the product
        of the leading entries times the sign of row -> pivot, or 0."""
        if self.rows != self.cols:
            raise FieldError("determinant of non-square matrix")
        f = self.field
        ech = Echelon(f, self.cols)
        det = f.one()
        pivots = []
        for row in self.data:
            added = ech.add(row)
            if added is None:
                return f.zero()
            pivot, lead = added
            det = f.mul(det, lead)
            pivots.append(pivot)
        inversions = sum(a > b for a, b in combinations(pivots, 2))
        return f.neg(det) if inversions % 2 else det


class Echelon:
    """A reduced echelon basis {pivot: row} of F^n, grown one vector at a
    time; each row is a list, 1 at its pivot and 0 at the other pivots.
    Every row update is one call to the field's ``row_sub`` or
    ``row_scale``, which normalise each changed entry once."""

    __slots__ = ("field", "n", "rows", "_is_zero", "_row_sub", "_row_scale",
                 "_inv")

    def __init__(self, field: Field, n: int):
        self.field, self.n, self.rows = field, n, {}
        self._is_zero, self._row_sub, self._row_scale, self._inv = (
            field.is_zero, field.row_sub, field.row_scale, field.inv)

    @classmethod
    def of(cls, field: Field, n: int, vectors):
        """The basis of the span of ``vectors``; stops once it is F^n."""
        ech = cls(field, n)
        for vec in vectors:
            if len(ech.rows) == n:
                break
            ech.add(vec)
        return ech

    def add(self, vec):
        """Reduce ``vec`` once against the rows. Return None if it lies in
        their span; else normalise it, clear its pivot from the other rows,
        store it and return (pivot, leading entry before normalising)."""
        is_zero, row_sub = self._is_zero, self._row_sub
        rows = self.rows
        for pc, row in rows.items():
            c = vec[pc]
            if not is_zero(c):
                vec = row_sub(vec, c, row)
        for pivot, lead in enumerate(vec):
            if not is_zero(lead):
                break
        else:
            return None
        vec = self._row_scale(self._inv(lead), vec)
        for pc, row in rows.items():
            c = row[pivot]
            if not is_zero(c):
                rows[pc] = row_sub(row, c, vec)
        rows[pivot] = vec
        return pivot, lead

    def column_basis(self) -> Mat:
        """The rows in pivot order as columns, as :func:`col_span` gives."""
        cols = [self.rows[pc] for pc in sorted(self.rows)]
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


def _echelon_rows(p: int, d: int):
    """The reduced row-echelon bases of all subspaces of F_p^d, as lists of
    int rows: by dimension, then pivot columns, then free entries."""
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            free_pos = []
            for r, pc in enumerate(pivots):
                for c in range(pc + 1, d):
                    if c not in pivots:
                        free_pos.append((r, c))
            for vals in product(range(p), repeat=len(free_pos)):
                rows = [[0] * d for _ in range(k)]
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
    return tuple(Mat.from_ints(field, rows).transpose() if rows else
                 Mat.zeros(field, d, 0) for rows in _echelon_rows(p, d))


# -- packed F_p vectors ------------------------------------------------
# A vector v of F_p^d is packed as its code sum_r v[r] p^r in 0..p^d - 1.
# While the point space is small (p^d <= POINT_MASK_LIMIT) a subspace also
# carries the bitmask of the codes of its points and a matrix acts by a
# table on all codes, so membership is a shift; on a larger space a code is
# tested digit by digit against the echelon basis and a matrix acts only on
# the codes asked for. No work then grows with p^d beyond the small case, so
# the subspace count alone bounds it.

POINT_MASK_LIMIT = 1 << 12


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


def _code_table(p: int, data, rows: int, cols: int):
    """Entry c is the code of data @ v, for the vector v of F_p^cols with
    code c; built one row of the product at a time."""
    out = [0] * p ** cols
    for r in range(rows):
        vals = [0]  # row r of data @ v for the codes v seen so far
        for c in range(cols):
            x = data[r][c] % p
            vals = [(y + a * x) % p for a in range(p) for y in vals]
        w = p ** r
        out = [o + w * y for o, y in zip(out, vals)]
    return out


@lru_cache(maxsize=32)
def subspace_points(p: int, d: int):
    """The subspaces of :func:`enumerate_subspaces` in the same order, each
    packed as ``(basis_codes, points)``: the codes of its basis columns, and
    what :func:`point_test` reads membership from. ``points`` is the bitmask
    of the codes of all its points when p^d <= POINT_MASK_LIMIT, and its
    echelon basis as (pivot, basis vector) pairs otherwise."""
    small = p ** d <= POINT_MASK_LIMIT
    out = []
    for rows in _echelon_rows(p, d):
        basis = tuple(vector_code(p, row) for row in rows)
        if small:
            span = _code_table(p, [[row[r] for row in rows] for r in range(d)],
                               d, len(rows))
            bits = bytearray((p ** d + 7) >> 3)
            for code in span:
                bits[code >> 3] |= 1 << (code & 7)
            points = int.from_bytes(bits, "little")
        else:
            points = tuple((row.index(1), tuple(row)) for row in rows)
        out.append((basis, points))
    return tuple(out)


def _in_mask(mask: int, code: int) -> int:
    return (mask >> code) & 1


def _in_echelon(p: int, d: int, echelon, code: int) -> bool:
    # v lies in the span exactly when it is the combination of the echelon
    # basis with its own pivot entries as coefficients
    v = code_vector(p, d, code)
    w = [0] * d
    for pivot, row in echelon:
        a = v[pivot]
        if a:
            w = [(x + a * y) % p for x, y in zip(w, row)]
    return w == v


def point_test(p: int, d: int):
    """``test(points, code)``: whether the vector of F_p^d with ``code`` lies
    in a subspace packed by :func:`subspace_points` with ``points``."""
    if p ** d <= POINT_MASK_LIMIT:
        return _in_mask
    return partial(_in_echelon, p, d)


def code_map(m: Mat, codes=()):
    """The action of a matrix over F_p on codes, defined at least on
    ``codes``: the code of m @ v at the code of v. A list over all codes
    when p^cols <= POINT_MASK_LIMIT, else a dict over ``codes``."""
    p = m.field.p
    if p ** m.cols <= POINT_MASK_LIMIT:
        return _code_table(p, m.data, m.rows, m.cols)
    out = {}
    for code in codes:
        if code not in out:
            v = code_vector(p, m.cols, code)
            out[code] = vector_code(p, [sum(a * x for a, x in zip(row, v))
                                        for row in m.data])
    return out


def gaussian_binomial_total(p: int, d: int) -> int:
    """Total number of subspaces of F_p^d (sum of Gaussian binomials)."""
    total = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (d - i) - 1
            den *= p ** (k - i) - 1
        total += num // den
    return total
