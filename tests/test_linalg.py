import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from quivar.fields import CyclotomicField, FieldError, PrimeField, QQ
from quivar.linalg import (POINT_MASK_LIMIT, Echelon, Mat, code_map, col_span,
                           enumerate_subspaces, gaussian_binomial_total,
                           point_test, preimage, subspace_contains,
                           subspace_intersect, subspace_points, subspace_sum)


def rand_mat(field, rows, cols, rng):
    return Mat(field, [[field.random(rng, 4) for _ in range(cols)]
                       for _ in range(rows)], rows, cols)


def test_rref_rank_and_pivots():
    m = Mat.from_ints(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    rank, pivots, red = m.rref()
    assert rank == 2
    assert pivots == [0, 1]
    assert red.data[0] == (Fraction(1), Fraction(0), Fraction(1))


def test_kernel_annihilates():
    rng = random.Random(7)
    for _ in range(25):
        m = rand_mat(QQ, rng.randint(1, 4), rng.randint(1, 4), rng)
        ker = m.kernel_basis()
        assert (m @ ker).is_zero()
        rank, _, _ = m.rref()
        assert rank + ker.cols == m.cols


def test_solve_consistent_and_inconsistent():
    a = Mat.from_ints(QQ, [[1, 1], [0, 1]])
    b = Mat.from_ints(QQ, [[3], [1]])
    x = a.solve(b)
    assert a @ x == b
    sing = Mat.from_ints(QQ, [[1, 1], [1, 1]])
    assert sing.solve(Mat.from_ints(QQ, [[0], [1]])) is None


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = rand_mat(QQ, n, n, rng)
        b = rand_mat(QQ, n, n, rng)
        assert (a @ b).det() == a.det() * b.det()


def test_det_prime_field():
    f3 = PrimeField(3)
    m = Mat.from_ints(f3, [[1, 2], [2, 2]])
    assert m.det() == (1 * 2 - 2 * 2) % 3


@pytest.mark.parametrize("data", [[[5, 1], [0, 0]], [[6, 0], [0, 1]],
                                  [[-1, 0], [0, 1]], [[Fraction(1), 0], [0, 1]]])
def test_prime_field_entries_outside_0_to_p_refused(data):
    # unreduced entries made rank() raise ZeroDivisionError on [[5, 1],
    # [0, 0]] and gave det [[6, 0], [0, 1]] = 1 by accident
    f5 = PrimeField(5)
    with pytest.raises(FieldError, match=r"F_5: expected an int in 0\.\.4"):
        Mat(f5, data)
    # from_ints reduces mod p, so the same rows are accepted there
    ints = [[int(x) for x in r] for r in data]
    assert Mat.from_ints(f5, ints).data == \
        tuple(tuple(x % 5 for x in r) for r in ints)


@pytest.mark.parametrize("f", [QQ, PrimeField(5), CyclotomicField(5)],
                         ids=["Q", "F5", "Q(zeta_5)"])
def test_sub_is_add_of_the_negative(f):
    rng = random.Random(13)
    for rows, cols in ((0, 2), (2, 0), (2, 3)):
        a, b = rand_mat(f, rows, cols, rng), rand_mat(f, rows, cols, rng)
        assert a - b == a + b.scale(f.from_int(-1))
    with pytest.raises(FieldError, match="shape mismatch in addition"):
        rand_mat(f, 2, 2, rng) - rand_mat(f, 2, 3, rng)


def test_empty_products():
    # inner dimension zero gives the zero matrix, not a ragged one
    a = Mat.zeros(QQ, 3, 0)
    b = Mat.zeros(QQ, 0, 2)
    prod = a @ b
    assert (prod.rows, prod.cols) == (3, 2)
    assert prod.is_zero()


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3),
                                        (3, 2)])
def test_computed_matrices_equal_validated_ones(rows, cols):
    # rref, transpose, submatrix and products skip validation; their
    # results must be the matrices the validating constructor builds
    rng = random.Random(rows * 7 + cols)
    for f in (QQ, PrimeField(5)):
        m = rand_mat(f, rows, cols, rng)
        other = rand_mat(f, cols, 2, rng)
        half = list(range(0, cols, 2))
        for got in (m.rref()[2], m.transpose(), m.submatrix(range(rows), half),
                    m @ other):
            assert type(got.data) is tuple
            assert all(type(r) is tuple and len(r) == got.cols for r in got.data)
            assert len(got.data) == got.rows
            assert got == Mat(f, got.data, got.rows, got.cols)
        assert (m.transpose().rows, m.transpose().cols) == (cols, rows)
        assert m.transpose().transpose() == m


def test_shape_mismatch_raises():
    with pytest.raises(FieldError):
        Mat.from_ints(QQ, [[1, 2]]) @ Mat.from_ints(QQ, [[1, 2]])


def test_subspace_sum_and_intersection_dims():
    f2 = PrimeField(2)
    e1 = col_span(Mat.from_ints(f2, [[1], [0], [0]]))
    e12 = col_span(Mat.from_ints(f2, [[1, 0], [0, 1], [0, 0]]))
    e23 = col_span(Mat.from_ints(f2, [[0, 0], [1, 0], [0, 1]]))
    assert subspace_sum(e12, e23).cols == 3
    inter = subspace_intersect(e12, e23)
    assert inter.cols == 1
    assert subspace_contains(e12, e1)
    assert not subspace_contains(e1, e12)
    # modular identity: dim(U+W) + dim(U cap W) = dim U + dim W
    assert subspace_sum(e12, e23).cols + inter.cols == e12.cols + e23.cols


def test_preimage():
    a = Mat.from_ints(QQ, [[1, 0], [0, 0]])
    s = col_span(Mat.from_ints(QQ, [[1], [0]]))
    pre = preimage(a, s)
    assert pre.cols == 2  # everything maps into span(e1)
    b = Mat.from_ints(QQ, [[0, 1], [1, 0]])
    pre2 = preimage(b, s)
    assert pre2.cols == 1
    assert subspace_contains(s, b @ pre2)


def test_enumerate_subspaces_counts():
    # Gaussian binomial totals: sum over d of [n choose d]_p
    assert len(enumerate_subspaces(2, 2)) == 5
    assert len(enumerate_subspaces(2, 3)) == 16
    assert len(enumerate_subspaces(3, 2)) == 6
    assert gaussian_binomial_total(2, 3) == 16
    # every enumerated subspace is in canonical column-span form
    for s in enumerate_subspaces(2, 2):
        assert s == col_span(s)


def test_enumerate_subspaces_is_one_cached_tuple():
    family = enumerate_subspaces(3, 2)
    assert isinstance(family, tuple)
    assert enumerate_subspaces(3, 2) is family
    assert subspace_points(3, 2) is subspace_points(3, 2)


def code(p, column):
    return sum(int(x) * p ** r for r, x in enumerate(column))


def vector(f, d, c):
    return Mat.column(f, [(c // f.p ** r) % f.p for r in range(d)])


# (2, 3) .. (5, 2) carry point masks; (67, 2) and (17, 3) have more than
# POINT_MASK_LIMIT points and are tested against the echelon basis
@pytest.mark.parametrize("p, d", [(2, 0), (2, 3), (3, 2), (5, 2), (67, 2),
                                  (17, 3)])
def test_subspace_points_follow_the_family(p, d):
    f = PrimeField(p)
    rng = random.Random(p * 10 + d)
    family = enumerate_subspaces(p, d)
    packed = subspace_points(p, d)
    test = point_test(p, d)
    assert len(packed) == len(family)
    assert isinstance(packed[-1][1], int) == (p ** d <= POINT_MASK_LIMIT)
    for s, (basis, points) in zip(family, packed):
        cols = s.transpose().data
        assert basis == tuple(code(p, c) for c in cols)
        # a point is a member exactly when it lies in the subspace: every
        # code of a small space, else the subspace's own points and others
        if p ** d <= POINT_MASK_LIMIT:
            codes = range(p ** d)
        else:
            combos = [s @ Mat.column(f, [rng.randrange(p) for _ in cols])
                      for _ in range(3)]
            codes = [code(p, v.transpose().data[0]) for v in combos] + \
                [rng.randrange(p ** d) for _ in range(6)]
        for c in codes:
            member = subspace_contains(s, vector(f, d, c))
            assert bool(test(points, c)) == member


@pytest.mark.parametrize("p, rows, cols", [(2, 3, 2), (3, 2, 3), (5, 0, 2),
                                           (5, 2, 0), (3, 2, 2), (67, 2, 2),
                                           (67, 0, 2), (101, 14, 1)])
def test_code_map_is_the_product_on_codes(p, rows, cols):
    f = PrimeField(p)
    rng = random.Random(p * 7 + rows)
    m = rand_mat(f, rows, cols, rng)
    codes = [rng.randrange(p ** cols) for _ in range(20)]
    image = code_map(m, codes)
    if p ** cols <= POINT_MASK_LIMIT:
        assert len(image) == p ** cols  # a table over every code
        codes = range(p ** cols)
    else:
        assert set(image) == set(codes)  # only the codes asked for
    for c in codes:
        want = (m @ vector(f, cols, c)).transpose().data[0] if rows else ()
        assert image[c] == code(p, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 3))
def test_rref_idempotent(seed, rows, cols):
    rng = random.Random(seed)
    m = rand_mat(QQ, rows, cols, rng)
    _, _, red = m.rref()
    _, _, red2 = red.rref()
    assert red == red2


# -- reference elimination ---------------------------------------------
# The column-pivot RREF and the forward-elimination determinant that came
# before Echelon, kept as independent references for it.

def reference_rref(m):
    f = m.field
    a = [list(r) for r in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if not f.is_zero(a[i][c])),
                  None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = f.inv(a[r][c])
        a[r] = [f.mul(piv, x) for x in a[r]]
        for i in range(m.rows):
            if i != r and not f.is_zero(a[i][c]):
                factor = a[i][c]
                a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return r, pivots, tuple(map(tuple, a))


def reference_det(m):
    f = m.field
    a = [list(r) for r in m.data]
    n = m.rows
    det = f.one()
    for c in range(n):
        pr = next((i for i in range(c, n) if not f.is_zero(a[i][c])), None)
        if pr is None:
            return f.zero()
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = f.neg(det)
        det = f.mul(det, a[c][c])
        inv = f.inv(a[c][c])
        for i in range(c + 1, n):
            if not f.is_zero(a[i][c]):
                factor = f.mul(a[i][c], inv)
                a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[c])]
    return det


def reference_kernel(m):
    f = m.field
    _, pivots, red = reference_rref(m)
    out = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red[r][fc])
        out.append(v)
    return tuple(zip(*out)) if out else ((),) * m.cols


def reference_col_span(m):
    rank, _, red = reference_rref(m.transpose())
    return tuple(zip(*red[:rank])) if rank else ((),) * m.rows


def leibniz_det(m):
    f = m.field
    total = f.zero()
    for perm in permutations(range(m.rows)):
        term = f.one()
        for r, c in enumerate(perm):
            term = f.mul(term, m.data[r][c])
        odd = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2
        total = f.sub(total, term) if odd else f.add(total, term)
    return total


REFERENCE_FIELDS = {"Q": QQ, **{f"F{p}": PrimeField(p) for p in (2, 3, 5, 7)},
                    **{f"Q(zeta{m})": CyclotomicField(m) for m in (3, 4, 5, 8)}}


def degenerate_mat(f, rows, cols, rng):
    # random rows, some replaced by zero rows, repeats and combinations
    data = [[f.random(rng, 3) for _ in range(cols)] for _ in range(rows)]
    for r in range(rows):
        roll = rng.random()
        if roll < 0.15:
            data[r] = [f.zero()] * cols
        elif roll < 0.3 and r:
            data[r] = list(data[rng.randrange(r)])
        elif roll < 0.45 and r > 1:
            a, b = rng.sample(range(r), 2)
            c = f.random(rng, 2)
            data[r] = [f.add(x, f.mul(c, y)) for x, y in zip(data[a], data[b])]
    return Mat(f, data, rows, cols)


@pytest.mark.parametrize("name", REFERENCE_FIELDS)
def test_elimination_matches_the_reference_bytes(name):
    f = REFERENCE_FIELDS[name]
    rng = random.Random(name)
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = degenerate_mat(f, rows, cols, rng)
        rank, pivots, red = m.rref()
        ref_rank, ref_pivots, ref_red = reference_rref(m)
        assert (rank, pivots) == (ref_rank, ref_pivots)
        assert repr(red.data) == repr(ref_red)
        assert repr(m.kernel_basis().data) == repr(reference_kernel(m))
        assert repr(col_span(m).data) == repr(reference_col_span(m))
        square = m.submatrix(range(min(rows, cols)), range(min(rows, cols)))
        assert repr(square.det()) == repr(reference_det(square))


def per_entry_echelon_add(f, rows, vec):
    """Echelon.add with one field sub and mul per entry, as it ran before
    the fields' row kernels: the same steps on the same {pivot: row}."""
    is_zero, sub, mul = f.is_zero, f.sub, f.mul
    for pc, row in rows.items():
        c = vec[pc]
        if not is_zero(c):
            vec = [sub(a, mul(c, b)) for a, b in zip(vec, row)]
    for pivot, lead in enumerate(vec):
        if not is_zero(lead):
            break
    else:
        return None
    inv = f.inv(lead)
    vec = [mul(inv, a) for a in vec]
    for pc, row in rows.items():
        c = row[pivot]
        if not is_zero(c):
            rows[pc] = [sub(a, mul(c, b)) for a, b in zip(row, vec)]
    rows[pivot] = vec
    return pivot, lead


@pytest.mark.parametrize("name", REFERENCE_FIELDS)
def test_echelon_matches_the_per_entry_loop(name):
    f = REFERENCE_FIELDS[name]
    rng = random.Random(name + " per entry")
    for _ in range(60):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        m = degenerate_mat(f, rows, cols, rng)
        ech, ref = Echelon(f, cols), {}
        for row in m.data:
            assert ech.add(row) == per_entry_echelon_add(f, ref, row)
            assert repr(ech.rows) == repr(ref)
        rank, pivots, red = m.rref()
        assert pivots == sorted(ref)
        assert red.data[:rank] == tuple(tuple(ref[pc]) for pc in pivots)


@pytest.mark.parametrize("name", REFERENCE_FIELDS)
def test_det_is_the_leibniz_sum(name):
    f = REFERENCE_FIELDS[name]
    rng = random.Random(name + " leibniz")
    for n in range(5):
        for _ in range(4):
            m = degenerate_mat(f, n, n, rng)
            assert m.det() == leibniz_det(m)


def test_echelon_add_reports_growth():
    f = PrimeField(5)
    ech = Echelon(f, 3)
    assert ech.add([0, 0, 0]) is None
    assert ech.add([0, 2, 4]) == (1, 2)
    assert ech.add([0, 3, 1]) is None  # 4 * (0, 2, 4) mod 5
    assert ech.add([3, 1, 0]) == (0, 3)
    assert ech.rows == {0: [1, 0, 1], 1: [0, 1, 2]}
    assert ech.column_basis() == col_span(Mat.from_ints(f, [[0, 3], [2, 1],
                                                             [4, 0]]))
