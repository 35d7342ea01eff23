import random
import time
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quivar import linalg
from quivar.fields import CyclotomicField, FieldError, PrimeField, QQ
from quivar.linalg import (CODE_TABLE_LIMIT, Echelon, Mat, annihilator_rows,
                           col_span, enumerate_subspaces,
                           gaussian_binomial_total, incidence_index,
                           point_images, preimage, subspace_contains,
                           subspace_intersect, subspace_sum)


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


@pytest.mark.parametrize("entry", [0.5, 2.0, True, "1/2", None])
def test_rational_entries_other_than_int_or_fraction_refused(entry):
    # a float entry made det() of [[0.5, 1], [2, 3]] the float -0.5
    with pytest.raises(FieldError, match="element of Q: expected an int or "
                                         "a Fraction"):
        Mat(QQ, [[entry, 1], [2, 3]])
    assert Mat(QQ, [[Fraction(1, 2), 1], [2, 3]]).det() == Fraction(-1, 2)


@pytest.mark.parametrize("entry", [1, (1, 2), (2, 0, 2), (1, 0, 0),
                                   (1, 0, -1), (True, 0, 1)],
                         ids=["int", "short", "not lowest", "den 0",
                              "den < 0", "bool"])
def test_mat_checks_every_entry_through_its_field(entry):
    # over Q(zeta_3) an element is a tuple (n_0, n_1, den) in lowest terms
    # with den > 0; Mat once took any entry there, so that an int entry died
    # later in dot and (2, 0, 2) compared unequal to the identity's 1
    z3 = CyclotomicField(3)
    with pytest.raises(FieldError) as err:
        Mat(z3, [[z3.one(), entry]])
    assert str(err.value) == (f"entry {entry!r} is not an element of "
                              f"Q(zeta_3): expected a tuple of 3 ints in "
                              f"lowest terms over a denominator > 0")
    assert Mat(z3, [[(1, 2, 3), (0, 0, 1)]]).data == (((1, 2, 3), (0, 0, 1)),)
    # the messages over Q and F_p are those of the checks Mat made itself
    for field, bad, message in (
            (QQ, 0.5, "entry 0.5 is not an element of Q: expected an int or "
                      "a Fraction"),
            (PrimeField(5), 5, "entry 5 is not an element of F_5: expected "
                               "an int in 0..4")):
        with pytest.raises(FieldError) as err:
            Mat(field, [[field.one(), bad]])
        assert str(err.value) == message


def test_rational_entries_are_canonical():
    # an integral Fraction entry is stored as its int
    m = Mat(QQ, [[Fraction(4, 2), Fraction(1, 2)], [Fraction(0), 3]])
    assert [list(map(type, r)) for r in m.data] == [[int, Fraction],
                                                    [int, int]]
    assert m.data == ((2, Fraction(1, 2)), (0, 3))


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
    # the count the limit check reads, kept per (p, d)
    for p, d in [(2, 3), (3, 2), (5, 4), (2, 0)]:
        assert gaussian_binomial_total(p, d) == len(enumerate_subspaces(p, d))
    # every enumerated subspace is in canonical column-span form
    for s in enumerate_subspaces(2, 2):
        assert s == col_span(s)


def test_enumerate_subspaces_is_one_cached_tuple():
    family = enumerate_subspaces(3, 2)
    assert isinstance(family, tuple)
    assert enumerate_subspaces(3, 2) is family
    assert incidence_index(3, 2) is incidence_index(3, 2)


def code(p, column):
    return sum(int(x) * p ** r for r, x in enumerate(column))


def vector(f, d, c):
    return Mat.column(f, [(c // f.p ** r) % f.p for r in range(d)])


# (2, 3) .. (3, 4) lie within CODE_TABLE_LIMIT, where every nonzero code
# is looked up directly; (67, 2) and (17, 3) lie past it, where a code is
# scaled to its point first. In (2, 5) and (3, 4) a column of a cell holds
# up to three free entries besides the one of the point's row
@pytest.mark.parametrize("p, d", [(2, 0), (2, 3), (3, 2), (5, 2), (2, 5),
                                  (3, 4), (67, 2), (17, 3)])
def test_subspace_points_follow_the_family(p, d, monkeypatch):
    f = PrimeField(p)
    rng = random.Random(p * 10 + d)
    family = enumerate_subspaces(p, d)
    index = incidence_index(p, d)
    assert index.size == len(family)
    # the points: one nonzero vector with first nonzero entry 1 per line
    cols = [[(c // p ** r) % p for r in range(d)] for c in index.codes]
    assert len(cols) == (p ** d - 1) // (p - 1)
    assert all(next(x for x in col if x) == 1 for col in cols)
    # the subspaces that hold each point, as subspace_contains decides: the
    # annihilator of s kills the point. All points at once by one product
    # per subspace, a sample one by one. And those whose canonical basis,
    # the reduced echelon rows, has the point as a column
    grid = Mat(f, list(zip(*cols)), d, len(cols))
    members, rows = [0] * len(cols), [0] * len(cols)
    for n, s in enumerate(family):
        assert index.by_dim[s.cols] >> n & 1
        killed = annihilator_rows(s) @ grid
        for i in range(len(cols)):
            if all(row[i] == 0 for row in killed.data):
                members[i] |= 1 << n
            if list(cols[i]) in [list(c) for c in zip(*s.data)]:
                rows[i] |= 1 << n
    for i in range(0, len(cols), max(1, len(cols) // 12)):
        point = Mat.column(f, cols[i])
        assert members[i] == sum(1 << n for n, s in enumerate(family)
                                 if subspace_contains(s, point))
    assert sum(index.by_dim) == (1 << len(family)) - 1
    # both forms of the index: the points' subspaces as bitsets, and with
    # the bitset budget set to 0 as lists of positions
    for limit in (linalg.POINT_BITS_LIMIT, 0):
        monkeypatch.setattr(linalg, "POINT_BITS_LIMIT", limit)
        incidence_index.cache_clear()
        index = incidence_index(p, d)
        assert [index.holding(i) for i in range(len(cols))] == members
        assert [index.based_on_any([i]) for i in range(len(cols))] == rows
    incidence_index.cache_clear()
    # locate finds the point on the line of any nonzero vector, and None
    # for the zero vector
    assert index.locate(0) is None
    codes = range(1, p ** d) if p ** d <= CODE_TABLE_LIMIT else \
        [rng.randrange(1, p ** d) for _ in range(40)]
    for c in codes:
        point = Mat.column(f, cols[index.locate(c)])
        assert col_span(vector(f, d, c)) == col_span(point)


def test_the_index_grows_with_its_incidences():
    # F_11617^2, the first plane past the bitset budget: 11618 points and
    # 11620 subspaces, each point in two. Bitsets per point over the
    # family, of holders and of basis rows, would take 2 * 11618 * 11620
    # bits, about 34 MB; the lists of positions take a few
    incidence_index.cache_clear()
    tracemalloc.start()
    try:
        index = incidence_index(11617, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        incidence_index.cache_clear()
    # (1, 5) lies on its line and on the whole plane; it is a basis row of
    # its line only
    assert bin(index.holding(5)).count("1") == 2
    assert bin(index.based_on_any([5])).count("1") == 1
    assert peak < 12 * 2 ** 20


# the images of the points only, in the index's order of the points, at
# every lane width the kernel picks: 8 bits for (3, 2, 2) .. (2, 0, 3), 16
# for (5, 1, 3) and (5, 0, 2), 32 for (67, 2, 1) .. (17, 3, 3), 64 for
# (30011, 2, 2), and wider lanes read one by one for (1000003, 2, 1) and
# (30011, 5, 2); (2, 2, 0) has no points at all
POINT_IMAGE_CASES = [(3, 2, 2), (5, 1, 3), (2, 3, 2), (5, 0, 2), (67, 2, 1),
                     (67, 2, 2), (67, 1, 2), (17, 3, 3), (2, 8, 4), (2, 0, 3),
                     (2, 2, 0), (30011, 2, 2), (1000003, 2, 1),
                     (30011, 5, 2)]


def test_point_image_cases_cover_every_lane_width():
    widths = {linalg.lane_width(*case) for case in POINT_IMAGE_CASES}
    assert {8, 16, 32, 64} <= widths
    assert max(widths) > 64


@pytest.mark.parametrize("p, rows, cols", POINT_IMAGE_CASES)
def test_point_images_map_the_points_of_the_index(p, rows, cols):
    f = PrimeField(p)
    rng = random.Random(p * 13 + cols)
    src = incidence_index(p, cols)
    # every point, or past 3000 points the first and last 50 lanes and 100
    # more at random
    n = len(src.codes)
    sample = range(n) if n <= 3000 else sorted(
        {*range(50), *range(n - 50, n), *rng.sample(range(n), 100)})
    # the largest lanes are those of the matrix of p - 1 entries
    top = Mat(f, [[p - 1] * cols for _ in range(rows)], rows, cols)
    for m in (rand_mat(f, rows, cols, rng), Mat.zeros(f, rows, cols), top):
        images = point_images(m)
        assert len(images) == n
        for at in sample:
            c = src.codes[at]
            want = (m @ vector(f, cols, c)).transpose().data[0] if rows else ()
            assert images[at] == code(p, want)


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
    return pivot


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
    assert ech.add([0, 2, 4]) == 1
    assert ech.add([0, 3, 1]) is None  # 4 * (0, 2, 4) mod 5
    assert ech.add([3, 1, 0]) == 0
    assert ech.rows == {0: [1, 0, 1], 1: [0, 1, 2]}
    assert ech.column_basis() == col_span(Mat.from_ints(f, [[0, 3], [2, 1],
                                                             [4, 0]]))


@pytest.mark.parametrize("name", ["Q", "F7", "Q(zeta5)"])
def test_leading_minors_are_the_leibniz_minors(name):
    f = REFERENCE_FIELDS[name]
    rng = random.Random(name + " leading minors")
    for n in range(7):
        for _ in range(3):
            m = degenerate_mat(f, n, n, rng)
            assert m.leading_minors() == [
                leibniz_det(m.submatrix(range(k), range(k)))
                for k in range(1, n + 1)]
    for method in (Mat.leading_minors, Mat.char_poly, Mat.det):
        with pytest.raises(FieldError):
            method(Mat.zeros(f, 2, 3))


def test_cyclotomic_det_takes_no_inverse():
    # an elimination inverts each pivot, which over Q(zeta_37) with 6-digit
    # numerators took seconds for this 3 x 3 determinant
    f = CyclotomicField(37)
    rng = random.Random("Q(zeta37) det")
    m = Mat(f, [[f.from_coeffs([Fraction(rng.randint(-999999, 999999),
                                         rng.randint(1, 9))
                                for _ in range(36)]) for _ in range(3)]
                for _ in range(3)])
    t0 = time.perf_counter()
    det = m.det()
    assert time.perf_counter() - t0 < 0.1
    assert det == leibniz_det(m)


# -- Q beyond small ints -----------------------------------------------
# QQ.random gives small ints only; these matrices mix Fraction entries,
# entries near +-10^30 and zero, repeated and combined rows.

def rational_entry(rng):
    roll = rng.random()
    if roll < 0.2:
        return 0
    if roll < 0.45:
        return rng.randint(-9, 9)
    if roll < 0.75:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    big = rng.choice((1, -1)) * 10 ** 30 + rng.randint(-5, 5)
    return big if roll < 0.85 else Fraction(big, rng.randint(2, 7))


def rational_mat(rows, cols, rng):
    data = [[rational_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for r in range(rows):
        roll = rng.random()
        if roll < 0.15:
            data[r] = [0] * cols
        elif roll < 0.3 and r:
            data[r] = list(data[rng.randrange(r)])
        elif roll < 0.45 and r > 1:
            a, b = rng.sample(range(r), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            data[r] = [x + c * y for x, y in zip(data[a], data[b])]
    return Mat(QQ, data, rows, cols)


def is_canonical(x):
    """An element of Q in canonical form: an int exactly when integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def fraction_rref(data, cols):
    """(pivots, rows) of the RREF, by column-pivot Gauss-Jordan on
    Fractions."""
    a = [[Fraction(x) for x in r] for r in data]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        lead = a[r][c]
        a[r] = [x / lead for x in a[r]]
        for i in range(len(a)):
            factor = a[i][c]
            if i != r and factor:
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots, a


def test_rational_echelon_matches_the_per_entry_loop_on_fraction_rows():
    rng = random.Random("Q fractions per entry")
    for _ in range(60):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        m = rational_mat(rows, cols, rng)
        ech, ref = Echelon(QQ, cols), {}
        for row in m.data:
            assert ech.add(row) == per_entry_echelon_add(QQ, ref, row)
            assert repr(ech.rows) == repr(ref)
            assert ech.add(row) is None  # now in the span


def test_rational_echelon_stores_primitive_integer_rows():
    rng = random.Random("Q primitive rows")
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        ech = Echelon.of(QQ, cols, rational_mat(rows, cols, rng).data)
        for pc, row in ech.stored.items():
            assert {type(x) for x in row} == {int}
            assert gcd(*row) == 1 and row[pc] > 0
            assert all(row[other] == 0 for other in ech.stored if other != pc)
            assert ech.rows[pc] == [Fraction(x, row[pc]) for x in row]
    f = PrimeField(7)
    ech = Echelon.of(f, 3, [[0, 3, 5], [2, 4, 6]])
    assert ech.stored == ech.rows == {1: [0, 1, 4], 0: [1, 0, 2]}


def test_rational_det_is_the_leibniz_sum_on_fraction_rows():
    rng = random.Random("Q fractions leibniz")
    for n in range(5):
        for _ in range(6):
            m = rational_mat(n, n, rng)
            det = m.det()
            assert det == leibniz_det(m) and is_canonical(det)


def test_rational_elimination_matches_fractions():
    rng = random.Random("Q fractions reference")
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = rational_mat(rows, cols, rng)
        pivots, red = fraction_rref(m.data, cols)
        rank, got_pivots, got = m.rref()
        assert (rank, got_pivots) == (len(pivots), pivots)
        assert got.data == tuple(map(tuple, red))
        kernel = m.kernel_basis()
        expect = []
        for fc in (c for c in range(cols) if c not in pivots):
            v = [Fraction(int(c == fc)) for c in range(cols)]
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][fc]
            expect.append(v)
        assert kernel.data == (tuple(zip(*expect)) if expect else
                               ((),) * cols)
        b = rational_mat(rows, rng.randint(1, 2), rng)
        aug_pivots, aug = fraction_rref([r + s for r, s in
                                         zip(m.data, b.data)], cols + b.cols)
        x = m.solve(b)
        if any(pc >= cols for pc in aug_pivots):
            assert x is None
        else:
            sol = [[0] * b.cols for _ in range(cols)]
            for r, pc in enumerate(aug_pivots):
                sol[pc] = aug[r][cols:]
            assert x.data == tuple(map(tuple, sol))
            assert m @ x == b
        t_pivots, t_red = fraction_rref(m.transpose().data, rows)
        span = col_span(m)
        assert span.data == (tuple(zip(*t_red[:len(t_pivots)])) if t_pivots
                             else ((),) * rows)
        for out in (got, kernel, span) + ((x,) if x is not None else ()):
            assert all(map(is_canonical, (e for r in out.data for e in r)))


def test_rational_echelon_builds_a_fraction_per_row_at_most(monkeypatch):
    # a rank-6 integer matrix whose pivots are not units: the integer rows
    # take every update in ints, and only a returned lead may be a Fraction
    rows = [[3, 1, 4, 1, 5, 9, 2], [6, 5, 3, 5, 8, 9, 7],
            [9, 3, 2, 3, 8, 4, 6], [2, 6, 4, 3, 3, 8, 3],
            [2, 7, 9, 5, 0, 2, 8], [8, 4, 1, 9, 7, 1, 6]]
    rows.append([2 * a - 5 * b for a, b in zip(rows[0], rows[3])])
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    ech = Echelon.of(QQ, 7, rows)
    count = len(built)
    monkeypatch.undo()
    assert count <= len(rows)
    assert len(ech.rows) == 6
    pivots, red = fraction_rref(rows, 7)
    assert ech.rows == dict(zip(pivots, red))
