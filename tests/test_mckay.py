import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from quivar.fields import FieldError
from quivar.mckay import (McKayError, _check_work, _euler_phi,
                          binary_dihedral_table, cyclic_table,
                          exceptional_table, identify_affine_ade,
                          mckay_graph_quiver, mckay_quiver, table_by_name,
                          verify_ade)
from quivar.quiver import cartan


def all_tables():
    out = [cyclic_table(n) for n in range(1, 7)]
    out += [binary_dihedral_table(n) for n in (2, 3, 4)]
    out += [exceptional_table(k) for k in ("bt", "bo", "bi")]
    return out


def test_orders_and_degree_sums():
    for t in all_tables():
        assert sum(d * d for d in t.degrees) == t.order
        assert t.degrees[t.trivial_index] == 1


def test_orthogonality():
    for t in all_tables():
        k = len(t.chars)
        for i in range(k):
            for j in range(k):
                assert t.inner(t.chars[i], t.chars[j]) == Fraction(int(i == j))


def test_cyclic_doubles():
    for n in range(2, 7):
        a = mckay_quiver(cyclic_table(n))
        for i in range(n):
            for j in range(n):
                want = int((i - j) % n == 1) + int((j - i) % n == 1)
                if n == 2:
                    want = 2 if i != j else 0
                assert a[i][j] == want


def test_cyclic_one_is_jordan_double():
    # the trivial group sees E as 2 copies of the trivial character
    a = mckay_quiver(cyclic_table(1))
    assert a == [[2]]


def test_expected_types():
    expect = {"cyclic:2": "A~1", "cyclic:3": "A~2", "cyclic:6": "A~5",
              "bd:2": "D~4", "bd:3": "D~5", "bd:4": "D~6",
              "bt": "E~6", "bo": "E~7", "bi": "E~8"}
    for name, kind in expect.items():
        rep = verify_ade(table_by_name(name))
        assert rep["type"] == kind, (name, rep["type"])
        assert rep["kernel_ok"]
        assert rep["trivial_vertex_degree_one"]


def test_delta_vectors():
    assert verify_ade(cyclic_table(4))["delta"] == [1, 1, 1, 1]
    assert sorted(verify_ade(binary_dihedral_table(2))["delta"]) == [1, 1, 1, 1, 2]
    assert sorted(verify_ade(exceptional_table("bi"))["delta"]) == \
        [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_mckay_cartan_matches_quiver_module():
    # C = 2 Id - A computed from characters equals the Cartan matrix of
    # the graph-quiver built from the same table
    for name in ("cyclic:3", "bd:2", "bt"):
        t = table_by_name(name)
        a = mckay_quiver(t)
        q = mckay_graph_quiver(t)
        assert cartan(q) == [[(2 if i == j else 0) - a[i][j]
                              for j in range(len(a))] for i in range(len(a))]


def test_mckay_quiver_result_is_a_copy():
    # the matrix is kept on the table; callers get their own lists
    t = table_by_name("bd:3")
    a = mckay_quiver(t)
    want = [list(r) for r in a]
    ade = verify_ade(t)
    a[0][0] = 99
    a.append([])
    assert mckay_quiver(t) == want
    assert verify_ade(t) == ade == verify_ade(table_by_name("bd:3"))


def test_z2_cartan_example():
    t = cyclic_table(2)
    a = mckay_quiver(t)
    assert [[2 - a[0][0], -a[0][1]], [-a[1][0], 2 - a[1][1]]] == \
        [[2, -2], [-2, 2]]


def test_identify_rejects_non_ade():
    with pytest.raises(McKayError):
        identify_affine_ade([[0, 3], [3, 0]])


def doubled(n, edges):
    """Doubled adjacency matrix: a loop adds 2 on the diagonal."""
    a = [[0] * n for _ in range(n)]
    for i, j in edges:
        if i == j:
            a[i][i] += 2
        else:
            a[i][j] += 1
            a[j][i] += 1
    return a


def path(n):
    return [(k, k + 1) for k in range(n - 1)]


def cycle(n):
    return [(k, (k + 1) % n) for k in range(n)]


def star(*arms):
    """Tree with centre 0 and one path arm per entry, of that many vertices."""
    edges, nxt = [], 1
    for size in arms:
        prev = 0
        for _ in range(size):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt, edges


def d_affine(n):
    """D~(n-1): a central path of n-4 vertices with a fork at each end."""
    m = n - 4
    return path(m) + [(m, 0), (m + 1, 0), (m + 2, m - 1), (m + 3, m - 1)]


# the affine ADE diagrams, as (vertex count, edge list), named by type
AFFINE_CATALOG = {"A~0": (1, [(0, 0)]), "A~1": (2, [(0, 1), (0, 1)])}
AFFINE_CATALOG.update({f"A~{n - 1}": (n, cycle(n)) for n in range(3, 10)})
AFFINE_CATALOG.update({f"D~{n - 1}": (n, d_affine(n)) for n in range(5, 10)})
AFFINE_CATALOG.update({
    "E~6": (7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]),
    "E~7": (8, path(7) + [(3, 7)]),
    "E~8": (9, path(8) + [(2, 8)]),
})


def relabel(a, perm):
    return [[a[perm[i]][perm[j]] for j in range(len(a))] for i in range(len(a))]


@pytest.mark.parametrize("name", sorted(AFFINE_CATALOG))
def test_identify_names_catalog_under_relabelling(name):
    n, edges = AFFINE_CATALOG[name]
    a = doubled(n, edges)
    rng = random.Random(name)
    for _ in range(8):
        perm = list(range(n))
        rng.shuffle(perm)
        assert identify_affine_ade(relabel(a, perm)) == name


NON_AFFINE = {
    "A5": doubled(5, path(5)),
    "D6": doubled(6, path(4) + [(3, 4), (3, 5)]),
    "E6": doubled(*star(1, 2, 2)),
    "E7": doubled(*star(1, 2, 3)),
    "E8": doubled(*star(1, 2, 4)),
    "arms-2-2-3": doubled(*star(2, 2, 3)),
    "arms-1-3-4": doubled(*star(1, 3, 4)),
    "arms-1-2-6": doubled(*star(1, 2, 6)),
    "K_1,5": doubled(*star(1, 1, 1, 1, 1)),
    "cycle-with-chord": doubled(5, cycle(5) + [(0, 2)]),
    "triangle-with-pendant": doubled(4, cycle(3) + [(0, 3)]),
    "path-with-loop": doubled(3, path(3) + [(0, 0)]),
    "quadruple-loop": [[4]],
    "triple-edge": [[0, 3], [3, 0]],
    "asymmetric": [[0, 1, 1], [1, 0, 1], [1, 0, 0]],
    "two-triangles": doubled(6, cycle(3) + [(3, 4), (4, 5), (5, 3)]),
}


@pytest.mark.parametrize("name", sorted(NON_AFFINE))
def test_identify_refuses_non_affine(name):
    with pytest.raises(McKayError):
        identify_affine_ade(NON_AFFINE[name])


def test_corrupted_table_rejected():
    t = exceptional_table("bi")
    # flip one character value: orthogonality must fail validation
    chars = [list(r) for r in t.chars]
    chars[1][2] = t.field.add(chars[1][2], t.field.one())
    with pytest.raises(McKayError):
        replace(t, chars=tuple(tuple(r) for r in chars))


def test_corrupted_chi_e_rejected():
    t = binary_dihedral_table(2)
    e = list(t.chi_e)
    e[0] = t.field.from_int(3)  # degree of E must be 2
    with pytest.raises(McKayError, match="must have degree 2"):
        replace(t, chi_e=tuple(e))


# One defect per McKayError message of `validate` on the table of the
# quaternion group bd:2 (classes 1, a^2, a, b, ab of sizes 1, 1, 2, 2, 2;
# chi_0..chi_3 linear, chi_E = chi_4), listed in the order of the checks.
# Each maps the fields of a table to the fields with the defect.
def _set(fields, key, index, value):
    row = list(fields[key])
    row[index] = value
    return {**fields, key: tuple(row)}


def _permuted(fields):
    # the class of a (size 2) first: the degrees, read in the first
    # column, are then 1, 1, -1, -1, 0, whose squares sum to 4, not 8
    perm = (2, 1, 0, 3, 4)
    return {**fields, "classes": tuple(fields["classes"][c] for c in perm),
            "chars": tuple(tuple(r[c] for c in perm)
                           for r in fields["chars"]),
            "chi_e": tuple(fields["chi_e"][c] for c in perm)}


def _times_zeta(fields, f):
    # zeta_8 chi_1 is orthonormal to the other rows, of degree zeta_8
    return _set(fields, "chars", 1, tuple(f.mul(f.zeta(), x)
                                          for x in fields["chars"][1]))


VALIDATE_DEFECTS = [
    ("class sizes do not sum to the group order",
     lambda fields, f: {**fields, "order": 9}),
    ("number of characters != number of classes",
     lambda fields, f: {**fields, "chars": fields["chars"][:-1]}),
    (r"orthogonality fails at \(1,2\)",
     lambda fields, f: _set(fields, "chars", 2, fields["chars"][1])),
    ("a character degree is not an integer", _times_zeta),
    ("degree squares do not sum to the group order",
     lambda fields, f: _permuted(fields)),
    ("trivial character is not identically 1",
     lambda fields, f: {**fields, "trivial_index": 1}),
    ("distinguished character must have degree 2",
     lambda fields, f: _set(fields, "chi_e", 0, f.from_int(3))),
    ("distinguished character must be real-valued",
     lambda fields, f: _set(fields, "chi_e", 3, f.zeta())),
    # chi_E = (2, 1, 0, 0, 0), with <chi_E, chi_0> = 3/8
    ("distinguished row is not a character",
     lambda fields, f: _set(fields, "chi_e", 1, f.one())),
    # -chi_2 keeps every check before the McKay matrix, and <chi_0, -chi_2
    # chi_E> = 0, but a[2][4] = <-chi_2, chi_E^2> = -1
    (r"multiplicity a\[2\]\[4\] is not a nonnegative integer",
     lambda fields, f: _set(fields, "chars", 2, tuple(
         map(f.neg, fields["chars"][2])))),
]


def _with_defects(*defects):
    t = binary_dihedral_table(2)
    fields = {"classes": t.classes, "chars": t.chars, "chi_e": t.chi_e,
              "order": t.order, "trivial_index": t.trivial_index}
    for defect in defects:
        fields = defect(fields, t.field)
    return lambda: replace(t, **fields)


@pytest.mark.parametrize("message, defect", VALIDATE_DEFECTS,
                         ids=[m for m, _ in VALIDATE_DEFECTS])
def test_each_validate_message(message, defect):
    with pytest.raises(McKayError, match=f"^{message}$"):
        _with_defects(defect)()


@pytest.mark.parametrize("i", range(len(VALIDATE_DEFECTS) - 1),
                         ids=[m for m, _ in VALIDATE_DEFECTS[:-1]])
def test_validate_checks_come_in_order(i):
    # a table with the defects of two consecutive checks fails the first
    (message, first), (_, second) = VALIDATE_DEFECTS[i:i + 2]
    for defects in ((first, second), (second, first)):
        with pytest.raises(McKayError, match=f"^{message}$"):
            _with_defects(*defects)()


def test_unknown_names():
    with pytest.raises(McKayError):
        table_by_name("bx")


def test_non_rational_pairing_is_a_mckay_error():
    # chi_1(g) = 1 makes <chi_0, chi_1> = (2 + zeta^2) / 3, not rational:
    # this once leaked the field's FieldError
    t = cyclic_table(3)
    chars = [list(r) for r in t.chars]
    chars[1][1] = t.field.one()
    with pytest.raises(McKayError, match=r"orthogonality fails at \(0,1\)"):
        replace(t, chars=tuple(tuple(r) for r in chars))


def test_non_integral_degree_is_a_mckay_error():
    # zeta chi_1 on Z/4 is orthonormal to the other rows, so only its
    # degree zeta refuses it; reading degrees once leaked the field's
    # FieldError here
    t = cyclic_table(4)
    zeta = t.chars[1][1]
    chars = [list(r) for r in t.chars]
    chars[1] = [t.field.mul(zeta, c) for c in chars[1]]
    with pytest.raises(McKayError, match="character degree is not an integer"):
        replace(t, chars=tuple(tuple(r) for r in chars))


@pytest.mark.parametrize("values", [(2, 1, 0), (2, 0, 0), (2, 5, 5)],
                         ids=["not rational", "not integral", "negative"])
def test_distinguished_row_must_be_a_character(values):
    # real rows of degree 2 on Z/3 whose pairings with chi_1 are
    # (2 + zeta^2) / 3, 2 / 3 and -1; the first once leaked FieldError
    t = cyclic_table(3)
    with pytest.raises(McKayError, match="distinguished row is not a character"):
        replace(t, chi_e=tuple(map(t.field.from_int, values)))


def oracle_tables():
    out = [cyclic_table(n) for n in range(1, 11)]
    out += [binary_dihedral_table(n) for n in range(2, 7)]
    return out + [exceptional_table(k) for k in ("bt", "bo", "bi")]


def _fraction_pairing(t, u, v):
    """(1/|G|) sum of size * conj(u) * v as a Fraction, from the field's
    add, mul and conj alone: a reference apart from the pairing kernel."""
    f = t.field
    acc = f.zero()
    for (_, size), x, y in zip(t.classes, u, v):
        acc = f.add(acc, f.mul(f.from_int(size), f.mul(f.conj(x), y)))
    return f.rational_part(acc) / t.order


@pytest.mark.parametrize("t", oracle_tables(), ids=lambda t: t.name)
def test_integer_mckay_matrix_matches_the_fraction_pairing(t):
    # every entry of both halves from the reference pairing: the integer
    # matrix computes only j >= i, and `inner` agrees with the reference
    f = t.field
    twisted = [[f.mul(x, y) for x, y in zip(row, t.chi_e)] for row in t.chars]
    k = len(t.chars)
    full = [[_fraction_pairing(t, t.chars[i], twisted[j]) for j in range(k)]
            for i in range(k)]
    assert all(type(x) is Fraction for row in full for x in row)
    assert full == [[full[j][i] for j in range(k)] for i in range(k)]
    assert [list(r) for r in t.mckay_matrix] == full
    assert [[t.inner(t.chars[i], twisted[j]) for j in range(k)]
            for i in range(k)] == full


def test_inner_is_the_pairing_of_any_class_functions():
    # rows that are no characters, with denominators and values off the
    # reals; a pairing that is not rational is refused
    t = binary_dihedral_table(3)
    f = t.field
    rng = random.Random("inner")
    refused = 0
    for trial in range(40):
        # even trials pair rational rows, whose pairing is rational
        width = f.degree if trial % 2 else 1
        u, v = ([f.from_coeffs([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(width)])
                 for _ in t.classes] for _ in range(2))
        try:
            want = _fraction_pairing(t, u, v)
        except FieldError:
            refused += 1
            with pytest.raises(FieldError, match="is not rational"):
                t.inner(u, v)
        else:
            assert t.inner(u, v) == want
    assert 0 < refused < 40


def test_work_cap_refuses_from_cyclic_53_and_bd_37():
    # cyclic:n has n classes over Q(zeta_n), bd:n has n + 3 over Q(zeta_4n)
    def refused(k, m):
        try:
            _check_work(k, m)
        except McKayError as err:
            assert "exceeds the cap" in str(err)
            return True
        return False

    assert not any(refused(n, n) for n in range(1, 53)) and refused(53, 53)
    assert not any(refused(n + 3, 4 * n) for n in range(2, 37))
    assert refused(40, 148) and refused(10 ** 30, 10 ** 30)
    assert [_euler_phi(m) for m in (1, 2, 12, 53, 148)] == [1, 1, 4, 52, 72]
    with pytest.raises(McKayError, match="exceeds the cap"):
        table_by_name("bd:37")


# -- group names -------------------------------------------------------

@pytest.mark.parametrize("name", [
    "cyclic:5_0", "cyclic:5:7", "bd:3:x", "cyclic:2.5", "cyclic:", "bd:",
    "cyclic: 5", "cyclic:+5", "cyclic:-3", "bd:1e2", "cyclic:٥",
    "bd:" + "9" * 5000])
def test_group_n_is_ascii_digits_alone(name):
    # int() once read "5_0" as 50, " 5" and "+5" as 5 and a non-ASCII
    # digit as its value, and split(":") dropped whatever followed n
    with pytest.raises(McKayError):
        table_by_name(name)


def test_group_names_still_read_case_and_leading_zeros():
    assert table_by_name("CYCLIC:05").name == "cyclic:5"
    assert table_by_name("Bd:3").name == "bd:3"
    assert table_by_name("BI").name == "bi"


# -- shape checks ------------------------------------------------------

# On bd:2, each a shape defect that `validate` refuses before any pairing;
# each once passed, truncated by zip or read modulo k, or failed by luck.
SHAPE_DEFECTS = [
    ("character 1 has 6 values for 5 classes",
     lambda fields, f: _set(fields, "chars", 1,
                            fields["chars"][1] + (f.one(),))),
    ("distinguished character has 6 values for 5 classes",
     lambda fields, f: {**fields, "chi_e": fields["chi_e"] + (f.zero(),)}),
    ("distinguished character has 4 values for 5 classes",
     lambda fields, f: {**fields, "chi_e": fields["chi_e"][:-1]}),
    ("trivial index 7 is not a row index",
     lambda fields, f: {**fields, "trivial_index": 7}),
    ("trivial index -1 is not a row index",
     lambda fields, f: {**fields, "trivial_index": -1}),
    # sizes 1.0 once gave a McKay matrix of floats
    ("a class size is not an int",
     lambda fields, f: {**fields, "classes": tuple(
         (label, float(s)) for label, s in fields["classes"])}),
]
SHAPE_IDS = [m for m, _ in SHAPE_DEFECTS]


@pytest.mark.parametrize("message, defect", SHAPE_DEFECTS, ids=SHAPE_IDS)
def test_each_shape_check(message, defect):
    with pytest.raises(McKayError, match=f"^{message}$"):
        _with_defects(defect)()


@pytest.mark.parametrize("message, defect", SHAPE_DEFECTS, ids=SHAPE_IDS)
def test_shape_checks_come_before_any_pairing(message, defect):
    # after the count of rows, before orthogonality, in either order
    (count, too_few), = [d for d in VALIDATE_DEFECTS if "number" in d[0]]
    (_, same_rows), = [d for d in VALIDATE_DEFECTS if "orthogonality" in d[0]]
    for defects, first in (((defect, too_few), count),
                           ((too_few, defect), count),
                           ((defect, same_rows), message),
                           ((same_rows, defect), message)):
        with pytest.raises(McKayError, match=f"^{first}$"):
            _with_defects(*defects)()


def test_inner_refuses_a_class_function_of_another_length():
    t = binary_dihedral_table(2)
    row = t.chars[1]
    for u, v in ((row + (t.field.one(),), row), (row, row[:-1])):
        with pytest.raises(FieldError, match="does not have 5 values"):
            t.inner(u, v)


# -- the sparse pairing of the power basis, as a reference -------------
#
# The class pairings as they were computed before the residue kernel:
# each row prepared as its nonzero (coordinate, numerator) pairs over a
# common denominator, conjugated and weighted by exponent negation, twisted
# by chi_E with each product folded by the table of zeta^j, and paired in
# one pass over the classes, each block of 2 phi(m) - 1 coefficients
# folded once from z^-(d-1). It runs on the field's public elements alone.

def _ref_prepare(f, vec):
    # the entries over their common denominator, each kept as its
    # nonzero (coordinate, numerator) pairs
    den = lcm(*[a[-1] for a in vec])
    entries = []
    for a in vec:
        s = den // a[-1]
        entries.append([(i, x * s) for i, x in enumerate(a[:-1]) if x])
    return entries, den


def _ref_fold(f, coeffs, first=0):
    """The d integer coordinates of sum coeffs[k] z^(first + k)."""
    out = [0] * f.degree
    for k, c in enumerate(coeffs, first):
        if c:
            for i, z in enumerate(f.zeta_pow(k)[:-1]):
                out[i] += c * z
    return out


def _ref_conj_weighted(f, u, weights):
    us, den = u
    top = f.degree - 1
    return [[(top - e, x * w) for e, x in a]
            for a, w in zip(us, weights)], den


def _ref_twist(f, u, v):
    (us, uden), (vs, vden) = u, v
    out = []
    for a, b in zip(us, vs):
        acc = [0] * (2 * f.degree - 1)
        for i, x in a:
            for j, y in b:
                acc[i + j] += x * y
        out.append([(i, x) for i, x in enumerate(_ref_fold(f, acc)) if x])
    return out, uden * vden


def _ref_stack(f, *vecs):
    size = 2 * f.degree - 1
    (first, _), *rest = vecs
    entries = [list(a) for a in first]
    for shift, (vs, _) in zip(range(size, size * len(vecs), size), rest):
        for out, a in zip(entries, vs):
            out += [(e + shift, x) for e, x in a]
    return entries, tuple(v[1] for v in vecs)


def _ref_pair_classes(f, u, v):
    """(num, den) of each rational sum of u_k v_k, None where it is not
    rational, one per vector stacked in v."""
    (us, uden), (vs, vdens) = u, v
    d = f.degree
    size = 2 * d - 1
    acc = [0] * (size * len(vdens))
    for a, b in zip(us, vs):
        for i, x in a:
            for j, y in b:
                acc[i + j] += x * y
    out = []
    for start, vden in zip(range(0, len(acc), size), vdens):
        low = _ref_fold(f, acc[start:start + size], 1 - d)
        out.append(None if any(low[1:]) else (low[0], uden * vden))
    return out


def _ref_inner(t, u, v):
    f = t.field
    sizes = [s for _, s in t.classes]
    pairing, = _ref_pair_classes(
        f, _ref_conj_weighted(f, _ref_prepare(f, u), sizes),
        _ref_stack(f, _ref_prepare(f, v)))
    if pairing is None:
        raise FieldError("the pairing is not rational")
    return Fraction(pairing[0], pairing[1] * t.order)


def _ref_multiplicity(pairing, order):
    if pairing is None:
        return None
    mult, rest = divmod(pairing[0], pairing[1] * order)
    return mult if not rest and mult >= 0 else None


def _ref_validate(f, classes, chars, chi_e, order, trivial_index):
    """The table check with the sparse pairing: the same checks, messages
    and order as ``CharacterTable.validate``."""
    if sum(s for _, s in classes) != order:
        raise McKayError("class sizes do not sum to the group order")
    k = len(classes)
    if len(chars) != k:
        raise McKayError("number of characters != number of classes")
    for i, row in enumerate(chars):
        if len(row) != k:
            raise McKayError(f"character {i} has {len(row)} values "
                             f"for {k} classes")
    if len(chi_e) != k:
        raise McKayError(f"distinguished character has {len(chi_e)} values "
                         f"for {k} classes")
    t = trivial_index
    if type(t) is not int or not 0 <= t < k:
        raise McKayError(f"trivial index {t!r} is not a row index")
    if not {int}.issuperset(type(s) for _, s in classes):
        raise McKayError("a class size is not an int")
    rows = [_ref_prepare(f, row) for row in chars]
    e = _ref_prepare(f, chi_e)
    stacked = [_ref_stack(f, row, _ref_twist(f, row, e)) for row in rows]
    sizes = [s for _, s in classes]
    twisted = {}
    for i, row in enumerate(rows):
        w = _ref_conj_weighted(f, row, sizes)
        for j in range(i, k):
            gram, twisted[i, j] = _ref_pair_classes(f, w, stacked[j])
            if gram is None or gram[0] != (order * gram[1] if i == j else 0):
                raise McKayError(f"orthogonality fails at ({i},{j})")
    try:
        degs = [f.rational_ints(row[0]) for row in chars]
    except FieldError:
        degs = [(0, 0)]
    if any(den != 1 for _, den in degs):
        raise McKayError("a character degree is not an integer")
    if sum(num * num for num, _ in degs) != order:
        raise McKayError("degree squares do not sum to the group order")
    if any(x != f.one() for x in chars[t]):
        raise McKayError("trivial character is not identically 1")
    if chi_e[0] != f.from_int(2):
        raise McKayError("distinguished character must have degree 2")
    if any(f.conj(x) != x for x in chi_e):
        raise McKayError("distinguished character must be real-valued")
    mults = {ij: _ref_multiplicity(p, order) for ij, p in twisted.items()}
    a = [[mults[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]
    if None in a[t]:
        raise McKayError("distinguished row is not a character")
    for i in range(k):
        for j in range(i, k):
            if a[i][j] is None:
                raise McKayError(f"multiplicity a[{i}][{j}] is not a "
                                 "nonnegative integer")
    return tuple(map(tuple, a))


def _fields_of(t):
    return {"classes": t.classes, "chars": t.chars, "chi_e": t.chi_e,
            "order": t.order, "trivial_index": t.trivial_index}


def _outcome(run):
    """The McKay matrix, or the type and message of the error."""
    try:
        return run()
    except (ValueError, ArithmeticError, IndexError, TypeError) as err:
        return type(err).__name__, str(err)


REFERENCE_TABLES = ([f"cyclic:{n}" for n in range(1, 31)]
                    + [f"bd:{n}" for n in range(2, 21)]
                    + ["bt", "bo", "bi", "cyclic:52", "bd:36"])


@pytest.mark.parametrize("name", REFERENCE_TABLES)
def test_mckay_matrix_matches_the_sparse_reference(name):
    t = table_by_name(name)
    assert t.mckay_matrix == _ref_validate(t.field, **_fields_of(t))


def _random_element(f, rng):
    """A value with small, 10^40-sized or non-integral coordinates."""
    kind = rng.randrange(4)
    if kind == 0:
        return f.from_coeffs([rng.randint(-3, 3) for _ in range(f.degree)])
    if kind == 1:
        return f.from_coeffs([rng.choice((1, -1)) * 10 ** 40
                              + rng.randint(-9, 9) for _ in range(f.degree)])
    den = rng.choice((2, 3, 6, 10 ** 40 + 1))
    return f.from_coeffs([Fraction(rng.randint(-10 ** rng.randint(0, 41),
                                               10 ** 40), den)
                          for _ in range(f.degree)])


def _unit(f, rng):
    """zeta^j, or ((3 + 4i) / 5)^p where i lies in the field: a value of
    modulus 1, so a row times it stays orthonormal."""
    if f.m % 4 or rng.randrange(2):
        return f.zeta_pow(rng.randrange(f.m))
    z = f.from_coeffs([Fraction(3, 5)])
    z = f.add(z, f.mul(f.from_coeffs([Fraction(4, 5)]), f.zeta_pow(f.m // 4)))
    out = f.one()
    for _ in range(rng.randint(1, 60)):
        out = f.mul(out, z)
    return out


def _corrupt(t, rng):
    """One seeded corruption of the table's fields."""
    f, fields = t.field, _fields_of(t)
    chars = [list(r) for r in t.chars]
    k = len(chars)
    kind = rng.choice(("value", "nudge", "chi_e", "sizes", "trivial",
                       "swap", "unit"))
    i, c = rng.randrange(k), rng.randrange(k)
    if kind == "value":
        chars[i][c] = _random_element(f, rng)
    elif kind == "nudge":  # plus or minus 1, or plus zeta^j
        step = rng.choice((f.one(), f.neg(f.one()),
                           f.zeta_pow(rng.randrange(f.m))))
        chars[i][c] = f.add(chars[i][c], step)
    elif kind == "chi_e":
        e = list(t.chi_e)
        pick = rng.randrange(3)
        if pick == 0:  # a real value, of degree 2 if k > 1
            x = _random_element(f, rng)
            e[c if k == 1 else rng.randrange(1, k)] = f.add(x, f.conj(x))
        elif pick == 1:  # a real sum of two rows and their conjugates
            j = rng.randrange(k)
            e = [f.add(f.add(x, f.conj(x)), f.add(y, f.conj(y)))
                 for x, y in zip(t.chars[i], t.chars[j])]
        else:
            e = list(t.chars[i])
        fields["chi_e"] = tuple(e)
    elif kind == "sizes":
        sizes = [s for _, s in t.classes]
        step = rng.randint(1, 3)
        sizes[i] -= step
        if rng.randrange(4):  # the sum kept
            sizes[c] += step
        fields["classes"] = tuple((label, s) for (label, _), s
                                  in zip(t.classes, sizes))
    elif kind == "trivial":
        fields["trivial_index"] = rng.randrange(k)
    elif kind == "swap":
        chars[i], chars[c] = chars[c], chars[i]
    else:
        z = _unit(f, rng)
        chars[i] = [f.mul(z, x) for x in chars[i]]
    if kind != "chi_e" or rng.randrange(2):
        fields["chars"] = tuple(map(tuple, chars))
    return fields


CORRUPTED_TABLES = ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4",
                    "cyclic:5", "cyclic:6", "cyclic:8", "bd:2", "bd:3",
                    "bd:4", "bd:5", "bt", "bo", "bi"]


@pytest.mark.parametrize("name", CORRUPTED_TABLES)
def test_corruptions_have_the_outcome_of_the_sparse_reference(name):
    t = table_by_name(name)
    rng = random.Random(f"corrupt {name}")
    outcomes = set()
    for _ in range(80):
        fields = _corrupt(t, rng)
        got = _outcome(lambda: replace(t, **fields).mckay_matrix)
        assert got == _outcome(lambda: _ref_validate(t.field, **fields)), \
            fields
        outcomes.add(got[1] if type(got[0]) is str else "matrix")
    # some corruptions pass as tables, and some reach the McKay half (on
    # the trivial group chi_E = 2 is fixed by its degree)
    assert "matrix" in outcomes
    assert name == "cyclic:1" or \
        "distinguished row is not a character" in outcomes


@pytest.mark.parametrize("name", ["cyclic:3", "cyclic:8", "bd:3", "bo",
                                  "bi"])
def test_inner_matches_the_sparse_reference(name):
    # class functions with 10^40-sized and non-integral values, and
    # pairings that are not rational
    t = table_by_name(name)
    rng = random.Random(f"inner {name}")
    refused = 0
    for _ in range(30):
        u, v = ([_random_element(t.field, rng) for _ in t.classes]
                for _ in range(2))
        want = _outcome(lambda: _ref_inner(t, u, v))
        assert _outcome(lambda: t.inner(u, v)) == want
        refused += type(want) is tuple
    assert refused
