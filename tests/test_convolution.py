import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from quivar import convolution
from quivar.convolution import (ConvError, Correspondence, FiniteGroup,
                                FiniteKernel, OrbitAlgebra, _orbit_constants,
                                compose_corr, convolve, convolve_via_pullback,
                                finset, group_algebra,
                                group_algebra_matches_invariant,
                                hecke_algebra, invariant_algebra,
                                symmetric_group, validate_action)
from quivar.fields import (CyclotomicField, FieldError, PrimeField, QQ,
                           Rationals)
from quivar.linalg import Mat


def rand_kernel(src, tgt, rng):
    return FiniteKernel(src, tgt,
                        Mat(QQ, [[QQ.random(rng, 4) for _ in range(len(src))]
                                 for _ in range(len(tgt))],
                            len(tgt), len(src)))


def test_kernel_shape_validation():
    x = finset(["a"])
    y = finset(["u", "v"])
    with pytest.raises(ConvError):
        FiniteKernel(x, y, Mat.zeros(QQ, 1, 2))
    with pytest.raises(ConvError):
        finset(["a", "a"])


def test_identity_kernel_neutral():
    rng = random.Random(1)
    x = finset(["a", "b", "c"])
    y = finset(["u", "v"])
    k = rand_kernel(x, y, rng)
    ix = FiniteKernel(x, x, Mat.identity(QQ, len(x)))
    iy = FiniteKernel(y, y, Mat.identity(QQ, len(y)))
    assert convolve(k, ix).mat == k.mat
    assert convolve(iy, k).mat == k.mat


F2, F5, Z3 = PrimeField(2), PrimeField(5), CyclotomicField(3)
FORMULA_ENTRIES = (
    (QQ, lambda rng: QQ.random(rng, 4)),
    (QQ, lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 12))),
    (F2, lambda rng: F2.random(rng)),
    (F5, lambda rng: F5.random(rng)),
    (Z3, lambda rng: Z3.mul(Z3.random(rng, 4),
                            Z3.from_fraction(Fraction(1, rng.randint(1, 6))))),
)


def test_convolution_formulas_agree():
    # integer and non-integer Q, F_2, F_5 and Q(zeta_3), with X1, X2 and X3
    # empty at times; k32 gets zero rows and zero entries, where the
    # pullback makes no row update
    rng = random.Random(4)
    zero_rows = zero_entries = 0
    for fld, entry in FORMULA_ENTRIES:
        for _ in range(50):
            sizes = [rng.randint(0, 4) for _ in range(3)]
            sets = [finset([f"x{k}_{i}" for i in range(n)])
                    for k, n in enumerate(sizes)]
            k21 = FiniteKernel(sets[0], sets[1], Mat(
                fld, [[entry(rng) for _ in sets[0].labels]
                      for _ in sets[1].labels], sizes[1], sizes[0]))
            rows32 = [[fld.zero() if rng.random() < 0.3 else entry(rng)
                       for _ in sets[1].labels] for _ in sets[2].labels]
            for row in rows32:
                if rng.random() < 0.2:
                    row[:] = [fld.zero()] * len(row)
            zero_rows += sum(bool(row) and all(map(fld.is_zero, row))
                             for row in rows32)
            zero_entries += sum(map(fld.is_zero, sum(rows32, [])))
            k32 = FiniteKernel(sets[1], sets[2],
                               Mat(fld, rows32, sizes[2], sizes[1]))
            assert convolve(k32, k21).mat == convolve_via_pullback(k32, k21).mat
    assert zero_rows and zero_entries


class _WrongMatmul(Rationals):
    def matmul(self, rows, cols):  # every entry one too big
        return tuple(tuple(x + 1 for x in row)
                     for row in super().matmul(rows, cols))


class _WrongRowSub(Rationals):
    def row_sub(self, u, c, v):  # u + c v
        return super().row_sub(u, -c, v)


def test_each_convolution_formula_checks_the_other():
    # convolve runs on the product kernel matmul and the pullback on
    # row_sub, so a wrong kernel in either makes the two formulas disagree,
    # and only its own is wrong
    x = finset(["a", "b"])
    ints = [[1, 2], [3, 4]]
    right = convolve(*[FiniteKernel(x, x, Mat.from_ints(QQ, ints))] * 2)
    for fld, broken, intact in ((_WrongMatmul(), convolve,
                                 convolve_via_pullback),
                                (_WrongRowSub(), convolve_via_pullback,
                                 convolve)):
        k = FiniteKernel(x, x, Mat.from_ints(fld, ints))
        assert intact(k, k).mat.data == right.mat.data
        assert broken(k, k).mat.data != right.mat.data


def test_pullback_refuses_kernels_over_different_fields():
    x = finset(["a", "b"])
    k32 = FiniteKernel(x, x, Mat.from_ints(F5, [[1, 2], [3, 4]]))
    k21 = FiniteKernel(x, x, Mat(QQ, [[Fraction(1, 2), 0], [0, 1]]))
    for fn in (convolve, convolve_via_pullback):
        with pytest.raises(FieldError, match="matrices over different fields"):
            fn(k32, k21)


def test_pullback_convolution_onto_the_empty_set():
    x1, x2, x3 = finset(["a", "b"]), finset(["u"]), finset([])
    k21 = FiniteKernel(x1, x2, Mat.from_ints(QQ, [[1, 2]]))
    k32 = FiniteKernel(x2, x3, Mat(QQ, [], 0, 1))
    assert convolve_via_pullback(k32, k21).mat == convolve(k32, k21).mat


def test_convolution_mismatch():
    x, y, z = finset(["a"]), finset(["b"]), finset(["c"])
    with pytest.raises(ConvError):
        convolve(FiniteKernel(y, z, Mat.zeros(QQ, 1, 1)),
                 FiniteKernel(x, x, Mat.zeros(QQ, 1, 1)))


def test_correspondence_composition():
    x = finset(["a", "b"])
    y = finset(["u", "v"])
    z = finset(["p"])
    z12 = Correspondence(x, y, frozenset([("a", "u"), ("b", "u"), ("b", "v")]))
    z23 = Correspondence(y, z, frozenset([("v", "p")]))
    assert compose_corr(z12, z23).pairs == frozenset([("b", "p")])

    def diagonal(s):
        return Correspondence(s, s, frozenset((a, a) for a in s.labels))

    assert compose_corr(diagonal(x), z12).pairs == z12.pairs
    assert compose_corr(z12, diagonal(y)).pairs == z12.pairs


def test_symmetric_group_structure():
    s3 = symmetric_group(3)
    assert s3.n == 6
    e = s3.identity
    for a in range(6):
        b = s3._inverses[a]
        assert s3.mul(a, b) == e == s3.mul(b, a)
    # associativity in full
    for a in range(6):
        for b in range(6):
            for c in range(6):
                assert s3.mul(s3.mul(a, b), c) == s3.mul(a, s3.mul(b, c))


def test_group_algebra_delta_product():
    s3 = symmetric_group(3)
    ga = group_algebra(s3)
    for a in range(6):
        for b in range(6):
            c = ga["constants"][a][b]
            assert c == [int(k == s3.mul(a, b)) for k in range(6)]


def test_group_algebra_center():
    # the center of QS3 is spanned by the 3 class sums: z = sum z_i e_i is
    # central when sum_i z_i (c[i][j][k] - c[j][i][k]) = 0 for all j, k
    c = group_algebra(symmetric_group(3))["constants"]
    n = len(c)
    rows = [[c[i][j][k] - c[j][i][k] for i in range(n)]
            for j in range(n) for k in range(n)]
    assert Mat.from_ints(QQ, rows).kernel_basis().cols == 3


def test_invariant_algebra_s3_natural_action():
    s3 = symmetric_group(3)
    x = finset(["1", "2", "3"])
    perms = sorted(permutations(range(3)))
    action = {(h, str(i + 1)): str(perms[h][i] + 1)
              for h in range(6) for i in range(3)}
    inv = invariant_algebra(s3, x, action)
    assert len(inv.orbits) == 2  # diagonal and off-diagonal
    t = 1 - inv.unit_index
    c = inv.constants
    # the off-diagonal orbit satisfies T^2 = 2*1 + T
    assert c[t][t][inv.unit_index] == 2 and c[t][t][t] == 1


def test_invariant_algebra_rejects_bad_action():
    s3 = symmetric_group(3)
    x = finset(["1", "2", "3"])
    action = {(h, s): s for h in range(6) for s in x.labels}
    action[(1, "1")] = "2"  # breaks compatibility
    with pytest.raises(ConvError):
        invariant_algebra(s3, x, action)


def test_group_algebra_matches_invariant():
    assert group_algebra_matches_invariant(symmetric_group(2))
    assert group_algebra_matches_invariant(symmetric_group(3))


def relabelled(g, sigma):
    """The group g with each element a renamed sigma[a]."""
    table = [[0] * g.n for _ in range(g.n)]
    for a in range(g.n):
        for b in range(g.n):
            table[sigma[a]][sigma[b]] = sigma[g.mul(a, b)]
    return FiniteGroup(tuple(map(tuple, table)), tuple(map(str, range(g.n))))


def cyclic_group(n):
    return FiniteGroup(tuple(tuple((a + b) % n for b in range(n))
                             for a in range(n)), tuple(map(str, range(n))))


# a Latin square with two-sided identity 0 and two-sided inverses that is
# not associative (36 triples fail), so not a group
LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("table", [
    LOOP_5,
    [[0, 1, 2], [1, 2, 0], [2, 0, 0]],   # row 0 is a permutation, row 2 not
    [[0, 1, 2], [1, 2, 0], [2, 1, 0]],   # rows permutations, columns not
    [[0, 2, 1], [2, 1, 0], [1, 0, 2]],   # a * b = -a - b mod 3: no identity
    [[0, 1], [1]],
    [[0, 1], [1, 0.0]],
    [],
])
def test_finite_group_refuses_non_groups(table):
    with pytest.raises(ConvError):
        FiniteGroup(tuple(map(tuple, table)),
                    tuple(map(str, range(len(table)))))


@pytest.mark.parametrize("names", [("e",), ("e", "a", "b"), ()])
def test_finite_group_needs_one_name_per_element(names):
    with pytest.raises(ConvError, match="names"):
        FiniteGroup(((0, 1), (1, 0)), names)


def test_loop_5_is_refused_for_associativity_alone():
    with pytest.raises(ConvError, match="not associative"):
        FiniteGroup(tuple(map(tuple, LOOP_5)), tuple("abcde"))


def test_identity_and_inverses_match_brute_force():
    rng = random.Random(9)
    groups = [symmetric_group(n) for n in (2, 3, 4)] + \
        [cyclic_group(n) for n in range(1, 7)]
    for g in groups:
        sigma = list(range(g.n))
        rng.shuffle(sigma)
        h = relabelled(g, sigma)
        n = h.n
        e = [e for e in range(n)
             if all(h.mul(e, a) == a == h.mul(a, e) for a in range(n))]
        assert e == [h.identity] == [sigma[g.identity]]
        for a in range(n):
            inv = [b for b in range(n)
                   if h.mul(a, b) == h.identity == h.mul(b, a)]
            assert inv == [h._inverses[a]]


def validate_action_reference(g, x, action):
    """The per-point check validate_action replaced: one lookup and one
    group product per (h, k, point)."""
    e = [e for e in range(g.n)
         if all(g.mul(e, a) == a == g.mul(a, e) for a in range(g.n))][0]
    for a in x.labels:
        if action[(e, a)] != a:
            raise ConvError("identity does not act trivially")
    for h in range(g.n):
        for k in range(g.n):
            for a in x.labels:
                if action[(g.mul(h, k), a)] != action[(h, action[(k, a)])]:
                    raise ConvError("action is not compatible with the product")


def natural_action_s3():
    perms = sorted(permutations(range(3)))
    x = finset(["1", "2", "3"])
    return symmetric_group(3), x, {(h, str(i + 1)): str(perms[h][i] + 1)
                                   for h in range(6) for i in range(3)}


def left_regular_action(g):
    x = finset([f"g{k}" for k in range(g.n)])
    return g, x, {(h, f"g{k}"): f"g{g.mul(h, k)}"
                  for h in range(g.n) for k in range(g.n)}


@pytest.mark.parametrize("make, tries", [
    (natural_action_s3, None),
    (lambda: left_regular_action(relabelled(symmetric_group(4),
                                            [(5 * k + 7) % 24
                                             for k in range(24)])), 3),
])
def test_single_entry_corruptions_of_an_action_are_refused(make, tries):
    # every entry is corrupted; to every other point on S_3 acting on 3
    # points, and to `tries` seeded other points on S_4 acting on itself,
    # where all 13,248 corruptions would take about 5 s
    g, x, action = make()
    validate_action_reference(g, x, action)
    validate_action(g, x, action)
    rng = random.Random(3)
    for key, image in list(action.items()):
        others = [b for b in x.labels if b != image]
        for wrong in rng.sample(others, tries) if tries else others:
            action[key] = wrong
            with pytest.raises(ConvError):
                validate_action_reference(g, x, action)
            with pytest.raises(ConvError):
                validate_action(g, x, action)
        action[key] = image


def _closure(g, gens):
    """The elements of g that are products of ``gens``, the identity too."""
    out, todo = {g.identity}, [g.identity]
    for a in todo:
        for s in gens:
            if g.mul(a, s) not in out:
                out.add(g.mul(a, s))
                todo.append(g.mul(a, s))
    return out


@pytest.mark.parametrize("g", [
    symmetric_group(3), symmetric_group(4),
    relabelled(symmetric_group(4), [(5 * k + 7) % 24 for k in range(24)]),
    *[cyclic_group(n) for n in range(1, 7)]],
    ids=["S3", "S4", "S4 relabelled", *[f"C{n}" for n in range(1, 7)]])
def test_generators_generate_the_group(g):
    # validate_action checks the action on these alone; each is new, that
    # is, not a product of the ones before it, and none is the identity
    gens = g.generators
    assert _closure(g, gens) == set(range(g.n))
    for k, s in enumerate(gens):
        assert s not in _closure(g, gens[:k])
    if g.n == 1:  # the trivial group: only the identity check applies
        assert gens == ()
        x = finset(["p"])
        assert validate_action(g, x, {(0, "p"): "p"}) == [(0,)]


def test_validate_action_refuses_images_outside_the_set():
    g, x, action = natural_action_s3()
    action[(1, "2")] = "4"
    with pytest.raises(ConvError):
        validate_action(g, x, action)
    del action[(1, "2")]
    with pytest.raises(ConvError):
        validate_action(g, x, action)


@pytest.mark.parametrize("entry", [(0, 0, 0), (1, 2, 3), (5, 5, 4)])
def test_group_algebra_match_sees_a_corrupted_constant(monkeypatch, entry):
    g = symmetric_group(3)
    assert group_algebra_matches_invariant(g)
    real = convolution.invariant_algebra

    def corrupted(*args):
        inv = real(*args)
        i, j, k = entry
        inv.constants[i][j][k] += 1
        return inv

    monkeypatch.setattr(convolution, "invariant_algebra", corrupted)
    assert not group_algebra_matches_invariant(g)


def invariant_algebra_reference(g, x, action):
    """The earlier invariant_algebra: orbits rebuilt from label pairs
    through the action, sorted by their least index pair, each searched
    again for that pair, and the unit found by list lookup."""
    validate_action(g, x, action)
    pairs = [(a, b) for a in x.labels for b in x.labels]
    seen = set()
    orbits = []
    for pr in pairs:
        if pr in seen:
            continue
        orb = set()
        for h in range(g.n):
            orb.add((action[(h, pr[0])], action[(h, pr[1])]))
        orbits.append(frozenset(orb))
        seen |= orb
    # canonical order: by the lexicographically least pair in each orbit
    lab_idx = {a: i for i, a in enumerate(x.labels)}
    orbits.sort(key=lambda o: min((lab_idx[a], lab_idx[b]) for a, b in o))
    member = {}
    for k, o in enumerate(orbits):
        for pr in o:
            member[pr] = k
    reps = [min(o, key=lambda pr: (lab_idx[pr[0]], lab_idx[pr[1]]))
            for o in orbits]
    constants = _orbit_constants(x.labels, reps, lambda a, b: member[(a, b)])
    diag = frozenset((a, a) for a in x.labels)
    unit = orbits.index(diag)
    return OrbitAlgebra(x, orbits, constants, unit)


def dihedral_action_on_square():
    """The 8 symmetries of a square, as permutations of its vertices in
    cyclic order, acting on vertex labels whose sorted order is not the
    cyclic one."""
    rot, ref = (1, 2, 3, 0), (0, 3, 2, 1)
    perms = {tuple(range(4))}
    while True:
        more = {tuple(p[q[i]] for i in range(4))
                for p in perms for q in (rot, ref)} - perms
        if not more:
            break
        perms |= more
    perms = sorted(perms)
    assert len(perms) == 8
    idx = {p: k for k, p in enumerate(perms)}
    table = tuple(tuple(idx[tuple(p[q[i]] for i in range(4))] for q in perms)
                  for p in perms)
    g = FiniteGroup(table, tuple(map(str, range(8))))
    labels = ["ne", "nw", "sw", "se"]
    return g, finset(labels), {(h, labels[i]): labels[perms[h][i]]
                               for h in range(8) for i in range(4)}


@pytest.mark.parametrize("make", [
    natural_action_s3,
    lambda: left_regular_action(relabelled(symmetric_group(4),
                                           [(5 * k + 7) % 24
                                            for k in range(24)])),
    dihedral_action_on_square,
], ids=["S3 on 3 points", "relabelled S4 on itself", "D4 on a square"])
def test_invariant_algebra_matches_the_reference(make):
    # orbits in order, constants and unit; on S_4 the labels g0..g23 sort
    # as g0, g1, g10, ..., not in index order
    g, x, action = make()
    new, ref = invariant_algebra(g, x, action), \
        invariant_algebra_reference(g, x, action)
    assert len(ref.orbits) > 1
    assert new == ref  # x, orbits, constants and unit_index


def test_invariant_algebra_refuses_a_non_transitive_action():
    # S_2 swaps a and b and fixes c: the diagonal is two orbits, so no
    # orbit is the unit; this was a bare ValueError from a list lookup
    g = symmetric_group(2)
    x = finset("abc")
    swap = {"a": "b", "b": "a", "c": "c"}
    action = {(h, s): swap[s] if h else s for h in range(2) for s in "abc"}
    validate_action(g, x, action)
    with pytest.raises(ConvError, match="transitive"):
        invariant_algebra(g, x, action)


def test_invariant_algebra_refuses_an_empty_set():
    g = symmetric_group(2)
    with pytest.raises(ConvError, match="nonempty"):
        invariant_algebra(g, finset([]), {})


def test_hecke_small():
    for q in (2, 3):
        h = hecke_algebra(2, q)
        assert h["num_flags"] == q + 1
        assert h["num_orbits"] == 2
        assert h["relation"] == {"T_coeff": q - 1, "unit_coeff": q}
    h3 = hecke_algebra(3, 2)
    assert h3["num_flags"] == 21
    assert h3["num_orbits"] == 6


def test_hecke_unit_and_integrality():
    h = hecke_algebra(3, 2)
    c = h["constants"]
    u = h["unit_index"]
    n = h["num_orbits"]
    for i in range(n):
        assert c[u][i] == [int(k == i) for k in range(n)]
        assert c[i][u] == [int(k == i) for k in range(n)]
        for j in range(n):
            assert all(x >= 0 for x in c[i][j])


def _q_factorial(n, q):
    out = 1
    for k in range(1, n + 1):
        out *= sum(q ** e for e in range(k))
    return out


def _hecke_mul(c, x, y):
    m = len(c)
    return [sum(x[i] * y[j] * c[i][j][k] for i in range(m) for j in range(m))
            for k in range(m)]


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_hecke_properties(n, q):
    h = hecke_algebra(n, q)
    c, u, m = h["constants"], h["unit_index"], h["num_orbits"]
    perms = list(permutations(range(n)))
    assert m == len(perms) == len(c)
    assert h["num_flags"] == _q_factorial(n, q)
    basis = [[int(k == i) for k in range(m)] for i in range(m)]
    for i in range(m):
        assert c[u][i] == basis[i] and c[i][u] == basis[i]
    # c[w][j][unit] is nonzero only for j = w^-1, where it counts the flags
    # in relative position w to a fixed flag: q^length(w)
    sizes = []
    for i in range(m):
        hits = [c[i][j][u] for j in range(m) if c[i][j][u]]
        assert len(hits) == 1
        sizes.append(hits[0])

    def length(w):
        return sum(w[a] > w[b] for a, b in combinations(range(n), 2))

    assert Counter(sizes) == Counter(q ** length(w) for w in perms)
    # T_u T_v is one basis element T_w exactly when l(uv) = l(u) + l(v),
    # and then q^l(w) = q^l(u) q^l(v)
    single = [(sizes[i] * sizes[j], c[i][j].index(1))
              for i in range(m) for j in range(m)
              if sorted(c[i][j]) == [0] * (m - 1) + [1]]
    assert all(sizes[k] == size for size, k in single)
    assert len(single) == sum(
        length(tuple(u[v[a]] for a in range(n))) == length(u) + length(v)
        for u in perms for v in perms)
    simple = [s for s in range(m) if sizes[s] == q]
    assert len(simple) == n - 1
    for s in simple:
        assert _hecke_mul(c, basis[s], basis[s]) == \
            [(q - 1) * a + q * b for a, b in zip(basis[s], basis[u])]
    # distant simple reflections commute; adjacent ones (n - 2 pairs) braid
    adjacent = 0
    for s, t in combinations(simple, 2):
        st = _hecke_mul(c, basis[s], basis[t])
        ts = _hecke_mul(c, basis[t], basis[s])
        if st != ts:
            adjacent += 1
            assert _hecke_mul(c, st, basis[s]) == _hecke_mul(c, ts, basis[t])
    assert adjacent == n - 2


def _span_key_f2(vectors):
    """The subspace of F_2^n spanned by ``vectors``, as complete_flags keys
    it: its reduced-echelon rows, ordered by pivot column."""
    rows = []
    for v in vectors:
        v = list(v)
        for r in rows:
            p = r.index(1)
            if v[p]:
                v = [x ^ y for x, y in zip(v, r)]
        if any(v):
            p = v.index(1)
            rows = [[x ^ y for x, y in zip(r, v)] if r[p] else r for r in rows]
            rows.append(v)
    return tuple(sorted((tuple(r) for r in rows), key=lambda r: r.index(1)))


def test_hecke_constants_match_brute_force_orbits_of_gl3_f2():
    # GL_3(F_2), all 168 matrices, acts on the 21 flags; the orbits of flag
    # pairs are numbered by their first pair (f0, b) and counted directly,
    # so the labelling pos(f0, b) = i, pos(b, b_k) = j is checked, and not
    # only the properties that its opposite shares
    flags = convolution.complete_flags(3, 2)
    where = {f: a for a, f in enumerate(flags)}
    group = [g for g in (tuple(zip(*[iter(bits)] * 3))
                         for bits in product((0, 1), repeat=9))
             if len(_span_key_f2(g)) == 3]
    assert len(group) == 168

    def act(g, flag):
        image = tuple(_span_key_f2([[sum(x * y for x, y in zip(row, v)) % 2
                                     for row in g] for v in key])
                      for key in flag)
        return where[image]

    moved = [[act(g, f) for f in flags] for g in group]
    member, firsts = {}, []
    for b in range(len(flags)):
        if (0, b) not in member:
            for image in moved:
                member[image[0], image[b]] = len(firsts)
            firsts.append(b)
    assert len(member) == len(flags) ** 2 and len(firsts) == 6
    c = [[[sum(member[0, b] == i and member[b, bk] == j
               for b in range(len(flags))) for bk in firsts]
          for j in range(6)] for i in range(6)]
    assert hecke_algebra(3, 2)["constants"] == c


def reference_relative_position(f, g, q):
    """Rank matrix dim(F_i & G_j) = i + j - rank(F_i + G_j), 0 < i, j < n,
    of the flag f, given as the (pivot, row) pairs of its keys, and the
    flag with adapted basis g: one elimination per i adds g_1, g_2, ... to
    the reduced rows of F_i."""
    out = []
    for i, pairs in enumerate(f, 1):
        basis = list(pairs)
        for j, v in enumerate(g, 1):
            for p, r in basis:
                if v[p]:
                    v = [(x - v[p] * y) % q for x, y in zip(v, r)]
            for c, x in enumerate(v):  # a nonzero remainder: its pivot
                if x:
                    inv = pow(x, -1, q)
                    basis.append((c, [y * inv % q for y in v]))
                    break
            out.append(i + j - len(basis))
    return tuple(out)


def _pivot(row):
    return next(c for c, x in enumerate(row) if x)


@pytest.mark.parametrize("n, q", [(2, 2), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_point_counts_split_flag_pairs_as_the_rank_matrix(n, q):
    # hecke_algebra keys a flag pair by |P(F_i) & P(G_j)|; the rank matrix
    # dim(F_i & G_j) by elimination must give the same classes, numbered
    # the same way in the scan of the pairs, and each count must be the
    # number (q^d - 1)/(q - 1) of points of a d-dimensional intersection
    flags = convolution.complete_flags(n, q)
    pivoted = [[[(_pivot(r), r) for r in key] for key in fl] for fl in flags]
    adapted = []  # g_j: the row of G_j whose pivot G_{j-1} lacks
    for fl in flags:
        old, basis = set(), []
        for key in fl:
            basis.append(next(r for r in key if _pivot(r) not in old))
            old = {_pivot(r) for r in key}
        adapted.append(basis)
    pts = [[convolution._points(key, q) for key in fl] for fl in flags]
    ranks, counts = [], []
    for a, b in product(range(len(flags)), repeat=2):
        ranks.append(reference_relative_position(pivoted[a], adapted[b], q))
        counts.append(tuple([len(x & y) for x in pts[a] for y in pts[b]]))
    points = [(q ** d - 1) // (q - 1) for d in range(n)]
    assert counts == [tuple(map(points.__getitem__, r)) for r in ranks]

    def numbering(keys):
        index = {}
        return [index.setdefault(k, len(index)) for k in keys]

    assert numbering(counts) == numbering(ranks)
    assert max(numbering(ranks)) + 1 == len(list(permutations(range(n))))


def test_hecke_refuses_outside_cap():
    for n, q in [(0, 2), (1, 2), (2, 1), (5, 2), (4, 5), (3, 23),
                 (2, 1000000007)]:
        with pytest.raises(ConvError):
            hecke_algebra(n, q)
