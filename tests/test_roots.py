import random
import time
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from quivar.fields import QQ
from quivar.linalg import Mat
from quivar.quiver import (aq_form, cartan, dot, jordan_quiver, make_quiver,
                           type_a_quiver)
from quivar.roots import (HKParam, RootsError, _datum_of, _ints,
                          classify_cartan,
                          freudenthal_mult, gg_analysis, is_dominant,
                          is_v_regular, p_defect, positive_roots,
                          rprime_below, weight_of)


def test_p_defect_examples():
    a2 = type_a_quiver(2)
    assert p_defect(a2, {"1": 1, "2": 1}) == 0
    assert p_defect(a2, {"1": 1, "2": 0}) == 0
    for n in range(1, 5):
        assert p_defect(jordan_quiver(), {"0": n}) == 1


def test_rprime_below_a2():
    out = rprime_below(type_a_quiver(2), {"1": 1, "2": 1})
    assert out == [{"1": 0, "2": 1}, {"1": 1, "2": 0}, {"1": 1, "2": 1}]


def test_rprime_below_jordan_and_zero():
    assert len(rprime_below(jordan_quiver(), {"0": 3})) == 3
    assert rprime_below(type_a_quiver(2), {"1": 0, "2": 0}) == []


def test_rprime_matches_reflection_roots():
    # finite type: the bounded list in a large box is the positive-root list
    for n, count in ((2, 3), (3, 6)):
        q = type_a_quiver(n)
        box = {k: 3 for k in q.vertices}
        listed = {tuple(a[k] for k in q.vertices) for a in rprime_below(q, box)
                  if sum(a.values()) <= n}
        refl = set(positive_roots(cartan(q)))
        assert refl <= listed
        assert len(refl) == count


def test_regularity():
    a2 = type_a_quiver(2)
    v = {"1": 1, "2": 1}
    theta_plus = {"1": 1, "2": 1}
    p = HKParam.make({"1": 0, "2": 0}, theta_plus)
    assert is_v_regular(a2, p, v)["regular"]
    p0 = HKParam.make({"1": 0, "2": 0}, {"1": 0, "2": 0})
    rep = is_v_regular(a2, p0, v)
    assert not rep["regular"] and rep["witness"] is not None
    p3 = HKParam.make({"1": 0, "2": 0}, {"1": 1, "2": -1})
    rep = is_v_regular(a2, p3, v)
    assert not rep["regular"] and rep["witness"] == {"1": 1, "2": 1}


def test_regularity_complex_lambda():
    # purely imaginary lambda still counts as nonzero
    a2 = type_a_quiver(2)
    p = HKParam.make({"1": 0, "2": 0}, {"1": 0, "2": 0},
                     lam_im={"1": 1, "2": -1})
    rep = is_v_regular(a2, p, {"1": 1, "2": 1})
    assert not rep["regular"] and rep["witness"] == {"1": 1, "2": 1}


def test_classify_cartan():
    assert classify_cartan([[2, -1], [-1, 2]]) == "finite"
    assert classify_cartan([[2, -2], [-2, 2]]) == "affine"
    assert classify_cartan([[2, -3], [-3, 2]]) == "indefinite"
    assert classify_cartan([[0]]) == "affine"  # the loop vertex
    with pytest.raises(RootsError):
        classify_cartan([[2, -1], [0, 2]])


def classify_by_every_minor(c):
    """The definition: finite when every leading principal minor is > 0,
    affine when det C = 0 and all 2^n - 2 proper principal minors are > 0."""
    n = len(c)
    m = Mat.from_ints(QQ, c)

    def minor(idx):
        return m.submatrix(idx, idx).det()

    if all(minor(list(range(k + 1))) > 0 for k in range(n)):
        return "finite"
    if minor(list(range(n))) == 0 and all(
            minor([i for i in range(n) if mask >> i & 1]) > 0
            for mask in range(1, 2 ** n - 1)):
        return "affine"
    return "indefinite"


def test_classify_cartan_matches_every_minor():
    # seeded symmetric matrices with C_ii <= 2, and the affine cycles, D~4
    # and D~5 with their vertices permuted and half of them with one
    # symmetric pair of entries moved by 1, against the 2^n definition
    rng = random.Random(11)
    affine = [[(k, (k + 1) % n) for k in range(n)] for n in range(1, 7)]
    affine += [[(0, 1), (0, 2), (0, 3), (0, 4)],
               [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]]
    cases = []
    for edges in affine:
        n = 1 + max(max(e) for e in edges)
        c = cartan(make_quiver(range(n), [(f"e{k}", t, h)
                                          for k, (t, h) in enumerate(edges)]))
        for _ in range(40):
            perm = rng.sample(range(n), n)
            d = [[c[a][b] for b in perm] for a in perm]
            a, b = rng.randrange(n), rng.randrange(n)
            step = -1 if a == b else rng.choice([-1, 1])  # C_aa <= 2
            if rng.random() < 0.5:
                d[a][b] = d[b][a] = d[a][b] + step
            cases.append(d)
    for _ in range(600):
        n = rng.randint(1, 6)
        c = [[0] * n for _ in range(n)]
        for a in range(n):
            c[a][a] = rng.choice([2, 2, 2, 2, 1, 0, -2])
            for b in range(a):
                c[a][b] = c[b][a] = rng.choice([0, 0, 0, -1, -1, -2, 1])
        cases.append(c)
    kinds = [classify_by_every_minor(c) for c in cases]
    assert [classify_cartan(c) for c in cases] == kinds
    assert min(kinds.count(k) for k in ("finite", "affine")) >= 100


def test_classify_cartan_is_polynomial_in_the_vertices():
    # the oriented 16-cycle is affine A~15; testing all 2^16 - 2 proper
    # principal minors took 13 s, the 16 drop-one submatrices take < 1 s
    q = make_quiver(range(16), [(f"e{k}", k, (k + 1) % 16) for k in range(16)])
    t0 = time.perf_counter()
    assert classify_cartan(cartan(q)) == "affine"
    assert time.perf_counter() - t0 < 1.0


def test_gg_flat_two_components():
    rep = gg_analysis(type_a_quiver(2), {"1": 0, "2": 0}, {"1": 1, "2": 1})
    assert rep["flat"] and not rep["strict"]
    assert len(rep["components"]) == 2
    assert rep["component_dim"] == 1


def test_gg_strict_with_generic_lambda():
    rep = gg_analysis(type_a_quiver(2), {"1": 1, "2": -1}, {"1": 1, "2": 1})
    assert rep["flat"] and rep["strict"]
    assert rep["components"] == [[{"1": 1, "2": 1}]]


def test_gg_single_vertex():
    a1 = make_quiver(["1"], [])
    rep = gg_analysis(a1, {"1": 0}, {"1": 1})
    assert rep["num_decompositions"] == 1
    assert rep["component_dim"] == 0


def _decompositions(v_tup, roots, start):
    """Multiset decompositions of v_tup into roots[start:], non-increasing."""
    if all(x == 0 for x in v_tup):
        return [()]
    out = []
    for k in range(start, len(roots)):
        r = roots[k]
        if all(a >= b for a, b in zip(v_tup, r)):
            rest = tuple(a - b for a, b in zip(v_tup, r))
            for tail in _decompositions(rest, roots, k):
                out.append((k,) + tail)
    return out


def _reference_gg(q, lam, v):
    """The report of gg_analysis read off the list of every decomposition
    of v into the roots alpha <= v with lambda . alpha = 0."""
    lam = {k: Fraction(lam.get(k, 0)) for k in q.vertices}
    if sum(lam[k] * v[k] for k in v) != 0:
        raise RootsError("lambda . v must vanish for the fiber to be nonempty")
    kind = classify_cartan(cartan(q))
    if kind == "indefinite":
        raise RootsError("indefinite Cartan type is not supported")
    verts = list(q.vertices)
    roots = sorted([tuple(a[k] for k in verts) for a in rprime_below(q, v)
                    if sum(lam[k] * a[k] for k in a) == 0], reverse=True)
    decomps = _decompositions(tuple(v[k] for k in verts), roots, 0)
    pv = p_defect(q, v)
    pr = {r: p_defect(q, dict(zip(verts, r))) for r in roots}
    flat, strict, components = True, True, []
    for d in decomps:
        parts = [roots[k] for k in d]
        total = sum(pr[r] for r in parts)
        if total > pv:
            flat = False
        if total == pv:
            components.append([dict(zip(verts, r)) for r in parts])
            if len(parts) > 1:
                strict = False
    return {"cartan_type": kind, "flat": flat, "strict": strict,
            "num_decompositions": len(decomps), "components": components,
            "component_dim": 1 + 2 * aq_form(q, v, v) - dot(v, v)}


def _gg_grid():
    """(quiver, lambda, v): the Jordan quiver with v <= 8 at lambda = 0; A2,
    A3, the cyclic quiver of type A~2 and the Kronecker quiver with every
    entry of v at most 3, at lambda = 0, (1, -1, 0) and (2, 0, -1) (the
    first two entries on two vertices)."""
    jordan = jordan_quiver()
    for n in range(9):
        yield jordan, {"0": 0}, {"0": n}
    cyclic = make_quiver(["0", "1", "2"],
                         [("a", "0", "1"), ("b", "1", "2"), ("c", "2", "0")])
    kronecker = make_quiver(["a", "b"], [("x", "a", "b"), ("y", "a", "b")])
    for q in (type_a_quiver(2), type_a_quiver(3), cyclic, kronecker):
        verts = list(q.vertices)
        for lam in ((0, 0, 0), (1, -1, 0), (2, 0, -1)):
            for tup in product(range(4), repeat=len(verts)):
                yield q, dict(zip(verts, lam)), dict(zip(verts, tup))


def test_gg_matches_the_listed_decompositions():
    # the whole report, component order included, against the enumeration
    # of every decomposition; v = 0 (p(0) = 1, no component) is in the grid
    cases = 0
    for q, lam, v in _gg_grid():
        try:
            want = _reference_gg(q, lam, v)
        except RootsError:
            with pytest.raises(RootsError):
                gg_analysis(q, lam, v)
            continue
        assert gg_analysis(q, lam, v) == want, (q.vertices, lam, v)
        cases += 1
    assert cases > 150


def test_gg_answers_decompositions_deeper_than_the_recursion_limit():
    # 1500 simple roots on A1, and the partitions of 300 on the Jordan
    # quiver: the counts are filled in order of the remainder, not by a
    # recursion per root of a decomposition
    rep = gg_analysis(type_a_quiver(1), {}, {"1": 1500})
    assert rep["num_decompositions"] == 1 and rep["components"] == []
    rep = gg_analysis(jordan_quiver(), {}, {"0": 300})
    assert rep["num_decompositions"] == 9253082936723602  # p(300)
    assert rep["components"] == [[{"0": 300}]] and not rep["flat"]


def test_gg_requires_pairing_zero():
    with pytest.raises(RootsError):
        gg_analysis(type_a_quiver(2), {"1": 1, "2": 0}, {"1": 1, "2": 1})


def test_gg_rejects_indefinite():
    q = make_quiver(["a", "b"], [(f"e{k}", "a", "b") for k in range(3)])
    with pytest.raises(RootsError):
        gg_analysis(q, {"a": 0, "b": 0}, {"a": 1, "b": 1})


def test_weight_of():
    a2 = type_a_quiver(2)
    assert weight_of(a2, {"1": 0, "2": 0}, {"1": 2, "2": 1}) == {"1": 2, "2": 1}
    assert weight_of(a2, {"1": 1, "2": 1}, {"1": 1, "2": 1}) == {"1": 0, "2": 0}
    a1 = make_quiver(["1"], [])
    for r in range(4):
        for k in range(4):
            assert weight_of(a1, {"1": k}, {"1": r}) == {"1": r - 2 * k}
    assert is_dominant({"1": 0, "2": 3})
    assert not is_dominant({"1": -1, "2": 3})


def test_positive_roots_counts():
    assert len(positive_roots([[2]])) == 1
    assert len(positive_roots(cartan(type_a_quiver(2)))) == 3
    assert len(positive_roots(cartan(type_a_quiver(3)))) == 6


def reflection_roots(c):
    """The positive roots as they were found before the generation by
    height: the simple roots closed under the simple reflections, then the
    vectors with no negative coordinate."""
    n = len(c)
    simple = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for j in range(n):
                pairing = sum(beta[i] * c[i][j] for i in range(n))
                refl = tuple(beta[i] - (pairing if i == j else 0)
                             for i in range(n))
                if refl not in roots:
                    new.add(refl)
        roots |= new
        frontier = new
    return sorted(r for r in roots if all(x >= 0 for x in r))


def dynkin_cartan(n, edges):
    return cartan(make_quiver(range(n), [(f"e{k}", t, h)
                                         for k, (t, h) in enumerate(edges)]))


def ade_cartans():
    """(name, C, number of positive roots) for A1-A8, D4-D8 and E6-E8."""
    def path(n):
        return [(k, k + 1) for k in range(n - 1)]
    out = [(f"A{n}", dynkin_cartan(n, path(n)), n * (n + 1) // 2)
           for n in range(1, 9)]
    out += [(f"D{n}", dynkin_cartan(n, path(n - 1) + [(n - 3, n - 1)]),
             n * (n - 1)) for n in range(4, 9)]
    out += [(f"E{n}", dynkin_cartan(n, path(n - 1) + [(2, n - 1)]), count)
            for n, count in ((6, 36), (7, 63), (8, 120))]
    return out


def test_positive_roots_by_height_match_the_reflection_closure():
    # ADE of rank <= 8, and every positive definite symmetric C with n <= 4
    # (C_ii <= 2 leaves C_ii in {1, 2} and the other entries in
    # {-1, 0, 1}). Where C_ii = 1 the reflection s_i takes alpha_i to the
    # zero vector, which the closure kept as a root; the generation by
    # height adds only simple roots, so it never has it
    for name, c, count in ade_cartans():
        assert positive_roots(c) == reflection_roots(c), name
        assert len(positive_roots(c)) == count, name
    definite = 0
    for n in range(1, 5):
        pairs = [(a, b) for a in range(n) for b in range(a)]
        for diag in product((1, 2), repeat=n):
            for off in product((-1, 0, 1), repeat=len(pairs)):
                c = [[0] * n for _ in range(n)]
                for a in range(n):
                    c[a][a] = diag[a]
                for (a, b), x in zip(pairs, off):
                    c[a][b] = c[b][a] = x
                if any(x <= 0 for x in
                       Mat.from_ints(QQ, c).leading_minors()):
                    continue
                definite += 1
                assert positive_roots(c) == [
                    r for r in reflection_roots(c) if any(r)], c
    assert definite == 1608


def test_freudenthal_sl2_strings():
    c = [[2]]
    for r in range(6):
        for k in range(r + 1):
            assert freudenthal_mult(c, (r,), (r - 2 * k,)) == 1
        assert freudenthal_mult(c, (r,), (r + 2,)) == 0
        assert freudenthal_mult(c, (r,), (r - 1,)) == 0


def test_freudenthal_sl3_adjoint():
    c = cartan(type_a_quiver(2))
    assert freudenthal_mult(c, (1, 1), (1, 1)) == 1
    assert freudenthal_mult(c, (1, 1), (0, 0)) == 2
    assert freudenthal_mult(c, (1, 1), (-1, 2)) == 1


def _weyl_dim_a2(lam):
    # Weyl dimension formula for A2: product over positive roots
    a, b = lam
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def test_freudenthal_total_dimension():
    # multiplicities summed over the weight lattice recover dim V(lam)
    c = cartan(type_a_quiver(2))
    for lam in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]:
        total = 0
        for m1, m2 in product(range(-8, 9), repeat=2):
            total += freudenthal_mult(c, lam, (m1, m2))
        assert total == _weyl_dim_a2(lam)


def test_freudenthal_gates():
    with pytest.raises(RootsError):
        freudenthal_mult([[2, -2], [-2, 2]], (1, 0), (1, 0))
    with pytest.raises(RootsError):
        freudenthal_mult([[2]], (-1,), (1,))
    # C_ii = 1 passes as positive definite, and was read as a Cartan matrix
    with pytest.raises(RootsError, match="diagonal entries 2"):
        freudenthal_mult([[1]], [1], [1])
    with pytest.raises(RootsError, match="diagonal entries 2"):
        freudenthal_mult([[2, -1], [-1, 1]], [1, 0], [1, 0])


# the recursion as it ran on weights before it ran on dimension vectors,
# verbatim: weights converted back to root coordinates at every step and
# each pairing an n^2 sum scaled by det C
def reference_freudenthal(c, lam, mu) -> int:
    """Weight multiplicity of mu in the irreducible module with highest
    weight lam (both in fundamental-weight coordinates), via the
    Freudenthal recursion over the finite positive-root list.

    C^-1 is cleared once to adj(C) / det(C), so the recursion runs in ints:
    ``inner`` is det(C) times the form, which cancels from the quotient of
    the recursion, and the root coordinates C^-1 (lam - m) are a divmod by
    det(C) > 0. Both, and the positive roots, come from the datum of C."""
    kind, det, adj, _, pos_w = _datum_of(c)
    if kind != "finite":
        raise RootsError("Freudenthal recursion requires finite type")
    n = len(adj)
    lam, mu = _ints(lam, "highest weight", n), _ints(mu, "weight", n)
    if any(x < 0 for x in lam):
        raise RootsError("highest weight must be dominant")

    def inner(a, b):  # det(C) (a, b), both in fundamental-weight coords
        return sum(a[i] * adj[i][j] * b[j] for i in range(n) for j in range(n))

    def root_gap(m):
        # coefficients k with lam - m = sum k_i alpha_i, or None
        diff = [lam[i] - m[i] for i in range(n)]
        ks = []
        for row in adj:
            k, r = divmod(sum(x * y for x, y in zip(row, diff)), det)
            if r or k < 0:
                return None
            ks.append(k)
        return tuple(ks)

    rho = (1,) * n
    lr = tuple(lam[i] + rho[i] for i in range(n))
    top = inner(lr, lr)
    memo = {}

    def mult(m):
        if m in memo:
            return memo[m]
        gap = root_gap(m)
        if gap is None:
            return 0
        if all(k == 0 for k in gap):
            memo[m] = 1
            return 1
        num = 0
        for aw in pos_w:
            k = 1
            while True:
                nu = tuple(m[i] + k * aw[i] for i in range(n))
                if root_gap(nu) is None:
                    break
                mv = mult(nu)
                if mv:
                    num += mv * inner(nu, aw)
                k += 1
        mr = tuple(m[i] + rho[i] for i in range(n))
        denom = top - inner(mr, mr)
        if denom <= 0:
            memo[m] = 0
            return 0
        val, rest = divmod(2 * num, denom)
        if rest or val < 0:
            raise RootsError("Freudenthal recursion produced a non-integer")
        memo[m] = val
        return val

    return mult(mu)


ADE = {name: c for name, c, _ in ade_cartans()}


def _outcome(fn, c, lam, mu):
    try:
        return fn(c, lam, mu)
    except RootsError as err:
        return type(err)


def test_freudenthal_matches_the_weight_coordinate_reference():
    # seeded (C, lam, mu) over A1-A5, D4, D5 and E6: mu = lam - C beta for
    # a small beta >= 0 (mostly not dominant), mu above lam (beta < 0), mu
    # off the root lattice coset of lam, and bad weights
    rng = random.Random("freudenthal on dimension vectors")
    nonzero = 0
    for name in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"):
        c = ADE[name]
        n = len(c)
        pos = positive_roots(c)
        for _ in range(20):
            lam = [0] * n
            for _ in range(rng.randint(1, 3 if n <= 3 else 2)):
                lam[rng.randrange(n)] += 1
            beta = [sum(col) for col in zip(*rng.choices(
                pos, k=rng.randint(1, 3 if n <= 4 else 2)))]
            below = [x - sum(map(mul, row, beta)) for x, row in zip(lam, c)]
            alpha = rng.choice(pos)
            above = [x + sum(map(mul, row, alpha)) for x, row in zip(lam, c)]
            off = below[:]
            off[0] -= 1  # omega_0 is not in the root lattice of any of them
            bad = lam[:]
            bad[rng.randrange(n)] = -1
            for lam_, mu in ((lam, below), (lam, above), (lam, off),
                             (bad, lam), (lam, lam[:-1])):
                want = _outcome(reference_freudenthal, c, lam_, mu)
                assert _outcome(freudenthal_mult, c, lam_, mu) == want, \
                    (name, lam_, mu)
                nonzero += want not in (0, RootsError)
    assert nonzero >= 80


def test_freudenthal_sums_to_weyls_dimension():
    # the weights of L(lam) are saturated, so walking beta up from 0 by
    # simple roots while the multiplicity of lam - C beta stays positive
    # reaches all of them; their multiplicities add up to Weyl's
    # prod (lam + rho, alpha) / (rho, alpha) over the positive roots alpha
    cases = [("A1", (3,)), ("A3", (1, 0, 1)), ("A3", (0, 2, 0)),
             ("A4", (1, 0, 0, 1)), ("D4", (0, 1, 0, 0)), ("D4", (1, 0, 0, 1)),
             ("D5", (1, 0, 0, 0, 0)), ("D5", (0, 0, 0, 1, 0))]
    for name, lam in cases:
        c = ADE[name]
        n = len(c)
        seen, level, total = set(), [(0,) * n], 0
        while level:
            above = []
            for beta in level:
                mu = [x - sum(map(mul, row, beta)) for x, row in zip(lam, c)]
                m = freudenthal_mult(c, lam, mu)
                if m:
                    total += m
                    for i in range(n):
                        up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                        if up not in seen:
                            seen.add(up)
                            above.append(up)
            level = above
        num = den = 1
        for alpha in positive_roots(c):
            num *= sum((x + 1) * a for x, a in zip(lam, alpha))
            den *= sum(alpha)
        assert total * den == num, (name, lam, total)


def test_freudenthal_e6_adjoint_zero_weight():
    # the zero weight of the adjoint module is its Cartan subalgebra
    assert freudenthal_mult(ADE["E6"], (0, 0, 0, 0, 0, 1), (0,) * 6) == 6


# each bad input was accepted or failed with IndexError before: a wrong
# length was cut by zip or indexed past the end, and int() truncated
@pytest.mark.parametrize("c", [[[2, -1], [-1]], [[2, -1]], [[2], [-1]]])
def test_non_square_cartan_refused(c):
    with pytest.raises(RootsError, match="entries"):
        classify_cartan(c)
    with pytest.raises(RootsError, match="entries"):
        freudenthal_mult(c, (1, 0), (1, 0))


def test_non_integral_cartan_refused():
    with pytest.raises(RootsError, match="integers"):
        classify_cartan([[2, -0.5], [-0.5, 2]])
    with pytest.raises(RootsError, match="integers"):
        freudenthal_mult([[Fraction(3, 2)]], (1,), (1,))


@pytest.mark.parametrize("lam, mu", [((1, 2), (0,)), ((1,), (0, 0)),
                                     ((), (0,)), ((1,), ())])
def test_weights_of_the_wrong_length_refused(lam, mu):
    with pytest.raises(RootsError, match="entries"):
        freudenthal_mult([[2]], lam, mu)
    with pytest.raises(RootsError, match="entries"):
        freudenthal_mult(cartan(type_a_quiver(2)), lam + (0,), mu + (0,) * 3)


@pytest.mark.parametrize("lam, mu", [((1.5,), (1,)), ((1,), (0.5,)),
                                     ((Fraction(1, 2),), (1,))])
def test_non_integral_weights_refused(lam, mu):
    with pytest.raises(RootsError, match="integers"):
        freudenthal_mult([[2]], lam, mu)
    # integral values of other types are the same weight
    assert freudenthal_mult([[2]], (2.0,), (Fraction(0),)) == 1


@pytest.mark.parametrize("theta", [0.5, Fraction(1, 2), -1.25])
def test_non_integral_theta_refused(theta):
    with pytest.raises(RootsError, match="integers"):
        HKParam.make({"1": 0}, {"1": theta})
    assert HKParam.make({"1": 0}, {"1": 2.0}).theta == {"1": 2}


# each leaked a raw ValueError, OverflowError or TypeError from int()
@pytest.mark.parametrize("call", [
    lambda: freudenthal_mult([[2]], [float("nan")], [0]),
    lambda: freudenthal_mult([[2]], [float("inf")], [0]),
    lambda: classify_cartan([[None]]),
], ids=["nan", "inf", "None"])
def test_nan_inf_and_none_refused(call):
    with pytest.raises(RootsError, match="entries must be integers"):
        call()


def test_bool_weights_and_theta_refused():
    # int(True) == True, so a bool once read as the weight or theta 1
    with pytest.raises(RootsError,
                       match=r"highest weight entries must be integers: "
                             r"\[True\]"):
        freudenthal_mult([[2]], [True], [True])
    with pytest.raises(RootsError, match=r"weight entries must be "
                                         r"integers: \[False\]"):
        freudenthal_mult([[2]], [2], [False])
    # the datum of C is cached by its rows, and (2, False) == (2, 0)
    assert classify_cartan([[2, 0], [0, 2]]) == "finite"
    with pytest.raises(RootsError, match="Cartan matrix row entries must be "
                                         "integers"):
        classify_cartan([[2, False], [False, 2]])
    with pytest.raises(RootsError, match=r"theta entries must be integers: "
                                         r"\[True\]"):
        HKParam.make({"0": 0}, {"0": True})
    assert freudenthal_mult([[2]], [1], [1]) == 1
    assert HKParam.make({"0": 0}, {"0": 1}).theta == {"0": 1}
