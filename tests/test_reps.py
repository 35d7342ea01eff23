import importlib.util
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quivar import linalg
from quivar.fields import FieldError, PrimeField, QQ
from quivar.linalg import (Mat, annihilator_rows, enumerate_subspaces,
                           incidence_index, point_images, preimage,
                           subspace_contains, subspace_intersect,
                           subspace_sum, tensor_bits)
from quivar.quiver import (QuiverError, double, jordan_quiver, make_quiver,
                           opposite, type_a_quiver)
from quivar.reps import (FramedRep, GradedSubspace, Rep, RepError,
                         _invariant_tuples, _pairs, endomorphism_space,
                         invariant_subspaces_bruteforce, is_stable_minus,
                         is_stable_plus, max_core, min_closure,
                         moment_residual, random_framed_rep, random_rep,
                         semistable_bruteforce, trace_of_cycle,
                         trace_signature, unframed_fiber_obstruction)


def ker_j_im_i(fr):
    """Ker j and Im i of a framed quadruple, as graded subspaces."""
    return (GradedSubspace(fr.field, fr.v,
                           {k: fr.j[k].kernel_basis() for k in fr.v}),
            GradedSubspace(fr.field, fr.v, {k: fr.i[k] for k in fr.v}))


def jordan_framed(x, y, i, j, v, w=1):
    dq = double(jordan_quiver())
    rep = Rep(dq, QQ, {"0": v}, {"x": Mat.from_ints(QQ, x),
                                 "x*": Mat.from_ints(QQ, y)})
    return FramedRep(rep, {"0": w},
                     {"0": Mat.from_ints(QQ, i)},
                     {"0": Mat.from_ints(QQ, j)})


def test_shape_validation():
    dq = double(jordan_quiver())
    with pytest.raises(RepError):
        Rep(dq, QQ, {"0": 2}, {"x": Mat.zeros(QQ, 2, 2),
                               "x*": Mat.zeros(QQ, 1, 2)})
    with pytest.raises(RepError):
        Rep(dq, QQ, {"0": 2}, {"x": Mat.zeros(QQ, 2, 2)})


# the framing goes through check_dimvector: w = 1.5 was once accepted and
# kept (its shape read as 1), and a key that is no vertex was kept too
@pytest.mark.parametrize("w", [{"0": 1.5}, {"0": 1, "1": 0}],
                         ids=["non-integral", "foreign key"])
def test_framing_is_a_dimension_vector(w):
    dq = double(jordan_quiver())
    rep = Rep(dq, QQ, {"0": 1}, {"x": Mat.zeros(QQ, 1, 1),
                                 "x*": Mat.zeros(QQ, 1, 1)})
    i, j = {"0": Mat.zeros(QQ, 1, 1)}, {"0": Mat.zeros(QQ, 1, 1)}
    with pytest.raises(QuiverError):
        FramedRep(rep, w, i, j)
    assert FramedRep(rep, {"0": 1.0}, i, j).w == {"0": 1}


def test_framing_defaults_to_zero_at_an_omitted_vertex():
    dq = double(type_a_quiver(2))
    rep = Rep(dq, QQ, {"1": 1, "2": 0},
              {"a1": Mat.zeros(QQ, 1, 0), "a1*": Mat.zeros(QQ, 0, 1)})
    fr = FramedRep(rep, {"1": 1}, {"1": Mat.zeros(QQ, 1, 1),
                                   "2": Mat.zeros(QQ, 0, 0)},
                   {"1": Mat.zeros(QQ, 1, 1), "2": Mat.zeros(QQ, 0, 0)})
    assert fr.w == {"1": 1, "2": 0}


def test_moment_residual_zero_on_fiber():
    # x = E12, y = -E21, i = e1, j = (2, 0): [x, y] + i j = Id
    fr = jordan_framed([[0, 1], [0, 0]], [[0, 0], [-1, 0]],
                       [[1], [0]], [[2, 0]], 2)
    res = moment_residual(fr, {"0": Fraction(1)})
    assert all(m.is_zero() for m in res.values())


def test_moment_residual_traces():
    rng = random.Random(5)
    dq = double(type_a_quiver(2))
    for _ in range(50):
        fr = random_framed_rep(dq, {"1": 2, "2": 1}, {"1": 1, "2": 1}, QQ, rng)
        lam = {k: Fraction(rng.randint(-2, 2)) for k in dq.vertices}
        res = moment_residual(fr, lam)
        lhs = sum((res[k].trace() for k in dq.vertices), Fraction(0))
        lhs += sum(lam[k] * fr.v[k] for k in dq.vertices)
        rhs = sum(((fr.i[k] @ fr.j[k]).trace() for k in dq.vertices), Fraction(0))
        assert lhs == rhs


def test_preprojective_check_unframed():
    dq = double(jordan_quiver())
    rep = Rep(dq, QQ, {"0": 2}, {"x": Mat.from_ints(QQ, [[0, 1], [0, 0]]),
                                 "x*": Mat.from_ints(QQ, [[0, 0], [0, 0]])})

    def on_fiber(lam):
        return all(m.is_zero() for m in moment_residual(rep, lam).values())

    assert on_fiber({"0": 0})
    assert not on_fiber({"0": 1})


def test_unframed_obstruction():
    rep = unframed_fiber_obstruction(jordan_quiver(), {"0": 3}, {"0": 1})
    assert rep["empty_by_obstruction"]
    rep = unframed_fiber_obstruction(jordan_quiver(), {"0": 3}, {"0": 0})
    assert not rep["empty_by_obstruction"]


def test_trace_signature_conjugation_invariant():
    rng = random.Random(11)
    jq = jordan_quiver()
    for _ in range(20):
        v = rng.randint(1, 3)
        r = random_rep(jq, {"0": v}, QQ, rng)
        while True:
            g = Mat(QQ, [[QQ.random(rng, 3) for _ in range(v)]
                         for _ in range(v)], v, v)
            if not QQ.is_zero(g.det()):
                break
        conj = Rep(jq, QQ, {"0": v},
                   {"x": g @ r.mats["x"] @ g.solve(Mat.identity(QQ, v))})
        assert trace_signature(r, 3) == trace_signature(conj, 3)


def test_trace_signature_acyclic_empty():
    assert trace_signature(random_rep(type_a_quiver(3), {"1": 1, "2": 2, "3": 1},
                                      QQ, random.Random(0)), 4) == []


def test_trace_of_cycle_validates():
    dq = double(type_a_quiver(2))
    r = random_rep(dq, {"1": 1, "2": 1}, QQ, random.Random(0))
    with pytest.raises(RepError):
        trace_of_cycle(r, [dq.edge("a1"), dq.edge("a1")])


def test_s_equivalence_probe():
    # conjugate reps share every trace; diag(1, 2) and diag(1, 3) already
    # differ on the 1-cycle x
    jq = jordan_quiver()
    r1 = Rep(jq, QQ, {"0": 2}, {"x": Mat.from_ints(QQ, [[1, 0], [0, 2]])})
    r2 = Rep(jq, QQ, {"0": 2}, {"x": Mat.from_ints(QQ, [[2, 0], [0, 1]])})
    r3 = Rep(jq, QQ, {"0": 2}, {"x": Mat.from_ints(QQ, [[1, 0], [0, 3]])})
    s1 = trace_signature(r1, 2)
    assert s1 == trace_signature(r2, 2)
    differ = [c for (c, t1), (_, t3) in zip(s1, trace_signature(r3, 2))
              if t1 != t3]
    assert differ[0] == ("x",)


def test_closures():
    # x = nilpotent Jordan block, i = e2: spinning e2 fills the space
    fr = jordan_framed([[0, 1], [0, 0]], [[0, 0], [0, 0]],
                       [[0], [1]], [[0, 0]], 2)
    kernel, image = ker_j_im_i(fr)
    assert min_closure(fr.rep, image).dims() == fr.v
    # ker j is everything, and it is invariant, so the max core is full
    assert max_core(fr.rep, kernel).dims() == fr.v
    assert is_stable_minus(fr)
    assert not is_stable_plus(fr)


def test_stability_transpose_symmetry():
    # stable+ with i = e1, j picks off the cyclic covector side
    fr = jordan_framed([[0, 0], [1, 0]], [[0, 0], [0, 0]],
                       [[0], [0]], [[0, 1]], 2)
    assert is_stable_plus(fr)
    assert not is_stable_minus(fr)


def test_bruteforce_matches_closure_on_fp():
    rng = random.Random(2)
    dq = double(jordan_quiver())
    f2 = PrimeField(2)
    for _ in range(200):
        fr = random_framed_rep(dq, {"0": 2}, {"0": 1}, f2, rng)
        plus = semistable_bruteforce(fr, {"0": 1})
        minus = semistable_bruteforce(fr, {"0": -1})
        assert plus["stable"] == is_stable_plus(fr)
        assert minus["stable"] == is_stable_minus(fr)
        if not plus["semistable"]:
            assert plus["witness"] is not None


def test_bruteforce_limit():
    dq = double(jordan_quiver())
    fr = random_framed_rep(dq, {"0": 3}, {"0": 1}, PrimeField(2),
                           random.Random(0))
    with pytest.raises(RepError):
        semistable_bruteforce(fr, {"0": 1}, limit=3)


# -- the reference closures: Kleene fixed points -------------------------

def reference_min_closure(rep, seed):
    """Least invariant subspace over the seed by the iteration the closures
    ran before the spin: add every edge image of the current subspace,
    re-spanning each vertex, until nothing changes."""
    cur = seed
    for _ in range(rep.total_dim() + 1):
        bases = dict(cur.bases)
        for e in rep.quiver.edges:
            img = rep.mats[e.name] @ cur.bases[e.tail]
            bases[e.head] = subspace_sum(bases[e.head], img)
        nxt = GradedSubspace(rep.field, cur.ambient, bases)
        if nxt == cur:
            return cur
        cur = nxt
    return cur


def reference_max_core(rep, bound):
    """Greatest invariant subspace under the bound by the iteration the
    closures ran before the spin: cut every tail down to the preimage of
    its head, until nothing changes."""
    cur = bound
    for _ in range(rep.total_dim() + 1):
        bases = dict(cur.bases)
        for e in rep.quiver.edges:
            pre = preimage(rep.mats[e.name], cur.bases[e.head])
            bases[e.tail] = subspace_intersect(bases[e.tail], pre)
        nxt = GradedSubspace(rep.field, cur.ambient, bases)
        if nxt == cur:
            return cur
        cur = nxt
    return cur


def annihilator(s):
    """Ann(S) as a graded subspace of column vectors of the same ambient."""
    return GradedSubspace(s.field, s.ambient, {
        k: annihilator_rows(b).transpose() for k, b in s.bases.items()})


def transposed(rep):
    """The representation x^T of the opposite quiver."""
    return Rep(opposite(rep.quiver), rep.field, rep.v,
               {name: m.transpose() for name, m in rep.mats.items()})


CLOSURE_SHAPES = [
    (double(make_quiver(["1"], [])), [{"1": 0}, {"1": 1}, {"1": 2},
                                      {"1": 3}]),
    (double(jordan_quiver()), [{"0": 0}, {"0": 1}, {"0": 2}, {"0": 3}]),
    (double(type_a_quiver(2)), [{"1": 0, "2": 2}, {"1": 2, "2": 1},
                                {"1": 1, "2": 2}, {"1": 2, "2": 2}]),
    (double(type_a_quiver(3)), [{"1": 1, "2": 0, "3": 1},
                                {"1": 1, "2": 1, "3": 1},
                                {"1": 2, "2": 1, "3": 0},
                                {"1": 1, "2": 2, "3": 1}]),
]


def sparse_mat(f, rows, cols, rng):
    # mostly zero, so that proper invariant subspaces are common
    return Mat(f, [[f.random(rng, 3) if rng.random() < 0.4 else f.zero()
                    for _ in range(cols)] for _ in range(rows)], rows, cols)


def low_rank(f, m, rng):
    """A matrix of the shape of m whose columns are multiples of one."""
    u = [f.random(rng, 3) for _ in range(m.rows)]
    c = [f.random(rng, 3) for _ in range(m.cols)]
    return Mat(f, [[f.mul(a, b) for b in c] for a in u], m.rows, m.cols)


def seeded_framed(dq, v, f, rng):
    """A sparse framed quadruple with w in 0..3 per vertex (0 at one), and
    i, j of rank at most one half of the time."""
    w = {k: rng.choice([0, 1, 2, 3]) for k in v}
    w[rng.choice(list(v))] = 0
    rep = Rep(dq, f, v, {e.name: sparse_mat(f, v[e.head], v[e.tail], rng)
                         for e in dq.edges})
    i = {k: sparse_mat(f, v[k], w[k], rng) for k in v}
    j = {k: sparse_mat(f, w[k], v[k], rng) for k in v}
    if rng.random() < 0.5:
        i = {k: low_rank(f, m, rng) for k, m in i.items()}
        j = {k: low_rank(f, m, rng) for k, m in j.items()}
    return FramedRep(rep, w, i, j)


def random_graded(f, v, rng):
    return GradedSubspace(f, v, {k: sparse_mat(f, d, rng.randint(0, d), rng)
                                 for k, d in v.items()})


def check_closures_on_seeded_reps(field, per_shape, seed):
    """Spin closures and deciders against the reference closures on
    ``per_shape`` seeded quadruples for each dimension vector of
    CLOSURE_SHAPES; returns the number of quadruples checked."""
    rng = random.Random(seed)
    count = 0
    for dq, vs in CLOSURE_SHAPES:
        for v in vs:
            for _ in range(per_shape):
                fr = seeded_framed(dq, v, field, rng)
                rep = fr.rep
                kernel, image = ker_j_im_i(fr)
                closure = reference_min_closure(rep, image)
                core = reference_max_core(rep, kernel)
                assert min_closure(rep, image) == closure
                assert max_core(rep, kernel) == core
                assert is_stable_minus(fr) == (closure.dims() == fr.v)
                assert is_stable_plus(fr) == core.is_zero()
                s = random_graded(field, v, rng)
                assert min_closure(rep, s) == reference_min_closure(rep, s)
                s_core = max_core(rep, s)
                assert s_core == reference_max_core(rep, s)
                # S is x-invariant inside K iff Ann(S) is x^T-invariant
                # and contains Ann(K)
                assert s_core == annihilator(reference_min_closure(
                    transposed(rep), annihilator(s)))
                count += 1
    return count


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3),
                                   PrimeField(5), QQ],
                         ids=["F2", "F3", "F5", "Q"])
def test_spin_closures_equal_the_reference(field):
    assert check_closures_on_seeded_reps(field, 10, str(field)) == 160


# -- the reference oracle: every containment by row reduction -----------

def reference_invariant_subspaces(rep):
    """Invariant graded subspaces by the enumeration the oracle ran before
    it packed vectors: each edge check is ``subspace_contains`` on a Mat
    product, in the same lexicographic order over the families."""
    per_vertex = {k: enumerate_subspaces(rep.field.p, d)
                  for k, d in rep.v.items()}
    verts = list(rep.quiver.vertices)
    out = []

    def rec(idx, chosen):
        if idx == len(verts):
            out.append(GradedSubspace(rep.field, rep.v, dict(chosen)))
            return
        k = verts[idx]
        for s in per_vertex[k]:
            chosen[k] = s
            if all(subspace_contains(chosen[e.head],
                                     rep.mats[e.name] @ chosen[e.tail])
                   for e in rep.quiver.edges
                   if e.tail in chosen and e.head in chosen):
                rec(idx + 1, chosen)
        chosen.pop(k, None)

    rec(0, {})
    return out


def reference_semistable(fr, theta):
    kj, ii = ker_j_im_i(fr)
    tv = sum(Fraction(theta[k]) * fr.v[k] for k in fr.v)
    semistable, stable = True, True
    witness = None
    for s in reference_invariant_subspaces(fr.rep):
        ts = sum(Fraction(theta[k]) * d for k, d in s.dims().items())
        proper = not s.is_zero() and s.dims() != fr.v
        if kj.contains(s):
            if ts > 0:
                semistable = False
                witness = witness or s
            if proper and ts >= 0:
                stable = False
        if s.contains(ii):
            if ts > tv:
                semistable = False
                witness = witness or s
            if proper and ts >= tv:
                stable = False
    if not semistable:
        stable = False
    return {"semistable": semistable, "stable": stable,
            "witness": witness.dims() if witness else None}


REFERENCE_SHAPES = [
    (double(make_quiver(["1"], [])), [{"1": 0}, {"1": 2}, {"1": 3}]),
    (double(jordan_quiver()), [{"0": 1}, {"0": 2}, {"0": 3}]),
    (double(type_a_quiver(2)), [{"1": 0, "2": 2}, {"2": 1, "1": 2},
                                {"1": 1, "2": 2}]),
    (double(type_a_quiver(3)), [{"1": 1, "2": 0, "3": 1},
                                {"1": 1, "2": 1, "3": 1},
                                {"1": 2, "2": 1, "3": 0}]),
]


# spaces past CODE_TABLE_LIMIT, where each image code is scaled to the
# point on its line before it is located; the A2 shapes cross edges
# between two vertices, into and out of F_67^2 at v = (2, 1)
BEYOND_TABLE_SHAPES = {
    67: [(double(make_quiver(["1"], [])), [{"1": 2}]),
         (double(jordan_quiver()), [{"0": 1}, {"0": 2}]),
         (double(type_a_quiver(2)), [{"1": 1, "2": 1}, {"1": 2, "2": 1}])],
    17: [(double(make_quiver(["1"], [])), [{"1": 3}]),
         (double(jordan_quiver()), [{"0": 3}])],
}


@pytest.fixture(params=["masks", "lists"])
def incidence_storage(request, monkeypatch):
    """Builds every incidence index afresh for the test, keeping each
    point's subspaces as bitsets ("masks") or, with the bitset budget set
    to 0, as sorted lists of positions ("lists")."""
    if request.param == "lists":
        monkeypatch.setattr(linalg, "POINT_BITS_LIMIT", 0)
    incidence_index.cache_clear()
    yield request.param
    incidence_index.cache_clear()


@pytest.mark.parametrize("p", [2, 3, 5, 67, 17])
def test_packed_oracle_matches_reference(p, incidence_storage):
    rng = random.Random(p)
    f = PrimeField(p)
    beyond = p in BEYOND_TABLE_SHAPES
    for dq, vs in BEYOND_TABLE_SHAPES[p] if beyond else REFERENCE_SHAPES:
        for v in vs:
            if p == 5 and sum(v.values()) > 3:
                continue
            for _ in range(2 if beyond else 3):
                w = {k: rng.choice([0, 1, 1, 2]) for k in v}
                if not beyond:
                    w[rng.choice(list(v))] = 0  # no framing at some vertex
                fr = random_framed_rep(dq, v, w, f, rng)
                assert invariant_subspaces_bruteforce(fr.rep) == \
                    reference_invariant_subspaces(fr.rep)
                ks = list(v)
                thetas = [{k: 1 for k in ks}, {k: -1 for k in ks},
                          {k: s for k, s in zip(ks, [0, 1, -1])},
                          {k: rng.choice([-2, 0, Fraction(1, 2)]) for k in ks}]
                wants = []
                for theta in thetas:
                    got = semistable_bruteforce(fr, theta)
                    want = reference_semistable(fr, theta)
                    assert got == want
                    if got["witness"] is not None:
                        assert list(got["witness"]) == list(want["witness"])
                    wants.append(want)
                # again, now reading the invariant subspaces and the Ker j
                # and Im i bitsets the quadruple keeps
                assert [semistable_bruteforce(fr, t) for t in thetas] == wants
                index, _ = _invariant_tuples(fr.rep)
                assert all(ix._as_bits == (incidence_storage == "masks")
                           for ix in index if ix.d)  # F_p^0 has no points


def framed(q, p, v, w, mats, i, j):
    f = PrimeField(p)

    def m(rows, r, c):
        return Mat(f, [[f.from_int(x) for x in row] for row in rows], r, c)

    rep = Rep(q, f, v, {e.name: m(mats[e.name], v[e.head], v[e.tail])
                        for e in q.edges})
    return FramedRep(rep, w, {k: m(i[k], v[k], w[k]) for k in v},
                     {k: m(j[k], w[k], v[k]) for k in v})


def zeros(r, c):
    return [[0] * c for _ in range(r)]


STABLE = {"semistable": True, "stable": True, "witness": None}


def unstable(witness):
    return {"semistable": False, "stable": False, "witness": witness}


# Inputs whose point spaces or framings are far larger than their subspace
# families. Verdicts, witnesses and invariant counts are those of the
# earlier row-reducing oracle, which answered each within 1 s; packed
# work that grew with p^d or p^w would not finish here.
LARGE_CASES = {
    "wide framing": (
        double(make_quiver(["1"], [])), 5, {"1": 1}, {"1": 14}, {},
        {"1": [[0, 1, 0, 2, 0, 0, 3, 0, 0, 0, 4, 0, 0, 1]]},
        {"1": zeros(14, 1)},
        [unstable({"1": 1}), STABLE, unstable({"1": 1})], 2),
    "wide framing, Jordan": (
        double(jordan_quiver()), 5, {"0": 2}, {"0": 14},
        {"x": [[0, 1], [0, 0]], "x*": zeros(2, 2)},
        {"0": [[0] * 14, [0] * 13 + [2]]}, {"0": [[0, 0]] * 13 + [[0, 3]]},
        [unstable({"0": 1}), STABLE, unstable({"0": 1})], 3),
    "p = 1000003, d = 1": (
        double(jordan_quiver()), 1000003, {"0": 1}, {"0": 1},
        {"x": [[5]], "x*": [[0]]}, {"0": [[0]]}, {"0": [[0]]},
        [unstable({"0": 1}), unstable({"0": 0}), unstable({"0": 1})], 2),
    "p = 1000003, A2": (
        double(type_a_quiver(2)), 1000003, {"1": 1, "2": 1},
        {"1": 1, "2": 1}, {"a1": [[0]], "a1*": [[3]]},
        {"1": [[0]], "2": [[7]]}, {"1": [[0]], "2": [[0]]},
        [unstable({"1": 0, "2": 1}), unstable({"1": 0, "2": 1}),
         unstable({"1": 1, "2": 1})], 3),
    "p = 1009, d = 2": (
        double(jordan_quiver()), 1009, {"0": 2}, {"0": 1},
        {"x": zeros(2, 2), "x*": zeros(2, 2)}, {"0": [[1], [2]]},
        {"0": [[0, 0]]}, [unstable({"0": 1})] * 3, 1012),
    "p = 101, A2": (
        double(type_a_quiver(2)), 101, {"1": 2, "2": 1}, {"1": 1, "2": 1},
        {"a1": zeros(2, 1), "a1*": zeros(1, 2)},
        {"1": [[0], [5]], "2": [[0]]}, {"1": [[3, 0]], "2": [[1]]},
        [unstable({"1": 1, "2": 0})] * 3, 208),
    "p = 31, d = 3": (
        double(jordan_quiver()), 31, {"0": 3}, {"0": 1},
        {"x": zeros(3, 3), "x*": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]},
        {"0": [[1], [2], [0]]}, {"0": [[0, 0, 4]]},
        [unstable({"0": 1})] * 3, 66),
}


def test_bruteforce_answers_the_plane_over_a_large_prime():
    # F_30011^2: 30014 subspaces and 30012 points, each point in two of
    # them. A bitset per point over the whole family would be 9 * 10^8
    # bits; the index keeps lists there. x is nilpotent and j = 0, so the
    # line Ker x destabilizes at theta > 0
    fr = framed(double(jordan_quiver()), 30011, {"0": 2}, {"0": 1},
                {"x": [[0, 1], [0, 0]], "x*": zeros(2, 2)},
                {"0": [[0], [5]]}, {"0": [[0, 0]]})
    start = time.perf_counter()
    assert semistable_bruteforce(fr, {"0": 1}) == unstable({"0": 1})
    assert semistable_bruteforce(fr, {"0": -1}) == STABLE
    assert semistable_bruteforce(fr, {"0": 2}) == unstable({"0": 1})
    assert len(invariant_subspaces_bruteforce(fr.rep)) == 3
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("name", list(LARGE_CASES))
def test_bruteforce_scales_with_the_subspace_count(name):
    q, p, v, w, mats, i, j, verdicts, found = LARGE_CASES[name]
    fr = framed(q, p, v, w, mats, i, j)
    ks = list(v)
    thetas = [{k: 1 for k in ks}, {k: -1 for k in ks},
              {k: s for k, s in zip(ks, [2, -1])}]
    start = time.perf_counter()
    for theta, verdict in zip(thetas, verdicts):
        assert semistable_bruteforce(fr, theta) == verdict
    assert len(invariant_subspaces_bruteforce(fr.rep)) == found
    assert time.perf_counter() - start < 2.0


def test_im_i_is_checked_on_every_column(incidence_storage):
    # Im i is all of F_5^2: a line holds its first column but not Im i
    fr = framed(double(make_quiver(["1"], [])), 5, {"1": 2}, {"1": 2}, {},
                {"1": [[1, 0], [0, 1]]}, {"1": zeros(2, 2)})
    assert semistable_bruteforce(fr, {"1": -1}) == STABLE
    assert reference_semistable(fr, {"1": -1}) == STABLE


@pytest.mark.parametrize("t, h", [(0, 2), (2, 0), (1, 3), (3, 1), (0, 3),
                                  (2, 1)])
def test_pairs_lifts_an_edge_relation_to_the_graded_tuples(t, h):
    # tuples numbered first vertex major; the pair (t, h) may skip vertices
    # between them and leave some before and after
    sizes = [2, 3, 2, 3]
    rng = random.Random(t * 4 + h)
    rows = [rng.getrandbits(sizes[h]) for _ in range(sizes[t])]
    want = 0
    for n, tup in enumerate(itertools.product(*map(range, sizes))):
        if rows[tup[t]] >> tup[h] & 1:
            want |= 1 << n
    assert _pairs(sizes, t, h, rows) == want


def test_witness_is_the_first_violating_tuple():
    # over F_2 with no framing, a1* sends the lines <(1,0)> and <(0,1)> of
    # V_1 onto V_2 and kills <(1,1)>. At theta = (2, -1) the first
    # violating tuple in lexicographic order is (<(1,0)>, V_2), of
    # dimension (1, 1); the dimension (1, 0) violates only later, at
    # (<(1,1)>, 0), though all its violations end before those of (1, 1)
    fr = framed(double(type_a_quiver(2)), 2, {"1": 2, "2": 1},
                {"1": 0, "2": 0}, {"a1": [[0], [0]], "a1*": [[1, 1]]},
                {"1": zeros(2, 0), "2": zeros(1, 0)},
                {"1": zeros(0, 2), "2": zeros(0, 1)})
    theta = {"1": 2, "2": -1}
    assert semistable_bruteforce(fr, theta) == unstable({"1": 1, "2": 1})
    assert reference_semistable(fr, theta) == unstable({"1": 1, "2": 1})


def test_endomorphisms_scalars_only_when_cyclic():
    fr = jordan_framed([[0, 1], [0, 0]], [[0, 0], [0, 0]],
                       [[0], [1]], [[0, 0]], 2)
    assert endomorphism_space(fr)["dimension"] == 0
    # without framing the commutant of a regular nilpotent is 2-dimensional
    assert endomorphism_space(fr.rep)["dimension"] == 2


def test_graded_subspace_canonical():
    f2 = PrimeField(2)
    amb = {"0": 2}
    s1 = GradedSubspace(f2, amb, {"0": Mat.from_ints(f2, [[1, 1], [0, 1]])})
    s2 = GradedSubspace(f2, amb, {"0": Mat.from_ints(f2, [[1, 0], [0, 1]])})
    assert s1 == s2 and hash(s1) == hash(s2)
    assert GradedSubspace.zero(f2, amb).is_zero()
    assert GradedSubspace.full(f2, amb).dims() == amb
    # zero and full skip canonicalising; they equal the canonical ones
    amb = {"a": 0, "b": 1, "c": 3}
    for f in (f2, QQ):
        zero = {k: Mat.zeros(f, d, 0) for k, d in amb.items()}
        full = {k: Mat.identity(f, d) for k, d in amb.items()}
        assert GradedSubspace.zero(f, amb) == GradedSubspace(f, amb, zero)
        assert GradedSubspace.full(f, amb) == GradedSubspace(f, amb, full)


def test_framing_over_another_field_is_refused():
    # i and j over F_3 on a representation over F_2 were once accepted:
    # the oracle read their entries mod 2 and the spin divided by 0
    f2, f3 = PrimeField(2), PrimeField(3)
    dq = double(jordan_quiver())
    rep = Rep(dq, f2, {"0": 1}, {"x": Mat(f2, [[0]]), "x*": Mat(f2, [[0]])})
    for i, j in [(Mat(f3, [[2]]), Mat(f3, [[2]])),
                 (Mat(f2, [[1]]), Mat(f3, [[2]])),
                 (Mat(f3, [[2]]), Mat(f2, [[1]]))]:
        with pytest.raises(FieldError):
            FramedRep(rep, {"0": 1}, {"0": i}, {"0": j})
    with pytest.raises(FieldError):
        FramedRep(rep, {"0": 1}, {"0": Mat(QQ, [[1]])}, {"0": Mat(f2, [[1]])})


@pytest.mark.parametrize("theta", [
    {"1": 1}, {"1": 1, "2": 1, "3": 1}, {"1": True, "2": 0},
    {"1": 0.5, "2": 0}, {"1": "1", "2": 0}, [1, 1]],
    ids=["missing vertex", "unknown vertex", "bool", "float", "string",
         "list"])
def test_bruteforce_refuses_a_bad_theta(theta):
    fr = framed(double(type_a_quiver(2)), 2, {"1": 1, "2": 1},
                {"1": 1, "2": 1}, {"a1": [[1]], "a1*": [[0]]},
                {"1": [[1]], "2": [[0]]}, {"1": [[0]], "2": [[1]]})
    with pytest.raises(RepError, match="theta"):
        semistable_bruteforce(fr, theta)


# -- the per-quadruple memo of the oracle --------------------------------

def test_rebinding_a_map_recomputes_the_oracle():
    # each rebinding flips the verdict, so a stale memo would show
    p, f = 2, PrimeField(2)
    dq = double(jordan_quiver())

    def quadruple(x, i, j):
        return framed(dq, p, {"0": 2}, {"0": 1},
                      {"x": x, "x*": zeros(2, 2)}, {"0": i}, {"0": j})

    shift = [[0, 0], [1, 0]]
    cases = [  # (x, i, j before), what is rebound to what, theta
        ((shift, [[1], [0]], [[0, 0]]), ("j", [[0, 1]]), {"0": 1}),
        ((shift, [[0], [1]], [[0, 1]]), ("i", [[1], [0]]), {"0": -1}),
        ((zeros(2, 2), [[1], [0]], [[0, 1]]), ("x", shift), {"0": -1}),
    ]
    for (x, i, j), (which, new), theta in cases:
        fr = quadruple(x, i, j)
        before = semistable_bruteforce(fr, theta)
        found = invariant_subspaces_bruteforce(fr.rep)
        m = Mat(f, new)
        if which == "x":
            fr.rep.mats["x"] = m
            x = new
        elif which == "i":
            fr.i["0"] = m
            i = new
        else:
            fr.j["0"] = m
            j = new
        fresh = quadruple(x, i, j)
        after = semistable_bruteforce(fr, theta)
        assert after == semistable_bruteforce(fresh, theta) != before
        assert after == reference_semistable(fresh, theta)
        assert invariant_subspaces_bruteforce(fr.rep) == \
            invariant_subspaces_bruteforce(fresh.rep)
        assert (invariant_subspaces_bruteforce(fr.rep) != found) == \
            (which == "x")


def test_a_quadruple_tabulates_each_map_once(monkeypatch):
    # counted through the names the oracle calls: a cold quadruple
    # tabulates each edge map and each j[k] once, and every later theta
    # reads the quadruple's summary alone, with no point image and no
    # lift of a bitset to the graded tuples
    from quivar import reps
    tabulated, lifted = [], []

    def images(m):
        tabulated.append(m)
        return point_images(m)

    def lift(sizes, parts):
        lifted.append(len(parts))
        return tensor_bits(sizes, parts)

    monkeypatch.setattr(reps, "point_images", images)
    monkeypatch.setattr(reps, "tensor_bits", lift)
    rng = random.Random(11)
    for dq, v, p in [(double(type_a_quiver(2)), {"1": 2, "2": 1}, 3),
                     (double(jordan_quiver()), {"0": 3}, 2),
                     (double(make_quiver(["1"], [])), {"1": 2}, 5)]:
        fr = random_framed_rep(dq, v, {k: 1 for k in v}, PrimeField(p), rng)
        tabulated.clear()
        semistable_bruteforce(fr, {k: 1 for k in v})
        maps = [fr.rep.mats[e.name] for e in dq.edges] + \
            [fr.j[k] for k in dq.vertices]
        assert sorted(map(id, tabulated)) == sorted(map(id, maps))
        assert lifted
        tabulated.clear()
        lifted.clear()
        for theta in ({k: -1 for k in v}, dict(zip(v, [2, -3])),
                      {k: 0 for k in v}):
            semistable_bruteforce(fr, theta)
        assert tabulated == [] and lifted == []


def test_warm_memo_still_checks_the_limit():
    dq = double(jordan_quiver())
    fr = random_framed_rep(dq, {"0": 3}, {"0": 1}, PrimeField(2),
                           random.Random(0))
    semistable_bruteforce(fr, {"0": 1})
    invariant_subspaces_bruteforce(fr.rep)
    with pytest.raises(RepError, match="exceeds limit"):
        semistable_bruteforce(fr, {"0": 1}, limit=3)
    with pytest.raises(RepError, match="exceeds limit"):
        invariant_subspaces_bruteforce(fr.rep, limit=3)


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shared_memo_answers_as_fresh_quadruples():
    # every quadruple shape of the benchmark's F_p oracle workload: a call
    # that reads the memo of an earlier call answers as a fresh quadruple
    wl = _benchmark_workloads()
    specs = wl.round_specs("oracle_fp", 1, 0)
    assert {(s["quiver"], tuple(s["v"].values())) for s in specs} == \
        set(wl.FP_SHAPES)
    for spec in specs:
        verts, edges = wl.FP_QUIVERS[spec["quiver"]]
        dq = double(make_quiver(verts, edges))
        v, w = spec["v"], {k: 1 for k in verts}

        def quadruple():
            return framed(dq, spec["p"], v, w, spec["mats"], spec["i"],
                          spec["j"])

        mixed = dict(zip(verts, [2, -1, 0]))
        zero = dict(zip(verts, [0, 1, 0]))
        thetas = [{k: 1 for k in verts}, {k: -1 for k in verts}, mixed, zero]
        for a, b in itertools.combinations(thetas, 2):
            shared = quadruple()
            assert [semistable_bruteforce(shared, a),
                    semistable_bruteforce(shared, b)] == \
                [semistable_bruteforce(quadruple(), a),
                 semistable_bruteforce(quadruple(), b)]


def test_invariant_subspaces_unchanged_by_a_stability_call():
    rng = random.Random(5)
    f = PrimeField(3)
    for dq, v in [(double(type_a_quiver(2)), {"1": 2, "2": 1}),
                  (double(jordan_quiver()), {"0": 2})]:
        fr = random_framed_rep(dq, v, {k: 1 for k in v}, f, rng)
        before = invariant_subspaces_bruteforce(fr.rep)
        semistable_bruteforce(fr, {k: -1 for k in v})
        assert invariant_subspaces_bruteforce(fr.rep) == before
        assert before == reference_invariant_subspaces(fr.rep)
