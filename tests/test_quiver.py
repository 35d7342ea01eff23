import random
import sys
import time

import pytest

from quivar.quiver import (QuiverError, adjacency, aq_form, cartan,
                           cartan_form, cb_frame, check_dimvector, cycles,
                           dims, dot, double, frame, jordan_quiver,
                           make_quiver, opposite, quiver_from_json,
                           quiver_to_json, star_pairs, type_a_quiver)


def test_adjacency_examples():
    assert adjacency(jordan_quiver()) == [[1]]
    a2 = type_a_quiver(2)
    assert adjacency(a2) == [[0, 1], [0, 0]]
    assert adjacency(make_quiver(["a", "b"], [])) == [[0, 0], [0, 0]]


def test_adjacency_opposite_transpose():
    a3 = type_a_quiver(3)
    at = adjacency(opposite(a3))
    a = adjacency(a3)
    assert at == [list(r) for r in zip(*a)]


def test_double_counts_and_star_pairs():
    d = double(type_a_quiver(2))
    assert len(d.vertices) == 2 and len(d.edges) == 2
    assert star_pairs(d) == {"a1": "a1*"}
    dj = double(jordan_quiver())
    assert len(dj.edges) == 2
    with pytest.raises(QuiverError):
        star_pairs(jordan_quiver())


def test_double_orientation_independent():
    a3 = type_a_quiver(3)
    assert adjacency(double(a3)) == adjacency(double(opposite(a3)))


def test_framings():
    fj = frame(jordan_quiver())
    assert len(fj.vertices) == 2 and len(fj.edges) == 2
    q = cb_frame(type_a_quiver(2), {"1": 1, "2": 0})
    assert len(q.vertices) == 3 and len(q.edges) == 2
    q0 = cb_frame(type_a_quiver(2), {"1": 0, "2": 0})
    assert "inf" in q0.vertices and len(q0.edges) == 1


def test_cartan_examples():
    assert cartan(type_a_quiver(2)) == [[2, -1], [-1, 2]]
    assert cartan(jordan_quiver()) == [[0]]
    assert cartan(type_a_quiver(3)) == cartan(opposite(type_a_quiver(3)))


def test_cartan_doubling_identity():
    rng = random.Random(0)
    for q in (jordan_quiver(), type_a_quiver(2), type_a_quiver(3)):
        d = double(q)
        for _ in range(20):
            v = {k: rng.randint(0, 4) for k in q.vertices}
            assert aq_form(d, v, v) == 2 * aq_form(q, v, v)
            assert 2 * dot(v, v) - aq_form(d, v, v) == cartan_form(q, v, v)


def test_dims_jordan():
    d = dims(jordan_quiver(), {"0": 3}, {"0": 1})
    assert d["dim_rep"] == 9
    assert d["dim_gv"] == 9
    assert d["p_v"] == 1
    assert d["nakajima_dim"] == 6


def test_dims_one_vertex():
    a1 = make_quiver(["1"], [])
    for r in range(6):
        for k in range(r + 1):
            assert dims(a1, {"1": k}, {"1": r})["nakajima_dim"] == 2 * k * (r - k)


def test_dims_zero_vector():
    d = dims(type_a_quiver(2), {"1": 0, "2": 0}, {"1": 0, "2": 0})
    assert d["dim_rep"] == 0 and d["dim_gv"] == 0 and d["nakajima_dim"] == 0


@pytest.mark.parametrize("x", [2.7, 0.5, "2", None, float("inf")])
def test_non_integral_dimvector_refused(x):
    # int() once truncated 2.7 to 2
    with pytest.raises(QuiverError, match="not an integer"):
        check_dimvector(jordan_quiver(), {"0": x})


def test_integral_float_dimvector_read_as_int():
    v = check_dimvector(jordan_quiver(), {"0": 2.0})
    assert v == {"0": 2} and type(v["0"]) is int


def test_dimvector_validation():
    with pytest.raises(QuiverError):
        dims(type_a_quiver(2), {"1": 1})
    with pytest.raises(QuiverError):
        dims(type_a_quiver(2), {"1": 1, "2": -1})


def test_cycles_acyclic():
    for maxlen in (1, 2, 5):
        assert cycles(type_a_quiver(3), maxlen) == []


def test_cycles_jordan():
    out = cycles(jordan_quiver(), 3)
    assert [len(c) for c in out] == [1, 2, 3]


def test_cycles_double_a2():
    out = cycles(double(type_a_quiver(2)), 2)
    assert len(out) == 2  # the 2-cycle based at each of its two vertices


def reference_cycles(q, maxlen):
    """Every walk by recursion, each closed one canonicalised as the least
    of its basepoint-preserving rotations."""
    out, seen = [], set()

    def record(path, base):
        names = tuple(e.name for e in path)
        canon = min(names[k:] + names[:k] for k in range(len(path))
                    if path[k].tail == base)
        if canon not in seen:
            seen.add(canon)
            out.append([q.edge(n) for n in canon])

    def extend(path, start, current):
        if path and current == start:
            record(path, start)
        if len(path) == maxlen:
            return
        for e in q.edges_out_of(current):
            extend(path + [e], start, e.head)

    for v in q.vertices:
        extend([], v, v)
    out.sort(key=lambda cyc: (len(cyc), tuple(e.name for e in cyc)))
    return out


def test_cycles_match_the_rotation_reference():
    rng = random.Random(7)
    quivers = [jordan_quiver(), double(jordan_quiver()),
               double(type_a_quiver(3)), type_a_quiver(2)]
    for _ in range(30):
        n = rng.randint(1, 3)
        edges = [(f"e{k}", rng.randrange(n), rng.randrange(n))
                 for k in range(rng.randint(0, 5))]
        rng.shuffle(edges)  # names out of edge order
        quivers.append(make_quiver(range(n), edges))
    for q in quivers:
        for maxlen in range(1, 7):
            assert cycles(q, maxlen) == reference_cycles(q, maxlen)


def test_cycles_walk_past_the_recursion_limit():
    # the walks grow on a stack, not by recursion, and a closed walk costs
    # time linear in its length
    maxlen = sys.getrecursionlimit() + 200
    t0 = time.perf_counter()
    out = cycles(jordan_quiver(), maxlen)
    assert time.perf_counter() - t0 < 2.0
    assert [len(c) for c in out] == list(range(1, maxlen + 1))


def test_json_roundtrip():
    q = double(type_a_quiver(2))
    assert quiver_from_json(quiver_to_json(q)) == q
    assert quiver_from_json(quiver_to_json(q)).provenance == q.provenance


def test_derived_provenance_survives_json():
    # each derived quiver's provenance is read back as written
    import json
    from quivar.mckay import mckay_graph_quiver, table_by_name
    a2 = type_a_quiver(2)
    for q in (double(a2), frame(a2), cb_frame(a2, {"1": 2, "2": 1}),
              double(jordan_quiver()),
              mckay_graph_quiver(table_by_name("bd:2"))):
        text = json.dumps(quiver_to_json(q))
        back = quiver_from_json(json.loads(text))
        assert back == q and back.provenance == q.provenance
        assert json.dumps(quiver_to_json(back)) == text


# on the 2-cycle a: 0 -> 1, b: 1 -> 0, each a provenance that names what
# the quiver does not have, or has the wrong JSON type
BAD_PROVENANCE = [[], "double", None, {"kind": 3}, {"kind": ["double"]},
                  {"original_vertices": "01"}, {"original_vertices": ["2"]},
                  {"original_vertices": [["0"]]}, {"framing": "a"},
                  {"framing": ["c"]}, {"framing": [{"name": "a"}]},
                  {"framing": ["0"]}, {"star_pairs": []},
                  {"star_pairs": {"a": "a"}}, {"star_pairs": {"c": "b"}},
                  {"star_pairs": {"a": "c"}}, {"star_pairs": {"a": ["b"]}},
                  {"star_pairs": {"a": None}}]


@pytest.mark.parametrize("prov", BAD_PROVENANCE, ids=map(repr, BAD_PROVENANCE))
def test_bad_provenance_refused(prov):
    d = {"vertices": ["0", "1"],
         "edges": [{"name": "a", "tail": "0", "head": "1"},
                   {"name": "b", "tail": "1", "head": "0"}]}
    assert quiver_from_json({**d, "provenance": {
        "kind": "double", "star_pairs": {"a": "b", "b": "a"},
        "original_vertices": ["0"], "framing": ["b"], "note": 1}})
    with pytest.raises(QuiverError, match="^provenance "):
        quiver_from_json({**d, "provenance": prov})


def test_duplicate_labels_rejected():
    with pytest.raises(QuiverError):
        make_quiver(["a", "a"], [])
    with pytest.raises(QuiverError):
        make_quiver(["a"], [("e", "a", "a"), ("e", "a", "a")])
    with pytest.raises(QuiverError):
        make_quiver(["a"], [("e", "a", "b")])
