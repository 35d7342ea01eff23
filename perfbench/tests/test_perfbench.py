"""Tests of the benchmark itself: seeded inputs, oracles, span arithmetic
and the tracer. Run with ``python3 -m pytest perfbench/tests``."""

import dataclasses
import json
import os

import pytest

import run
import tracing
import workloads as wl
from quivar import adhm, linalg, reps
from quivar.convolution import Correspondence
from quivar.linalg import Mat
from quivar.fields import PrimeField


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    for r in (0, 1):
        a = json.dumps(wl.round_specs(workload, 3, r), sort_keys=True)
        b = json.dumps(wl.round_specs(workload, 3, r), sort_keys=True)
        assert a.encode() == b.encode()
    assert json.dumps(wl.round_specs(workload, 3, 0), sort_keys=True) != \
        json.dumps(wl.round_specs(workload, 4, 0), sort_keys=True)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_round_mix_does_not_depend_on_seed(workload):
    def mix(seed):
        return sorted((s["op"], s.get("case", ""), s.get("n", 0))
                      for s in wl.round_specs(workload, seed, 0))
    assert mix(1) == mix(2)


def _corrupt(kind, res):
    """A deliberately wrong answer of the same shape."""
    if kind == "stability":
        return (not res[0],) + tuple(res[1:])
    if kind == "mckay":
        return res[0], dict(res[1], type="A~0")
    if kind == "spectrum":
        return res[0][1:], res[1]
    if kind == "ideal":
        return dataclasses.replace(res, codim=res.codim + 1)
    if kind == "gg":
        return dict(res, num_decompositions=res["num_decompositions"] + 1)
    if kind == "traces":
        (c, t), rest = res[0][0], res[0][1:]
        return [(c, t + 1)] + list(rest), res[1]
    if kind == "freudenthal":
        return res + 1
    if kind == "hecke":
        return dict(res, num_flags=res["num_flags"] + 1)
    if kind == "group":
        return False
    if kind == "conv":
        left, right, pull, corr, ind = res
        fewer = Correspondence(corr.x1, corr.x2, frozenset(list(corr.pairs)[1:]))
        return left, right, pull, fewer, ind
    raise AssertionError(kind)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_each_oracle_counts_a_wrong_answer(workload):
    seen = set()
    for op in wl.build_round(workload, 5, 0):
        if op.kind in seen or op.refusable:
            continue
        result = op.call()
        if op.kind == "conv" and not result[3].pairs:
            continue
        seen.add(op.kind)
        assert wl.judge(op, result, None) == wl.OK
        assert wl.judge(op, _corrupt(op.kind, result), None) == wl.FAILED
        assert wl.judge(op, None, ValueError("boom")) == wl.FAILED
    assert seen == {s["op"] for s in wl.round_specs(workload, 5, 0)}


def _zeta3_spectrum_op():
    # diag(zeta, 1) over Q(zeta_3): its characteristic polynomial splits
    ident = [[1, 0], [0, 1]]
    return wl.build_op({"op": "spectrum", "case": "nonrational", "n": 2,
                        "m": 3, "eig_x": [[0, 1], 1], "eig_y": [1, 2],
                        "u": ident, "l": ident})


def test_zeta3_refusal_is_counted_and_does_not_abort():
    refused = _zeta3_spectrum_op()
    rational = wl.build_op({"op": "freudenthal", "lam": [1, 1], "mu": [0, 0]})
    _, done = run._replay([[refused, rational]])
    outcomes = [wl.judge(op, res, err) for op, res, err in done]
    assert outcomes == [wl.REFUSED, wl.OK]
    assert isinstance(done[0][2], adhm.AdhmError)


def test_refusal_on_a_supported_case_is_a_failure():
    op = _zeta3_spectrum_op()
    op.refusable = False
    assert wl.judge(op, None, adhm.AdhmError("does not split")) == wl.FAILED


def test_self_time_on_a_nested_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; e [11, 12]
    names = ["a", "b", "d", "c", "e"]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    out = tracing.self_times(names, parents, starts, ends)
    assert out == {"a": 3.0, "b": 2.0, "d": 1.0, "c": 4.0, "e": 1.0}
    # spans of one name add up
    assert tracing.self_times(["a", "a"], [-1, 0], [0.0, 1.0], [5.0, 2.0]) == \
        {"a": 5.0}


def test_tracer_counts_each_call_once_and_restores():
    original = linalg.subspace_contains
    f = PrimeField(3)
    big = Mat.identity(f, 2)
    small = Mat(f, [[1], [2]], 2, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert reps.subspace_contains is adhm.subspace_contains
        reps.subspace_contains(big, small)
        adhm.subspace_contains(big, small)
    finally:
        tracer.uninstall()
    assert tracer.counts["linalg.subspace_contains.calls"] == 2
    assert tracer.counts["linalg.annihilator_rows.calls"] == 2
    assert reps.subspace_contains is original is adhm.subspace_contains
    assert "__init__" in vars(Mat) and not hasattr(Mat.__init__, "__wrapped__")
    assert "sub" not in vars(PrimeField)


def test_enumerations_per_quadruple_is_twice_the_vertex_count():
    ops = wl.build_round("oracle_fp", 2, 0)
    vertices = sum(len(s["v"]) for s in wl.round_specs("oracle_fp", 2, 0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in ops:
            op.call()
    finally:
        tracer.uninstall()
    assert tracer.counts["linalg.enumerate_subspaces.calls"] == 2 * vertices


def test_every_metric_has_a_source():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == \
        {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    spans = {name for name, _, _ in tracing.TIMED}
    counters = {key for key, _, _ in tracing.COUNTED} | set(tracing.SIZED.values())
    special = {"reps.enumerations_per_quadruple", "adhm.joint_spectrum.refusals",
               "trace.overhead_ratio", "cli.interpreter_start_ms",
               "cli.import_ms", "cli.run_ms", "cli.cold_command_ms"}
    for m in bench["per_layer"]:
        name = m["name"]
        if name.endswith(".self_s"):
            assert name[:-len(".self_s")] in spans, name
        elif name.endswith(".calls") and name[:-len(".calls")] in spans:
            pass
        else:
            assert name in counters | special, name
