import hashlib
import json
import time

import pytest

from quivar.cli import TRACE_DEGREE_CAP, run


@pytest.fixture
def report(capsys):
    def go(*argv, expect_code=0):
        code = run(list(argv))
        out = capsys.readouterr().out.strip()
        assert code == expect_code, (code, out)
        return json.loads(out) if out else None
    return go


def write_jordan(tmp_path):
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps({"vertices": ["0"],
                                "edges": [{"name": "x", "tail": "0",
                                           "head": "0"}]}))
    return str(path)


def test_dims_report(report, tmp_path):
    rep = report("dims", "--quiver", write_jordan(tmp_path), "--v", "3",
                 "--w", "1")
    assert rep["results"]["nakajima_dim"] == 6
    assert rep["ok"] and rep["seed"] == 0


def test_builtin_quiver_names(report):
    rep = report("quiver", "double", "--quiver", "a2")
    q = rep["results"]["quiver"]
    assert len(q["edges"]) == 2
    assert q["provenance"]["star_pairs"] == {"a1": "a1*"}


def test_hecke_relation_text(report):
    rep = report("conv", "hecke", "--n", "2", "--q", "2")
    assert rep["results"]["relation_text"] == "T^2 = 1*T + 2*Id"


# sha256 of the stdout of the earlier implementation, which enumerated
# GL_n(F_q) and partitioned flag pairs into its orbits ((3, 3) with its
# size bound lifted)
@pytest.mark.parametrize("n, q, digest", [
    ("2", "2", "83a29fe85af75c0c8079f40f8eeb5c07cb7c8e4615153ee63f5596bb0a59d385"),
    ("2", "3", "d2c8f1965a22413789eb9851c854575d61c068ff54edf547ee8a842067ccc0fe"),
    ("3", "2", "b2a8e899ece59bb3e46b4f2372a96cf47d1daa1fa4b64918640e1b1fa997c529"),
    ("3", "3", "c40d1c7c80c2be6ce74a1096d42cf7b6d2fd70a07b5dc66471e4c1f79f7cb328"),
])
def test_hecke_report_pinned(capsys, n, q, digest):
    assert run(["conv", "hecke", "--n", n, "--q", q]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args", [
    ["--n", "0"], ["--n", "1"], ["--n", "5", "--q", "3"],
    ["--n", "2", "--q", "4"], ["--n", "2", "--q", "1000000007"],
])
def test_hecke_refusals(report, args):
    t0 = time.perf_counter()
    assert report("conv", "hecke", *args, expect_code=2) is None
    assert time.perf_counter() - t0 < 1.0


def test_roots_gg(report):
    rep = report("roots", "gg", "--quiver", "a2", "--v", '{"1":1,"2":1}')
    assert rep["results"]["flat"]
    assert len(rep["results"]["components"]) == 2


# the cyclic quiver of affine type A~2 and the Kronecker quiver
ROOTS_QUIVERS = {
    "cyclic": {"vertices": ["0", "1", "2"],
               "edges": [{"name": "a", "tail": "0", "head": "1"},
                         {"name": "b", "tail": "1", "head": "2"},
                         {"name": "c", "tail": "2", "head": "0"}]},
    "kronecker": {"vertices": ["a", "b"],
                  "edges": [{"name": "x", "tail": "a", "head": "b"},
                            {"name": "y", "tail": "a", "head": "b"}]},
}
CYCLIC_V = '{"0":2,"1":2,"2":2}'
CYCLIC_LAM = '{"0":1,"1":-1,"2":0}'


@pytest.mark.parametrize("action, quiver, v, lam, digest", [
    ("gg", "a2", '{"1":1,"2":1}', None,
     "cc30a38a9d58714efc9d0984acf204ddef3494930efa75dc9f34faefccc727b9"),
    ("gg", "jordan", "4", None,
     "5d340a49bf8aabdf9d10696e6963d56fe17f6aaea52c2a918ce1e0ba66baf19e"),
    ("gg", "cyclic.json", CYCLIC_V, None,
     "cf237178cdc41d517b5874c5afc72b6b5f6326e51565fdb0876da01b99614c1a"),
    ("gg", "cyclic.json", CYCLIC_V, CYCLIC_LAM,
     "01361b1b578c024329891e0d4eb84422ed8f02590a0fca0e6372fcc3c803a9a3"),
    ("gg", "kronecker.json", '{"a":2,"b":2}', None,
     "bed46d7a39c34bf523f1150dbf92e1a7b88fe6fe2f64fc7f6745070b4433e3e1"),
    ("list", "a2", '{"1":1,"2":1}', None,
     "3b7136e75a75a9719dc33239873b7860971eae08e5bb99e82524d73da68431ad"),
    ("list", "jordan", "4", None,
     "ebefec71af81f93849daa5b640fdc56b69a4e7c931d1774c575060130ec29ee0"),
    ("list", "cyclic.json", CYCLIC_V, None,
     "7a4893fba405e12478145c34200b69960e1d29a034936ff401a76e89d6366fa3"),
    ("list", "cyclic.json", CYCLIC_V, CYCLIC_LAM,
     "0fa4c1dec066b93641662520f3d08ab7545960c88f1331b60fcc334c9de4fdbf"),
    ("list", "kronecker.json", '{"a":2,"b":2}', None,
     "e831e2124d2df1d9b22644440a62621e9fb18bbb3dfd285d88934c8cc651e210"),
])
def test_roots_report_pinned(capsys, tmp_path, monkeypatch, action, quiver,
                             v, lam, digest):
    # sha256 of the stdout of the earlier implementation, which listed every
    # decomposition of v into roots before reading the report from the list
    monkeypatch.chdir(tmp_path)
    for name, data in ROOTS_QUIVERS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    extra = ["--lam", lam] if lam else []
    assert run(["roots", action, "--quiver", quiver, "--v", v, *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_expectation_failure_is_exit_1(report):
    rep = report("roots", "regular", "--quiver", "a2", "--v", '{"1":1,"2":1}',
                 "--theta", '{"1":1,"2":-1}', "--expect", "regular",
                 expect_code=1)
    assert not rep["ok"]
    assert rep["results"]["witness"] == {"1": 1, "2": 1}


def test_input_error_is_exit_2(report, capsys):
    assert run(["dims", "--quiver", "no-such-file.json", "--v", "3"]) == 2
    assert run(["dims", "--quiver", "a2"]) == 2  # missing --v
    assert run(["quiver", "unknownaction"]) == 2


# a non-integral dimension vector entry is refused, never truncated: these
# once ran as v = 1
def test_non_integral_dimension_vector_is_exit_2(capsys):
    assert run(["dims", "--quiver", "jordan", "--v", '{"0": 1.9}']) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not an integer" in captured.err


@pytest.mark.parametrize("key", ["v", "w"])
def test_non_integral_rep_dimension_is_exit_2(capsys, tmp_path, key):
    d = {"quiver": "double:jordan", "field": {"kind": "rational"},
         "v": {"0": 1}, "w": {"0": 1}, "mats": {"x": [["0"]], "x*": [["0"]]},
         "i": {"0": [["1"]]}, "j": {"0": [["0"]]}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(d))
    assert run(["rep", "traces", "--rep", str(path)]) == 0
    capsys.readouterr()
    d[key] = {"0": 1.5}
    path.write_text(json.dumps(d))
    assert run(["rep", "traces", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not an integer" in captured.err


# a field's p or m is refused when non-integral, by the rule of the
# dimension vectors; these once ran over F_3 and Q(zeta_4)
@pytest.mark.parametrize("spec, bad", [
    ({"kind": "prime", "p": 3}, 3.7), ({"kind": "prime", "p": 3}, "3"),
    ({"kind": "cyclotomic", "m": 4}, 4.9)])
def test_non_integral_field_spec_is_exit_2(capsys, tmp_path, spec, bad):
    d = {"quiver": "double:jordan", "field": spec,
         "v": {"0": 1}, "mats": {"x": [["0"]], "x*": [["0"]]}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(d))
    key = "p" if "p" in spec else "m"
    for value in (spec[key], float(spec[key])):  # 3.0 is read as 3
        d["field"] = {**spec, key: value}
        path.write_text(json.dumps(d))
        assert run(["rep", "moment", "--rep", str(path)]) == 0
    capsys.readouterr()
    d["field"] = {**spec, key: bad}
    path.write_text(json.dumps(d))
    assert run(["rep", "moment", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not an integer" in captured.err


# the size n of a triple likewise; "n": 1.5 once ran as n = 1
def test_non_integral_triple_size_is_exit_2(capsys, tmp_path):
    d = {"field": {"kind": "rational"}, "n": 1, "x": [["0"]], "y": [["0"]],
         "i": ["1"], "j": ["0"]}
    path = tmp_path / "triple.json"
    for n, code in [(1, 0), (1.0, 0), (1.5, 2)]:
        d["n"] = n
        path.write_text(json.dumps(d))
        assert run(["adhm", "check", "--data", str(path)]) == code
    captured = capsys.readouterr()
    assert "not an integer" in captured.err


# a bool is not an integer, though int(True) == True: these once ran as
# v = 1, as w = 1, over Q(zeta_1) and with n = 1, while "p": true was
# refused only as not prime
@pytest.mark.parametrize("argv, bad", [
    (["--v", "true"], "True"), (["--v", "1", "--w", "true"], "True"),
    (["--v", '{"0": false}'], "False")])
def test_boolean_dimension_is_exit_2(capsys, argv, bad):
    assert run(["dims", "--quiver", "jordan", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dimension vector entry {bad} is not an integer" in captured.err


@pytest.mark.parametrize("spec, what", [
    ({"kind": "cyclotomic", "m": True}, "field m"),
    ({"kind": "prime", "p": True}, "field p")])
def test_boolean_field_spec_is_exit_2(capsys, tmp_path, spec, what):
    d = {"quiver": "double:jordan", "field": spec,
         "v": {"0": 1}, "mats": {"x": [["0"]], "x*": [["0"]]}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(d))
    assert run(["rep", "moment", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{what} True is not an integer" in captured.err


def test_boolean_triple_size_is_exit_2(capsys, tmp_path):
    d = {"field": {"kind": "rational"}, "n": True, "x": [["0"]],
         "y": [["0"]], "i": ["1"], "j": ["0"]}
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(d))
    assert run(["adhm", "check", "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "n True is not an integer" in captured.err


# traces up to a negative degree are refused, as cycles up to length 0 are;
# they once printed an empty table. Degree 0 is Tr(1) = n
def test_negative_maxdeg_is_exit_2(report, capsys, tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "field": {"kind": "rational"}, "n": 2,
        "x": [["0", "1"], ["0", "0"]], "y": [["0", "0"], ["0", "0"]],
        "i": ["0", "1"], "j": ["0", "0"]}))
    out = report("adhm", "traces", "--data", str(path), "--maxdeg", "0")
    assert out["results"]["traces"] == {"x^0y^0": "2"}
    assert run(["adhm", "traces", "--data", str(path), "--maxdeg", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--maxdeg" in captured.err


# w is 0 at a vertex the file omits, but a key that is no vertex is
# refused, as in v; it was once dropped
def test_foreign_framing_key_is_exit_2(capsys, tmp_path):
    d = {"quiver": "double:a2", "field": {"kind": "rational"},
         "v": {"1": 1, "2": 0}, "w": {"1": 1},
         "mats": {"a1": [[]], "a1*": []},
         "i": {"1": [["1"]]}, "j": {"1": [["0"]]}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(d))
    assert run(["rep", "traces", "--rep", str(path)]) == 0
    capsys.readouterr()
    d["w"]["zz"] = 3
    path.write_text(json.dumps(d))
    assert run(["rep", "traces", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "do not match vertices" in captured.err


# each subcommand declares exactly the options its handler reads; these
# were once accepted and ignored
UNREAD_OPTIONS = [("quiver", opt) for opt in
                  ("--v", "--lambda", "--theta", "--expect")] + \
    [("dims", opt) for opt in ("--lambda", "--theta", "--expect")] + \
    [("rep", opt) for opt in ("--quiver", "--v", "--w")] + \
    [("adhm", opt) for opt in ("--quiver", "--v", "--w", "--theta")]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
def test_unread_option_is_exit_2(capsys, tmp_path, command, option):
    (tmp_path / "rep.json").write_text(json.dumps(BRUTE_REP))
    (tmp_path / "triple.json").write_text(json.dumps(ADHM_TRIPLES["rational"]))
    argv = {"quiver": ["quiver", "show", "--quiver", "a2"],
            "dims": ["dims", "--quiver", "a2", "--v", '{"1":1,"2":1}'],
            "rep": ["rep", "traces", "--rep", str(tmp_path / "rep.json")],
            "adhm": ["adhm", "check", "--data",
                     str(tmp_path / "triple.json")]}[command]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + [option, "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option} 1" in captured.err


def test_mckay_build(report):
    rep = report("mckay", "build", "--group", "bd:2")
    assert rep["results"]["ade_type"] == "D~4"
    assert rep["results"]["kernel_ok"]
    assert sorted(rep["results"]["delta"].values()) == [1, 1, 1, 1, 2]


# sha256 of the stdout of the earlier implementation, which took Phi_m
# from sympy and matched the McKay graph against a catalog with networkx
@pytest.mark.parametrize("group, digest", [
    ("cyclic:1", "b00be37b9d0b624ecb557e2ca269e024f2b5453fdfb53685f6ef5fe1512c55ae"),
    ("cyclic:5", "e088814d20c39cec28bcbc8fac412861156c7333087694b785342d0f0ffc6a7b"),
    ("bd:2", "a77cbae135554fed77f2ac795157e8b9d4cb1e142c9c9a488a878a5c3006dcf4"),
    ("bd:5", "89c25cab32468b53b27916f7827831fb564801d01cae663d474882cdc3d8499c"),
    ("bt", "9459729c5af51b3521f0fb8506fc4c641e1fdd999b32e59729afb5129a56fef9"),
    ("bo", "63626ff53fe986653252f22d8dbf87e11cc5ace1febeeb27e16cb9c5484e4ddc"),
    ("bi", "25b61b7803c5ee4754a983230aaf82fac5a454e45c65909310645dff52803506"),
])
def test_mckay_report_pinned(capsys, group, digest):
    assert run(["mckay", "build", "--group", group]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# an unknown name or an n out of range is an input error, like a
# non-integer n; these once printed a failed-check report and exited 1.
# n is ASCII digits alone: "5_0" once built cyclic:50, "5:7" and "3:x"
# built cyclic:5 and bd:3 with exit 0, and "2.5" and "" were refused with
# the bare message of int(), which did not name --group
@pytest.mark.parametrize("group", ["foo", "bd:1", "cyclic:0", "cyclic:x",
                                   "cyclic:5_0", "cyclic:5:7", "bd:3:x",
                                   "cyclic:2.5", "cyclic:", "cyclic:٥"])
def test_mckay_bad_group_is_exit_2(capsys, group):
    assert run(["mckay", "build", "--group", group]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"qv: input error: bad --group {group!r}")


# the pairing work k^3 phi(m)^2 is estimated from n before any table is
# built; cyclic:53 and bd:37 are the first n over the cap
@pytest.mark.parametrize("group", ["cyclic:53", "bd:37", f"cyclic:{10 ** 40}"])
def test_mckay_work_cap_is_exit_2(capsys, group):
    t0 = time.perf_counter()
    assert run(["mckay", "build", "--group", group]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds the cap" in captured.err


# the first inputs over the caps: the cycle work of maxlen 311 on the Jordan
# quiver and 15 on its double, and the box 63^3 of v = (62, 62, 62) on a3;
# the fibre work of roots gg at v = 1500 on a1 (its recursion depth) and
# v = 1100 on the Jordan quiver (its memo), both far over that cap
BOX_62 = '{"1":62,"2":62,"3":62}'


@pytest.mark.parametrize("argv", [
    ["quiver", "cycles", "--quiver", "jordan", "--maxlen", "311"],
    ["quiver", "cycles", "--quiver", "double:jordan", "--maxlen", "15"],
    ["quiver", "cycles", "--quiver", "jordan", "--maxlen", str(10 ** 40)],
    ["rep", "traces", "--rep", "onfiber.json", "--maxlen", "15"],
    ["roots", "list", "--quiver", "a3", "--v", BOX_62],
    ["roots", "regular", "--quiver", "a3", "--v", BOX_62],
    ["roots", "gg", "--quiver", "a3", "--v", BOX_62],
    ["roots", "gg", "--quiver", "a1", "--v", "1500"],
    ["roots", "gg", "--quiver", "jordan", "--v", "1100"],
])
def test_input_over_a_work_cap_is_exit_2(capsys, tmp_path, monkeypatch,
                                         argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "onfiber.json").write_text(json.dumps(CHECK_REPS["onfiber"]))
    t0 = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds the cap" in captured.err


def test_work_caps_admit_the_inputs_below_them():
    # the last inputs under each cap pass the check, which stops on a
    # quiver without oriented cycles whatever maxlen is
    from quivar import cli
    from quivar.quiver import double, jordan_quiver, type_a_quiver
    cases = [(jordan_quiver(), 310), (double(jordan_quiver()), 14),
             (double(type_a_quiver(2)), 3), (type_a_quiver(3), 10 ** 40)]
    for q, maxlen in cases:
        cli._check_cycle_work(q, maxlen)
    cli._check_maxdeg(cli.TRACE_DEGREE_CAP)
    with pytest.raises(cli.InputError):
        cli._check_maxdeg(cli.TRACE_DEGREE_CAP + 1)
    cli._check_box(type_a_quiver(3), {"1": 61, "2": 62, "3": 62})
    with pytest.raises(cli.InputError):
        cli._check_box(type_a_quiver(3), {"1": 62, "2": 62, "3": 62})
    # the fibre work max(R^2, sum(v)) * box: sum(v) <= 799 on a1, v <= 85
    # on the Jordan quiver (R = v) and (20, 20, 20) on a3 (R = 6)
    for q, n in [(type_a_quiver(1), 799), (jordan_quiver(), 85),
                 (type_a_quiver(3), 20)]:
        cli._check_gg_work(q, dict.fromkeys(q.vertices, n))
        with pytest.raises(cli.InputError):
            cli._check_gg_work(q, dict.fromkeys(q.vertices, n + 1))


def test_roots_gg_runs_at_the_depth_the_cap_admits(report):
    # the fibre memo recurses once per root of a decomposition: 799 deep
    # for v = 799 on a1, the largest v the cap admits there
    rep = report("roots", "gg", "--quiver", "a1", "--v", "799")["results"]
    assert rep["num_decompositions"] == 1 and not rep["components"]


def test_prime_beyond_exact_bound_is_exit_2(report, tmp_path):
    # 2^89 - 1 is prime, but beyond the bound where the test is exact
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime", "p": 2 ** 89 - 1}, "n": 1,
        "x": [[0]], "y": [[0]], "i": [1], "j": [0]}))
    t0 = time.perf_counter()
    assert report("adhm", "check", "--data", str(path), expect_code=2) is None
    assert time.perf_counter() - t0 < 1.0


def test_spectrum_root_search_cap_is_exit_2(report, tmp_path):
    # 2^61 - 1 is prime and within the exact bound, but far beyond the
    # exhaustive eigenvalue search
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime", "p": 2 ** 61 - 1}, "n": 2,
        "x": [[1, 0], [0, 2]], "y": [[1, 0], [0, 1]], "i": [1, 1],
        "j": [0, 0]}))
    t0 = time.perf_counter()
    assert report("adhm", "spectrum", "--data", str(path),
                  expect_code=2) is None
    assert time.perf_counter() - t0 < 1.0


def test_rep_pipeline(report, tmp_path):
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps({
        "quiver": "double:jordan",
        "field": {"kind": "rational"},
        "v": {"0": 2}, "w": {"0": 1},
        "mats": {"x": [["0", "1"], ["0", "0"]],
                 "x*": [["0", "0"], ["0", "0"]]},
        "i": {"0": [["0"], ["1"]]},
        "j": {"0": [["0", "0"]]}}))
    out = report("rep", "moment", "--rep", str(rep_path))
    assert out["results"]["on_fiber"]
    out = report("rep", "stable", "--rep", str(rep_path), "--theta", "minus")
    assert out["results"]["stable"]
    out = report("rep", "stable", "--rep", str(rep_path), "--theta", "plus",
                 "--expect", "stable", expect_code=1)
    assert not out["results"]["stable"]
    f2_path = tmp_path / "rep_f2.json"
    f2_path.write_text(json.dumps({
        "quiver": "double:jordan",
        "field": {"kind": "prime", "p": 2},
        "v": {"0": 2}, "w": {"0": 1},
        "mats": {"x": [["0 mod 2", "1 mod 2"], ["0 mod 2", "0 mod 2"]],
                 "x*": [[0, 0], [0, 0]]},
        "i": {"0": [[0], [1]]},
        "j": {"0": [[0, 0]]}}))
    out = report("rep", "brute", "--rep", str(f2_path), "--theta", "minus")
    assert out["results"]["stable"]
    out = report("rep", "endo", "--rep", str(rep_path))
    assert out["results"]["dimension"] == 0
    out = report("rep", "traces", "--rep", str(rep_path), "--maxlen", "2")
    assert {"cycle": ["x", "x"], "trace": "0"} in out["results"]["signature"]


def test_adhm_pipeline(report, tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "field": {"kind": "rational"}, "n": 2,
        "x": [["0", "1"], ["0", "0"]], "y": [["0", "0"], ["0", "0"]],
        "i": ["0", "1"], "j": ["0", "0"]}))
    out = report("adhm", "check", "--data", str(path))
    assert out["results"]["hilbert_point"]
    out = report("adhm", "ideal", "--data", str(path))
    assert out["results"]["staircase"] == [[0, 0], [1, 0]]
    assert out["results"]["leading_terms"] == [[0, 1], [2, 0]]
    out = report("adhm", "spectrum", "--data", str(path))
    assert out["results"]["points"] == [["0", "0"], ["0", "0"]]
    out = report("adhm", "traces", "--data", str(path), "--maxdeg", "1")
    assert out["results"]["traces"]["x^0y^0"] == "2"


def test_adhm_cm(report, tmp_path):
    path = tmp_path / "cm.json"
    path.write_text(json.dumps({
        "field": {"kind": "rational"}, "n": 2,
        "x": [["0", "1"], ["0", "0"]], "y": [["0", "0"], ["-1", "0"]],
        "i": ["1", "0"], "j": ["2", "0"]}))
    out = report("adhm", "cm", "--data", str(path), "--lambda", "1")
    assert out["results"]["free_point"]


def test_conv_mul(report, tmp_path):
    k1 = tmp_path / "k1.json"
    k2 = tmp_path / "k2.json"
    k1.write_text(json.dumps({"source": ["a"], "target": ["u", "v"],
                              "entries": [["1"], ["2"]]}))
    k2.write_text(json.dumps({"source": ["u", "v"], "target": ["p"],
                              "entries": [["1", "1"]]}))
    out = report("conv", "mul", "--k1", str(k1), "--k2", str(k2))
    assert out["results"]["entries"] == [["3"]]
    assert out["results"]["dual_formula_agrees"]


def test_reports_byte_identical(capsys):
    argv = ["dims", "--quiver", "a2", "--v", '{"1":1,"2":1}']
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


# an A2-double quadruple over F_3 with a destabilizing subspace at a
# mixed theta; the file name is relative, since it is part of the report
BRUTE_REP = {"quiver": "double:a2", "field": {"kind": "prime", "p": 3},
             "v": {"1": 2, "2": 1}, "w": {"1": 1, "2": 1},
             "mats": {"a1": [[1], [0]], "a1*": [[0, 2]]},
             "i": {"1": [[1], [0]], "2": [[0]]},
             "j": {"1": [[0, 1]], "2": [[1]]}}
BRUTE_ARGV = ["rep", "brute", "--rep", "brute.json",
              "--theta", '{"1": 2, "2": -1}']


def test_rep_brute_report_pinned(capsys, tmp_path, monkeypatch):
    # sha256 of the stdout of the earlier implementation, which decided
    # each containment by row reduction of Mat products
    monkeypatch.chdir(tmp_path)
    (tmp_path / "brute.json").write_text(json.dumps(BRUTE_REP))
    assert run(BRUTE_ARGV) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["results"]["witness"] == {"1": 1, "2": 0}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "62b130082523d88f3156b6bfc9ebecd55ce1d4ac41217bbd43b05467531761c6"


# `rep stable` with a JSON theta runs the same brute-force oracle, under
# the same QV_LIMIT cap; it once ran under the default cap and exited 0
@pytest.mark.parametrize("action", ["brute", "stable"])
def test_rep_brute_limit_is_exit_2(capsys, tmp_path, monkeypatch, action):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QV_LIMIT", "3")
    (tmp_path / "brute.json").write_text(json.dumps(BRUTE_REP))
    assert run(["rep", action] + BRUTE_ARGV[2:]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds limit 3" in captured.err


# QV_LIMIT is a positive integer: anything else once reached int() bare
# ("invalid literal for int()", naming no variable), and -1 or 0 was taken
# as a cap that refused every input
@pytest.mark.parametrize("value, message", [
    ("abc", "QV_LIMIT must be a positive integer, not 'abc'"),
    ("1.5", "QV_LIMIT must be a positive integer, not '1.5'"),
    ("-1", "QV_LIMIT must be a positive integer, not '-1'"),
    ("0", "QV_LIMIT must be a positive integer, not '0'"),
    ("3", "exceeds limit 3"),
])
def test_qv_limit_must_be_a_positive_integer(capsys, tmp_path, monkeypatch,
                                             value, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QV_LIMIT", value)
    (tmp_path / "brute.json").write_text(json.dumps(BRUTE_REP))
    assert run(BRUTE_ARGV) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


# malformed JSON in any input file is refused naming its kind and path;
# the representation, triple and kernel files once printed only the
# decoder's message
@pytest.mark.parametrize("argv, kind", [
    (["rep", "moment", "--rep", "bad.json"], "representation"),
    (["adhm", "check", "--data", "bad.json"], "triple"),
    (["conv", "mul", "--k1", "bad.json", "--k2", "bad.json"], "kernel"),
    (["quiver", "double", "--quiver", "bad.json"], "quiver"),
    (["conv", "group", "--table", "bad.json"], "group table"),
])
def test_malformed_json_names_the_file(capsys, tmp_path, monkeypatch, argv,
                                       kind):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text('{"field":\n')
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad {kind} JSON in 'bad.json': Expecting value" in captured.err


# --lambda is one rational for `adhm cm` and a rational per vertex (or one
# for all) for `rep`; a value of neither form once reached Fraction or
# dict methods bare, and a list or a zero denominator crashed `rep check`
# with a traceback
@pytest.mark.parametrize("argv, message", [
    (["adhm", "cm", "--data", "cm.json", "--lambda", "abc"],
     "bad --lambda 'abc'"),
    (["adhm", "cm", "--data", "cm.json", "--lambda", "[1, 2]"],
     "bad --lambda '[1, 2]'"),
    (["adhm", "cm", "--data", "cm.json", "--lambda", "true"],
     "bad --lambda 'true'"),
    (["adhm", "cm", "--data", "cm.json", "--lambda", '"1/0"'],
     "bad --lambda '\"1/0\"'"),
    (["rep", "check", "--rep", "framed.json", "--lambda", "[1, 2]"],
     "bad rational vector '[1, 2]'"),
    (["rep", "check", "--rep", "framed.json", "--lambda", '"1/0"'],
     "bad rational vector '\"1/0\"'"),
    (["rep", "check", "--rep", "framed.json", "--lambda", '{"0": "x"}'],
     "bad rational vector '{\"0\": \"x\"}'"),
])
def test_bad_lambda_is_exit_2(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cm.json").write_text(json.dumps({
        "field": {"kind": "rational"}, "n": 2,
        "x": [["0", "1"], ["0", "0"]], "y": [["0", "0"], ["-1", "0"]],
        "i": ["1", "0"], "j": ["2", "0"]}))
    (tmp_path / "framed.json").write_text(json.dumps(STABLE_REPS["rational"]))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


# theta is a JSON int at each vertex of the quiver and at no other key:
# a fraction was once truncated to 0 (answering semistable at theta = 0,
# where (1/2, 0) has the witness {"1": 1, "2": 0}), a missing vertex
# crashed the oracle with a KeyError, an unknown one was dropped and true
# was read as 1
@pytest.mark.parametrize("action, theta", [
    ("brute", '{"1": 0.5, "2": 0}'),
    ("brute", '{"1": "1/2", "2": 0}'),
    ("brute", '{"1": 2}'),
    ("stable", '{"1": 2}'),
    ("brute", '{"1": 2, "2": -1, "3": 0}'),
    ("brute", '{"1": true, "2": 0}'),
    ("brute", '[2, -1]'),
], ids=["fraction", "string", "missing vertex", "missing vertex, stable",
        "unknown vertex", "bool", "list"])
def test_rep_bad_theta_is_exit_2(capsys, tmp_path, monkeypatch, action,
                                 theta):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "brute.json").write_text(json.dumps(BRUTE_REP))
    assert run(["rep", action, "--rep", "brute.json", "--theta", theta]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qv: input error:") and "theta" in captured.err


# a rational Jordan-double quadruple, stable at theta = -1 only, and an
# A2-double quadruple over F_3 with no framing at vertex 2, stable at
# theta = +1 only; both verdicts come from the closure deciders
STABLE_REPS = {
    "rational": {"quiver": "double:jordan", "field": {"kind": "rational"},
                 "v": {"0": 3}, "w": {"0": 1},
                 "mats": {"x": [["0", "1", "0"], ["0", "0", "1"],
                                ["0", "0", "0"]],
                          "x*": [["0", "1/2", "0"], ["0", "0", "0"],
                                 ["0", "0", "0"]]},
                 "i": {"0": [["0"], ["0"], ["1"]]},
                 "j": {"0": [["0", "0", "-3"]]}},
    "f3": {"quiver": "double:a2", "field": {"kind": "prime", "p": 3},
           "v": {"1": 2, "2": 1}, "w": {"1": 1, "2": 0},
           "mats": {"a1": [[1], [0]], "a1*": [[1, 2]]},
           "i": {"1": [[0], [0]], "2": [[]]},
           "j": {"1": [[2, 0]], "2": []}},
}


@pytest.mark.parametrize("name, theta, stable, digest", [
    ("rational", "plus", False,
     "9378781328a07b093064c809a8c8b509e6c580e40a6736731eca2e23b86f14fc"),
    ("rational", "minus", True,
     "2c2d9d57840b7b04552ebea90c9354747cbd6efeee2dd50c9e12a26ec18969d8"),
    ("f3", "plus", True,
     "d270ded44932b2911312276b4e318002a088170eb3e1c52cfe37f29026c5b41c"),
    ("f3", "minus", False,
     "91417ff0c2a9fb9d442f1789d1cb152481183cbe01df60351b3baec4e42b9910"),
])
def test_rep_stable_report_pinned(capsys, tmp_path, monkeypatch, name, theta,
                                  stable, digest):
    # sha256 of the stdout of the earlier implementation, which decided
    # both stabilities by Kleene fixed points of the closures
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(STABLE_REPS[name]))
    assert run(["rep", "stable", "--rep", f"{name}.json",
                "--theta", theta]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["results"]["stable"] is stable
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a conjugated commuting pair over Q with a repeated eigenvalue of x, and
# one over Q(zeta_4) with the Galois-closed eigenvalues i, -i, 2 of x
ADHM_TRIPLES = {
    "rational": {"field": {"kind": "rational"}, "n": 3,
                 "x": [["-5/2", "-1/2", "3"], ["-3", "0", "3"],
                       ["0", "0", "1/2"]],
                 "y": [["13/7", "1/7", "-6/7"], ["27/14", "1/14", "-27/14"],
                       ["5/28", "-5/28", "23/28"]],
                 "i": ["1", "0", "0"], "j": ["0", "0", "0"]},
    "zeta4": {"field": {"kind": "cyclotomic", "m": 4}, "n": 3,
              "x": [[["4/5", "3/5"], ["8/5", "-4/5"], ["-4/5", "2/5"]],
                    [["-1", "0"], ["0", "0"], ["1", "0"]],
                    [["-6/5", "8/5"], ["8/5", "6/5"], ["6/5", "-3/5"]]],
              "y": [[["8/5", "6/5"], ["6/5", "2/5"], ["-3/5", "-1/5"]],
                    [["1", "0"], ["2", "-1"], ["-1", "0"]],
                    [["8/5", "6/5"], ["6/5", "-8/5"], ["-3/5", "-1/5"]]],
              "i": [[["1", "0"]], [["0", "0"]], [["0", "0"]]],
              "j": [["0", "0"], ["0", "0"], ["0", "0"]]},
}


@pytest.mark.parametrize("name, action, digest", [
    ("rational", "spectrum",
     "6d151686d0f4977a1f94c5561793c0abdabba87686587e9c8d7206362e5f0cdc"),
    ("rational", "traces",
     "a97bd6a2fc9d982418a85ce11ba84c77e6358d96598323622b73af3277a1b7c7"),
    ("zeta4", "spectrum",
     "9f360cbe84a733a39e2d4aea489bfacba04f17320b374fa55a833f6b8f4eda16"),
    ("zeta4", "traces",
     "df2a91e71a6435b67d43bdd1e10086b975206946fe2735af84bcdb03e3eaf132"),
])
def test_adhm_report_pinned(capsys, tmp_path, monkeypatch, name, action,
                            digest):
    # sha256 of the stdout of the earlier implementation, which summed
    # every inner product one field add and mul at a time and took each
    # power trace as the trace of a formed product
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(ADHM_TRIPLES[name]))
    extra = ["--maxdeg", "3"] if action == "traces" else []
    assert run(["adhm", action, "--data", f"{name}.json", *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, action, digest", [
    ("rational", "ideal",
     "0461a889119890b0f639b380f859cb9aba4e70076d193c860fc55e145da94c2f"),
    ("rational", "check",
     "e93255a983599861295c5f7fd040bf90759a5e2681182326d43aede9d8fdc17e"),
    ("zeta4", "ideal",
     "989e81c21283c52a4cea9e1ebf93363799e837bf2f3538425ae31991d73253c3"),
    ("zeta4", "check",
     "94c7c4f0b621308ee737c62a74f13270860af7ce642bc7dbf062abfb43df9f96"),
])
def test_adhm_staircase_report_pinned(capsys, tmp_path, monkeypatch, name,
                                      action, digest):
    # sha256 of the stdout of the earlier implementation, which grew the
    # staircase span by one subspace_sum (a full RREF) per monomial; both
    # triples are Hilbert points
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(ADHM_TRIPLES[name]))
    assert run(["adhm", action, "--data", f"{name}.json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# diag(zeta, 1) and diag(sqrt(-3), -sqrt(-3)) over Q(zeta_3), sqrt(-3) =
# 1 + 2 zeta: both characteristic polynomials split, but their roots are
# beyond the eigenvalue search, whose refusal prints the polynomial
REFUSED_TRIPLES = {
    name: {"field": {"kind": "cyclotomic", "m": 3}, "n": 2,
           "x": [[a, ["0"]], [["0"], b]], "y": [[["1"], ["0"]], [["0"], ["1"]]],
           "i": [[["1"]], [["1"]]], "j": [["0"], ["0"]]}
    for name, a, b in [("zeta_and_one", ["0", "1"], ["1"]),
                       ("sqrt_minus_3", ["1", "2"], ["-1", "-2"])]}


@pytest.mark.parametrize("name, digest", [
    ("zeta_and_one",
     "5d6a81a7e833bd55f2c416e6220c88b8772c0cf9594b164387ed9e50355ffa91"),
    ("sqrt_minus_3",
     "f3ebc52cf680d35d50fa0dc32fddd06aa30b3bdf2f52d8e09db888d4e35b46a0"),
])
def test_adhm_spectrum_refusal_pinned(capsys, tmp_path, monkeypatch, name,
                                      digest):
    # sha256 of the stdout of the implementation that stored a cyclotomic
    # element as a tuple of Fractions; the error names the polynomial
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(REFUSED_TRIPLES[name]))
    assert run(["adhm", "spectrum", "--data", f"{name}.json"]) == 1
    out = capsys.readouterr().out
    assert "unsupported" in json.loads(out)["results"]["error"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# x = [[0, -1], [1, 0]] and [[0, 1/2], [1, 0]] over Q: t^2 + 1 and t^2 - 1/2
# do not split, and the refusal prints the polynomial as Fractions
NON_SPLIT_TRIPLES = {
    name: {"field": {"kind": "rational"}, "n": 2, "x": x,
           "y": [["1", "0"], ["0", "1"]], "i": ["1", "0"], "j": ["0", "0"]}
    for name, x in [("rotation", [["0", "-1"], ["1", "0"]]),
                    ("sqrt_half", [["0", "1/2"], ["1", "0"]])]}


@pytest.mark.parametrize("name, digest", [
    ("rotation",
     "d4c73e2b79261d1d8fc414637a5eb95909f17b3a6984ae2982f8f87beb9a5c69"),
    ("sqrt_half",
     "2a4dfc1f3d15f3cbe15902869fe6fffe08a40176f849861edaf2e612b127003f"),
])
def test_adhm_spectrum_non_split_pinned(capsys, tmp_path, monkeypatch, name,
                                        digest):
    # sha256 of the stdout of the implementation that stored every element
    # of Q as a Fraction
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(NON_SPLIT_TRIPLES[name]))
    assert run(["adhm", "spectrum", "--data", f"{name}.json"]) == 1
    out = capsys.readouterr().out
    assert "does not split" in json.loads(out)["results"]["error"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("field", [{"kind": "rational"},
                                   {"kind": "prime", "p": 5}],
                         ids=["Q", "F5"])
@pytest.mark.parametrize("command", ["adhm", "rep", "conv"])
def test_coefficient_list_entry_needs_a_cyclotomic_field(
        capsys, tmp_path, monkeypatch, field, command):
    # a list entry over Q or F_p raised AttributeError from from_coeffs
    monkeypatch.chdir(tmp_path)
    if command == "adhm":
        data = {"field": field, "n": 2, "x": [[["1", "0"], "0"], ["0", "1"]],
                "y": [["1", "0"], ["0", "1"]], "i": ["1", "0"],
                "j": ["0", "0"]}
        argv = ["adhm", "check", "--data", "in.json"]
    elif command == "rep":
        data = {"quiver": "jordan", "field": field, "v": {"0": 1},
                "mats": {"x": [[[1, 2]]]}}
        argv = ["rep", "traces", "--rep", "in.json"]
    else:
        data = {"field": field, "source": ["a"], "target": ["b"],
                "entries": [[[1]]]}
        argv = ["conv", "mul", "--k1", "in.json", "--k2", "in.json"]
    (tmp_path / "in.json").write_text(json.dumps(data))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coefficient list, which needs a cyclotomic field" in captured.err


@pytest.mark.parametrize("command", ["adhm", "rep", "conv"])
def test_cyclotomic_index_above_the_cap_is_exit_2(capsys, tmp_path,
                                                  monkeypatch, command):
    # each loader reads its field through field_from_spec, which refuses
    # m above the cap before Q(zeta_m) is built; m = 4001 once took 3.4 s
    # and 259 MB. At the cap the input runs
    from quivar.fields import CYCLOTOMIC_INDEX_CAP as cap
    monkeypatch.chdir(tmp_path)
    for m, code in ((cap, 0), (cap + 1, 2)):
        field = {"kind": "cyclotomic", "m": m}
        if command == "adhm":
            data = {"field": field, "n": 1, "x": [["0"]], "y": [["0"]],
                    "i": ["1"], "j": ["0"]}
            argv = ["adhm", "check", "--data", "in.json"]
        elif command == "rep":
            data = {"quiver": "jordan", "field": field, "v": {"0": 1},
                    "mats": {"x": [["1"]]}}
            argv = ["rep", "traces", "--rep", "in.json"]
        else:
            data = {"field": field, "source": ["a"], "target": ["a"],
                    "entries": [["1"]]}
            argv = ["conv", "mul", "--k1", "in.json", "--k2", "in.json"]
        (tmp_path / "in.json").write_text(json.dumps(data))
        assert run(argv) == code
    captured = capsys.readouterr()
    assert f"field m = {cap + 1} exceeds the cap of {cap}" in captured.err


@pytest.mark.parametrize("entry", ["1/0", ["1/0"]], ids=["Q", "Q(zeta_3)"])
@pytest.mark.parametrize("command", ["rep moment", "adhm check", "conv mul"])
def test_zero_denominator_entry_is_exit_2(capsys, tmp_path, monkeypatch,
                                          command, entry):
    # each loader let Fraction's ZeroDivisionError out as a traceback
    monkeypatch.chdir(tmp_path)
    field = {"kind": "rational"} if isinstance(entry, str) else \
        {"kind": "cyclotomic", "m": 3}
    if command == "rep moment":
        data = {"quiver": "double:jordan", "field": field, "v": {"0": 1},
                "mats": {"x": [[entry]], "x*": [["0"]]}}
        argv = ["rep", "moment", "--rep", "in.json"]
    elif command == "adhm check":
        data = {"field": field, "n": 1, "x": [[entry]], "y": [["0"]],
                "i": ["1"], "j": ["0"]}
        argv = ["adhm", "check", "--data", "in.json"]
    else:
        data = {"field": field, "source": ["a"], "target": ["b"],
                "entries": [[entry]]}
        argv = ["conv", "mul", "--k1", "in.json", "--k2", "in.json"]
    (tmp_path / "in.json").write_text(json.dumps(data))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"entry {json.dumps(entry)} has a zero denominator" in captured.err


# inputs refused before any work; each was once a traceback with exit 1
# (AttributeError from spec.get, d["i"].get or d.get on a JSON value of the
# wrong type, TypeError from open(None) on a missing file flag), or an
# unbounded run: the 1 x 1 trace table grows as maxdeg^2 entries of up to
# maxdeg digits
KERNEL = {"source": ["a"], "target": ["a"], "entries": [["1"]]}
# a one-loop quiver whose star pairs name an edge it does not have
LOOP_Y = {"vertices": ["0"], "edges": [{"name": "x", "tail": "0", "head": "0"}],
          "provenance": {"star_pairs": {"x": "y"}}}
INT_LABELS = {"vertices": [0, 1],
              "edges": [{"name": 5, "tail": 0, "head": 1}]}
# a framed Jordan rep with w = 1, its framing maps given as 1 x 1 matrices
FRAMED_JORDAN = {"quiver": "double:jordan", "field": {"kind": "rational"},
                 "v": {"0": 1}, "w": {"0": 1},
                 "mats": {"x": [["0"]], "x*": [["0"]]},
                 "i": {"0": [["0"]]}, "j": {"0": [["0"]]}}
REFUSED_INPUTS = {
    **{f"rep field {spec}": (["rep", "check", "--rep", "in.json"],
                             {**BRUTE_REP, "field": spec},
                             f"field spec {spec!r} is not an object")
       for spec in ([], "q", None)},
    **{f"triple field {spec}": (["adhm", "check", "--data", "in.json"],
                                {**ADHM_TRIPLES["rational"], "field": spec},
                                f"field spec {spec!r} is not an object")
       for spec in ([], "q", None)},
    **{f"framed rep {key}": (["rep", "check", "--rep", "in.json"],
                             {**BRUTE_REP, key: list(BRUTE_REP[key].values())},
                             f"{key!r} is not an object")
       for key in ("i", "j")},
    # i and j are read by one rule: whenever w > 0 or the key is given. A
    # missing j under w = 1 was read as 0, and a j entry under w = 0 was
    # never parsed, where the same i was refused
    **{f"framed rep no {key}": (["rep", "moment", "--rep", "in.json"],
                                {**FRAMED_JORDAN, key: {}},
                                "matrix must be 1 x 1")
       for key in ("i", "j")},
    **{f"framed rep w = 0 bad {key}": (
        ["rep", "moment", "--rep", "in.json"],
        {**FRAMED_JORDAN, "w": {"0": 0}, "i": {}, "j": {},
         key: {"0": "garbage"}}, shape)
       for key, shape in (("i", "matrix must be 1 x 0"),
                          ("j", "matrix must be 0 x 1"))},
    "kernel []": (["conv", "mul", "--k1", "in.json", "--k2", "k.json"], [],
                  "bad kernel JSON in 'in.json': not an object"),
    "no --table": (["conv", "group"], None, "conv group requires --table"),
    "no --k1": (["conv", "mul", "--k2", "k.json"], None,
                "conv mul requires --k1"),
    "no --k2": (["conv", "mul", "--k1", "k.json"], None,
                "conv mul requires --k2"),
    **{f"maxdeg {name}": (["adhm", "traces", "--data", "in.json",
                           "--maxdeg", str(deg)], ADHM_TRIPLES["rational"],
                          f"exceeds the cap of {TRACE_DEGREE_CAP}")
       for name, deg in (("cap + 1", TRACE_DEGREE_CAP + 1),
                         ("10^40", 10 ** 40))},
    # a JSON boolean was read as the int 1 (True == 1)
    "rep bool entry": (["rep", "check", "--rep", "in.json"],
                       {**BRUTE_REP, "mats": {"a1": [[True], [0]],
                                              "a1*": [[0, 2]]}},
                       "invalid literal for int() with base 10: 'True'"),
    "triple bool entry": (["adhm", "spectrum", "--data", "in.json"],
                          {"field": {"kind": "rational"}, "n": 1,
                           "x": [[True]], "y": [[2]], "i": ["1"], "j": ["0"]},
                          "bad triple JSON: Invalid literal for Fraction: "
                          "'True'"),
    "kernel bool entry": (["conv", "mul", "--k1", "in.json", "--k2", "k.json"],
                          {**KERNEL, "entries": [[True]]},
                          "bad kernel JSON: Invalid literal for Fraction: "
                          "'True'"),
    # a provenance was stored as given, to fail later as a traceback
    "provenance []": (["dims", "--quiver", "in.json", "--v", "1"],
                      {"vertices": ["0"], "edges": [], "provenance": []},
                      "bad quiver JSON in 'in.json': provenance [] is not an "
                      "object"),
    "provenance star_pairs": (["rep", "moment", "--rep", "in.json"],
                              {"quiver": LOOP_Y, "field": {"kind": "rational"},
                               "v": {"0": 1}, "mats": {"x": [["1"]]}},
                              "provenance 'star_pairs' is not an object "
                              "mapping edges to reversed edges: {'x': 'y'}"),
    # a label that is not a string was kept, to fail later as a traceback
    # (double, frame) or to pass as an edge (dims)
    **{f"quiver {act} int labels": (["quiver", act, "--quiver", "in.json"],
                                    INT_LABELS, "bad quiver JSON in "
                                    "'in.json': vertex label 0 is not a "
                                    "string")
       for act in ("double", "frame")},
    "dims int edge name": (["dims", "--quiver", "in.json",
                            "--v", '{"0": 1, "1": 1}'],
                           {"vertices": ["0", "1"], "edges": [
                               {"name": 5, "tail": "0", "head": "1"}]},
                           "bad quiver JSON in 'in.json': edge name 5 is "
                           "not a string"),
    # a --lambda key that is not a vertex was dropped, and the answer was
    # for lambda = 0 there; a stray --v, --w or --theta key was refused
    **{f"roots {act} stray lambda": (["roots", act, "--quiver", "a2", "--v",
                                      '{"1":1,"2":1}', "--lambda",
                                      '{"3": 1}'], None,
                                     "--lambda keys ['3'] are not vertices")
       for act in ("gg", "regular")},
}


@pytest.mark.parametrize("argv, data, message", REFUSED_INPUTS.values(),
                         ids=REFUSED_INPUTS)
def test_refused_input_is_exit_2(capsys, tmp_path, monkeypatch, argv, data,
                                 message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.json").write_text(json.dumps(KERNEL))
    if data is not None:
        (tmp_path / "in.json").write_text(json.dumps(data))
    t0 = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert message in captured.err


# diag(1/2, -zeta, -zeta^2) over Q(zeta_3), -zeta^2 = 1 + zeta: pairs are
# sorted by the str of their Fraction coefficients, where -zeta^2 comes
# before 1/2; by the str of numerators over one denominator it would not
ORDER_TRIPLE = {"field": {"kind": "cyclotomic", "m": 3}, "n": 3,
                "x": [[["1/2"], ["0"], ["0"]], [["0"], ["0", "-1"], ["0"]],
                      [["0"], ["0"], ["1", "1"]]],
                "y": [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]],
                      [["0"], ["0"], ["1"]]],
                "i": [[["1"]], [["1"]], [["1"]]],
                "j": [["0"], ["0"], ["0"]]}


def test_adhm_spectrum_order_pinned(capsys, tmp_path, monkeypatch):
    # sha256 of the stdout of the implementation that stored a cyclotomic
    # element as a tuple of Fractions
    monkeypatch.chdir(tmp_path)
    (tmp_path / "order.json").write_text(json.dumps(ORDER_TRIPLE))
    assert run(["adhm", "spectrum", "--data", "order.json"]) == 0
    out = capsys.readouterr().out
    assert [p[0] for p in json.loads(out)["results"]["points"]] == \
        ["[0,-1]", "[1,1]", "[1/2,0]"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "5f2f3d623c7e8e35224033349374169c2159d33334ed19565a9abd3a1ef7e617"


def _diag(entries):
    return [[e if r == c else "0" for c in range(len(entries))]
            for r, e in enumerate(entries)]


# commuting pairs for the separating combination x + t y of joint_spectrum:
# - rotation_block: y is the rotation t^2 + 1 on the eigenspace of x for
#   1, so the refusal names that block polynomial, not y's whole one;
# - f2_unseparated: the four pairs of F_2^2, which no t of F_2 separates;
# - rational_repeated: g diag(1, 1, -2, 3, 3) g^-1 and g diag(2, 2, 2, -1,
#   0) g^-1 for an integer g;
# - zeta3_conjugated: g diag(zeta, zeta^2, 1) g^-1 and g diag(2, -1, 2)
#   g^-1 over Q(zeta_3)
SEPARATED_TRIPLES = {
    "rotation_block": {
        "field": {"kind": "rational"}, "n": 3, "x": _diag(["1", "1", "2"]),
        "y": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "5"]],
        "i": ["1", "0", "0"], "j": ["0", "0", "0"]},
    "f2_unseparated": {
        "field": {"kind": "prime", "p": 2}, "n": 4,
        "x": _diag([0, 0, 1, 1]), "y": _diag([0, 1, 0, 1]),
        "i": [1, 0, 0, 0], "j": [0, 0, 0, 0]},
    "rational_repeated": {
        "field": {"kind": "rational"}, "n": 5,
        "x": [["-5/3", "2/3", "-2", "4/3", "14/3"],
              ["-6", "7/2", "-7/2", "9/2", "19/2"],
              ["4", "1/2", "11/2", "-7/2", "-17/2"],
              ["20/3", "-5/3", "5", "-16/3", "-35/3"],
              ["-2", "1", "-1", "1", "4"]],
        "y": [["5", "-1/2", "5/2", "-3/2", "-11/2"],
              ["4", "0", "2", "-2", "-6"],
              ["-3", "-3/2", "-5/2", "3/2", "15/2"],
              ["-3", "1/2", "-5/2", "7/2", "11/2"],
              ["2", "-1", "1", "-1", "-1"]],
        "i": ["1", "0", "0", "0", "0"], "j": ["0"] * 5},
    "zeta3_conjugated": {
        "field": {"kind": "cyclotomic", "m": 3}, "n": 3,
        "x": [[["-10/7", "-1/7"], ["9/7", "3/7"], ["10/7", "8/7"]],
              [["2/7", "10/7"], ["1/7", "-9/7"], ["-2/7", "-10/7"]],
              [["-9/7", "-3/7"], ["6/7", "9/7"], ["9/7", "10/7"]]],
        "y": [[["8/7", "12/7"], ["-3/7", "-15/7"], ["6/7", "-12/7"]],
              [["12/7", "18/7"], ["-1/7", "-12/7"], ["-12/7", "-18/7"]],
              [["0", "0"], ["0", "0"], ["2", "0"]]],
        "i": [[["1", "0"]], [["0", "0"]], [["0", "0"]]],
        "j": [["0", "0"]] * 3},
}


@pytest.mark.parametrize("name, code, digest", [
    ("rotation_block", 1,
     "1fe94e349432399ddd9c16674a35d1425fed26a8cd2a256cd0e6c68cbca26e97"),
    ("f2_unseparated", 0,
     "443ddf6cbe6fb314c9cd841c07165120a0428b6dd4364f181dc41de9afe45b9e"),
    ("rational_repeated", 0,
     "97bcf7fbc50df073d95020972a5a10a3c01970c1e0f2a468f842b885ceb3d553"),
    ("zeta3_conjugated", 0,
     "8687ff2dfb149d52e2ba39dc8e0ffdef8ee0ca4ecc5dc429c078cd445160ffbd"),
])
def test_adhm_spectrum_separated_pinned(capsys, tmp_path, monkeypatch, name,
                                        code, digest):
    # sha256 of the stdout of the implementation that took one kernel of
    # (x - r)^k per eigenvalue r of x and the spectrum of y on it
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(SEPARATED_TRIPLES[name]))
    assert run(["adhm", "spectrum", "--data", f"{name}.json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CONV_KERNELS = {
    "rational": ({"source": ["a", "b"], "target": ["u", "v", "w"],
                  "entries": [["1/2", "-3"], ["2", "0"], ["5/3", "1"]]},
                 {"source": ["u", "v", "w"], "target": ["p", "q"],
                  "entries": [["1", "-1/4", "2"], ["0", "7", "-2/5"]]}),
    "f5": ({"field": {"kind": "prime", "p": 5}, "source": ["a", "b"],
            "target": ["u", "v", "w"], "entries": [[1, 3], [4, 0], [2, 2]]},
           {"field": {"kind": "prime", "p": 5}, "source": ["u", "v", "w"],
            "target": ["p", "q"], "entries": [[1, 4, 2], [3, 0, 1]]}),
}


@pytest.mark.parametrize("name, digest", [
    ("rational",
     "b37b7d5cc8b871d2ad02bafed02a91d71f7bdbfc73a80116d8bc5c2478ab9004"),
    ("f5", "0eb0eee0b4b237ee259f49f7e933e761a0432da18056a3a03f65ec5bae22b79a"),
])
def test_conv_mul_report_pinned(capsys, tmp_path, monkeypatch, name, digest):
    # sha256 of the stdout of the earlier implementation, whose matrix
    # product summed one field add and mul at a time
    monkeypatch.chdir(tmp_path)
    k1, k2 = CONV_KERNELS[name]
    (tmp_path / "k1.json").write_text(json.dumps(k1))
    (tmp_path / "k2.json").write_text(json.dumps(k2))
    assert run(["conv", "mul", "--k1", "k1.json", "--k2", "k2.json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _relabelled_s4():
    # S_4 with element a renamed 5a + 7 mod 24: the identity is 7, not 0
    from quivar.convolution import symmetric_group
    s4 = symmetric_group(4)
    sigma = [(5 * k + 7) % 24 for k in range(24)]
    table = [[0] * 24 for _ in range(24)]
    for a in range(24):
        for b in range(24):
            table[sigma[a]][sigma[b]] = sigma[s4.mul(a, b)]
    return table


def _s3():
    from quivar.convolution import symmetric_group
    return [list(r) for r in symmetric_group(3).table]


@pytest.mark.parametrize("make, digest", [
    (_s3, "54d9b1b5a15fed170be72d96d9f10bb629f6b150c5aca53d5491667e9a8e1eda"),
    (_relabelled_s4,
     "c4eba57308ee8ccb3cd4fd9e19806e8251cff0c21db09bd62179f1d346096aae"),
])
def test_conv_group_report_pinned(capsys, tmp_path, monkeypatch, make, digest):
    # sha256 of the stdout of the earlier implementation, which rescanned
    # the table for the identity on every inverse
    monkeypatch.chdir(tmp_path)
    (tmp_path / "group.json").write_text(json.dumps({"table": make()}))
    assert run(["conv", "group", "--table", "group.json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("table", [
    # a Latin square with identity and inverses, not associative
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
     [4, 3, 1, 2, 0]],
    [[0, 1, 2], [1, 2, 0], [2, 0, 0]],  # not a Latin square
])
def test_conv_group_refuses_non_groups(capsys, tmp_path, table):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"table": table}))
    assert run(["conv", "group", "--table", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "bad group table" in out.err


def test_conv_group_refuses_a_names_list_of_the_wrong_length(capsys,
                                                             tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"table": [[0, 1], [1, 0]], "names": ["e"]}))
    assert run(["conv", "group", "--table", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "bad group table" in out.err


# a framed quadruple on the Jordan double off the fiber, one on it, and an
# unframed A2-double representation, for `rep check`
CHECK_REPS = {
    "framed": STABLE_REPS["rational"],
    "onfiber": {"quiver": "double:jordan", "field": {"kind": "rational"},
                "v": {"0": 2}, "w": {"0": 1},
                "mats": {"x": [["0", "1"], ["0", "0"]],
                         "x*": [["0", "0"], ["0", "0"]]},
                "i": {"0": [["0"], ["1"]]}, "j": {"0": [["0", "0"]]}},
    "unframed": {"quiver": "double:a2", "field": {"kind": "rational"},
                 "v": {"1": 1, "2": 1},
                 "mats": {"a1": [["1"]], "a1*": [["2"]]}},
}


@pytest.mark.parametrize("argv, code, digest", [
    (["quiver", "frame", "--quiver", "a2"], 0,
     "782a44c1a616e480226a6e200f01e9037c6f2a2c3feb5492580d86933c4b1076"),
    (["quiver", "cb_frame", "--quiver", "a2", "--w", '{"1":1,"2":0}'], 0,
     "93a69ea865b809a095fd129eb60878f0b6f64052fac16bdf2f715df312ee145b"),
    (["quiver", "adjacency", "--quiver", "double:a2"], 0,
     "720b22281160735e7fb5cb1312fc15efe61205460476b4bf35bba8f1ff32fd14"),
    (["quiver", "cartan", "--quiver", "double:a2"], 0,
     "3a848754617efc851dad134ab3f8e7682386f3baf9d9ed785d6ddd425e8bc63d"),
    (["quiver", "cycles", "--quiver", "double:a2"], 0,
     "f25fde0553614055b4ed02838a1c25f4b8fabc1fd044f2f87ead913389cc9476"),
    (["quiver", "cycles", "--quiver", "jordan", "--maxlen", "2"], 0,
     "436a95c248c20b8e3e3256dfd7f618bc566c63bf6afd585d9c173422720a4662"),
    (["roots", "weight", "--quiver", "a2", "--v", '{"1":1,"2":1}',
      "--w", '{"1":1,"2":1}'], 0,
     "54aec205873e5807dd2fc317394da1c63acf5c1e4ca29282625c61925d7d774d"),
    (["roots", "weight", "--quiver", "a2", "--v", '{"1":1,"2":0}',
      "--w", '{"1":0,"2":1}'], 0,
     "2af69a7bb94bcff97e53acb92f07b85ba9b861c591a2cb75580cdf4e375d02b5"),
    (["rep", "check", "--rep", "framed.json"], 0,
     "f87c1e328536bb14da18be563930a4b93ac2df9e331c9249ca9c4ae5ffc0397a"),
    (["rep", "check", "--rep", "framed.json", "--lambda", "1"], 0,
     "01906cfd4cadced87f0dc0a931ce371cf658bbad3b9743801597566885a43c29"),
    (["rep", "check", "--rep", "onfiber.json", "--expect", "fiber"], 0,
     "f7eaa27b68d1a0b7671cbdc0c847a9750f5a5ee8f4b25103d9ecd979ace2ebcb"),
    (["rep", "check", "--rep", "unframed.json"], 0,
     "788459a18d37476bb907dba3bb19fb1631acc0f755ed3114f577942d29857e74"),
    (["rep", "check", "--rep", "unframed.json", "--lambda",
      '{"1":2,"2":-2}'], 0,
     "4c2727e877d1e0b1c94c8bd6676768c045d5c14ecb1ca7fa71e0e6dcb54777a3"),
    (["rep", "check", "--rep", "unframed.json", "--expect", "fiber"], 1,
     "92ca4a31bebc84b05a3dfd18cb613d2fbade77a79cc40ac49ab8ae325d6dcc4a"),
])
def test_quiver_weight_and_check_reports_pinned(capsys, tmp_path,
                                                monkeypatch, argv, code,
                                                digest):
    # sha256 of the stdout of the implementation before the shared
    # polynomial layer, for handlers no other test runs
    monkeypatch.chdir(tmp_path)
    for name, data in CHECK_REPS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    assert run(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["quiver", "cb_frame", "--quiver", "a2"],
    ["roots", "weight", "--quiver", "a2", "--v", '{"1":1,"2":1}'],
], ids=["cb_frame", "roots weight"])
def test_missing_w_is_exit_2(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "requires" in captured.err and "--w" in captured.err


@pytest.mark.parametrize("ok", [True, False])
def test_selftest_reports_each_check(capsys, monkeypatch, ok):
    from quivar import acceptance

    def run_all(seed):
        checks = [{"name": "first", "ok": True, "elapsed": 0.5, "bound": 1.0},
                  {"name": "second", "ok": ok, "elapsed": 0.25, "bound": 2.0}]
        return {"seed": seed, "passed": ok, "checks": checks}

    monkeypatch.setattr(acceptance, "run_all", run_all)
    assert run(["--seed", "3", "selftest"]) == (0 if ok else 1)
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "[PASS] first (0.5s, bound 1.0s)",
        f"[{'PASS' if ok else 'FAIL'}] second (0.25s, bound 2.0s)"]
    rep = json.loads(captured.out)
    assert rep["ok"] is ok and rep["seed"] == 3
    assert rep["results"]["passed"] is ok
