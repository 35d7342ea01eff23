"""The package runs on the standard library alone, the benchmark's tracer
finds every callable it wraps, the stability closures share no code with
the brute-force oracle that checks them, whose per-subspace membership
tests stay deleted, inner products and matrix products go through the
fields' dot-product kernel, the pullback convolution
that checks the matrix product stays off it and makes one row update per
nonzero middle entry, exact elimination runs through one echelon basis
and the fields' row kernels, the root search stays in ints, the integer
layout of Q(zeta_m) elements stays
inside ``fields``, each field checks and shows its own elements for
``Mat`` and ``adhm``, the kernels over Q build no Fraction on ints, and the
root layer reads each Cartan matrix once and lists no fiber
decomposition it does not report, the orbit algebra numbers its orbits
in one scan, with no sort and no label strings, the integer
polynomial steps and q-numbers have one home, ``quivar.poly``, and the
brute-force oracle keeps its memo on the quadruple, in no module-level
cache, the Calogero-Moser check runs on the moment map and spin of
``reps``, only ``cli`` opens files or reads the environment, and every
library name has a caller outside the tests."""

import importlib.util
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# every module of the package, each imported by name: `import quivar.cli`
# loads only the layers that argument parsing needs
MODULES = sorted(p.stem for p in (ROOT / "src" / "quivar").glob("*.py")
                 if p.stem != "__init__")

PROBE = """
import importlib
import sys
for mod in sys.argv[1:]:
    importlib.import_module(f"quivar.{mod}")
from quivar.fields import CyclotomicField
from quivar.mckay import table_by_name, verify_ade
assert verify_ade(table_by_name("bi"))["type"] == "E~8"
CyclotomicField(12)
print(sorted(m for m in ("sympy", "networkx") if m in sys.modules))
"""


def test_core_loads_no_third_party_module():
    # a fresh interpreter, so modules imported by other tests do not count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    assert {"acceptance", "cli", "linalg"} <= set(MODULES)
    out = subprocess.run([sys.executable, "-c", PROBE, *MODULES], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


COLD_PROBE = """
import sys
import quivar.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "quivar"))
print("_hashlib" in sys.modules)
"""


def test_cli_import_loads_the_quiver_layer_alone():
    # each handler imports the layers it runs, and only a printed report
    # needs hashlib, whose _hashlib maps OpenSSL
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", COLD_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == [
        "['quivar', 'quivar.cli', 'quivar.quiver']", "False"]


def test_no_runtime_dependencies_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_callables_resolve():
    # the tracer looks each (module, attribute) up when it installs, so a
    # renamed or deleted callable would only show as a crashed traced run
    tracing = _tracing()
    missing = []
    for entry in tracing.TIMED + tracing.COUNTED:
        _, mod, attr = entry
        owner = importlib.import_module(mod)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append((mod, attr))
    assert missing == []


def _name_tokens(path):
    """(name, line) of each NAME token of a source file: words in strings
    and comments are not NAME tokens."""
    with open(path) as fh:
        return [(tok.string, tok.start[0])
                for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NAME]


# library names with no caller yet, each with the reason it stays
UNCALLED_BUT_KEPT = {
    "triple_from_staircase": "the torus-fixed points of Hilb^n(A^2), which "
                             "the tangent characters of ROADMAP item 5 read",
}


def test_every_library_name_has_a_caller():
    # a top-level def or class of the package is named, as a NAME token,
    # somewhere in src outside its own definition, or the benchmark names
    # it, or it is kept on purpose; otherwise only tests reach it
    import ast
    bench = {part for _, _, attr in _tracing().TIMED
             for part in attr.split(".")}
    for path in [ROOT / "perfbench" / "workloads.py",
                 *sorted((ROOT / "perfbench" / "tests").glob("*.py"))]:
        bench |= {name for name, _ in _name_tokens(path)}
    files = {path: _name_tokens(path)
             for path in sorted((ROOT / "src" / "quivar").glob("*.py"))}
    uncalled = []
    for path in files:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = range(first, node.end_lineno + 1)
            called = any(name == node.name and (other != path or line not in own)
                         for other, tokens in files.items()
                         for name, line in tokens)
            if not (called or node.name in bench
                    or node.name in UNCALLED_BUT_KEPT):
                uncalled.append(f"{path.name}:{node.name}")
    assert uncalled == []


ORACLE_NAMES = {"_invariant_tuples", "code_map", "subspace_points",
                "point_test", "vector_code", "incidence_index", "Incidence",
                "locate", "point_images", "holding", "holding_all",
                "based_on_any", "breaking", "_tensor", "_pairs", "_members",
                "_cell_table", "_solutions", "_holders", "_bases",
                "_point_incidences", "_bitset",
                "_code_table", "_bruteforce_reports", "_families", "_memo",
                "_invariant_bits", "_framing_cuts", "_framing_bits",
                "_invariant_memo", "_framing_memo", "lane_width",
                "point_lanes", "_barrett", "_pack", "_LANE_FORMATS",
                "_to_point", "tensor_bits", "dimension_masks",
                "_lowest_tuples", "_lowest_bits", "_lowest_memo"}
# the per-subspace membership tests that the incidence index replaced
RETIRED_ORACLE_NAMES = {"subspace_points", "point_test", "_in_mask",
                        "_in_echelon"}


def _names(code):
    """The global and attribute names a code object and the code objects
    nested in it (comprehensions, generators, inner functions) refer to."""
    out = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            out |= _names(const)
    return out


def test_closures_share_no_code_with_the_bruteforce_oracle():
    # the brute-force oracle checks the closures, so the closures must not
    # reach any of its packed machinery
    from quivar import linalg, reps
    closure_code = [reps.min_closure, reps.max_core, reps.is_stable_plus,
                    reps.is_stable_minus, reps._spin, reps._arrows,
                    linalg.Echelon.add, linalg.Echelon.column_basis]
    for fn in closure_code:
        assert not _names(fn.__code__) & ORACLE_NAMES, fn.__name__


def test_oracle_memo_lives_on_the_quadruple():
    # the oracle keeps its work on the Rep and FramedRep it read, not in a
    # module-level cache that would outlive them
    import ast
    tree = ast.parse((ROOT / "src" / "quivar" / "reps.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree)
              if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert not names & {"lru_cache", "cache", "functools"}


def test_no_module_defines_a_retired_membership_test():
    import ast
    for path in sorted((ROOT / "src" / "quivar").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {n.name for n in ast.walk(tree)
                   if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
                    for t in n.targets if isinstance(t, ast.Name)}
        assert not defined & RETIRED_ORACLE_NAMES, path.name


def test_root_layer_reads_one_datum_and_lists_no_decomposition():
    # the Freudenthal recursion reads det C, adj C and the positive roots
    # from the cached datum of C instead of redoing them per call, uses
    # det C and adj C once to turn mu into the dimension vector beta and
    # runs on beta, with no weight converted back or pairing scaled by
    # det C, and the fiber analysis counts decompositions instead of
    # listing them
    import ast
    import time
    from quivar import roots
    from quivar.quiver import jordan_quiver
    for path in sorted((ROOT / "src" / "quivar").glob("*.py")):
        tree = ast.parse(path.read_text())
        assert "_decompositions" not in {
            n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
        }, path.name
    code = roots.freudenthal_mult.__code__
    names = _names(code)
    assert not names & {"classify_cartan", "positive_roots", "solve", "Mat"}
    nested = {const.co_name: const for const in code.co_consts
              if hasattr(const, "co_freevars")}
    assert not {"adj", "det"} & set(nested["mult"].co_freevars)
    assert not {"root_gap", "inner"} & (set(nested) | set(code.co_varnames))
    # v = 60 on the Jordan quiver has 966,467 decompositions, one of them a
    # component (p(v) = 1); listing them all took 23 s
    t0 = time.perf_counter()
    rep = roots.gg_analysis(jordan_quiver(), {}, {"0": 60})
    assert time.perf_counter() - t0 < 2.0
    assert rep["num_decompositions"] == 966467
    assert rep["components"] == [[{"0": 60}]]


def test_orbit_algebra_numbers_orbits_in_one_scan():
    # the orbits come out ordered by their least index pair from one scan
    # of the index pairs, so nothing sorts them or searches them for that
    # pair, and the group-algebra check runs on the integer labels
    from quivar import convolution
    names = _names(convolution.invariant_algebra.__code__)
    assert not names & {"sort", "sorted", "min"}
    assert "int" not in _names(
        convolution.group_algebra_matches_invariant.__code__)


def test_inner_products_use_the_field_kernel():
    # each field has its own fused inner product, and the inner-product
    # loops call it instead of one field add and mul per term
    from quivar import adhm, fields, linalg, mckay, reps
    for cls in (fields.Rationals, fields.PrimeField, fields.CyclotomicField):
        assert "dot" in vars(cls), cls.__name__
    for fn in (linalg.Mat._berkowitz, adhm.power_traces):
        names = _names(fn.__code__)
        assert "dot" in names and not names & {"add", "mul"}, fn.__qualname__
    # the product kernel is dot per entry, and the McKay pairings over
    # Q(zeta_m) work on the residues of their integer coordinates: the
    # table check and `inner` share the one class-function kernel, and
    # each pairing is one integer sum of products
    names = _names(fields.Field.matmul.__code__)
    assert "dot" in names and not names & {"add", "mul"}
    for fn in (mckay.CharacterTable.inner, mckay.CharacterTable.validate):
        names = _names(fn.__code__)
        assert {"class_residues", "pairings"} <= names, fn.__qualname__
        assert not names & {"add", "mul", "dot"}, fn.__qualname__
    cls = fields.CyclotomicField
    for fn in (cls.class_residues, fields.ClassResidues.rational):
        assert not _names(fn.__code__) & {"add", "mul", "dot", "conj"}, \
            fn.__qualname__
    # the one product of the pairings is operator.mul on ints
    names = _names(fields.ClassResidues.pairings.__code__)
    assert {"sum", "operator"} <= names
    assert not names & {"add", "dot", "conj"}
    # the matrix product has one code path, the field's product kernel,
    # whose base version, the one Q(zeta_m) uses, is dot per entry; every
    # product over Q(zeta_m) goes through dot, with no second kernel
    names = _names(linalg.Mat.__matmul__.__code__)
    assert "matmul" in names and not names & {"dot", "add", "mul"}
    assert "matmul" not in vars(fields.CyclotomicField)
    assert not {"prepare", "pair", "_times"} & set(
        vars(fields.CyclotomicField))
    assert not {"prepare", "pair"} & set(vars(fields.Field))
    # the spin's images: it names `add` only as Echelon.add, and a per-term
    # loop would name the field's mul
    names = _names(reps._spin.__code__)
    assert "dot" in names and "mul" not in names


def test_mckay_checks_decide_on_integer_pairings(monkeypatch):
    # the table checks, the degrees and the McKay multiplicities compare
    # |G| times a pairing, an integer, with no Fraction; only `inner` builds
    # one. The class weights, the conjugation and the twist by chi_E act
    # on the residues of the integer coordinates, with no canonical
    # element built and no product folded per entry. The McKay matrix is
    # built by the check at construction, not on demand
    import dataclasses
    from quivar import fields, mckay
    table = mckay.CharacterTable
    cls = fields.CyclotomicField
    for fn in (table.validate, table.degrees.fget, cls.rational_ints,
               cls.class_residues,
               fields.ClassResidues.pairings, fields.ClassResidues.rational,
               fields._common_den):
        assert "Fraction" not in _names(fn.__code__), fn.__qualname__
    assert "Fraction" in _names(table.inner.__code__)
    for fn in (cls.class_residues, fields.ClassResidues.pairings,
               fields.ClassResidues.rational):
        assert not _names(fn.__code__) & {"_lowest", "_reduce", "_fold",
                                          "gcd"}, fn.__qualname__
    assert not _names(table.validate.__code__) & {"row_scale", "mul_int"}
    matrix = {f.name: f for f in dataclasses.fields(table)}["mckay_matrix"]
    assert not matrix.init and "mckay_matrix" not in vars(table)

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    bi = mckay.table_by_name("bi")
    monkeypatch.setattr(fields, "Fraction", refuse)
    assert sorted(bi.degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_calogero_moser_runs_on_the_quiver_paths():
    # the deformed triple is a framed point of the Jordan double: its
    # residual and its cyclicity come from the moment map and the theta = -1
    # spin of reps, not from a commutator and span of adhm's own
    from quivar import adhm, reps
    names = _names(adhm.calogero_moser_check.__code__)
    assert {"moment_residual", "is_stable_minus"} <= names
    assert not names & {"subspace_sum", "commutator"}
    assert not hasattr(adhm, "commutator")
    assert not hasattr(reps, "preprojective_check")


def test_one_reader_of_files_and_of_the_environment():
    # only cli reads QV_LIMIT or os.environ, and it opens a file in
    # _read_json alone
    import ast

    def opens(node):
        return sum(isinstance(n, ast.Call)
                   and getattr(n.func, "id", None) == "open"
                   for n in ast.walk(node))

    for path in sorted((ROOT / "src" / "quivar").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        environ = any(isinstance(n, ast.Attribute) and n.attr == "environ"
                      for n in ast.walk(tree))
        if path.name == "cli.py":
            reader, = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                       and f.name == "_read_json"]
            assert "QV_LIMIT" in text and environ
            assert opens(reader) == opens(tree) == 1
        else:
            assert "QV_LIMIT" not in text and not environ, path.name
            assert opens(tree) == 0, path.name


def test_pullback_convolution_is_an_independent_cross_check():
    # `qv conv mul` reports dual_formula_agrees by comparing convolve with
    # convolve_via_pullback, which must therefore not reach the matrix
    # product or the fields' dot-product kernel; it pushes each pulled-back
    # row forward through the row kernel of elimination instead
    from quivar import convolution
    names = _names(convolution.convolve_via_pullback.__code__)
    assert not names & {"dot", "__matmul__", "convolve"}
    assert "row_sub" in names


def test_row_updates_and_root_tests_stay_in_ints():
    # Echelon.add updates a whole row through the field's row kernel, and
    # the root search tests candidates on integer coefficients, with no
    # field add or mul per step and no deflation
    from quivar import adhm, linalg
    names = _names(linalg.Echelon.add.__code__)
    assert {"_row_sub", "_row_scale"} <= names
    assert not names & {"sub", "mul", "_sub", "_mul"}
    code = adhm._poly_roots.__code__
    assert not _names(code) & {"add", "mul"}
    local = set(code.co_varnames) | set(code.co_cellvars) | {
        c.co_name for c in code.co_consts if hasattr(c, "co_name")}
    assert not local & {"deflate", "eval_at"}


def test_every_elimination_is_one_echelon():
    # RREF, column spans, the stability spin, the Hilbert staircase and
    # the flags over F_q all add vectors to an Echelon; none of them runs
    # its own Gauss-Jordan step, which would name the field inverse
    from quivar import adhm, convolution, linalg, reps
    for fn in (linalg.Mat.rref, linalg.col_span, reps._spin,
               adhm._staircase, convolution.complete_flags):
        names = _names(fn.__code__)
        assert "Echelon" in names and "inv" not in names, fn.__qualname__


def test_every_determinant_is_one_berkowitz_pass():
    # the characteristic polynomial, the leading principal minors and the
    # determinant all read Mat._berkowitz, which divides by nothing; an
    # Echelon reports no leading entry, so adds need no field division
    import ast
    from quivar import linalg
    mat = linalg.Mat
    for fn in (mat._berkowitz, mat.char_poly, mat.leading_minors, mat.det):
        names = _names(fn.__code__)
        assert not names & {"Echelon", "inv"}, fn.__qualname__
    assert "_berkowitz" in _names(mat.char_poly.__code__)
    assert "_berkowitz" in _names(mat.leading_minors.__code__)
    assert "leading_minors" in _names(mat.det.__code__)
    assert "_div" not in _names(linalg.Echelon.add.__code__)
    for path in sorted((ROOT / "src" / "quivar").glob("*.py")):
        if path.name == "linalg.py":
            continue
        defined = {n.name for n in ast.walk(ast.parse(path.read_text()))
                   if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert "_char_poly" not in defined, path.name


def test_convolution_inverts_nothing_mod_q():
    # the relative position of two flags is counted from common points,
    # and the flags are built on Echelon: no function in convolution
    # takes a modular inverse by pow
    path = ROOT / "src" / "quivar" / "convolution.py"
    assert "pow" not in _names(compile(path.read_text(), str(path), "exec"))


CYCLOTOMIC_INTERNALS = {"_cleared", "_reduce", "_fold", "_at_zeta_pow",
                        "_zeta_pows", "_zeta_sparse", "_zeta_height"}


def test_cyclotomic_layout_stays_in_fields():
    # a cyclotomic element is integers over one denominator; only fields.py
    # reads that layout, and its arithmetic builds no Fraction
    import ast
    from quivar import adhm, fields
    for path in sorted((ROOT / "src" / "quivar").glob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & CYCLOTOMIC_INTERNALS, path.name
    names = _names(adhm._root_candidates.__code__)
    assert "rational_part" in names and "isinstance" not in names
    cls = fields.CyclotomicField
    for fn in (cls.add, cls.sub, cls.neg, cls.mul, cls.dot, cls.conj,
               cls.inv, cls.row_sub, cls.row_scale, cls.vanishes_at_zeta_pow,
               cls._reduce, cls._fold, cls._at_zeta_pow,
               cls._conjugate, cls._orbit_product,
               fields._galois_tower.__wrapped__,
               fields._lowest, fields._combine):
        assert "Fraction" not in _names(fn.__code__), fn.__qualname__


def test_element_formats_have_one_home_in_fields():
    # each field checks and shows its own elements, so Mat checks an entry
    # and adhm prints or sorts one with no branch on the field
    from quivar import adhm, fields
    from quivar.linalg import Mat
    concrete = [c for c in vars(fields).values() if isinstance(c, type)
                and issubclass(c, fields.Field) and c is not fields.Field]
    assert {c.__name__ for c in concrete} == {"Rationals", "PrimeField",
                                              "CyclotomicField"}
    for cls in concrete:
        assert {"element", "show"} <= set(vars(cls)), cls.__name__
    field_names = {c.__name__ for c in concrete} | {"Field", "QQ"}
    assert not _names(Mat.__init__.__code__) & (
        {"kind", "Fraction"} | field_names)
    assert "element" in _names(Mat.__init__.__code__)
    for fn in (adhm._eigenvalues, adhm.joint_spectrum):
        names = _names(fn.__code__)
        assert not names & {"coeffs", "Fraction", "kind"}, fn.__name__
        assert "show" in names, fn.__name__


def test_rational_kernels_build_no_fraction_on_ints(monkeypatch):
    # on int operands dot, row_sub and row_scale take the integer path, so
    # no Fraction is built; one Fraction operand takes the ratio path
    from fractions import Fraction
    from quivar import fields

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    qq = fields.QQ
    u, v = [3, 0, -2, 10 ** 30], [1, 5, 7, -4]
    monkeypatch.setattr(fields, "Fraction", refuse)
    assert qq.dot(u, v) == 3 - 14 - 4 * 10 ** 30
    assert qq.row_sub(u, -3, v) == [6, 15, 19, 10 ** 30 - 12]
    assert qq.row_sub(u, 0, v) == u
    assert qq.row_scale(2, u) == [6, 0, -4, 2 * 10 ** 30]
    assert qq.dot([], []) == 0 and qq.row_sub([], 1, []) == []
    with pytest.raises(AssertionError, match="a Fraction was built"):
        qq.row_scale(2, [Fraction(1, 3)])


# the integer polynomial steps that once had a copy in adhm or fields
RETIRED_POLY_NAMES = {"_fp_zeros", "_scaled", "_cleared"}


def test_polynomial_steps_live_in_poly():
    # Phi_m, clearing denominators, the integer root test's steps and the
    # q-numbers have one home, which imports no module of the package, so
    # that fields can build on it
    import ast
    from quivar import adhm, convolution, fields, linalg
    for path in sorted((ROOT / "src" / "quivar").glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [n for n in ast.walk(tree)
                   if isinstance(n, (ast.Import, ast.ImportFrom))]
        math_names = {a.name for n in imports if isinstance(n, ast.ImportFrom)
                      and n.module == "math" for a in n.names}
        if path.name == "poly.py":
            assert not any(isinstance(n, ast.ImportFrom) and n.level
                           for n in imports)
            modules = [a.name for n in imports if isinstance(n, ast.Import)
                       for a in n.names]
            modules += [n.module for n in imports
                        if isinstance(n, ast.ImportFrom)]
            assert not any(m.split(".")[0] == "quivar" for m in modules)
            continue
        defined = {n.name for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef)}
        assert not defined & RETIRED_POLY_NAMES, path.name
        # lcm clears denominators and comb takes Hasse derivatives
        assert not math_names & {"lcm", "comb"}, path.name
    uses = [(fields.cyclotomic_coeffs, {"divmod_monic"}),
            (fields._zeta_table, {"divmod_monic"}),
            (fields.CyclotomicField.from_coeffs, {"cleared"}),
            (adhm._root_candidates, {"cleared", "roots_mod",
                                     "at_plus_minus_one", "may_be_root"}),
            (adhm._poly_roots, {"scaled"}),
            (adhm._multiplicity, {"hasse"}),
            (linalg.gaussian_binomial_total.__wrapped__, {"q_binomial"}),
            (convolution.hecke_algebra, {"q_binomial"})]
    for fn, names in uses:
        assert names <= _names(fn.__code__), fn.__qualname__
    # products are reduced by the table through _fold, the one reduction
    # by it
    assert "_fold" in _names(fields.CyclotomicField._reduce.__code__)


# What bounds the work of each `qv` action. A pair ("module.CAP",
# "module.guard") is a cap that the guard reads and that refuses larger
# input before the work; a string states a polynomial bound. n is the
# matrix size, |Q| counts vertices and arrows, and a cap or bound holds
# for every field unless it names one. An action that reads a field spec
# lists FIELD_CAP: Q(zeta_m) takes O(m phi(m)) to build, and the spec's m
# is capped before it is built.
FIELD_CAP = ("fields.CYCLOTOMIC_INDEX_CAP", "fields.field_from_spec")
QV_BOUNDS = {
    "quiver show": ["O(|Q|)"],
    "quiver double": ["O(|Q|)"],
    "quiver frame": ["O(|Q|)"],
    "quiver cb_frame": ["O(|Q| + sum w): one arrow per unit of w"],
    "quiver adjacency": ["O(|Q|^2)"],
    "quiver cartan": ["O(|Q|^2)"],
    "quiver cycles": [("cli.CYCLE_WORK_CAP", "cli._check_cycle_work")],
    "dims": ["O(|Q|) integer operations"],
    "roots list": [("cli.ROOTS_BOX_CAP", "cli._check_box")],
    "roots regular": [("cli.ROOTS_BOX_CAP", "cli._check_box")],
    "roots gg": [("cli.ROOTS_BOX_CAP", "cli._check_box"),
                 ("cli.ROOTS_GG_CAP", "cli._check_gg_work")],
    "roots weight": ["O(|Q|^2): w - C v"],
    "rep moment": [FIELD_CAP, "O(|Q| n^3): two products per arrow"],
    "rep check": [FIELD_CAP, "O(|Q| n^3): two products per arrow"],
    "rep stable": [FIELD_CAP, "theta plus or minus: one spin, O(|Q| n^3)",
                   ("reps.DEFAULT_SUBSPACE_LIMIT", "cli._subspace_limit")],
    "rep traces": [FIELD_CAP,
                   ("cli.CYCLE_WORK_CAP", "cli._check_cycle_work")],
    "rep brute": [FIELD_CAP,
                  ("reps.DEFAULT_SUBSPACE_LIMIT", "cli._subspace_limit")],
    "rep endo": [FIELD_CAP, "O(E N^2): one kernel of E equations in N = "
                 "sum v_i^2 unknowns"],
    "adhm check": [FIELD_CAP,
                   "O(n^4): the deglex spin, n^2 products by x or y"],
    "adhm ideal": [FIELD_CAP,
                   "O(n^4): the deglex spin, n^2 products by x or y"],
    "adhm spectrum": [FIELD_CAP, ("adhm.FP_ROOT_SEARCH_CAP",
                                  "adhm._root_candidates")],
    "adhm traces": [FIELD_CAP, ("cli.TRACE_DEGREE_CAP", "cli._check_maxdeg"),
                    "O(maxdeg n^3 + maxdeg^2 n^2): the powers, then one "
                    "inner product per monomial"],
    "adhm cm": [FIELD_CAP, "O(n^6): the moment map, one spin and one "
                "kernel in n^2 unknowns"],
    "mckay build": [("mckay.MCKAY_WORK_CAP", "mckay._check_work")],
    "conv hecke": [("convolution.HECKE_WORK_CAP",
                    "convolution.hecke_algebra")],
    "conv group": ["O(|G|^3): the table's checks and its constants"],
    "conv mul": [FIELD_CAP,
                 "O(|X| |Y| |Z|): two products of the kernel matrices"],
    "selftest": ["fixed inputs, each criterion under its own time budget"],
}
# actions with an input that no cap or stated bound covers
KNOWN_UNBOUNDED = {
    "adhm spectrum": "over Q, and Q(zeta_m) by the same search, the "
                     "rational root candidates come from the divisors of "
                     "the end coefficients by trial division: diag(N, 1) "
                     "hangs. ROADMAP item 8 replaces the search",
}
QV_CAPS = {"CYCLE_WORK_CAP", "ROOTS_BOX_CAP", "ROOTS_GG_CAP",
           "MCKAY_WORK_CAP", "HECKE_WORK_CAP", "FP_ROOT_SEARCH_CAP",
           "DEFAULT_SUBSPACE_LIMIT", "CYCLOTOMIC_INDEX_CAP",
           "TRACE_DEGREE_CAP"}


def _quivar_attr(dotted):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"quivar.{module}"), name)


def test_every_qv_action_is_bounded():
    # a new subcommand or action fails here until it names its cap or
    # states its polynomial bound
    import argparse
    from quivar import cli
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    actions = set()
    for command, parser in sub.choices.items():
        choices = [a.choices for a in parser._actions if a.dest == "action"]
        actions |= ({f"{command} {act}" for act in choices[0]} if choices
                    else {command})
    assert set(QV_BOUNDS) == actions
    assert set(KNOWN_UNBOUNDED) <= actions
    caps = set()
    for action, bounds in QV_BOUNDS.items():
        for bound in bounds:
            if isinstance(bound, str):
                continue
            cap, guard = bound
            value = _quivar_attr(cap)
            assert type(value) is int and value > 0, cap
            name = cap.split(".")[1]
            assert name in _names(_quivar_attr(guard).__code__), guard
            caps.add(name)
    assert caps == QV_CAPS
    # the brute-force oracle's cap is the one that QV_LIMIT overrides
    assert "QV_LIMIT" in cli._subspace_limit.__code__.co_consts
