"""The ``qv`` command: JSON reports over the library, plus a selftest.

Exit codes: 0 success, 1 failed mathematical check, 2 input error. A
report is printed on exit 0 and 1; reports are byte-identical for
identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import prod

from . import MathFailure, __version__
from .quiver import (Quiver, QuiverError, adjacency, cartan, cb_frame,
                     check_dimvector, cycles, dims, double, frame,
                     jordan_quiver, quiver_from_json, quiver_to_json,
                     type_a_quiver, walk_counts)

# Every other layer is imported by the handler or loader that reads it, so
# that a subcommand loads only the layers it runs.


class InputError(ValueError):
    pass


class CheckFailed(Exception):
    def __init__(self, results):
        self.results = results


# -- input loading -----------------------------------------------------

def _read_json(path, what):
    """The JSON object in a file; InputError naming what it holds if it is
    unreadable or not an object."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot load {what}: {err}")
    except ValueError as err:  # malformed JSON, or bytes not in the encoding
        raise InputError(f"bad {what} JSON in {path!r}: {err}")
    if not isinstance(d, dict):
        raise InputError(f"bad {what} JSON in {path!r}: not an object")
    return d


def _object(d, key):
    """d[key], refused unless it is a JSON object."""
    val = d[key]
    if not isinstance(val, dict):
        raise InputError(f"{key!r} is not an object")
    return val


_BUILTINS = {"jordan": jordan_quiver}


def _builtin_quiver(name: str) -> Quiver:
    if name in _BUILTINS:
        return _BUILTINS[name]()
    if name.startswith("a") and name[1:].isdigit():
        return type_a_quiver(int(name[1:]))
    raise InputError(f"unknown builtin quiver {name!r}")


def load_quiver_ref(ref) -> Quiver:
    """Quiver from an inline JSON object, a file path, or a builtin name
    ('jordan', 'a2', ...); the prefix 'double:' applies the doubling."""
    if isinstance(ref, dict):
        return quiver_from_json(ref)
    ref = str(ref)
    if ref.startswith("double:"):
        return double(load_quiver_ref(ref[len("double:"):]))
    try:
        return _builtin_quiver(ref)
    except InputError:
        pass
    d = _read_json(ref, "quiver")
    try:
        return quiver_from_json(d)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad quiver JSON in {ref!r}: {err}")


def parse_dimvector(q: Quiver, text, default=None) -> dict:
    if text is None:
        return default
    try:
        val = json.loads(text)
    except ValueError:
        raise InputError(f"bad dimension vector {text!r}")
    if isinstance(val, int):
        inner = [v for v in q.vertices
                 if q.provenance.get("kind") not in ("frame", "cb_frame")
                 or v in q.provenance.get("original_vertices", q.vertices)]
        if len(inner) != 1:
            raise InputError("scalar dimension needs a one-vertex quiver")
        return {inner[0]: val}
    if not isinstance(val, dict):
        raise InputError(f"bad dimension vector {text!r}")
    return {str(k): x for k, x in val.items()}


def parse_rational_vector(q: Quiver, text) -> dict:
    """A rational at each vertex, from a JSON object or one number for
    every vertex; 0 at every vertex when ``--lambda`` is not given, and at
    each vertex the object leaves out. A key that is not a vertex is
    refused."""
    if text is None:
        return dict.fromkeys(q.vertices, Fraction(0))
    try:  # Fraction(str(x)) refuses every JSON value but a number or ratio
        val = json.loads(text)
        if not isinstance(val, dict):
            val = dict.fromkeys(q.vertices, val)
        lam = {str(k): Fraction(str(x)) for k, x in val.items()}
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad rational vector {text!r}")
    stray = sorted(set(lam) - set(q.vertices))
    if stray:
        raise InputError(f"--lambda keys {stray} are not vertices of the "
                         f"quiver")
    return lam


def _parse_entry(fieldobj, x):
    if isinstance(x, list) and fieldobj.kind != "cyclotomic":
        raise InputError(f"entry {json.dumps(x)} is a coefficient list, "
                         f"which needs a cyclotomic field")
    try:  # a JSON true or false is not an int here, and parse refuses it
        if type(x) is int:
            return fieldobj.from_int(x)
        return fieldobj.parse(x if isinstance(x, list) else str(x))
    except ZeroDivisionError:
        raise InputError(f"entry {json.dumps(x)} has a zero denominator")


def parse_matrix(fieldobj, data, rows, cols):
    from .linalg import Mat
    if len(data) != rows or any(len(r) != cols for r in data):
        raise InputError(f"matrix must be {rows} x {cols}")
    return Mat(fieldobj, [[_parse_entry(fieldobj, x) for x in r] for r in data],
               rows, cols)


def load_rep(path) -> tuple:
    """Representation (Rep or FramedRep) from its JSON file."""
    from .fields import FieldError, field_from_spec
    from .linalg import Mat
    from .reps import FramedRep, Rep, RepError
    d = _read_json(path, "representation")
    try:
        q = load_quiver_ref(d["quiver"])
        fieldobj = field_from_spec(d["field"])
        v = check_dimvector(q, {str(k): x
                                for k, x in _object(d, "v").items()})
        mats = {e.name: parse_matrix(fieldobj, d["mats"][e.name],
                                     v[e.head], v[e.tail]) for e in q.edges}
        rep = Rep(q, fieldobj, v, mats)
        if "w" not in d:
            return rep
        w = check_dimvector(q, {**dict.fromkeys(q.vertices, 0),
                                **_object(d, "w")})
        di, dj = _object(d, "i"), _object(d, "j")
        i = {k: parse_matrix(fieldobj, di.get(k, []), v[k], w[k])
             if w[k] or k in di else Mat.zeros(fieldobj, v[k], w[k])
             for k in q.vertices}
        j = {k: parse_matrix(fieldobj, dj.get(k, []), w[k], v[k])
             if w[k] or k in dj else Mat.zeros(fieldobj, w[k], v[k])
             for k in q.vertices}
        return FramedRep(rep, w, i, j)
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, (FieldError, QuiverError, RepError, InputError)):
            raise InputError(str(err))
        raise InputError(f"bad representation JSON: {err}")


def load_adhm(path):
    from .adhm import AdhmData
    from .fields import exact_int, field_from_spec
    d = _read_json(path, "triple")
    try:
        fieldobj = field_from_spec(d["field"])
        n = exact_int(d["n"], "n")
        x = parse_matrix(fieldobj, d["x"], n, n)
        y = parse_matrix(fieldobj, d["y"], n, n)
        i = parse_matrix(fieldobj, [[r] if not isinstance(r, list) else r
                                    for r in d["i"]], n, 1)
        j = parse_matrix(fieldobj, [d["j"]], 1, n)
        return AdhmData(n, x, y, i, j, fieldobj)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad triple JSON: {err}")


def load_kernel(path):
    from .convolution import FiniteKernel, finset
    from .fields import field_from_spec
    d = _read_json(path, "kernel")
    try:
        fieldobj = field_from_spec(d.get("field", {"kind": "rational"}))
        src = finset(d["source"])
        tgt = finset(d["target"])
        return FiniteKernel(src, tgt,
                            parse_matrix(fieldobj, d["entries"],
                                         len(tgt), len(src)))
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad kernel JSON: {err}")


def mat_to_json(m):
    return [[m.field.to_str(x) for x in r] for r in m.data]


def parse_theta(q: Quiver, text) -> dict:
    """``plus``, ``minus``, ``zero`` or a JSON object giving an int at each
    vertex of the quiver and at no other key."""
    if text in (None, "plus"):
        return {k: 1 for k in q.vertices}
    if text == "minus":
        return {k: -1 for k in q.vertices}
    if text == "zero":
        return {k: 0 for k in q.vertices}
    from .reps import check_theta
    try:
        return check_theta(q, json.loads(text))
    except ValueError as err:  # bad JSON, or check_theta's RepError
        raise InputError(f"bad theta {text!r}: {err}")


# -- caps on inputs whose work grows exponentially in their size -------

# Each is checked before any work, and qv exits 2 above them. The cycle
# enumeration visits each walk of length L <= maxlen once and spends O(L) on
# a closed one, so the sum of L^2 W_L over the W_L walks of each length
# bounds its work: maxlen <= 310 on the Jordan quiver, <= 14 on its double.
# The roots below v come from a walk over the box of all alpha <= v. The
# `roots gg` count makes at most R * box updates for the R roots, and the
# walk over its components tries up to R roots per step, to depth
# sum(v) < box: max(R^2, sum(v)) * box bounds the work.
CYCLE_WORK_CAP = 10_000_000
ROOTS_BOX_CAP = 250_000
ROOTS_GG_CAP = 640_000

# The power traces up to degree D list about D^2 / 2 monomials, and their
# entries grow with the degree: over Q the 1 x 1 triple (2, 3) has the
# trace 2^a 3^b at x^a y^b. On a shared 2-core x86-64 VM `qv adhm traces`
# took 0.2 s and printed a 1.4 MB report at D = 200, 0.5 s and 10 MB at
# D = 400, and 2.4 s, 290 MB of memory and a 72 MB report at D = 800.
TRACE_DEGREE_CAP = 200


def _check_cycle_work(q: Quiver, maxlen: int):
    work = 0
    for length, walks in zip(range(1, maxlen + 1), walk_counts(q)):
        work += length * length * walks
        if work > CYCLE_WORK_CAP:
            raise InputError(f"--maxlen {maxlen}: the cycle work, the sum of "
                             f"L^2 times the walks of length L <= maxlen, "
                             f"exceeds the cap of {CYCLE_WORK_CAP}")


def _check_maxdeg(maxdeg: int):
    if maxdeg < 0:
        raise InputError(f"--maxdeg {maxdeg}: must be >= 0")
    if maxdeg > TRACE_DEGREE_CAP:
        raise InputError(f"--maxdeg {maxdeg}: the trace degree exceeds the "
                         f"cap of {TRACE_DEGREE_CAP}")


def _check_box(q: Quiver, v: dict):
    box = prod(x + 1 for x in check_dimvector(q, v).values())
    if box > ROOTS_BOX_CAP:
        raise InputError(f"--v: the box prod(v_i + 1) = {box} of roots below "
                         f"v exceeds the cap of {ROOTS_BOX_CAP}")


def _check_gg_work(q: Quiver, v: dict):
    from .roots import rprime_below
    depth, box = sum(v.values()), prod(x + 1 for x in v.values())
    # depth * box bounds the measure below, so the roots are listed under it
    if depth * box > ROOTS_GG_CAP or \
            max(len(rprime_below(q, v)) ** 2, depth) * box > ROOTS_GG_CAP:
        raise InputError(f"--v: the fibre work max(R^2, sum(v)) * prod(v_i "
                         f"+ 1) of the R roots below v exceeds the cap of "
                         f"{ROOTS_GG_CAP}")


# -- subcommand handlers (each returns a results dict) -----------------

def _expect(args, want, ok, out):
    """out, the report of a check; CheckFailed carrying it when ok is false
    and ``--expect`` asks for ``want``."""
    if args.expect == want and not ok:
        raise CheckFailed(out)
    return out


def cmd_quiver(args):
    q = load_quiver_ref(args.quiver)
    act = args.action
    if act == "show":
        return {"quiver": quiver_to_json(q)}
    if act == "double":
        return {"quiver": quiver_to_json(double(q))}
    if act == "frame":
        return {"quiver": quiver_to_json(frame(q))}
    if act == "cb_frame":
        w = parse_dimvector(q, args.w)
        if w is None:
            raise InputError("cb_frame requires --w")
        return {"quiver": quiver_to_json(cb_frame(q, w))}
    if act == "adjacency":
        return {"adjacency": adjacency(q), "vertices": list(q.vertices)}
    if act == "cartan":
        return {"cartan": cartan(q), "vertices": list(q.vertices)}
    if act == "cycles":
        _check_cycle_work(q, args.maxlen)
        cyc = cycles(q, args.maxlen)
        return {"maxlen": args.maxlen,
                "cycles": [[e.name for e in c] for c in cyc]}
    raise InputError(f"unknown quiver action {act!r}")


def cmd_dims(args):
    q = load_quiver_ref(args.quiver)
    v = parse_dimvector(q, args.v)
    if v is None:
        raise InputError("dims requires --v")
    w = parse_dimvector(q, args.w)
    out = dims(q, v, w)
    out["formulas"] = {
        "dim_rep": "sum over edges of v_tail * v_head",
        "p_v": "1 + dim_rep - v.v",
        "moment_fiber_component_dim": "1 + 2*dim_rep - v.v",
        "nakajima_dim": "2*w.v - C v.v",
    }
    return out


def cmd_roots(args):
    from .roots import (HKParam, gg_analysis, is_dominant, is_v_regular,
                        p_defect, rprime_below, weight_of)
    q = load_quiver_ref(args.quiver)
    v = parse_dimvector(q, args.v)
    act = args.action
    if act in ("list", "regular", "gg"):
        if v is None:
            raise InputError(f"roots {act} requires --v")
        _check_box(q, v)
    if act == "list":
        return {"p_v": p_defect(q, v), "rprime": rprime_below(q, v)}
    if act == "regular":
        lam = parse_rational_vector(q, args.lam)
        theta = parse_theta(q, args.theta)
        param = HKParam.make({k: lam.get(k, 0) for k in q.vertices}, theta)
        rep = is_v_regular(q, param, v)
        return _expect(args, "regular", rep["regular"], rep)
    if act == "gg":
        _check_gg_work(q, v)
        lam = parse_rational_vector(q, args.lam)
        rep = gg_analysis(q, lam, v)
        rep["components"] = [[dict(a) for a in comp] for comp in rep["components"]]
        return rep
    if act == "weight":
        w = parse_dimvector(q, args.w)
        if v is None or w is None:
            raise InputError("roots weight requires --v and --w")
        wt = weight_of(q, v, w)
        return {"weight": wt, "dominant": is_dominant(wt),
                "formula": "w - C v in the fundamental-weight basis"}
    raise InputError(f"unknown roots action {act!r}")


def _subspace_limit():
    """The brute-force oracle's cap, overridable through QV_LIMIT."""
    from .reps import DEFAULT_SUBSPACE_LIMIT
    val = os.environ.get("QV_LIMIT")
    if not val:
        return DEFAULT_SUBSPACE_LIMIT
    if not (val.isascii() and val.isdigit() and int(val) > 0):
        raise InputError(f"QV_LIMIT must be a positive integer, not {val!r}")
    return int(val)


def cmd_rep(args):
    from .reps import (FramedRep, endomorphism_space, is_stable_minus,
                       is_stable_plus, moment_residual, semistable_bruteforce,
                       trace_signature, unframed_fiber_obstruction)
    r = load_rep(args.rep)
    rep0 = r.rep if isinstance(r, FramedRep) else r
    q = rep0.quiver
    act = args.action
    lam = parse_rational_vector(q, args.lam)
    if act == "moment":
        res = moment_residual(r, lam)
        return {"residual": {k: mat_to_json(m) for k, m in res.items()},
                "on_fiber": all(m.is_zero() for m in res.values())}
    if act == "check":
        ok = all(m.is_zero() for m in moment_residual(r, lam).values())
        out = {"on_fiber": ok}
        if not isinstance(r, FramedRep):
            out["obstruction"] = unframed_fiber_obstruction(q, rep0.v, lam)
        return _expect(args, "fiber", ok, out)
    if act == "stable":
        if not isinstance(r, FramedRep):
            raise InputError("stability needs a framed representation")
        theta_text = args.theta or "plus"
        if theta_text == "plus":
            verdict = is_stable_plus(r)
        elif theta_text == "minus":
            verdict = is_stable_minus(r)
        else:
            theta = parse_theta(q, theta_text)
            verdict = semistable_bruteforce(r, theta,
                                            _subspace_limit())["stable"]
        return _expect(args, "stable", verdict,
                       {"theta": theta_text, "stable": verdict})
    if act == "traces":
        _check_cycle_work(q, args.maxlen)
        sig = trace_signature(rep0, args.maxlen)
        return {"maxlen": args.maxlen,
                "signature": [{"cycle": list(c), "trace": rep0.field.to_str(t)}
                              for c, t in sig]}
    if act == "brute":
        if not isinstance(r, FramedRep):
            raise InputError("brute-force stability needs a framed representation")
        theta = parse_theta(q, args.theta)
        rep = semistable_bruteforce(r, theta, _subspace_limit())
        return _expect(args, "stable", rep["stable"], rep)
    if act == "endo":
        out = endomorphism_space(r)
        return {"dimension": out["dimension"], "variables": out["variables"]}
    raise InputError(f"unknown rep action {act!r}")


def cmd_adhm(args):
    from .adhm import (calogero_moser_check, ideal_from_triple,
                       is_hilbert_point, joint_spectrum, power_traces)
    act = args.action
    if act == "traces":
        _check_maxdeg(args.maxdeg)
    d = load_adhm(args.data)
    f = d.field
    if act == "check":
        ok = is_hilbert_point(d)
        return _expect(args, "hilbert", ok, {"hilbert_point": ok})
    if act == "ideal":
        view = ideal_from_triple(d)
        return {"staircase": [list(m) for m in sorted(view.staircase)],
                "leading_terms": [list(m) for m in sorted(view.leading_terms)],
                "codimension": view.codim}
    if act == "spectrum":
        spec = joint_spectrum(d.x, d.y)
        return {"points": [[f.to_str(a), f.to_str(b)] for a, b in spec]}
    if act == "traces":
        tr = power_traces(d.x, d.y, args.maxdeg)
        return {"maxdeg": args.maxdeg,
                "traces": {f"x^{a}y^{b}": f.to_str(t)
                           for (a, b), t in sorted(tr.items())}}
    if act == "cm":
        if args.lam is None:
            raise InputError("cm requires --lambda")
        try:
            lam = Fraction(str(json.loads(args.lam)))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad --lambda {args.lam!r}")
        return calogero_moser_check(d, lam)
    raise InputError(f"unknown adhm action {act!r}")


def cmd_mckay(args):
    from .mckay import (McKayError, delta_vector, mckay_graph_quiver,
                        mckay_quiver, table_by_name, verify_ade)
    try:  # the tables are fixed but for n: a refusal is a bad name or n
        t = table_by_name(args.group)
    except McKayError as err:
        raise InputError(f"bad --group {args.group!r}: {err}")
    rep = verify_ade(t)
    return {"group": t.name, "order": t.order,
            "quiver": quiver_to_json(mckay_graph_quiver(t)),
            "multiplicity_matrix": mckay_quiver(t),
            "delta": delta_vector(t),
            "ade_type": rep["type"],
            "kernel_ok": rep["kernel_ok"]}


def cmd_conv(args):
    from .convolution import (FiniteGroup, convolve, convolve_via_pullback,
                              group_algebra, hecke_algebra)
    act = args.action
    if act == "hecke":
        h = hecke_algebra(args.n, args.q)
        if "relation" in h:
            rel = h["relation"]
            h["relation_text"] = (f"T^2 = {rel['T_coeff']}*T + "
                                  f"{rel['unit_coeff']}*Id")
        return h
    if act == "group":
        if args.table is None:
            raise InputError("conv group requires --table")
        d = _read_json(args.table, "group table")
        try:
            g = FiniteGroup(tuple(tuple(r) for r in d["table"]),
                            tuple(d.get("names",
                                        [str(k) for k in range(len(d["table"]))])))
        except (KeyError, TypeError, ValueError) as err:  # ConvError too
            raise InputError(f"bad group table: {err}")
        ga = group_algebra(g)
        return {"order": ga["n"], "identity": ga["identity"],
                "constants": ga["constants"]}
    if act == "mul":
        for flag, path in (("--k1", args.k1), ("--k2", args.k2)):
            if path is None:
                raise InputError(f"conv mul requires {flag}")
        k1 = load_kernel(args.k1)
        k2 = load_kernel(args.k2)
        prod = convolve(k2, k1)
        cross = convolve_via_pullback(k2, k1)
        return {"source": list(prod.source.labels),
                "target": list(prod.target.labels),
                "entries": mat_to_json(prod.mat),
                "dual_formula_agrees": prod.mat == cross.mat}
    raise InputError(f"unknown conv action {act!r}")


def cmd_selftest(args):
    from .acceptance import run_all
    rep = run_all(args.seed)
    for c in rep["checks"]:
        status = "PASS" if c["ok"] else "FAIL"
        print(f"[{status}] {c['name']} ({c['elapsed']}s, bound {c['bound']}s)",
              file=sys.stderr)
    if not rep["passed"]:
        raise CheckFailed(rep)
    return rep


# -- dispatcher --------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="qv",
                                description="exact quiver-variety toolkit")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    # the shared options; each subcommand declares the ones its handler reads
    shared = {"--quiver": {"help": "file, inline name (jordan, a2, ...), "
                                   "or double:<name>"},
              "--v": {}, "--w": {}, "--lambda": {"dest": "lam"},
              "--theta": {}, "--expect": {}}

    def common(sp, *names):
        for name in names:
            sp.add_argument(name, **shared[name])

    sp = sub.add_parser("quiver")
    sp.add_argument("action", choices=["show", "double", "frame", "cb_frame",
                                       "adjacency", "cartan", "cycles"])
    sp.add_argument("--maxlen", type=int, default=3)
    common(sp, "--quiver", "--w")

    sp = sub.add_parser("dims")
    common(sp, "--quiver", "--v", "--w")

    sp = sub.add_parser("roots")
    sp.add_argument("action", choices=["list", "regular", "gg", "weight"])
    common(sp, *shared)

    sp = sub.add_parser("rep")
    sp.add_argument("action", choices=["moment", "check", "stable", "traces",
                                       "brute", "endo"])
    sp.add_argument("--rep", required=True)
    sp.add_argument("--maxlen", type=int, default=3)
    common(sp, "--lambda", "--theta", "--expect")

    sp = sub.add_parser("adhm")
    sp.add_argument("action", choices=["check", "ideal", "spectrum", "traces",
                                       "cm"])
    sp.add_argument("--data", required=True)
    sp.add_argument("--maxdeg", type=int, default=3)
    common(sp, "--lambda", "--expect")

    sp = sub.add_parser("mckay")
    sp.add_argument("action", choices=["build"])
    sp.add_argument("--group", required=True,
                    help="cyclic:N, bd:N, bt, bo, or bi")

    sp = sub.add_parser("conv")
    sp.add_argument("action", choices=["hecke", "group", "mul"])
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--table")
    sp.add_argument("--k1")
    sp.add_argument("--k2")

    sub.add_parser("selftest")
    return p


_HANDLERS = {"quiver": cmd_quiver, "dims": cmd_dims, "roots": cmd_roots,
             "rep": cmd_rep, "adhm": cmd_adhm, "mckay": cmd_mckay,
             "conv": cmd_conv, "selftest": cmd_selftest}

def _emit(argv, results, seed, ok):
    import hashlib
    digest = hashlib.sha256(json.dumps(argv, sort_keys=True).encode()).hexdigest()
    report = {"command": argv, "inputs_digest": digest, "ok": ok,
              "results": results, "seed": seed, "version": __version__}
    print(json.dumps(report, sort_keys=True, default=str))


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code else 0
    try:
        results = _HANDLERS[args.command](args)
    except CheckFailed as err:
        _emit(argv, err.results, args.seed, False)
        return 1
    except MathFailure as err:
        _emit(argv, {"error": str(err)}, args.seed, False)
        return 1
    except (OSError, ValueError) as err:
        print(f"qv: input error: {err}", file=sys.stderr)
        return 2
    _emit(argv, results, args.seed, True)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
