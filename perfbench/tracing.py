"""Spans and counters around the public callables of each quivar layer.

``Tracer.install()`` replaces each traced callable by a wrapper, at every
place the library binds it: a function is replaced in each ``quivar``
module that imported it, and a method on its class. One wrapper serves
all of a callable's import sites, so every call is counted once.
``Tracer.uninstall()`` puts the originals back.

Timed callables record a span each: a name id, the id of the enclosing
span (-1 at the top) and start and end times, kept in flat arrays and
written out by ``Tracer.dump``. Field element operations are only
counted, so their time stays in the self time of the calling span.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute); "Class.method" attributes patch the class
TIMED = [
    ("fields.cyclotomic_init", "quivar.fields", "CyclotomicField.__init__"),
    ("linalg.Mat", "quivar.linalg", "Mat.__init__"),
    ("linalg.matmul", "quivar.linalg", "Mat.__matmul__"),
    ("linalg.rref", "quivar.linalg", "Mat.rref"),
    ("linalg.kernel_basis", "quivar.linalg", "Mat.kernel_basis"),
    ("linalg.det", "quivar.linalg", "Mat.det"),
    ("linalg.solve", "quivar.linalg", "Mat.solve"),
    ("linalg.subspace_contains", "quivar.linalg", "subspace_contains"),
    ("linalg.enumerate_subspaces", "quivar.linalg", "enumerate_subspaces"),
    ("linalg.annihilator_rows", "quivar.linalg", "annihilator_rows"),
    ("linalg.subspace_calculus", "quivar.linalg", "col_span"),
    ("linalg.subspace_calculus", "quivar.linalg", "subspace_sum"),
    ("linalg.subspace_calculus", "quivar.linalg", "subspace_intersect"),
    ("linalg.subspace_calculus", "quivar.linalg", "preimage"),
    ("roots.gg_analysis", "quivar.roots", "gg_analysis"),
    ("roots.freudenthal_mult", "quivar.roots", "freudenthal_mult"),
    ("reps.semistable_bruteforce", "quivar.reps", "semistable_bruteforce"),
    ("reps.invariant_subspaces_bruteforce", "quivar.reps",
     "invariant_subspaces_bruteforce"),
    ("reps.min_closure", "quivar.reps", "min_closure"),
    ("reps.max_core", "quivar.reps", "max_core"),
    ("reps.trace_signature", "quivar.reps", "trace_signature"),
    ("adhm.joint_spectrum", "quivar.adhm", "joint_spectrum"),
    ("adhm.power_traces", "quivar.adhm", "power_traces"),
    ("adhm.ideal_from_triple", "quivar.adhm", "ideal_from_triple"),
    ("mckay.table", "quivar.mckay", "cyclic_table"),
    ("mckay.table", "quivar.mckay", "binary_dihedral_table"),
    ("mckay.table", "quivar.mckay", "exceptional_table"),
    ("mckay.table", "quivar.mckay", "table_by_name"),
    ("mckay.table", "quivar.mckay", "CharacterTable.validate"),
    ("mckay.mckay_quiver", "quivar.mckay", "mckay_quiver"),
    ("mckay.verify_ade", "quivar.mckay", "verify_ade"),
    ("convolution.hecke_algebra", "quivar.convolution", "hecke_algebra"),
    ("convolution.complete_flags", "quivar.convolution", "complete_flags"),
    ("convolution.invariant_algebra", "quivar.convolution", "invariant_algebra"),
    ("convolution.convolve", "quivar.convolution", "convolve"),
] + [("quiver", "quivar.quiver", name) for name in (
    "make_quiver", "jordan_quiver", "type_a_quiver", "check_dimvector", "dot",
    "aq_form", "adjacency", "opposite", "double", "star_pairs", "frame",
    "cb_frame", "cartan", "cartan_form", "dims", "cycles", "quiver_to_json",
    "quiver_from_json", "Quiver.edge", "Quiver.edges_into",
    "Quiver.edges_out_of")]

# counted only: (counter name, module, attribute)
FIELD_OPS = ("zero", "one", "from_int", "from_fraction", "add", "sub", "mul",
             "neg", "inv", "div", "conj", "is_zero")
COUNTED = [("fields.eq.calls", "quivar.fields", "Field.__eq__")] + [
    (f"fields.{kind}.ops", "quivar.fields", f"{cls}.{op}")
    for kind, cls in (("prime", "PrimeField"), ("rational", "Rationals"),
                      ("cyclotomic", "CyclotomicField"))
    for op in FIELD_OPS] + [
    ("fields.cyclotomic.ops", "quivar.fields", f"CyclotomicField.{op}")
    for op in ("from_coeffs", "zeta_pow")]

# spans whose results are also sized: span name -> counter of len(result)
SIZED = {"linalg.enumerate_subspaces": "linalg.enumerate_subspaces.items",
         "reps.invariant_subspaces_bruteforce": "reps.invariant_subspaces.found"}


def self_times(names, parents, starts, ends) -> dict:
    """Total self time per span name: each span's duration minus the
    durations of its direct children. ``parents[i]`` is the index of span
    i's parent, or -1."""
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out = Counter()
    for i, name in enumerate(names):
        out[name] += ends[i] - starts[i] - child[i]
    return dict(out)


class Tracer:
    def __init__(self):
        self.names = []                  # name table; spans hold indices
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self._saved = []                 # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------
    def _timed(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        sname, sparent = self.span_name, self.span_parent
        sstart, send, stack = self.span_start, self.span_end, self.stack
        counts, clock = self.counts, time.perf_counter
        calls = name + ".calls"
        sized = SIZED.get(name)

        def wrapper(*args, **kwargs):
            sid = len(sstart)
            sname.append(nid)
            sparent.append(stack[-1])
            send.append(0.0)
            stack.append(sid)
            counts[calls] += 1
            sstart.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                send[sid] = clock()
                stack.pop()
            if sized:
                counts[sized] += len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------
    def install(self):
        for name, mod, attr in TIMED:
            self._patch(mod, attr, lambda fn, name=name: self._timed(name, fn))
        for key, mod, attr in COUNTED:
            self._patch(mod, attr, lambda fn, key=key: self._counted(key, fn))

    def _patch(self, mod, attr, make):
        module = sys.modules[mod]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = getattr(cls, meth)
            self._saved.append((cls, meth, cls.__dict__.get(meth)))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mname, m in list(sys.modules.items()):
            if mname != "quivar" and not mname.startswith("quivar."):
                continue
            for key, val in list(vars(m).items()):
                if val is original:
                    self._saved.append((m, key, original))
                    setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            if original is None:       # the method was inherited
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._saved.clear()

    # -- results -------------------------------------------------------
    def self_times(self) -> dict:
        per_id = self_times(self.span_name, self.span_parent,
                            self.span_start, self.span_end)
        return {self.names[i]: t for i, t in per_id.items()}

    def dump(self, path):
        """Write the spans: a JSON header line, then the four arrays."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"],
                  "counts": dict(self.counts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
