"""Quivers, their derived quivers (double, framings), and dimension formulas.

Vertex order is fixed by declaration order; every matrix produced here is
indexed accordingly, which keeps serialization stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class QuiverError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    name: str
    tail: str
    head: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    edges: tuple
    # provenance of derived quivers: {"star_pairs": {e: e*}, "framing": [names],
    # "original_vertices": [...], "kind": "double"|"frame"|"cb_frame"}
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex labels")
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate edge names")
        vs = set(self.vertices)
        for e in self.edges:
            if e.tail not in vs or e.head not in vs:
                raise QuiverError(f"edge {e.name} has undeclared endpoint")

    @property
    def vertex_index(self):
        return {v: k for k, v in enumerate(self.vertices)}

    def edge(self, name):
        for e in self.edges:
            if e.name == name:
                return e
        raise QuiverError(f"no edge named {name}")

    def edges_into(self, v):
        return [e for e in self.edges if e.head == v]

    def edges_out_of(self, v):
        return [e for e in self.edges if e.tail == v]


def make_quiver(vertices, edges) -> Quiver:
    """Build a quiver from labels and (name, tail, head) triples."""
    return Quiver(tuple(str(v) for v in vertices),
                  tuple(Edge(str(n), str(t), str(h)) for n, t, h in edges))


def jordan_quiver() -> Quiver:
    return make_quiver(["0"], [("x", "0", "0")])


def type_a_quiver(n: int) -> Quiver:
    """A_n with edges k+1 -> k (so paths flow toward vertex 1)."""
    verts = [str(k) for k in range(1, n + 1)]
    edges = [(f"a{k}", str(k + 1), str(k)) for k in range(1, n)]
    return make_quiver(verts, edges)


# -- dimension vectors -------------------------------------------------

def check_dimvector(q: Quiver, v: dict):
    """v with int entries. Raises QuiverError unless its keys are the
    vertices of q and each entry is an integer >= 0: an integral float such
    as 2.0 is read as 2, but 2.7, "2" or True is refused, never truncated."""
    if set(v) != set(q.vertices):
        raise QuiverError(f"dimension vector keys {sorted(v)} do not match vertices")
    for x in v.values():
        try:  # int(True) == True, so a bool is refused by its type
            integral = not isinstance(x, bool) and int(x) == x
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise QuiverError(f"dimension vector entry {x!r} is not an integer")
        if x < 0:
            raise QuiverError("negative entry in dimension vector")
    return {str(k): int(x) for k, x in v.items()}


def dot(v: dict, w: dict) -> int:
    return sum(v[k] * w[k] for k in v)


def aq_form(q: Quiver, alpha: dict, beta: dict) -> int:
    """The adjacency bilinear form: sum over edges of alpha_tail * beta_head."""
    return sum(alpha[e.tail] * beta[e.head] for e in q.edges)


# -- derived quivers and matrices --------------------------------------

def adjacency(q: Quiver):
    """a_ij = number of edges with tail j and head i."""
    idx = q.vertex_index
    n = len(q.vertices)
    a = [[0] * n for _ in range(n)]
    for e in q.edges:
        a[idx[e.head]][idx[e.tail]] += 1
    return a


def opposite(q: Quiver) -> Quiver:
    return Quiver(q.vertices, tuple(Edge(e.name, e.head, e.tail) for e in q.edges))


def double(q: Quiver) -> Quiver:
    """The double: every edge x gains a reverse edge x*."""
    edges = list(q.edges)
    pairs = {}
    for e in q.edges:
        star = e.name + "*"
        edges.append(Edge(star, e.head, e.tail))
        pairs[e.name] = star
    return Quiver(q.vertices, tuple(edges),
                  {"kind": "double", "star_pairs": pairs,
                   "original_vertices": list(q.vertices)})


def star_pairs(q: Quiver) -> dict:
    pairs = q.provenance.get("star_pairs")
    if pairs is None:
        raise QuiverError("quiver carries no double/star provenance")
    return pairs


def frame(q: Quiver) -> Quiver:
    """Framed quiver: mirror vertices i' and framing edges j_i : i -> i'."""
    mirror = [v + "'" for v in q.vertices]
    edges = list(q.edges) + [Edge("j_" + v, v, v + "'") for v in q.vertices]
    return Quiver(tuple(list(q.vertices) + mirror), tuple(edges),
                  {"kind": "frame", "framing": ["j_" + v for v in q.vertices],
                   "original_vertices": list(q.vertices)})


def cb_frame(q: Quiver, w: dict) -> Quiver:
    """Crawley-Boevey framing: one new vertex inf and w_i edges i -> inf."""
    w = check_dimvector(q, w)
    if "inf" in q.vertices:
        raise QuiverError("vertex label 'inf' is reserved")
    edges = list(q.edges)
    framing = []
    for v in q.vertices:
        for k in range(w[v]):
            name = f"w_{v}_{k}"
            edges.append(Edge(name, v, "inf"))
            framing.append(name)
    return Quiver(tuple(list(q.vertices) + ["inf"]), tuple(edges),
                  {"kind": "cb_frame", "framing": framing,
                   "original_vertices": list(q.vertices)})


def cartan(q: Quiver):
    """C = 2 Id - (A_Q + A_Q^T); symmetric, orientation-independent."""
    a = adjacency(q)
    n = len(a)
    return [[(2 if i == j else 0) - a[i][j] - a[j][i] for j in range(n)]
            for i in range(n)]


def cartan_form(q: Quiver, alpha: dict, beta: dict) -> int:
    c = cartan(q)
    idx = q.vertex_index
    return sum(c[idx[i]][idx[j]] * alpha[i] * beta[j]
               for i in q.vertices for j in q.vertices)


def dims(q: Quiver, v: dict, w: dict = None) -> dict:
    """All closed-form dimension counts attached to (Q, v) and optionally w."""
    v = check_dimvector(q, v)
    avv = aq_form(q, v, v)
    vv = dot(v, v)
    cvv = 2 * vv - 2 * avv  # C_Q v.v, via the doubled adjacency form
    out = {
        "dim_rep": avv,                      # dim Rep(Q, v)
        "dim_gv": vv,                        # dim G_v
        "dim_rep_double": 2 * avv,           # dim Rep(double(Q), v)
        "cartan_vv": cvv,
        "p_v": 1 + avv - vv,                 # flatness defect p(v)
        "stable_quotient_dim": 1 + avv - vv,
        "moment_fiber_component_dim": 1 + 2 * avv - vv,
    }
    if w is not None:
        w = check_dimvector(q, w)
        wv = dot(w, v)
        out.update({
            "dim_rep_framed": wv + avv,            # dim Rep(framed, v, w)
            "dim_rep_framed_double": 2 * avv + 2 * wv,
            "framed_quotient_dim": wv + avv - vv,
            "nakajima_dim": 2 * wv - cvv,          # dim M(v, w), regular case
        })
    return out


def walk_counts(q: Quiver):
    """W_1, W_2, ...: the number of walks of each length L, the sum of the
    entries of A^L, read off the integer vectors A^L 1 of walks by their
    last vertex. Ends at the first L with no walk, which comes exactly when
    q has no oriented cycle; else it goes on for ever."""
    idx = q.vertex_index
    arrows = [(idx[e.tail], idx[e.head]) for e in q.edges]
    ends = [1] * len(q.vertices)
    while True:
        nxt = [0] * len(ends)
        for t, h in arrows:
            nxt[h] += ends[t]
        if not any(nxt):
            return
        ends = nxt
        yield sum(ends)


def cycles(q: Quiver, maxlen: int):
    """Based oriented cycles of length <= maxlen.

    Each cycle is an edge sequence with head(e_k) = tail(e_{k+1}) cyclically,
    based at the tail of its first edge. Cycles are deduplicated under the
    rotations that preserve the basepoint (traces are rotation-invariant),
    so a 2-cycle through two distinct vertices is reported once per vertex;
    of each class the rotation with the least tuple of edge names is kept.

    The walks grow on a stack, not by recursion. The base-preserving
    rotations of a closed walk compare as those of its loops at the base,
    none a prefix of another, so it is kept when they form a necklace.
    """
    if maxlen < 1:
        raise QuiverError("maxlen must be >= 1")
    leaving = {v: q.edges_out_of(v) for v in q.vertices}
    out = []
    for base in q.vertices:
        path, loops, starts = [], [], [0]  # starts[-1]: the open loop's start
        stack = [iter(leaving[base])]
        while stack:
            e = next(stack[-1], None)
            if e is None:
                stack.pop()
            else:
                path.append(e)
                if e.head == base:
                    loops.append(tuple(a.name for a in path[starts[-1]:]))
                    starts.append(len(path))
                    if _is_necklace(loops):
                        out.append(list(path))
                if len(path) < maxlen:
                    stack.append(iter(leaving[e.head]))
                    continue
            # back off the last edge: its walks are done, or it reached maxlen
            if path and path.pop().head == base:
                loops.pop()
                starts.pop()
    # canonical overall order: by length, then by name tuple
    out.sort(key=lambda cyc: (len(cyc), tuple(e.name for e in cyc)))
    return out


def _is_necklace(s) -> bool:
    """Whether s is least among its rotations, in one pass: p is the period
    of the prefix read so far (Fredricksen-Kessler-Maiorana)."""
    p = 1
    for i in range(1, len(s)):
        if s[i] != s[i - p]:
            if s[i] < s[i - p]:
                return False
            p = i + 1
    return len(s) % p == 0


# -- JSON --------------------------------------------------------------

def quiver_to_json(q: Quiver) -> dict:
    d = {"vertices": list(q.vertices),
         "edges": [{"name": e.name, "tail": e.tail, "head": e.head}
                   for e in q.edges]}
    if q.provenance:
        d["provenance"] = q.provenance
    return d


def _provenance(prov, vertices, edges) -> dict:
    """prov as given, when it is an object whose ``kind`` is a string,
    ``original_vertices`` a list of vertices, ``framing`` a list of edges
    and ``star_pairs`` an object mapping edges to edges with tail and head
    swapped; other keys, such as a note, pass through. Else QuiverError."""
    if not isinstance(prov, dict):
        raise QuiverError(f"provenance {prov!r} is not an object")
    ends = {e.name: (e.tail, e.head) for e in edges}
    for key, what, ok in (
            ("kind", "a string", lambda x: isinstance(x, str)),
            ("original_vertices", "a list of vertices",
             lambda x: isinstance(x, list) and all(v in vertices for v in x)),
            ("framing", "a list of edges",
             lambda x: isinstance(x, list)
             and all(isinstance(e, str) and e in ends for e in x)),
            ("star_pairs", "an object mapping edges to reversed edges",
             lambda x: isinstance(x, dict) and all(
                 a in ends and isinstance(b, str)
                 and ends.get(b) == ends[a][::-1] for a, b in x.items()))):
        if key in prov and not ok(prov[key]):
            raise QuiverError(f"provenance {key!r} is not {what}: "
                              f"{prov[key]!r}")
    return prov


def _label(x, what) -> str:
    """x when it is a string, else QuiverError naming the entry."""
    if not isinstance(x, str):
        raise QuiverError(f"{what} {x!r} is not a string")
    return x


def quiver_from_json(d: dict) -> Quiver:
    """The quiver of a JSON object, whose vertex labels, edge names, tails
    and heads are strings; its provenance is checked against its vertices
    and edges, and kept as given."""
    vertices = tuple(_label(v, "vertex label") for v in d["vertices"])
    edges = tuple(Edge(*(_label(e[k], f"edge {k}")
                         for k in ("name", "tail", "head")))
                  for e in d["edges"])
    return Quiver(vertices, edges,
                  _provenance(d.get("provenance", {}), vertices, edges))
