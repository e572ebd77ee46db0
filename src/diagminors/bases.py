"""Circuits, Graver bases, walk binomials and universal Groebner bases.

The universal Groebner basis U(P_G) sits between the circuits and the
Graver basis of the configuration A_G. For bipartite G, A_G is totally
unimodular and the circuits, the Graver basis and U(P_G) are one set,
read off the cycles of G's cone: `graph_basis` answers the circuits and
the Graver basis of a bipartite graph that way, and `ugb` each bipartite
component. Every other graph or component goes through one Graver basis
of its kernel lattice: `ugb` is exact where the circuits are the whole
Graver basis, and gives honest sandwich bounds elsewhere. `circuits` and
`graver` take any configuration and always run the completion.
"""

from .binomials import Binomial, Monomial, VarId, binomial_from_vector
from .encoding import adegree, ag_variables, build_AG, edge_variables
from .graphs import Graph, classify, enumerate_cycles, is_bipartite
from .intmat import matrix_circuits, matrix_graver, support_minimal


class BasisReport:
    """Elements of a basis plus its status: exact, or a sandwich bound.

    For a sandwich the `elements` field repeats the certified lower bound
    and `lower`/`upper` carry both bounds; exact reports leave them None.
    """

    __slots__ = ("elements", "status", "lower", "upper")

    def __init__(self, elements, status, lower=None, upper=None):
        if status not in ("exact", "sandwich"):
            raise ValueError("status must be exact or sandwich")
        if status == "sandwich" and (lower is None or upper is None):
            raise ValueError("sandwich reports need lower and upper bounds")
        self.elements = tuple(elements)
        self.status = status
        self.lower = None if lower is None else tuple(lower)
        self.upper = None if upper is None else tuple(upper)

    @property
    def count(self):
        return len(self.elements)

    @property
    def max_degree(self):
        return max((b.degree for b in self.elements), default=0)

    def as_dict(self):
        out = {
            "status": self.status,
            "count": self.count,
            "max_degree": self.max_degree,
            "elements": [str(b) for b in self.elements],
        }
        if self.status == "sandwich":
            out["lower_count"] = len(self.lower)
            out["upper_count"] = len(self.upper)
        return out

    def __repr__(self):
        return "BasisReport(%s, %d elements)" % (self.status, self.count)


def _binomials(vectors, cfg):
    return [binomial_from_vector(v.entries, cfg.variables) for v in vectors]


def circuits(cfg):
    """Circuit binomials of a configuration: minimal-support kernel vectors."""
    return _binomials(matrix_circuits(cfg.matrix), cfg)


def graver(cfg):
    """Graver basis of a configuration: conformally minimal kernel vectors."""
    return _binomials(matrix_graver(cfg.matrix), cfg)


def is_primitive(b, cfg):
    """Whether no other homogeneous binomial divides b sidewise.

    Equivalent to membership in the Graver basis, and answered that way:
    each call computes the whole Graver basis of the configuration. The
    binomial must be homogeneous for the configuration, else its exponent
    vector is not even a kernel element and the question is ill-posed.
    """
    if adegree(b.plus, cfg) != adegree(b.minus, cfg):
        raise ValueError("binomial is not homogeneous for the configuration")
    return b in set(graver(cfg))


def walk_binomial(w, h):
    """Binomial of an even closed walk: alternating edge products.

    Edges at even positions of the walk multiply into one side, odd
    positions into the other; edges traversed twice contribute squares.
    """
    if w.length % 2:
        raise ValueError("walk binomial needs an even closed walk")
    varmap = edge_variables(h)
    evens, odds = [], []
    for k, e in enumerate(w.edge_sequence):
        if e not in varmap:
            raise ValueError("walk edge %s is not in the host graph" % (e,))
        (evens if k % 2 == 0 else odds).append((varmap[e], 1))
    return Binomial(Monomial(evens), Monomial(odds))


def _cone_circuits(g):
    """Circuits of A_G for a bipartite g, in Graver order.

    A kernel vector of A_G has x_ij = x_ji = u_t on each edge t and x_vv
    balancing row v, so a circuit is an even cycle of g or a path of g
    between two vertices, with u = +-1 alternating along it and, for a
    path, x_vv at its two ends. These are the cycles of g's cone (g plus a
    vertex z joined to every vertex): started at z, a cycle alternates
    sides step by step, a step of g giving x_ij*x_ji and a step to or from
    z the diagonal x_vv of its other end. The order is `matrix_graver`'s,
    by support size then support over the columns of `build_AG`; a
    circuit is fixed by its support.
    """
    index = {var: k for k, var in enumerate(ag_variables(g))}
    z = max(g.vertices, default=0) + 1
    cone = Graph((), list(g.edges) + [(v, z) for v in g.vertices])
    keyed = []
    for c in enumerate_cycles(cone):
        vs = c.vertices
        k = vs.index(z) if z in vs else 0
        vs = vs[k:] + vs[:k]
        sides = ([], [])
        for t, (a, b) in enumerate(zip(vs, vs[1:] + vs[:1])):
            if z in (a, b):
                v = b if a == z else a
                sides[t % 2].append(VarId(v, v))
            else:
                sides[t % 2].extend((VarId(a, b), VarId(b, a)))
        support = sorted(index[v] for v in sides[0] + sides[1])
        plus, minus = (Monomial((v, 1) for v in side) for side in sides)
        keyed.append(((len(support), support), Binomial(plus, minus)))
    keyed.sort(key=lambda kb: kb[0])
    return [b for _, b in keyed]


def graph_basis(g, kind):
    """Circuits (kind "circuits") or Graver basis ("graver") of A_G.

    The list is `circuits(build_AG(g))` or `graver(build_AG(g))`, in the
    same order. For bipartite g, A_G is totally unimodular, so the two are
    one set (Sturmfels 1996, ch. 8), read off the cycles of g's cone in
    Graver order; any other g goes through the Graver completion.
    """
    if kind not in ("circuits", "graver"):
        raise ValueError("kind must be circuits or graver")
    if is_bipartite(g):
        return _cone_circuits(g)
    cfg = build_AG(g)
    return circuits(cfg) if kind == "circuits" else graver(cfg)


def ugb(g):
    """Universal Groebner basis of P_G, exact where the theory pins it.

    Components contribute independently (their variables are disjoint),
    each in Graver order. For a bipartite component A_G is totally
    unimodular, so its circuits, its Graver basis and U(P_G) are one set
    (Sturmfels 1996, ch. 8), read off the cycles of the component's cone.
    Any other component goes through one Graver basis of A_G, its
    support-minimal elements (the circuits) below and all of it above.
    Since U(P_G) lies between the circuits and the Graver basis, such a
    component is exact when its circuits are its whole Graver basis;
    otherwise the report says it is only sandwiched.

    A lone odd cycle on n vertices is always exact. Its Graver basis is n^2
    circuits: for each pair of vertices the two paths round the cycle
    between them, and for each vertex v the cycle walked from v, with
    x_vv^2. Proof: a Graver element zero on some edge lives on a path,
    which is bipartite, so it is one of the path elements. An element on
    every edge has an odd number of vertices whose two edges carry the same
    sign, the cycle being odd. With one such vertex v, the v-element is
    conformally below it, so it is the v-element. With three or more, the
    alternating path between two consecutive such vertices is conformally
    below it, which a Graver element on every edge cannot allow.
    """
    lower = []
    upper = []
    exact = True
    for record in classify(g).per_component:
        comp = record.graph
        if record.bipartite:
            els = up = _cone_circuits(comp)
        else:
            cfg = build_AG(comp)
            vectors = matrix_graver(cfg.matrix)
            minimal = support_minimal(vectors)
            els = up = _binomials(vectors, cfg)
            if len(minimal) < len(vectors):
                els = _binomials(minimal, cfg)
                exact = False
        lower.extend(els)
        upper.extend(up)
    if exact:
        return BasisReport(lower, "exact")
    return BasisReport(lower, "sandwich", lower, upper)


def degree_stats(report, g):
    """Count/degree summary of a basis report against the bipartite bound."""
    out = {"count": report.count, "max_degree": report.max_degree}
    if is_bipartite(g):
        bound = (g.m + g.n + 1) // 2
        out["bipartite_bound"] = bound
        out["bound_respected"] = report.max_degree <= bound
    return out
