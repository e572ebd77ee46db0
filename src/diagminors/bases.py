"""Circuits, Graver bases, walk binomials and universal Groebner bases.

The universal Groebner basis U(P_G) sits between the circuits and the
Graver basis of the configuration A_G. The circuits of every graph are
read off its even cycles, its paths and its odd-cycle handcuffs, all from
the cycles of G's cone, and `graph_basis` answers the circuits that way.
For bipartite G, A_G is totally unimodular and the circuits, the Graver
basis and U(P_G) are one set: `graph_basis` answers the Graver basis of a
bipartite graph the same way, and `ugb` each bipartite component. The
Graver basis of every other graph or component goes through its kernel
lattice: `ugb` is exact where the circuits are the whole Graver basis, and
gives honest sandwich bounds elsewhere. `circuits` and `graver` take any
configuration and always run the completion.
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


def _rotated(cycle, v):
    """Vertex sequence of a cycle started at its vertex v."""
    k = cycle.index(v)
    return cycle[k:] + cycle[:k]


def _handcuff_walks(g, odd):
    """Closed walks through the handcuffs of g's odd cycles.

    A handcuff is two unbalanced cycles of A_G's signed graph, each an odd
    cycle of g or a half-edge (a diagonal), that share exactly one vertex
    or are vertex-disjoint and joined by a path meeting each only at its
    end. Two half-edges make the paths, which the cone gives; the other
    four kinds are built here from the odd cycles `odd` (vertex tuples),
    each handcuff once. A half-edge at v is the step (v, v) of a walk. The
    connecting paths leave each odd cycle on an explicit stack; the pairs
    take only the paths that leave the cycle of smaller index.
    """
    sets = [set(c) for c in odd]
    at = {v: [] for v in g.vertices}
    for j, c in enumerate(odd):
        for v in c:
            at[v].append(j)
    for i, c in enumerate(odd):
        for v in c:
            yield (v,) + _rotated(c, v)  # tight: the diagonal of v, squared
        for j in range(i + 1, len(odd)):
            common = sets[i] & sets[j]
            if len(common) == 1:  # tight: two odd cycles sharing one vertex
                v = common.pop()
                yield _rotated(c, v) + _rotated(odd[j], v)
        stack = [(v,) for v in c]
        while stack:
            path = stack.pop()
            a, w = path[0], path[-1]
            if len(path) > 1:
                # loose: round the cycle from a, out to w's diagonal and back
                yield (w,) + path[::-1] + _rotated(c, a)[1:] + path[:-1]
                for j in at[w]:
                    if (j > i and sets[i].isdisjoint(sets[j])
                            and sets[j].isdisjoint(path[1:-1])):
                        # loose: round both cycles, along the path twice
                        yield (_rotated(c, a) + path + _rotated(odd[j], w)[1:]
                               + path[:0:-1])
            stack.extend(path + (x,) for x in g.neighbors(w)
                         if x not in sets[i] and x not in path)


def _walk_circuit(walk, z, variables, index):
    """Sort key and binomial of the circuit a closed walk goes through.

    Step t goes from walk[t] to the next vertex, cyclically, and has sign
    (-1)^t. A step along an edge {a, b} adds its sign to x_ab and x_ba, a
    step to or from the cone's apex z adds it to the diagonal of its other
    end, and a half-edge step (v, v) adds twice it to x_vv. Every walk here
    crosses some edge once, so the vector is primitive; it is oriented so
    that its first nonzero entry, over the columns `variables` (numbered
    by `index`), is positive.
    """
    coef = {}
    sign = 1
    for a, b in zip(walk, walk[1:] + walk[:1]):
        if a == b:
            var = VarId(a, a)
            coef[var] = coef.get(var, 0) + 2 * sign
        elif a == z or b == z:
            v = b if a == z else a
            coef[VarId(v, v)] = sign  # a path's end: one diagonal once
        else:
            for var in (VarId(a, b), VarId(b, a)):
                coef[var] = coef.get(var, 0) + sign
        sign = -sign
    support = sorted(index[var] for var in coef)
    up = coef[variables[support[0]]] > 0
    plus = Monomial((var, abs(e)) for var, e in coef.items() if (e > 0) == up)
    minus = Monomial((var, abs(e)) for var, e in coef.items() if (e > 0) != up)
    return (len(support), support), Binomial(plus, minus)


def _ag_circuits(g):
    """Circuits of A_G for any graph g, in Graver order.

    A kernel vector of A_G is u on both x_ij and x_ji of each edge and
    -I_G*u on the diagonals, so A_G's matroid is the frame matroid of g
    with every edge negative and a half-edge, the diagonal x_vv, at each
    vertex. Its circuits are the balanced cycles, here the even cycles,
    and the handcuffs of two unbalanced cycles (Zaslavsky, Signed graphs,
    1982): a path with the diagonals of both ends; an odd cycle with the
    diagonal of one of its vertices, squared; an odd cycle joined by a path
    to a vertex off it, whose diagonal is squared; two odd cycles sharing
    exactly one vertex; and two vertex-disjoint odd cycles joined by a
    path. Every theta of g holds an even cycle, so the frame matroid's
    third kind of circuit, a theta with no balanced cycle, never occurs.

    The cycles of g's cone (g plus a vertex z joined to every vertex) give
    the paths, as the cycles through z, and the cycles of g, in one
    enumeration. The odd ones feed the handcuffs; a bipartite g has none,
    and its circuits are the cone's cycles alone. Each circuit
    comes from one closed walk through it (`_walk_circuit`). The order is
    `matrix_graver`'s, by support size then support over the columns of
    `build_AG`; a circuit is fixed by its support.
    """
    variables = ag_variables(g)
    index = {var: k for k, var in enumerate(variables)}
    z = max(g.vertices, default=0) + 1
    cone = Graph((), list(g.edges) + [(v, z) for v in g.vertices])
    walks = []
    odd = []
    for c in enumerate_cycles(cone):
        vs = c.vertices
        if z in vs:
            walks.append(_rotated(vs, z))
        elif c.length % 2:
            odd.append(vs)
        else:
            walks.append(vs)
    walks.extend(_handcuff_walks(g, odd))
    keyed = sorted((_walk_circuit(w, z, variables, index) for w in walks),
                   key=lambda kb: kb[0])
    return [b for _, b in keyed]


def graph_basis(g, kind):
    """Circuits (kind "circuits") or Graver basis ("graver") of A_G.

    The list is `circuits(build_AG(g))` or `graver(build_AG(g))`, in the
    same order. The circuits of every g are read off its cycles, paths and
    odd-cycle handcuffs (`_ag_circuits`), with no Graver completion. For
    bipartite g, A_G is totally unimodular, so the circuits are the Graver
    basis too (Sturmfels 1996, ch. 8); the Graver basis of any other g
    goes through the completion.
    """
    if kind not in ("circuits", "graver"):
        raise ValueError("kind must be circuits or graver")
    if kind == "circuits" or is_bipartite(g):
        return _ag_circuits(g)
    return graver(build_AG(g))


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
            els = up = _ag_circuits(comp)
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
