"""Circuits, Graver bases, walk binomials and universal Groebner bases.

The universal Groebner basis U(P_G) sits between the circuits and the
Graver basis of the configuration A_G, both read off one Graver basis of
its kernel lattice. Even closed walks of a host graph H pin U(P_G)
exactly, as the circuits do for bipartite G; everything else gets honest
sandwich bounds.
"""

from .binomials import Binomial, Monomial, binomial_from_vector
from .constructions import build_H
from .encoding import adegree, build_AG, edge_variables
from .graphs import ClosedWalk, classify, components, enumerate_cycles, \
    is_bipartite
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

    Equivalent to membership in the Graver basis. The binomial must be
    homogeneous for the configuration, else its exponent vector is not even
    a kernel element and the question is ill-posed.
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


def _rotate_cycle(c, start):
    """Vertex sequence of a cycle rotated to `start`, smaller second vertex."""
    vs = c.vertices
    k = vs.index(start)
    rot = vs[k:] + vs[:k]
    if rot[-1] < rot[1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def _connecting_paths(g, set1, set2):
    """Simple paths from set1 to set2 with all interior vertices outside both."""
    paths = []
    blocked = set1 | set2

    def walk(path):
        for w in sorted(g.neighbors(path[-1])):
            if w in set2:
                paths.append(path + [w])
            elif w not in blocked and w not in path:
                walk(path + [w])

    for a in sorted(set1):
        walk([a])
    return paths


def graph_circuits(h):
    """Circuits of the toric ideal of a connected host graph's incidence.

    Three walk shapes: even cycles; two odd cycles meeting in exactly one
    vertex; and two vertex-disjoint odd cycles joined by a simple path
    (every such path, traversed there and back, its edges squared).
    """
    host = getattr(h, "graph", h)
    if len(components(host)) != 1:
        raise ValueError("circuit walks need a connected host graph")
    cycles = enumerate_cycles(host)
    walks = [c for c in cycles if c.is_even]
    odd = [c for c in cycles if not c.is_even]
    for a in range(len(odd)):
        for b in range(a + 1, len(odd)):
            c1, c2 = odd[a], odd[b]
            s1, s2 = set(c1.vertices), set(c2.vertices)
            common = s1 & s2
            if len(common) == 1:
                v = common.pop()
                rot1 = _rotate_cycle(c1, v)
                rot2 = _rotate_cycle(c2, v)
                walks.append(ClosedWalk(rot1 + rot2))
            elif not common:
                for path in _connecting_paths(host, s1, s2):
                    rot1 = _rotate_cycle(c1, path[0])
                    rot2 = _rotate_cycle(c2, path[-1])
                    vs = (list(rot1) + [path[0]] + path[1:] + list(rot2[1:])
                          + [path[-1]] + list(reversed(path))[1:-1])
                    walks.append(ClosedWalk(vs))
    # str(b) is canonical, so the key orders distinct binomials strictly
    return sorted({walk_binomial(w, host) for w in walks},
                  key=lambda b: (b.degree, str(b)))


def ugb(g):
    """Universal Groebner basis of P_G, exact where the theory pins it.

    Components contribute independently (their variables are disjoint), by
    one of four routes: a tree, or a bipartite unicyclic component, via the
    even cycles of its host graph (for a tree its prism); a lone odd cycle
    via the circuit walks of its prism; any other component via one Graver
    basis of A_G, its support-minimal elements (the circuits) below and all
    of it above. The bounds coincide for a bipartite component, so that
    answer is exact; otherwise the report says it is only sandwiched.
    """
    lower = []
    upper = []
    exact = True
    for record in classify(g).per_component:
        comp = record.graph
        if record.kind in ("tree", "unicyclic-even"):
            host = build_H(comp)
            els = up = [walk_binomial(w, host)
                        for w in enumerate_cycles(host.graph, "even")]
        elif record.kind == "unicyclic-odd" and comp.n == record.cycle.length:
            els = up = graph_circuits(build_H(comp))
        else:
            cfg = build_AG(comp)
            vectors = matrix_graver(cfg.matrix)
            els = _binomials(support_minimal(vectors), cfg)
            up = _binomials(vectors, cfg)
            exact = exact and record.bipartite
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
