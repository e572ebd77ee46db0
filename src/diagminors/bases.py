"""Circuits, Graver bases, walk binomials and universal Groebner bases.

The universal Groebner basis U(P_G) sits between the circuits and the
Graver basis of the configuration A_G, both read off one Graver basis of
its kernel lattice. `ugb` takes two routes: the even cycles of a host
graph H pin U(P_G) for trees and even unicyclic components, and the
Graver basis bounds it for every other component, exactly where the
circuits are the whole Graver basis and by honest sandwich bounds
elsewhere.
"""

from .binomials import Binomial, Monomial, binomial_from_vector
from .constructions import build_H
from .encoding import adegree, build_AG, edge_variables
from .graphs import classify, enumerate_cycles, is_bipartite
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


def ugb(g):
    """Universal Groebner basis of P_G, exact where the theory pins it.

    Components contribute independently (their variables are disjoint), by
    one of two routes: a tree, or a bipartite unicyclic component, via the
    even cycles of its host graph (for a tree its prism); any other
    component via one Graver basis of A_G, its support-minimal elements
    (the circuits) below and all of it above. Since U(P_G) lies between
    the circuits and the Graver basis, a component whose circuits are its
    whole Graver basis is exact (every bipartite one, and a lone odd
    cycle); otherwise the report says it is only sandwiched.
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
        else:
            cfg = build_AG(comp)
            vectors = matrix_graver(cfg.matrix)
            minimal = support_minimal(vectors)
            els = _binomials(minimal, cfg)
            up = _binomials(vectors, cfg)
            exact = exact and len(minimal) == len(vectors)
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
