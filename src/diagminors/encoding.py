"""Vector configurations attached to graphs.

For a graph G with n vertices and m edges, the configuration A_G lives in
Z^(n+m) (vertex coordinates first, then one coordinate per edge) and has
2m+n columns: for the t-th edge {i, j} with i < j the pair

    a_ij = e_i + e_j - e_(n+t),    a_ji = e_(n+t),

and a diagonal column a_vv = e_v per vertex. The toric ideal of A_G is the
ideal generated by the diagonal 2-minors f_ij = x_ii*x_jj - x_ij*x_ji.
For a host graph H the incidence configuration has the 0/1 columns of its
vertex-edge incidence matrix.
"""

import warnings
from collections import namedtuple

from .binomials import Binomial, Monomial, VarId, format_var
from .graphs import bipartition, components
from .intmat import IntMatrix, IntVector


class VectorConfiguration:
    """Ordered named integer vectors with their column matrix."""

    __slots__ = ("ambient_dim", "columns", "matrix")

    def __init__(self, columns):
        pairs = list(columns.items()) if hasattr(columns, "items") else list(columns)
        self.ambient_dim = len(pairs[0][1]) if pairs else 0
        for var, vec in pairs:
            if len(vec) != self.ambient_dim:
                raise ValueError("column %s has length %d, expected %d"
                                 % (format_var(var), len(vec), self.ambient_dim))
        self.columns = dict(pairs)
        if len(self.columns) != len(pairs):
            raise ValueError("duplicate column variable")
        self.matrix = IntMatrix.from_columns([vec.entries for _, vec in pairs],
                                             [var for var, _ in pairs])

    @property
    def variables(self):
        return tuple(self.columns)

    def column(self, var):
        return self.columns[var]

    def __repr__(self):
        return "VectorConfiguration(%d columns in Z^%d)" % (len(self.columns),
                                                            self.ambient_dim)


def ag_variables(g):
    """Column variables of A_G in order: edge pairs, then the diagonals.

    Edges keep their insertion order and within an edge {i, j}, i < j, the
    variable x_ij (the column with the negative entry) comes before x_ji;
    the diagonals x_vv follow in sorted label order.
    """
    out = [VarId(a, b) for i, j in g.edges for a, b in ((i, j), (j, i))]
    out.extend(VarId(v, v) for v in g.vertices)
    return out


def build_AG(g):
    """Configuration A_G of a graph, columns in `ag_variables` order.

    Vertex coordinates come in sorted label order, so arbitrary labels
    work; edge coordinates follow in edge order.
    """
    n = g.n
    pos = {v: k for k, v in enumerate(g.vertices)}
    epos = {e: n + t for t, e in enumerate(g.edges)}
    d = n + g.m
    cols = []
    for var in ag_variables(g):
        vec = [0] * d
        i, j = var.i, var.j
        if i == j:
            vec[pos[i]] = 1
        elif i < j:
            vec[pos[i]] = vec[pos[j]] = 1
            vec[epos[(i, j)]] = -1
        else:
            vec[epos[(j, i)]] = 1
        cols.append((var, IntVector(vec)))
    return VectorConfiguration(cols)


def generators_PG(g):
    """The diagonal 2-minors f_ij = x_ii*x_jj - x_ij*x_ji, one per edge."""
    out = []
    for i, j in g.edges:
        plus = Monomial([(VarId(i, i), 1), (VarId(j, j), 1)])
        minus = Monomial([(VarId(i, j), 1), (VarId(j, i), 1)])
        out.append(Binomial(plus, minus))
    return out


def edge_variables(h):
    """Map edge -> variable: named edges become x_ij, the rest y_k."""
    h = getattr(h, "graph", h)
    out = {}
    for t, e in enumerate(h.edges, 1):
        if h.edge_names is not None and e in h.edge_names:
            out[e] = VarId(*h.edge_names[e])
        else:
            out[e] = "y_%d" % t
    return out


def incidence_config(h):
    """Incidence configuration of a host graph: one 0/1 column per edge.

    Columns are named through edge_variables (edge z_ij of a constructed
    host becomes the variable x_ij); isolated vertices are dropped with a
    warning since they contribute zero rows.
    """
    h = getattr(h, "graph", h)
    kept = [v for v in h.vertices if h.degree(v) > 0]
    if len(kept) < h.n:
        dropped = [v for v in h.vertices if h.degree(v) == 0]
        warnings.warn("dropping %d isolated vertices: %s"
                      % (len(dropped), dropped))
    pos = {v: k for k, v in enumerate(kept)}
    varmap = edge_variables(h)
    cols = []
    for u, v in h.edges:
        vec = [0] * len(kept)
        vec[pos[u]] = 1
        vec[pos[v]] = 1
        cols.append((varmap[(u, v)], IntVector(vec)))
    return VectorConfiguration(cols)


def adegree(m, cfg):
    """A-degree of a monomial: the exponent-weighted sum of its columns."""
    vec = [0] * cfg.ambient_dim
    for v, e in m.items:
        col = cfg.columns.get(v)
        if col is None:
            raise ValueError("variable %s is not a column of the configuration"
                             % format_var(v))
        for r in range(cfg.ambient_dim):
            vec[r] += e * col[r]
    return IntVector(vec)


Heights = namedtuple("Heights", ["ht_PG", "ht_IH", "b_H"])


def heights(g, h):
    """Heights of P_G and of the toric ideal of h's incidence configuration.

    ht_PG = |E(g)|; ht_IH = |E(h)| - |V(h)| + b_H with b_H the number of
    bipartite connected components of h.
    """
    h = getattr(h, "graph", h)
    b = sum(1 for comp in components(h) if bipartition(comp) is not None)
    return Heights(g.m, h.m - h.n + b, b)


RayCertificate = namedtuple("RayCertificate", ["variable", "certificate", "ok"])

ExtremeRayReport = namedtuple("ExtremeRayReport", ["rays", "count", "all_ok"])


def verify_extreme_rays(g):
    """Certify that every column of A_G spans an extreme ray of its cone.

    For each column a, builds the supporting vector c with c.a = 0 and
    c.a' > 0 for every other column a', using the three coordinate recipes:
    2 at the edge coordinate for the negative-entry orientation, 0 there for
    the unit orientation, and for a diagonal column 0 at its own vertex with
    2 at the other vertex coordinates and 1 on edge coordinates. A column
    whose check fails is flagged rather than raised, since that would signal
    a bug here and not bad input.
    """
    cfg = build_AG(g)
    n, m = g.n, g.m
    pos = {v: k for k, v in enumerate(g.vertices)}
    epos = {e: k for k, e in enumerate(g.edges)}
    rays = []
    for var in cfg.variables:
        if var.kind == "off":
            c = [1] * (n + m)
            t = n + epos[(var.i, var.j) if var.i < var.j else (var.j, var.i)]
            c[t] = 2 if var.i < var.j else 0
        else:
            c = [2] * n + [1] * m
            c[pos[var.i]] = 0
        cert = IntVector(c)
        col = cfg.columns[var]
        ok = (cert.dot(col) == 0
              and all(cert.dot(cfg.columns[other]) > 0
                      for other in cfg.variables if other != var))
        rays.append(RayCertificate(var, cert, ok))
    count = sum(1 for r in rays if r.ok)
    return ExtremeRayReport(tuple(rays), count, count == len(rays))
