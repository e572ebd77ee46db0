"""Witness-graph constructions: prisms, Moebius bands, clique sums.

Each construction doubles vertices into a p-copy (original labels) and a
q-copy (labels offset by a stride, by default one past the largest original
label) and names its edges z_ij: name (i, j) with i < j for a copy-1 edge
{p_i, p_j}, the reversed name for the copy-2 edge {q_i, q_j}, and (i, i)
for the rung {p_i, q_i}. Under the incidence encoding these names tie host
edges to the variables x_ij, which is what makes P_G = I_H checkable.
"""

from collections import namedtuple
from itertools import combinations

from .encoding import heights
from .graphs import Graph, classify, component_labels, components


ROLES = ("copy-1", "copy-2", "rung", "twisted")


class LabeledConstruction:
    """A host graph together with edge roles and the p/q vertex maps."""

    __slots__ = ("graph", "origin", "p_map", "q_map")

    def __init__(self, graph, origin, p_map, q_map):
        if graph.edge_names is None:
            raise ValueError("a construction needs named edges")
        names = list(graph.edge_names.values())
        if len(set(names)) != len(names):
            raise ValueError("edge names are not distinct")
        if set(p_map) != set(q_map):
            raise ValueError("p_map and q_map cover different vertices")
        by_name = {name: edge for edge, name in graph.edge_names.items()}
        for v, pv in p_map.items():
            rung = by_name.get((v, v))
            if rung is None or set(rung) != {pv, q_map[v]}:
                raise ValueError("missing or misplaced rung for vertex %d" % v)
        for name, role in origin.items():
            if role not in ROLES:
                raise ValueError("unknown edge role %r" % role)
            if name not in by_name:
                raise ValueError("role for unknown edge name %s" % (name,))
        self.graph = graph
        self.origin = dict(origin)
        self.p_map = dict(p_map)
        self.q_map = dict(q_map)

    def edge_of(self, name):
        """Vertex pair of the edge carrying a given name."""
        for edge, n in self.graph.edge_names.items():
            if n == name:
                return edge
        raise KeyError(name)

    def __repr__(self):
        return "LabeledConstruction(%d vertices, %d edges)" % (self.graph.n,
                                                               self.graph.m)


def prism(w, stride=None):
    """Two disjoint copies of a connected graph joined by rungs.

    For w with k vertices and l edges the prism has 2k vertices and k + 2l
    edges. The stride parameter fixes the q-label offset so that several
    constructions over pieces of one graph can share a label scheme.
    """
    if set(component_labels(w).values()) != {0}:
        raise ValueError("prism needs a connected graph; apply per component")
    s = stride if stride is not None else max(w.vertices) + 1
    edges = []
    names = {}
    origin = {}
    for i, j in w.edges:
        edges.append((i, j))
        names[(i, j)] = (i, j)
        origin[(i, j)] = "copy-1"
    for i, j in w.edges:
        edges.append((i + s, j + s))
        names[(i + s, j + s)] = (j, i)
        origin[(j, i)] = "copy-2"
    for v in w.vertices:
        edges.append((v, v + s))
        names[(v, v + s)] = (v, v)
        origin[(v, v)] = "rung"
    graph = Graph((), edges, names)
    return LabeledConstruction(graph, origin,
                               {v: v for v in w.vertices},
                               {v: v + s for v in w.vertices})


def mobius(c, host, stride=None):
    """Moebius band of an even cycle: doubled path plus two twisted edges.

    The cycle is taken in canonical rotation (i_1, ..., i_k). The band is
    the prism of the path i_1 ... i_k, so both copies keep the prism naming,
    with the closing edge {i_1, i_k} turned into the twisted pair
    {p_i1, q_ik} and {p_ik, q_i1}, listed after the two copies and before
    the rungs. The result has 2k vertices and 3k edges and is never
    bipartite.
    """
    if not c.is_cycle or c.length < 4 or c.length % 2:
        raise ValueError("Moebius band needs an even cycle of length >= 4")
    host_edges = set(host.edges)
    for e in c.edge_sequence:
        if e not in host_edges:
            raise ValueError("cycle edge %s is not in the host graph" % (e,))
    seq = c.canonical().vertices
    s = stride if stride is not None else max(host.vertices) + 1
    band = prism(Graph((), zip(seq, seq[1:])), stride=s)
    first, last = seq[0], seq[-1]
    twisted = {(first, last + s): (first, last),
               (last, first + s): (last, first)}
    edges = list(band.graph.edges)
    copies = 2 * (len(seq) - 1)
    edges[copies:copies] = list(twisted)
    names = {**band.graph.edge_names, **twisted}
    origin = {**band.origin, **dict.fromkeys(twisted.values(), "twisted")}
    return LabeledConstruction(Graph((), edges, names), origin,
                               band.p_map, band.q_map)


def clique_sum(g1, g2, shared):
    """Glue two constructions along a shared complete subgraph.

    `shared` must be exactly the intersection of the vertex sets and induce
    a complete graph in both summands (in practice a rung edge, a vertex, or
    the empty set for a disjoint union). Edge names, roles and p/q maps are
    merged and must agree on the overlap.
    """
    shared = frozenset(int(v) for v in shared)
    v1 = set(g1.graph.vertices)
    v2 = set(g2.graph.vertices)
    if v1 & v2 != shared:
        raise ValueError("vertex intersection %s does not match shared %s"
                         % (sorted(v1 & v2), sorted(shared)))
    for u, v in combinations(sorted(shared), 2):
        if not g1.graph.has_edge(u, v) or not g2.graph.has_edge(u, v):
            raise ValueError("shared vertices %d, %d are not adjacent in both"
                             % (u, v))
    edges = list(g1.graph.edges)
    present = set(edges)
    for e in g2.graph.edges:
        if e not in present:
            edges.append(e)
    names = dict(g1.graph.edge_names)
    for e, name in g2.graph.edge_names.items():
        if names.get(e, name) != name:
            raise ValueError("edge %s named inconsistently: %s vs %s"
                             % (e, names[e], name))
        names[e] = name
    origin = dict(g1.origin)
    for name, role in g2.origin.items():
        if origin.get(name, role) != role:
            raise ValueError("edge name %s has conflicting roles" % (name,))
        origin[name] = role
    p_map = dict(g1.p_map)
    q_map = dict(g1.q_map)
    for v in g2.p_map:
        if p_map.get(v, g2.p_map[v]) != g2.p_map[v] \
                or q_map.get(v, g2.q_map[v]) != g2.q_map[v]:
            raise ValueError("p/q maps disagree at vertex %d" % v)
        p_map[v] = g2.p_map[v]
        q_map[v] = g2.q_map[v]
    return LabeledConstruction(Graph((), edges, names), origin, p_map, q_map)


def build_H(g):
    """Host graph H with P_G = I_H, the union of one piece per component.

    Trees and non-bipartite unicyclic components take their prism; a
    bipartite unicyclic component takes the Moebius band of its cycle
    followed by the prisms of its hanging trees, by ascending root. All
    pieces share one stride, so a hanging tree's prism meets the band in
    its root's rung alone and pieces of different components are disjoint:
    the union is the 1-clique sums over those rungs and the 0-sums between
    components. A component with two or more independent cycles admits no
    host graph.
    """
    if not g.vertices:
        raise ValueError("empty graph: nothing to construct")
    s = max(g.vertices) + 1
    pieces = []
    for record in classify(g).per_component:
        comp, kind = record.graph, record.kind
        if kind == "multicycle":
            raise ValueError("no graph H exists: a connected component has "
                             "more than one independent cycle")
        if kind in ("tree", "unicyclic-odd"):
            pieces.append(prism(comp, stride=s))
            continue
        cyc = record.cycle
        pieces.append(mobius(cyc, comp, stride=s))
        cycle_edges = set(cyc.edge_sequence)
        cycle_vertices = set(cyc.vertices)
        rest = Graph(comp.vertices,
                     [e for e in comp.edges if e not in cycle_edges])
        # each tree meets the cycle in exactly one vertex, its root
        hanging = {min(cycle_vertices.intersection(sub.vertices)): sub
                   for sub in components(rest) if sub.m}
        pieces += [prism(hanging[root], stride=s) for root in sorted(hanging)]
    edges, names, origin, p_map, q_map = [], {}, {}, {}, {}
    for piece in pieces:
        edges += piece.graph.edges
        names.update(piece.graph.edge_names)
        origin.update(piece.origin)
        p_map.update(piece.p_map)
        q_map.update(piece.q_map)
    return LabeledConstruction(Graph((), edges, names), origin, p_map, q_map)


VerifyReport = namedtuple("VerifyReport",
                          ["containment_ok", "height_ok", "equal"])


def verify_PG_equals_IH(g, h):
    """Check P_G = I_H by containment of generators plus equality of heights.

    Containment: for every edge {i, j} of g the named edges z_ii, z_ji,
    z_jj, z_ij form a 4-cycle in h (making f_ij the walk binomial of that
    cycle), double-checked through the incidence identity
    b_ii + b_jj = b_ij + b_ji, which says the two edge pairs cover the same
    endpoints. Both ideals are prime, so containment with equal heights
    gives equality.
    """
    host = h.graph if isinstance(h, LabeledConstruction) else h
    names = host.edge_names or {}
    by_name = {name: edge for edge, name in names.items()}
    if len(by_name) != len(names):
        raise ValueError("host edge names are not distinct")
    needed = [(v, v) for v in g.vertices]
    for i, j in g.edges:
        needed.append((i, j))
        needed.append((j, i))
    missing = [n for n in needed if n not in by_name]
    if missing:
        raise ValueError("host is missing edges named %s"
                         % ", ".join("z_%d,%d" % n for n in missing))
    containment_ok = True
    for i, j in g.edges:
        quad = [by_name[(i, i)], by_name[(j, i)],
                by_name[(j, j)], by_name[(i, j)]]
        seen = set()
        ok = True
        for a in range(4):
            meet = set(quad[a]) & set(quad[(a + 1) % 4])
            if len(meet) != 1:
                ok = False
                break
            seen |= set(quad[a])
        ok = ok and len(seen) == 4
        if ok:
            ok = sorted(by_name[(i, i)] + by_name[(j, j)]) \
                == sorted(by_name[(i, j)] + by_name[(j, i)])
        containment_ok = containment_ok and ok
    report = heights(g, host)
    height_ok = report.ht_PG == report.ht_IH
    return VerifyReport(containment_ok, height_ok,
                        containment_ok and height_ok)
