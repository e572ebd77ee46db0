"""Simple labeled graphs: classification, cycle enumeration, edge-list text.

Vertices are arbitrary non-negative integer labels and are never renumbered,
so constructed graphs can address companion vertices deterministically.
Edges are unordered pairs without loops or multiplicities; a graph may carry
an optional name map edge -> ordered label pair (i, j), rendering as z_ij.
"""

from collections import namedtuple


def edge_key(u, v):
    """Normalize an unordered edge to a sorted pair."""
    u, v = int(u), int(v)
    if u == v:
        raise ValueError("loop at vertex %d" % u)
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph with labeled vertices and optional edge names."""

    __slots__ = ("vertices", "edges", "edge_names", "_adj")

    def __init__(self, vertices=(), edges=(), edge_names=None):
        keys = []
        seen = set()
        for u, v in edges:
            k = edge_key(u, v)
            if k not in seen:
                seen.add(k)
                keys.append(k)
        vs = {int(v) for v in vertices}
        for u, v in keys:
            vs.add(u)
            vs.add(v)
        if any(v < 0 for v in vs):
            raise ValueError("vertex labels must be non-negative")
        self.vertices = tuple(sorted(vs))
        self.edges = tuple(keys)
        if edge_names is not None:
            named = {}
            for e, name in edge_names.items():
                k = edge_key(*e)
                if k not in seen:
                    raise ValueError("name for non-edge %s" % (k,))
                i, j = name
                named[k] = (int(i), int(j))
            edge_names = named
        self.edge_names = edge_names
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        u, v = edge_key(u, v)
        return v in self._adj.get(u, ())

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and set(self.edges) == set(other.edges)
                and self.edge_names == other.edge_names)

    def __hash__(self):
        return hash((self.vertices, frozenset(self.edges)))

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (self.n, self.m)


class ClosedWalk:
    """Closed walk given by its cyclic vertex sequence (closure implicit)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = tuple(int(v) for v in vertices)
        if len(vs) < 2:
            raise ValueError("a closed walk needs at least two vertices")
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if a == b:
                raise ValueError("loop at vertex %d" % a)
        self.vertices = vs

    @property
    def edge_sequence(self):
        """Sorted vertex pairs of the steps, the closing step last."""
        vs = self.vertices
        return tuple(edge_key(a, b) for a, b in zip(vs, vs[1:] + vs[:1]))

    @property
    def length(self):
        return len(self.vertices)

    @property
    def is_even(self):
        return self.length % 2 == 0

    @property
    def is_cycle(self):
        """Pairwise-distinct vertices (and length at least 3)."""
        return len(set(self.vertices)) == len(self.vertices) and self.length >= 3

    def canonical(self):
        """Least vertex sequence over all rotations and both directions."""
        best = None
        seqs = [self.vertices, tuple(reversed(self.vertices))]
        for seq in seqs:
            for r in range(len(seq)):
                cand = seq[r:] + seq[:r]
                if best is None or cand < best:
                    best = cand
        return ClosedWalk(best)

    def __eq__(self, other):
        return isinstance(other, ClosedWalk) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "ClosedWalk(%s)" % (list(self.vertices),)


ComponentClass = namedtuple("ComponentClass",
                            ["graph", "kind", "bipartite", "parts", "cycle"])


class GraphClass:
    """Classification of a graph, one ComponentClass record per component."""

    __slots__ = ("per_component",)

    def __init__(self, per_component):
        self.per_component = tuple(per_component)

    @property
    def bipartite(self):
        return all(c.bipartite for c in self.per_component)

    @property
    def kinds(self):
        return tuple(c.kind for c in self.per_component)

    def __repr__(self):
        return "GraphClass(%s)" % (", ".join(self.kinds) or "empty")


def component_labels(g):
    """Index of each vertex's component, numbered in order of least vertex."""
    label = {}
    count = 0
    for root in g.vertices:
        if root in label:
            continue
        label[root] = count
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in label:
                    label[w] = count
                    stack.append(w)
        count += 1
    return label


def components(g):
    """Connected components as induced subgraphs, ascending by min label,
    split off g in one pass that keeps its vertex, edge and name order."""
    label = component_labels(g)
    pieces = [([], [], None if g.edge_names is None else {})
              for _ in range(len(set(label.values())))]
    for v in g.vertices:
        pieces[label[v]][0].append(v)
    for e in g.edges:
        _, edges, names = pieces[label[e[0]]]
        edges.append(e)
        if names is not None and e in g.edge_names:
            names[e] = g.edge_names[e]
    return [Graph(*piece) for piece in pieces]


def bipartition(g):
    """Two-coloring as a pair of sorted vertex tuples, or None.

    Each component's smallest vertex goes in the first part, which keeps the
    output deterministic.
    """
    color = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    part0 = tuple(v for v in g.vertices if color[v] == 0)
    part1 = tuple(v for v in g.vertices if color[v] == 1)
    return part0, part1


def is_bipartite(g):
    return bipartition(g) is not None


def cycle_space_rank(g):
    """Dimension of the cycle space: m - n + number of components."""
    return g.m - g.n + len(set(component_labels(g).values()))


def enumerate_cycles(g, parity="all"):
    """Every simple cycle exactly once, as canonical ClosedWalks.

    Deduplication is modulo rotation and reflection; the representative is
    the lexicographically least vertex sequence, and the result is sorted by
    (length, vertex sequence). parity selects all, even or odd lengths.

    The search is DFS backtracking rooted at each vertex in turn, visiting
    only larger vertices, which finds each cycle once per direction; keeping
    the direction where the second vertex beats the last kills the mirror.
    """
    if parity not in ("all", "even", "odd"):
        raise ValueError("parity must be all, even or odd")
    found = []
    path = []
    on_path = set()

    def extend(root, v):
        path.append(v)
        on_path.add(v)
        for w in g.neighbors(v):
            if w == root and len(path) >= 3 and path[1] < path[-1]:
                found.append(ClosedWalk(path))
            elif w > root and w not in on_path:
                extend(root, w)
        on_path.discard(v)
        path.pop()

    for root in g.vertices:
        extend(root, root)
    # Each cycle starts at its least vertex with the smaller neighbour
    # second, so it is already canonical.
    if parity != "all":
        want = 0 if parity == "even" else 1
        found = [c for c in found if c.length % 2 == want]
    found.sort(key=lambda c: (c.length, c.vertices))
    return found


def _peel_cycle(g):
    """The one cycle of a connected unicyclic graph, in canonical rotation.

    Leaves are stripped until only the cycle is left, which is then walked
    from its least vertex towards the smaller of that vertex's two cycle
    neighbours: the form enumerate_cycles emits, found in linear time.
    """
    degree = {v: g.degree(v) for v in g.vertices}
    leaves = [v for v, d in degree.items() if d == 1]
    while leaves:
        v = leaves.pop()
        degree[v] = 0
        for w in g.neighbors(v):
            if degree[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    on_cycle = {v for v, d in degree.items() if d}
    start = min(on_cycle)
    walk = [start]
    prev, v = start, next(w for w in g.neighbors(start) if w in on_cycle)
    while v != start:
        walk.append(v)
        prev, v = v, next(w for w in g.neighbors(v)
                          if w in on_cycle and w != prev)
    return ClosedWalk(walk)


def classify(g):
    """Per-component kind (tree / unicyclic-even / unicyclic-odd / multicycle).

    Unicyclic components carry their unique cycle in canonical rotation;
    bipartite components carry their bipartition parts.
    """
    records = []
    for comp in components(g):
        parts = bipartition(comp)
        excess = comp.m - comp.n
        cycle = None
        if excess == -1:
            kind = "tree"
        elif excess == 0:
            cycle = _peel_cycle(comp)
            kind = "unicyclic-even" if cycle.is_even else "unicyclic-odd"
        else:
            kind = "multicycle"
        records.append(ComponentClass(comp, kind, parts is not None,
                                      parts, cycle))
    return GraphClass(records)


def format_edge_name(i, j):
    """Render an ordered name pair as z_ij, comma-separated past one digit."""
    if 0 <= i <= 9 and 0 <= j <= 9:
        return "z_%d%d" % (i, j)
    return "z_%d,%d" % (i, j)


def parse_edge_name(text):
    """Inverse of format_edge_name."""
    if not text.startswith("z_"):
        raise ValueError("edge name must start with z_: %r" % text)
    body = text[2:]
    if "," in body:
        a, _, b = body.partition(",")
    elif len(body) == 2 and body.isdigit():
        a, b = body[0], body[1]
    else:
        raise ValueError("ambiguous edge name %r; use z_i,j" % text)
    return int(a), int(b)


def parse_edge_list(text):
    """Graph from edge-list text.

    One edge per line as two whitespace-separated non-negative integers;
    '#' starts a comment; blank lines are ignored. A trailing comment of the
    form '# name=z_ij' attaches an edge name.
    """
    edges = []
    names = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line, _, comment = raw.partition("#")
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError("line %d: expected two vertex labels: %r"
                             % (lineno, raw.strip()))
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError("line %d: vertex labels must be integers: %r"
                             % (lineno, raw.strip()))
        if u < 0 or v < 0:
            raise ValueError("line %d: vertex labels must be non-negative"
                             % lineno)
        edges.append((u, v))
        comment = comment.strip()
        if comment.startswith("name="):
            names[edge_key(u, v)] = parse_edge_name(comment[5:].strip())
    return Graph((), edges, names or None)


def serialize_edge_list(g):
    """Edge-list text for g, with name comments when names are present."""
    lines = []
    for e in g.edges:
        if g.edge_names is not None and e in g.edge_names:
            lines.append("%d %d  # name=%s"
                         % (e[0], e[1], format_edge_name(*g.edge_names[e])))
        else:
            lines.append("%d %d" % e)
    return "\n".join(lines) + ("\n" if lines else "")
