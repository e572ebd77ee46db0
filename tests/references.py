"""Reference routes the engines are checked against.

Each one reaches an answer of the package by a road the package itself no
longer takes, so agreement checks the engine rather than restating it:
circuits by a hyperplane scan over a kernel lattice basis, where the
package filters its Graver basis; toric Groebner bases by saturation,
where the package interreduces its Graver basis; the Graver basis by
completion over a lattice basis together with its negatives, where the
package completes one representative of each sign class; and the circuits
of a host graph's incidence by Villarreal's three closed-walk shapes,
where `ugb` reads a lone odd cycle's basis off the Graver basis of A_G;
and the universal Groebner basis of trees and even unicyclic graphs by the
even cycles of the host graph H, where `ugb` reads it off the cycles of
each component's cone.
"""

from itertools import combinations

from diagminors.bases import walk_binomial
from diagminors.binomials import (Binomial, Monomial, ONE,
                                  binomial_from_vector, buchberger)
from diagminors.constructions import build_H
from diagminors.graphs import ClosedWalk, components, enumerate_cycles
from diagminors.intmat import IntVector, _kernel_columns, kernel_lattice_basis


def _hyperplane_circuits(m):
    """Circuits of m, sorted by (support size, support), by a subset scan.

    With K a kernel lattice basis (k x n), the minimal supports are exactly
    the complements of the hyperplanes of K's column matroid. Every
    (k-1)-subset of columns spanning such a hyperplane has a one-dimensional
    left kernel w, and w.K is the circuit supported off that hyperplane;
    conversely every circuit arises from one of its zero-set's independent
    (k-1)-subsets.
    """
    kb = kernel_lattice_basis(m)
    k = len(kb)
    if k == 0:
        return []
    n = m.cols
    kern = [v.entries for v in kb]
    found = {}
    for subset in combinations(range(n), k - 1):
        cols = [[kern[i][j] for i in range(k)] for j in subset]
        left = _kernel_columns(cols, k - 1, k) if subset else [[1]]
        if len(left) != 1:
            continue
        w = left[0]
        vec = IntVector(sum(w[i] * kern[i][j] for i in range(k))
                        for j in range(n)).primitive_normalized()
        found[vec.entries] = vec
    return sorted(found.values(), key=lambda v: (len(v.support), v.support))


class _Elimination:
    """Block order eliminating one auxiliary variable above an inner order."""

    def __init__(self, aux, inner):
        self.aux = aux
        self.inner = inner

    def key(self, m):
        rest = Monomial((v, e) for v, e in m.items if v != self.aux)
        return (m.exponent(self.aux), self.inner.key(rest))


def _saturation_toric_gb(cfg, order):
    """Reduced Groebner basis of the toric ideal of cfg by saturation.

    The binomials of a kernel lattice basis, plus t*(product of all
    variables) - 1 for an auxiliary variable t, run through Buchberger
    under an elimination order for t; the t-free part of the result is the
    reduced basis under `order`, already sorted by ascending lead.
    """
    variables = cfg.variables
    basis = kernel_lattice_basis(cfg.matrix)
    if not basis:
        return []
    aux = "t"
    while aux in variables:
        aux += "_"
    gens = [binomial_from_vector(v.entries, variables) for v in basis]
    everything = Monomial([(aux, 1)] + [(v, 1) for v in variables])
    gens.append(Binomial(everything, ONE))
    full = buchberger(gens, _Elimination(aux, order))
    return [g for g in full if g.plus.exponent(aux) == 0]


def _signs(v):
    """Bit masks of the positive and of the negative entries of v."""
    return (sum(1 << i for i, e in enumerate(v) if e > 0),
            sum(1 << i for i, e in enumerate(v) if e < 0))


def _conformally_below(u, v):
    """Whether each entry of u is zero or has v's sign and no larger size."""
    return all(0 <= a <= b or b <= a <= 0 for a, b in zip(u, v))


def _pottier_graver(m):
    """All conformally minimal nonzero kernel vectors, one per sign class.

    Each is primitive with its first nonzero entry positive, sorted by
    (support size, support, entries). Completion (Pottier 1996; Hemmecke
    2002): from a lattice basis and its negatives, every pairwise sum is
    reduced by subtracting elements conformally below it, and a nonzero
    remainder joins the set. Pairs of compatible signs are skipped, their
    sum being conformal already. The completed set contains the Graver
    basis as its conformally minimal part. Subtracting only shrinks the
    remainder, so one pass over the set reduces it.
    """
    found = []
    for v in kernel_lattice_basis(m):
        found += [v.entries, tuple(-e for e in v.entries)]
    signs = [_signs(v) for v in found]
    for k, f in enumerate(found):  # sees the elements appended below
        fpos, fneg = signs[k]
        for (gpos, gneg), g in zip(signs[:k], found):
            if not (fpos & gneg or fneg & gpos):
                continue
            s = tuple(a + b for a, b in zip(f, g))
            spos, sneg = _signs(s)
            for (hpos, hneg), h in zip(signs, found):
                if not (hpos & ~spos or hneg & ~sneg):
                    while _conformally_below(h, s):
                        s = tuple(b - a for a, b in zip(h, s))
                    spos, sneg = _signs(s)
            if spos or sneg:
                found.append(s)
                signs.append((spos, sneg))
    zero = (0,) * m.cols
    out = [IntVector(v) for v in found if v > zero and not any(
        u != v and _conformally_below(u, v) for u in found)]
    return sorted(out, key=lambda v: (len(v.support), v.support, v.entries))


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


def _graph_circuits(h):
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


def _host_walk_ugb(g):
    """U(P_G) of a graph whose components are trees or even unicyclic.

    P_G equals the toric ideal of the host graph H, which is bipartite
    here, so its universal Groebner basis is one binomial per even cycle
    of H, edges alternating between the two sides. Components come in
    order, each in the order `enumerate_cycles` lists its host's cycles.
    """
    out = []
    for comp in components(g):
        host = build_H(comp)
        out.extend(walk_binomial(w, host)
                   for w in enumerate_cycles(host.graph, "even"))
    return out
