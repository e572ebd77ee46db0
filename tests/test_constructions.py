"""Prisms, Moebius bands, clique sums, host assembly and verification."""

import random

import pytest

from diagminors.constructions import (LabeledConstruction, build_H, clique_sum,
                                      mobius, prism, verify_PG_equals_IH)
from diagminors.encoding import heights
from diagminors.graphs import (ClosedWalk, Graph, classify, components,
                               enumerate_cycles, is_bipartite)
from diagminors import fixtures


def test_prism_of_single_edge():
    h = prism(fixtures.k2())
    assert h.graph.vertices == (1, 2, 4, 5)
    assert set(h.graph.edges) == {(1, 2), (4, 5), (1, 4), (2, 5)}
    assert h.graph.edge_names == {(1, 2): (1, 2), (4, 5): (2, 1),
                                  (1, 4): (1, 1), (2, 5): (2, 2)}
    assert h.origin == {(1, 2): "copy-1", (2, 1): "copy-2",
                        (1, 1): "rung", (2, 2): "rung"}
    assert h.p_map == {1: 1, 2: 2}
    assert h.q_map == {1: 4, 2: 5}
    assert h.edge_of((2, 1)) == (4, 5)


def test_prism_counts_and_stride():
    h = prism(fixtures.cycle(4))
    assert (h.graph.n, h.graph.m) == (8, 12)
    for n in (3, 5, 7):
        h = prism(fixtures.star(n))
        assert (h.graph.n, h.graph.m) == (2 * n, 3 * n - 2)
    h = prism(fixtures.k2(), stride=10)
    assert h.graph.vertices == (1, 2, 11, 12)
    # a single vertex turns into one rung edge
    h = prism(Graph([1], []))
    assert set(h.graph.edges) == {(1, 3)}
    assert h.graph.edge_names == {(1, 3): (1, 1)}


def test_prism_needs_connected_input():
    with pytest.raises(ValueError):
        prism(Graph((), [(1, 2), (3, 4)]))


def test_mobius_of_four_cycle():
    g = fixtures.cycle(4)
    cyc = enumerate_cycles(g)[0]
    h = mobius(cyc, g)
    assert (h.graph.n, h.graph.m) == (8, 12)
    roles = sorted(h.origin.values())
    assert roles.count("copy-1") == 3 and roles.count("copy-2") == 3
    assert roles.count("twisted") == 2 and roles.count("rung") == 4
    assert not is_bipartite(h.graph)
    assert enumerate_cycles(h.graph, "odd")
    # removing the twisted pair leaves a bipartite ladder
    twisted = {h.edge_of(name) for name, role in h.origin.items()
               if role == "twisted"}
    ladder = Graph(h.graph.vertices,
                   [e for e in h.graph.edges if e not in twisted])
    assert is_bipartite(ladder)


def test_mobius_validation():
    g = fixtures.cycle(4)
    cyc = enumerate_cycles(g)[0]
    with pytest.raises(ValueError):
        mobius(ClosedWalk((1, 2, 3)), fixtures.triangle())
    with pytest.raises(ValueError):
        mobius(cyc, fixtures.path(4))  # closing edge missing from the host


def test_labeled_construction_validation():
    plain = Graph((), [(1, 2)])
    with pytest.raises(ValueError):
        LabeledConstruction(plain, {}, {}, {})
    named = Graph((), [(1, 2)], {(1, 2): (1, 1)})
    with pytest.raises(ValueError):
        LabeledConstruction(named, {(1, 1): "rung"}, {1: 1}, {})
    with pytest.raises(ValueError):
        LabeledConstruction(named, {(1, 1): "girder"}, {1: 1}, {1: 2})
    with pytest.raises(ValueError):
        LabeledConstruction(named, {(1, 1): "rung"}, {3: 1}, {3: 5})
    ok = LabeledConstruction(named, {(1, 1): "rung"}, {1: 1}, {1: 2})
    assert ok.edge_of((1, 1)) == (1, 2)


def test_clique_sum_disjoint_union():
    a = prism(Graph((), [(1, 2)]))
    b = prism(Graph((), [(7, 8)]), stride=2)
    out = clique_sum(a, b, ())
    assert out.graph.n == 8 and out.graph.m == 8
    assert set(out.p_map) == {1, 2, 7, 8}


def test_clique_sum_idempotent_on_complete_overlap():
    a = prism(Graph([1], []))
    out = clique_sum(a, a, {1, 3})
    assert out.graph == a.graph
    assert out.origin == a.origin


def test_clique_sum_validation():
    a = prism(Graph((), [(1, 2)]))
    with pytest.raises(ValueError):
        clique_sum(a, a, {1, 2})  # intersection is all four vertices
    b = prism(Graph((), [(1, 5)]))
    with pytest.raises(ValueError):
        clique_sum(a, b, {1, 5})  # shared vertices are not adjacent
    renamed = LabeledConstruction(Graph((), [(1, 2)], {(1, 2): (9, 9)}),
                                  {(9, 9): "rung"}, {9: 1}, {9: 2})
    with pytest.raises(ValueError):
        clique_sum(a, renamed, {1, 2})  # same edge, different name


def test_clique_sum_rebuilds_two_piece_host():
    # Moebius band of the 4-cycle on ad-hoc labels p=7,8,9,10 / q=12,13,15,17
    cbar_names = {
        (7, 8): (1, 2), (8, 9): (2, 3), (9, 10): (3, 4),
        (12, 13): (2, 1), (13, 15): (3, 2), (15, 17): (4, 3),
        (7, 17): (1, 4), (10, 12): (4, 1),
        (7, 12): (1, 1), (8, 13): (2, 2), (9, 15): (3, 3), (10, 17): (4, 4),
    }
    cbar = LabeledConstruction(
        Graph((), cbar_names, cbar_names),
        {(1, 2): "copy-1", (2, 3): "copy-1", (3, 4): "copy-1",
         (2, 1): "copy-2", (3, 2): "copy-2", (4, 3): "copy-2",
         (1, 4): "twisted", (4, 1): "twisted",
         (1, 1): "rung", (2, 2): "rung", (3, 3): "rung", (4, 4): "rung"},
        {1: 7, 2: 8, 3: 9, 4: 10}, {1: 12, 2: 13, 3: 15, 4: 17})
    # prism of the two pendant edges at vertex 1, sharing the rung {7, 12}
    tstar_names = {
        (7, 18): (1, 5), (7, 19): (1, 6), (12, 20): (5, 1), (12, 21): (6, 1),
        (7, 12): (1, 1), (18, 20): (5, 5), (19, 21): (6, 6),
    }
    tstar = LabeledConstruction(
        Graph((), tstar_names, tstar_names),
        {(1, 5): "copy-1", (1, 6): "copy-1", (5, 1): "copy-2",
         (6, 1): "copy-2", (1, 1): "rung", (5, 5): "rung", (6, 6): "rung"},
        {1: 7, 5: 18, 6: 19}, {1: 12, 5: 20, 6: 21})
    merged = clique_sum(cbar, tstar, {7, 12})
    assert (merged.graph.n, merged.graph.m) == (12, 18)
    g = fixtures.pendant_cycle()
    assert verify_PG_equals_IH(g, merged).equal
    assert heights(g, merged) == (6, 6, 0)


def test_build_H_shapes():
    h = build_H(fixtures.triangle_pendant())
    assert (h.graph.n, h.graph.m) == (8, 12)
    assert "twisted" not in h.origin.values()
    h = build_H(fixtures.pendant_cycle())
    assert (h.graph.n, h.graph.m) == (12, 18)
    assert "twisted" in h.origin.values()
    assert not is_bipartite(h.graph)
    h = build_H(fixtures.path(4))
    assert is_bipartite(h.graph)
    with pytest.raises(ValueError):
        build_H(fixtures.theta_graph())
    with pytest.raises(ValueError):
        build_H(Graph((), []))


def test_build_H_disjoint_components():
    g = Graph((), [(1, 2), (4, 5), (5, 6), (4, 6)])
    h = build_H(g)
    assert (h.graph.n, h.graph.m) == (10, 13)
    assert verify_PG_equals_IH(g, h).equal


def _build_H_by_clique_sums(g):
    """Reference host: the pieces of build_H glued pairwise by clique_sum."""
    s = max(g.vertices) + 1
    pieces = []
    for record in classify(g).per_component:
        comp, kind = record.graph, record.kind
        if kind in ("tree", "unicyclic-odd"):
            pieces.append(prism(comp, stride=s))
            continue
        cyc = record.cycle
        acc = mobius(cyc, comp, stride=s)
        cycle_edges = set(cyc.edge_sequence)
        cycle_vertices = set(cyc.vertices)
        rest = Graph(comp.vertices,
                     [e for e in comp.edges if e not in cycle_edges])
        hanging = []
        for sub in components(rest):
            if sub.m == 0:
                continue
            roots = [v for v in sub.vertices if v in cycle_vertices]
            assert len(roots) == 1
            hanging.append((roots[0], sub))
        for root, sub in sorted(hanging, key=lambda rs: rs[0]):
            acc = clique_sum(acc, prism(sub, stride=s), {root, root + s})
        pieces.append(acc)
    out = pieces[0]
    for piece in pieces[1:]:
        out = clique_sum(out, piece, ())
    return out


def _random_component(rnd, labels):
    """A tree, or a cycle with trees hanging off it, on the given labels."""
    n = len(labels)
    k = rnd.choice([0, 0] + list(range(3, n + 1)))
    edges = [(labels[i], labels[(i + 1) % k]) for i in range(k)]
    edges += [(labels[rnd.randrange(v)], labels[v])
              for v in range(max(k, 1), n)]
    return edges


def test_build_H_matches_clique_sum_reference():
    rnd = random.Random(4)
    for _ in range(120):
        sizes = [rnd.randint(1, 10) for _ in range(rnd.choice([1, 1, 2, 3]))]
        labels = rnd.sample(range(1, 4 * sum(sizes) + 2), sum(sizes))
        edges, rest = [], labels
        for size in sizes:
            edges += _random_component(rnd, rest[:size])
            rest = rest[size:]
        rnd.shuffle(edges)
        g = Graph(labels, edges)
        h, ref = build_H(g), _build_H_by_clique_sums(g)
        assert h.graph.edges == ref.graph.edges
        assert h.graph.edge_names == ref.graph.edge_names
        assert (h.origin, h.p_map, h.q_map) \
            == (ref.origin, ref.p_map, ref.q_map)


def test_verify_reports():
    g = fixtures.path(4)
    assert verify_PG_equals_IH(g, build_H(g)) == (True, True, True)
    g = fixtures.cycle(4)
    rep = verify_PG_equals_IH(g, prism(g))
    assert rep.containment_ok and not rep.height_ok and not rep.equal


def test_verify_missing_names_and_broken_quad():
    with pytest.raises(ValueError):
        verify_PG_equals_IH(fixtures.k2(), fixtures.k2())
    # right names on the wrong shape: the quad is a path, not a 4-cycle
    host = Graph((), [(1, 2), (2, 3), (3, 4), (4, 5)],
                 {(1, 2): (1, 1), (2, 3): (1, 2),
                  (3, 4): (2, 2), (4, 5): (2, 1)})
    rep = verify_PG_equals_IH(fixtures.k2(), host)
    assert not rep.containment_ok and not rep.equal


def test_verify_incidence_identity_rejects_triangle_with_pendant():
    # every consecutive pair of the named quad meets once and the quad
    # touches four vertices, but z_11, z_22 cover {1, 2, 2, 4} while
    # z_12, z_21 cover {1, 4, 2, 3}: only b_ii + b_jj = b_ij + b_ji fails
    host = Graph((), [(1, 2), (2, 3), (2, 4), (1, 4)],
                 {(1, 2): (1, 1), (2, 3): (2, 1),
                  (2, 4): (2, 2), (1, 4): (1, 2)})
    rep = verify_PG_equals_IH(fixtures.k2(), host)
    assert not rep.containment_ok and not rep.equal
