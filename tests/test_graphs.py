"""Graphs: construction, classification, cycle enumeration, edge-list text."""

import random

import pytest

from diagminors.graphs import (ClosedWalk, Graph, bipartition, classify,
                               components, cycle_space_rank, edge_key,
                               enumerate_cycles, format_edge_name,
                               is_bipartite, parse_edge_list, parse_edge_name,
                               serialize_edge_list)
from diagminors import fixtures
from diagminors.constructions import prism


def test_edge_key_and_dedup():
    assert edge_key(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        edge_key(2, 2)
    g = Graph((), [(2, 1), (1, 2), (3, 2)])
    assert g.edges == ((1, 2), (2, 3))
    assert g.vertices == (1, 2, 3)
    assert g.neighbors(2) == (1, 3)
    assert g.degree(2) == 2
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)


def test_graph_isolated_vertices_and_errors():
    g = Graph([5, 1], [(1, 2)])
    assert g.vertices == (1, 2, 5)
    assert g.degree(5) == 0
    with pytest.raises(ValueError):
        Graph((), [(-1, 2)])
    with pytest.raises(ValueError):
        Graph((), [(1, 2)], {(1, 3): (1, 3)})


def test_components_preserve_edges_and_names():
    g = Graph((), [(4, 5), (1, 2), (2, 3)], {(4, 5): (9, 9)})
    comps = components(g)
    assert [c.vertices for c in comps] == [(1, 2, 3), (4, 5)]
    assert comps[0].edges == ((1, 2), (2, 3))
    assert comps[1].edge_names == {(4, 5): (9, 9)}


def _filtered_components(g):
    """Reference split: one search per component, then a filter of g.edges."""
    remaining = set(g.vertices)
    out = []
    for root in g.vertices:
        if root not in remaining:
            continue
        comp = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        remaining -= comp
        edges = [e for e in g.edges if e[0] in comp]
        names = {e: g.edge_names[e] for e in edges if e in g.edge_names}
        out.append((tuple(sorted(comp)), tuple(edges), names))
    return out


def test_components_match_per_component_filter():
    rnd = random.Random(5150)
    for _ in range(5):
        labels = rnd.sample(range(1000), rnd.randint(300, 400))
        edges = []
        for k, v in enumerate(labels):
            if k and rnd.random() < 0.7:
                edges.append((v, rnd.choice(labels[:k])))
        rnd.shuffle(edges)
        names = {e: (rnd.randint(1, 99), rnd.randint(1, 99))
                 for e in edges if rnd.random() < 0.8}
        g = Graph(labels, edges, names)
        want = _filtered_components(g)
        assert len(want) >= 100
        got = components(g)
        assert [(c.vertices, c.edges, c.edge_names) for c in got] == want
        assert [list(c.edge_names) for c in got] == [list(w[2]) for w in want]
        assert cycle_space_rank(g) == 0


def test_bipartition_and_classify():
    assert bipartition(fixtures.k23()) == ((1, 2), (3, 4, 5))
    assert bipartition(fixtures.triangle()) is None
    assert is_bipartite(fixtures.cycle(6))
    assert not is_bipartite(fixtures.triangle_pendant())

    assert classify(fixtures.path(4)).kinds == ("tree",)
    rec = classify(fixtures.cycle(4)).per_component[0]
    assert rec.kind == "unicyclic-even"
    assert rec.cycle.vertices == (1, 2, 3, 4)
    assert classify(fixtures.triangle()).kinds == ("unicyclic-odd",)
    assert classify(fixtures.theta_graph()).kinds == ("multicycle",)
    two = classify(Graph((), [(1, 2), (3, 4), (4, 5), (3, 5)]))
    assert two.kinds == ("tree", "unicyclic-odd")
    assert not two.bipartite


def test_cycle_space_rank():
    assert cycle_space_rank(fixtures.theta_graph()) == 2
    assert cycle_space_rank(fixtures.path(5)) == 0
    assert cycle_space_rank(Graph((), [(1, 2), (3, 4), (4, 5), (3, 5)])) == 1


def test_closed_walk_basics():
    w = ClosedWalk((1, 2, 3))
    assert w.length == 3 and not w.is_even and w.is_cycle
    assert w.edge_sequence == ((1, 2), (2, 3), (1, 3))
    eight = ClosedWalk((1, 2, 3, 1, 4, 5))
    assert eight.is_even and not eight.is_cycle
    for bad in ((1,), (1, 1, 2), (1, 2, 1)):
        with pytest.raises(ValueError):
            ClosedWalk(bad)


def test_canonical_rotation_and_reflection():
    assert ClosedWalk((2, 3, 1)).canonical().vertices == (1, 2, 3)
    assert ClosedWalk((1, 3, 2)).canonical().vertices == (1, 2, 3)
    rnd = random.Random(31)
    for _ in range(40):
        n = rnd.randint(3, 8)
        seq = rnd.sample(range(1, 20), n)
        base = ClosedWalk(seq).canonical()
        r = rnd.randrange(n)
        rotated = tuple(seq[r:]) + tuple(seq[:r])
        if rnd.random() < 0.5:
            rotated = tuple(reversed(rotated))
        assert ClosedWalk(rotated).canonical() == base


def test_enumerate_cycles_counts():
    assert len(enumerate_cycles(fixtures.triangle())) == 1
    k4 = Graph((), [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    assert len(enumerate_cycles(k4)) == 7
    assert len(enumerate_cycles(k4, "odd")) == 4
    assert len(enumerate_cycles(k4, "even")) == 3
    assert len(enumerate_cycles(fixtures.theta_graph())) == 3
    assert len(enumerate_cycles(fixtures.five_vertex_example())) == 3
    with pytest.raises(ValueError):
        enumerate_cycles(k4, "weird")


def test_enumerate_cycles_on_prisms():
    # the star prism has one square per leaf and one hexagon per leaf pair
    h = prism(fixtures.star(4)).graph
    evens = enumerate_cycles(h, "even")
    assert [c.length for c in evens] == [4, 4, 4, 6, 6, 6]
    assert enumerate_cycles(h, "odd") == []
    # path prism: cycle lengths 4, 6, ..., counts n-1, n-2, ..., 1
    h = prism(fixtures.path(5)).graph
    lengths = [c.length for c in enumerate_cycles(h, "even")]
    assert lengths == [4] * 4 + [6] * 3 + [8] * 2 + [10]


def test_enumerate_cycles_each_once():
    rnd = random.Random(77)
    for _ in range(15):
        n = rnd.randint(4, 7)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = rnd.sample(pairs, rnd.randint(n - 1, len(pairs)))
        g = Graph(range(1, n + 1), edges)
        cycles = enumerate_cycles(g)
        assert len(set(cycles)) == len(cycles)
        for c in cycles:
            assert c.is_cycle
            assert c == c.canonical()
            assert all(g.has_edge(*e) for e in c.edge_sequence)


def test_classify_cycle_is_enumerated_cycle():
    # unicyclic graphs with trees hanging off the cycle, scattered labels
    rnd = random.Random(2024)
    for _ in range(300):
        k = rnd.randint(3, 9)
        n = k + rnd.randint(0, 8)
        label = rnd.sample(range(1, 5 * n), n)
        edges = [(label[i], label[(i + 1) % k]) for i in range(k)]
        edges += [(label[rnd.randrange(v)], label[v]) for v in range(k, n)]
        rnd.shuffle(edges)
        g = Graph((), edges)
        (record,) = classify(g).per_component
        assert record.cycle == enumerate_cycles(g)[0]


def test_edge_name_round_trip():
    assert format_edge_name(1, 2) == "z_12"
    assert format_edge_name(10, 2) == "z_10,2"
    assert parse_edge_name("z_12") == (1, 2)
    assert parse_edge_name("z_10,2") == (10, 2)
    for bad in ("w_12", "z_123", "z_1"):
        with pytest.raises(ValueError):
            parse_edge_name(bad)


def test_parse_edge_list():
    text = "# a comment\n1 2\n\n2 3  # name=z_23\n"
    g = parse_edge_list(text)
    assert g.edges == ((1, 2), (2, 3))
    assert g.edge_names == {(2, 3): (2, 3)}
    with pytest.raises(ValueError):
        parse_edge_list("1 2 3\n")
    with pytest.raises(ValueError):
        parse_edge_list("a b\n")
    with pytest.raises(ValueError):
        parse_edge_list("-1 2\n")


def test_serialize_round_trip():
    h = prism(fixtures.triangle_pendant()).graph
    again = parse_edge_list(serialize_edge_list(h))
    assert again == h
    plain = fixtures.five_vertex_example()
    assert parse_edge_list(serialize_edge_list(plain)) == plain
    assert serialize_edge_list(Graph([3], [])) == ""
