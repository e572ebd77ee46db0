"""Circuits, Graver bases, walk binomials and universal basis reports."""

import random
from collections import Counter

import pytest

from diagminors.bases import (BasisReport, circuits, degree_stats,
                              graph_basis, graver, is_primitive, ugb,
                              walk_binomial)
from diagminors.binomials import (Binomial, Monomial, TermOrder,
                                  binomial_from_vector, buchberger,
                                  natural_order, normal_form, parse_binomial,
                                  parse_monomial, var_sort_key)
from diagminors.constructions import build_H, prism
from diagminors.encoding import (VectorConfiguration, build_AG, generators_PG,
                                 incidence_config)
from diagminors.graphs import (ClosedWalk, Graph, classify, components,
                               enumerate_cycles, is_bipartite)
from diagminors.intmat import IntVector, matrix_graver, support_minimal
from diagminors import fixtures
from references import _graph_circuits, _host_walk_ugb, _saturation_toric_gb


def _parse_set(strings):
    return frozenset(parse_binomial(s) for s in strings)


def test_circuits_single_edge():
    cfg = build_AG(fixtures.k2())
    f12 = parse_binomial("x11*x22 - x12*x21")
    assert circuits(cfg) == [f12]
    assert graver(cfg) == [f12]


def test_circuits_of_example_graph():
    cfg = build_AG(fixtures.five_vertex_example())
    got = circuits(cfg)
    assert len(got) == 36
    assert frozenset(got) == _parse_set(fixtures.EXAMPLE_CIRCUITS)
    assert parse_binomial("x44*x35*x53 - x55*x34*x43") in set(got)
    # bipartite graph: every monomial of every circuit is squarefree
    for b in got:
        assert b.plus.is_squarefree and b.minus.is_squarefree


def test_graver_prism_incidence():
    cfg = incidence_config(prism(fixtures.triangle_pendant()))
    got = graver(cfg)
    assert frozenset(got) == _parse_set(fixtures.PRISM_GRAVER)
    witness = parse_binomial(fixtures.PRISM_GRAVER_WITNESS)
    assert witness.degree == 5
    assert is_primitive(witness, cfg)
    assert witness not in set(circuits(cfg))


def _lawrence_graver(cfg):
    """Graver basis by the Lawrence lifting, an independent reference.

    Any reduced Groebner basis of the toric ideal of [[A, 0], [I, I]]
    consists of x^(u+) z^(u-) - x^(u-) z^(u+) with u over the Graver basis
    of A; projecting to the x-variables gives that basis, sorted here by
    (support size, support, exponent vector). The lifted basis comes from
    the saturation reference, since the package's toric_gb itself starts
    from the Graver basis.
    """
    mat = cfg.matrix
    xvars = cfg.variables
    zvars = []
    for k in range(1, mat.cols + 1):
        name = "z_%d" % k
        while name in xvars:
            name += "_"
        zvars.append(name)
    cols = []
    for k, x in enumerate(xvars):
        vec = [mat.entries[r][k] for r in range(mat.rows)]
        vec.extend(1 if t == k else 0 for t in range(mat.cols))
        cols.append((x, IntVector(vec)))
    for k, z in enumerate(zvars):
        vec = [0] * mat.rows
        vec.extend(1 if t == k else 0 for t in range(mat.cols))
        cols.append((z, IntVector(vec)))
    lifted = VectorConfiguration(cols)
    ranking = sorted(xvars, key=var_sort_key) + zvars
    order = TermOrder("degrevlex", ranking)
    xset = set(xvars)
    seen = {}
    for g in _saturation_toric_gb(lifted, order):
        plus = Monomial((v, e) for v, e in g.plus.items if v in xset)
        minus = Monomial((v, e) for v, e in g.minus.items if v in xset)
        b = Binomial(plus, minus)
        seen.setdefault(b, b)
    pos = {v: k for k, v in enumerate(xvars)}

    def key(b):
        vec = [0] * len(xvars)
        for v, e in b.plus.items:
            vec[pos[v]] += e
        for v, e in b.minus.items:
            vec[pos[v]] -= e
        support = tuple(k for k, e in enumerate(vec) if e)
        return (len(support), support, tuple(vec))

    return sorted(seen, key=key)


def test_graver_matches_lawrence_lifting():
    battery = fixtures.fixture_battery()
    configs = [build_AG(battery[name]) for name in (
        "k2", "path-3", "star-3", "triangle", "path-4", "star-4",
        "triangle-pendant", "cycle-4", "path-5", "star-5")]
    configs.append(incidence_config(prism(fixtures.triangle_pendant())))
    # a triangle with pendant edges at two different vertices
    configs.append(build_AG(Graph((), [(1, 2), (2, 3), (1, 3), (1, 4),
                                       (2, 5)])))
    for cfg in configs:
        assert graver(cfg) == _lawrence_graver(cfg)


def test_graver_equals_circuits_when_bipartite():
    for g in (fixtures.path(4), fixtures.star(4), fixtures.cycle(4)):
        cfg = build_AG(g)
        assert frozenset(graver(cfg)) == frozenset(circuits(cfg))


def test_is_primitive():
    cfg = build_AG(fixtures.k2())
    # constructor normalization turns x11^2*x22 - x11*x12*x21 into f_12
    b = Binomial(parse_monomial("x11^2*x22"), parse_monomial("x11*x12*x21"))
    assert is_primitive(b, cfg)
    with pytest.raises(ValueError):
        is_primitive(parse_binomial("x11 - x22"), cfg)


def test_walk_binomial_square():
    h = prism(fixtures.k2())
    b = walk_binomial(ClosedWalk((1, 2, 5, 4)), h)
    assert b == parse_binomial("x11*x22 - x12*x21")
    # starting point and direction only flip the sign, never the binomial
    assert walk_binomial(ClosedWalk((5, 4, 1, 2)), h) == b
    assert walk_binomial(ClosedWalk((4, 5, 2, 1)), h) == b


def test_walk_binomial_long_walks():
    h = prism(fixtures.path(5))
    b = walk_binomial(ClosedWalk((1, 2, 3, 4, 5, 11, 10, 9, 8, 7)), h)
    assert b == parse_binomial("x12*x34*x55*x43*x21 - x23*x45*x54*x32*x11")
    h = prism(fixtures.star(4))
    b = walk_binomial(ClosedWalk((2, 1, 3, 8, 6, 7)), h)
    assert b == parse_binomial("x12*x21*x33 - x22*x31*x13")
    # a doubled rung contributes a squared variable
    h = prism(fixtures.triangle())
    b = walk_binomial(ClosedWalk((1, 2, 3, 1, 5, 6, 7, 5)), h)
    assert b == parse_binomial("x12*x21*x13*x31 - x11^2*x23*x32")


def test_walk_binomial_errors():
    with pytest.raises(ValueError):
        walk_binomial(ClosedWalk((1, 2, 3)), fixtures.triangle())
    with pytest.raises(ValueError):
        walk_binomial(ClosedWalk((1, 2, 3, 4)), fixtures.path(3))


def test_graph_circuits_triangle_prism():
    got = _graph_circuits(prism(fixtures.triangle()))
    assert len(got) == 9
    assert frozenset(got) == _parse_set(fixtures.TRIANGLE_UGB)
    doubled = _parse_set(("x12*x21*x13*x31 - x11^2*x23*x32",
                          "x12*x21*x23*x32 - x22^2*x13*x31",
                          "x13*x31*x23*x32 - x33^2*x12*x21"))
    assert doubled <= frozenset(got)


def test_graph_circuits_mobius_has_long_even_cycle():
    g = fixtures.cycle(4)
    h = mobius_host(g)
    b = parse_binomial("x12*x21*x34*x43 - x14*x41*x23*x32")
    assert b in set(_graph_circuits(h))


def mobius_host(g):
    from diagminors.constructions import mobius
    return mobius(enumerate_cycles(g)[0], g)


def test_graph_circuits_bipartite_host_only_even_cycles():
    h = prism(fixtures.path(3))
    want = {walk_binomial(w, h) for w in enumerate_cycles(h.graph, "even")}
    assert set(_graph_circuits(h)) == want


def test_graph_circuits_figure_eight():
    # two triangles sharing vertex 3; unnamed edges become y_1..y_6
    g = Graph((), [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    got = _graph_circuits(g)
    want = Binomial(Monomial([("y_2", 1), ("y_3", 1), ("y_5", 1)]),
                    Monomial([("y_1", 1), ("y_4", 1), ("y_6", 1)]))
    assert got == [want]


def test_graph_circuits_needs_connected_host():
    with pytest.raises(ValueError):
        _graph_circuits(Graph((), [(1, 2), (3, 4)]))


def test_ugb_exact_shapes():
    rep = ugb(fixtures.star(4))
    assert rep.status == "exact"
    assert frozenset(rep.elements) == _parse_set(fixtures.STAR4_UGB)
    rep = ugb(fixtures.path(5))
    assert rep.status == "exact"
    assert frozenset(rep.elements) == _parse_set(fixtures.PATH5_UGB)
    rep = ugb(fixtures.triangle())
    assert rep.status == "exact"
    assert frozenset(rep.elements) == _parse_set(fixtures.TRIANGLE_UGB)
    rep = ugb(fixtures.five_vertex_example())
    assert rep.status == "exact"
    assert frozenset(rep.elements) == _parse_set(fixtures.EXAMPLE_CIRCUITS)


def test_ugb_lone_odd_cycle_matches_walk_reference():
    for k in (3, 5, 7, 9):
        g = fixtures.cycle(k)
        rep = ugb(g)
        assert rep.status == "exact"
        assert rep.count == k * k
        assert frozenset(rep.elements) == frozenset(
            _graph_circuits(build_H(g)))


def test_ugb_cycle_11_answers():
    # the walk reference needs seconds here and minutes at cycle-13
    rep = ugb(fixtures.cycle(11))
    assert (rep.status, rep.count) == ("exact", 121)


def test_ugb_cycle_13_is_its_graver_basis():
    # minutes by the walk reference; the Graver route lists the 13^2
    # circuits in Graver order
    g = fixtures.cycle(13)
    rep = ugb(g)
    assert (rep.status, rep.count) == ("exact", 169)
    assert list(rep.elements) == graver(build_AG(g))


def test_ugb_lone_odd_cycle_in_larger_graph_stays_exact():
    # cycle-5 on 1..5 beside a path on 6, 7, 8
    g = Graph((), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (6, 7), (7, 8)])
    rep = ugb(g)
    assert rep.status == "exact"
    assert rep.count == 25 + 3
    assert frozenset(ugb(fixtures.cycle(5)).elements) <= frozenset(
        rep.elements)


def _degrees(g):
    return sorted(b.degree for b in ugb(g).elements)


def test_ugb_star_counts_from_prism_cycles():
    # star-3 and path-3 are the same graph up to relabelling
    assert _degrees(fixtures.star(3)) == _degrees(fixtures.path(3)) == [2, 2, 3]
    # one quadric per edge and one cubic per path between two leaves
    for n in range(3, 7):
        assert _degrees(fixtures.star(n)) == (
            [2] * (n - 1) + [3] * ((n - 1) * (n - 2) // 2))


def _random_host_eligible(rng, n, cyclic):
    """A tree, or an even unicyclic graph, on n shuffled labels."""
    k = 2 * rng.randint(2, n // 2) if cyclic else 0
    edges = [(t, (t + 1) % k) for t in range(k)]
    edges += [(v, rng.randrange(v)) for v in range(max(k, 1), n)]
    labels = rng.sample(range(3 * n), n)
    edges = [(labels[a], labels[b]) if rng.random() < 0.5
             else (labels[b], labels[a]) for a, b in edges]
    rng.shuffle(edges)
    return Graph((), edges)


def test_ugb_matches_host_walk_reference():
    rng = random.Random(11)
    for _ in range(40):
        for cyclic in (False, True):
            g = _random_host_eligible(rng, rng.randint(4, 12), cyclic)
            rep = ugb(g)
            assert rep.status == "exact"
            want = _host_walk_ugb(g)
            assert rep.count == len(want)
            assert set(rep.elements) == set(want)


def _random_bipartite(rng):
    """Up to 9 edges between two sides of at most 8 shuffled labels."""
    n = rng.randint(2, 8)
    labels = rng.sample(range(3 * n), n)
    k = rng.randint(1, n - 1)
    pairs = [(a, b) for a in labels[:k] for b in labels[k:]]
    edges = rng.sample(pairs, rng.randint(1, min(9, len(pairs))))
    edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
    return Graph((), edges)


def test_graph_basis_matches_completion_on_bipartite_graphs():
    # the cone's cycles against the Graver completion, in list order
    rng = random.Random(19)
    kinds = set()
    for _ in range(60):
        g = _random_bipartite(rng)
        want = circuits(build_AG(g))
        assert graph_basis(g, "circuits") == want
        assert graph_basis(g, "graver") == want
        records = classify(g).per_component
        kinds.update(r.kind for r in records)
        if len(records) > 1:
            kinds.add("disconnected")
    assert kinds == {"tree", "unicyclic-even", "multicycle", "disconnected"}


BOWTIE = Graph((), [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)])

# One graph per handcuff kind, and two disconnected ones: the triangle has
# tight half-edges, the triangle-pendant a loose one, the bowtie a tight
# pair, two triangles joined by the path 3-7-4 loose pairs, and two
# disjoint triangles (or a triangle beside an edge) no handcuff across.
HANDCUFF_GRAPHS = (
    fixtures.triangle(),
    fixtures.triangle_pendant(),
    BOWTIE,
    Graph((), [(1, 2), (2, 3), (1, 3), (3, 7), (7, 4), (4, 5), (5, 6),
               (4, 6)]),
    Graph((), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]),
    Graph((), [(10, 12), (12, 11), (10, 11), (13, 14)]),
)

CIRCUIT_KINDS = {"even cycle", "path", "tight half-edge", "loose half-edge",
                 "tight pair", "loose pair"}


def _circuit_kind(b):
    """Which circuit shape of A_G a binomial is, read off its exponents.

    A path has both end diagonals once; a half-edge handcuff one diagonal
    squared, with doubled path edges when loose; a pair no diagonal, with
    doubled path edges when loose and a vertex of degree 4 when tight.
    """
    diagonal = []
    edges = {}
    for var, e in b.plus.items + b.minus.items:
        if var.i == var.j:
            diagonal.append(e)
        else:
            edges[min(var.i, var.j), max(var.i, var.j)] = e
    if 1 in diagonal:
        return "path"
    if diagonal:
        return "loose half-edge" if 2 in edges.values() else "tight half-edge"
    if 2 in edges.values():
        return "loose pair"
    degree = Counter(v for e in edges for v in e)
    return "tight pair" if 4 in degree.values() else "even cycle"


def _random_non_bipartite(rng):
    """An odd cycle plus random edges, at most 7 vertices and 8 edges.

    Labels are scattered over 1..24, so wide names and edges listed from
    the larger end occur.
    """
    n = rng.randint(3, 7)
    k = rng.choice([c for c in (3, 5, 7) if c <= n])
    edges = [(t, (t + 1) % k) for t in range(k)]
    edges += [(v, rng.randrange(v)) for v in range(k, n)]
    others = [(a, b) for a in range(n) for b in range(a + 1, n)
              if (a, b) not in edges and (b, a) not in edges]
    edges += rng.sample(others, min(len(others), rng.randint(0, 8 - len(edges))))
    labels = rng.sample(range(1, 25), n)
    edges = [(labels[a], labels[b]) if rng.random() < 0.5
             else (labels[b], labels[a]) for a, b in edges]
    rng.shuffle(edges)
    return Graph((), edges)


def test_graph_basis_circuits_match_completion_on_non_bipartite_graphs():
    # cycles, paths and handcuffs against the Graver completion, in list
    # order and with the same sides
    rng = random.Random(21)
    graphs = list(HANDCUFF_GRAPHS)
    graphs += [_random_non_bipartite(rng) for _ in range(30)]
    kinds = Counter()
    for g in graphs:
        assert not is_bipartite(g)
        got = graph_basis(g, "circuits")
        want = circuits(build_AG(g))
        assert ([(b.plus, b.minus) for b in got]
                == [(b.plus, b.minus) for b in want])
        kinds.update(_circuit_kind(b) for b in got)
    assert set(kinds) == CIRCUIT_KINDS
    assert [len(components(g)) for g in HANDCUFF_GRAPHS[-2:]] == [2, 2]


def test_circuit_kinds_of_each_handcuff_graph():
    # the lists themselves are held to the completion above
    counts = [Counter(_circuit_kind(b) for b in graph_basis(g, "circuits"))
              for g in HANDCUFF_GRAPHS]
    path, tight, loose = "path", "tight half-edge", "loose half-edge"
    assert counts == [
        {path: 6, tight: 3},
        {path: 11, tight: 3, loose: 1},
        {path: 28, tight: 6, loose: 8, "tight pair": 1},
        {path: 47, tight: 6, loose: 12, "loose pair": 1},
        {path: 12, tight: 6},
        {path: 7, tight: 3},
    ]


def _sandwich_shaped(rng):
    """An odd cycle with trees hanging off it, or a non-bipartite tree plus
    two chords: the non-bipartite inputs `ugb` sandwiches, on 5-7 vertices."""
    while True:
        n = rng.randint(5, 7)
        if rng.random() < 0.5:
            k = rng.choice([c for c in (3, 5) if c < n])
            edges = [(t, (t + 1) % k) for t in range(k)]
            edges += [(v, rng.randrange(v)) for v in range(k, n)]
        else:
            edges = [(v, rng.randrange(v)) for v in range(1, n)]
            others = [(a, b) for a in range(n) for b in range(a + 1, n)
                      if (a, b) not in edges and (b, a) not in edges]
            edges += rng.sample(others, 2)
        g = Graph((), [(a + 1, b + 1) for a, b in edges])
        if not is_bipartite(g):
            return g


def test_ugb_lower_bound_equals_graph_circuits():
    # ugb keeps one Graver basis per non-bipartite component for its upper
    # bound; its lower bound, the support-minimal part of that basis, is
    # the list graph_basis reads off cycles, paths and handcuffs
    rng = random.Random(29)
    graphs = [BOWTIE, fixtures.triangle_pendant(), fixtures.cycle(5)]
    graphs += [_sandwich_shaped(rng) for _ in range(12)]
    statuses = set()
    for g in graphs:
        cfg = build_AG(g)
        minimal = support_minimal(matrix_graver(cfg.matrix))
        want = graph_basis(g, "circuits")
        assert [binomial_from_vector(v.entries, cfg.variables)
                for v in minimal] == want
        rep = ugb(g)
        assert list(rep.elements) == want
        statuses.add(rep.status)
    assert statuses == {"exact", "sandwich"}


def test_graph_basis_empty_and_unknown_kind():
    assert graph_basis(Graph(), "circuits") == []
    assert graph_basis(Graph(), "graver") == []
    with pytest.raises(ValueError):
        graph_basis(fixtures.k2(), "ugb")


def test_ugb_sandwich():
    g = fixtures.triangle_pendant()
    rep = ugb(g)
    assert rep.status == "sandwich"
    assert rep.elements == rep.lower
    assert frozenset(rep.lower) == frozenset(circuits(build_AG(g)))
    # P_G here equals the ideal of the prism host, so the upper bound is the
    # same 16-element Graver basis pinned for the incidence configuration
    assert frozenset(rep.upper) == _parse_set(fixtures.PRISM_GRAVER)
    assert (len(rep.lower), len(rep.upper)) == (15, 16)
    assert frozenset(rep.lower) < frozenset(rep.upper)


def test_ugb_mixed_components():
    g = Graph((), [(1, 2), (4, 5), (5, 6), (4, 6), (4, 7)])
    rep = ugb(g)
    assert rep.status == "sandwich"
    assert rep.count == 16
    assert (len(rep.lower), len(rep.upper)) == (16, 17)
    assert parse_binomial("x11*x22 - x12*x21") in set(rep.elements)


def test_ugb_decorated_cycle_stays_exact():
    g = fixtures.decorated_six_cycle()
    rep = ugb(g)
    assert rep.status == "exact"
    gens = generators_PG(g)
    assert set(gens) <= set(rep.elements)
    stats = degree_stats(rep, g)
    assert stats["bipartite_bound"] == 12
    assert stats["bound_respected"]


def test_ugb_contains_generators_and_lies_in_ideal():
    for g in (fixtures.path(4), fixtures.star(4), fixtures.cycle(4),
              fixtures.triangle(), fixtures.five_vertex_example()):
        rep = ugb(g)
        gens = generators_PG(g)
        assert set(gens) <= set(rep.elements)
        variables = sorted({v for b in gens for v in b.variables},
                           key=var_sort_key)
        order = natural_order(variables)
        gb = buchberger(gens, order)
        for b in rep.elements:
            assert normal_form(b, gb, order) == 0


def test_ugb_between_circuits_and_graver():
    for g in (fixtures.k2(), fixtures.path(4), fixtures.star(4),
              fixtures.cycle(4), fixtures.triangle()):
        cfg = build_AG(g)
        rep = ugb(g)
        assert frozenset(circuits(cfg)) <= frozenset(rep.elements)
        assert frozenset(rep.elements) <= frozenset(graver(cfg))


def test_degree_stats():
    rep = ugb(fixtures.path(5))
    assert degree_stats(rep, fixtures.path(5)) == {
        "count": 10, "max_degree": 5,
        "bipartite_bound": 5, "bound_respected": True}
    rep = ugb(fixtures.cycle(4))
    stats = degree_stats(rep, fixtures.cycle(4))
    assert stats["max_degree"] == 4 and stats["bipartite_bound"] == 4
    rep = ugb(fixtures.triangle())
    stats = degree_stats(rep, fixtures.triangle())
    assert "bipartite_bound" not in stats


def test_basis_report_type():
    f12 = parse_binomial("x11*x22 - x12*x21")
    rep = BasisReport([f12], "exact")
    assert rep.count == 1 and rep.max_degree == 2
    assert rep.as_dict() == {"status": "exact", "count": 1, "max_degree": 2,
                             "elements": ["x11*x22 - x12*x21"]}
    assert BasisReport([], "exact").max_degree == 0
    sand = BasisReport([f12], "sandwich", [f12], [f12, f12])
    assert sand.as_dict()["lower_count"] == 1
    with pytest.raises(ValueError):
        BasisReport([], "approximate")
    with pytest.raises(ValueError):
        BasisReport([], "sandwich")
