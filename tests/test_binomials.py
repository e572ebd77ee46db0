"""Monomials, binomials, term orders, Buchberger and toric bases."""

import random

import pytest

from diagminors.binomials import (Binomial, Monomial, ONE, TermOrder, VarId,
                                  buchberger, compare, format_var,
                                  indispensable_monomials, initial_ideal,
                                  leading, monomial_gcd, monomial_lcm,
                                  natural_order, normal_form, oriented,
                                  parse_binomial, parse_monomial, parse_var,
                                  toric_gb, var_sort_key)
from diagminors.encoding import build_AG, generators_PG, incidence_config
from diagminors.constructions import prism
from diagminors.graphs import Graph, classify
from diagminors import fixtures
from references import _saturation_toric_gb


def _vars_of(gens):
    return sorted({v for b in gens for v in b.variables}, key=var_sort_key)


def test_var_id_and_formatting():
    assert VarId(1, 1).kind == "diag"
    assert VarId(1, 2).kind == "off"
    assert format_var(VarId(3, 4)) == "x34"
    assert format_var(VarId(10, 2)) == "x_10,2"
    assert format_var("t") == "t"
    assert str(VarId(1, 2)) == "x12"


def test_parse_var():
    assert parse_var("x12") == VarId(1, 2)
    assert parse_var("x1,2") == VarId(1, 2)
    assert parse_var("x_1,2") == VarId(1, 2)
    assert parse_var("x_10,2") == VarId(10, 2)
    for bad in ("y12", "x123", "x1", "x_a,b"):
        with pytest.raises(ValueError):
            parse_var(bad)


def test_var_sort_key_row_major():
    vs = [VarId(2, 1), "t", VarId(1, 2), VarId(1, 1), VarId(10, 0)]
    ordered = sorted(vs, key=var_sort_key)
    assert ordered == [VarId(1, 1), VarId(1, 2), VarId(2, 1), VarId(10, 0), "t"]


def test_monomial_basics():
    m = Monomial([(VarId(1, 1), 1), (VarId(1, 1), 2), (VarId(2, 2), 0)])
    assert m.exponent(VarId(1, 1)) == 3
    assert m.exponent(VarId(2, 2)) == 0
    assert m.degree == 3
    assert m.support == (VarId(1, 1),)
    assert not m.is_squarefree
    assert str(m) == "x11^3"
    assert str(ONE) == "1"
    with pytest.raises(ValueError):
        Monomial([(VarId(1, 1), -1)])


def test_monomial_arithmetic():
    a = parse_monomial("x11*x22")
    b = parse_monomial("x11*x12")
    assert str(a * b) == "x11^2*x12*x22"
    assert monomial_gcd(a, b) == parse_monomial("x11")
    assert monomial_lcm(a, b) == parse_monomial("x11*x12*x22")
    assert a.divides(a * b)
    assert not a.divides(b)
    assert (a * b) / a == b
    with pytest.raises(ValueError):
        a / b


def test_parse_monomial_round_trip():
    rnd = random.Random(55)
    pool = [VarId(i, j) for i in range(1, 4) for j in range(1, 4)]
    for _ in range(50):
        pairs = [(v, rnd.randint(1, 3))
                 for v in rnd.sample(pool, rnd.randint(1, 4))]
        m = Monomial(pairs)
        assert parse_monomial(str(m)) == m


def test_binomial_normalization():
    f12 = parse_binomial("x11*x22 - x12*x21")
    scaled = Binomial(parse_monomial("x11^2*x22"), parse_monomial("x11*x12*x21"))
    assert scaled == f12
    assert hash(scaled) == hash(f12)
    assert Binomial(f12.minus, f12.plus) == f12
    assert str(f12) == "x11*x22 - x12*x21"
    assert f12.degree == 2
    assert f12.variables == (VarId(1, 1), VarId(1, 2), VarId(2, 1), VarId(2, 2))
    with pytest.raises(ValueError):
        Binomial(parse_monomial("x11*x22"), parse_monomial("x22*x11"))
    with pytest.raises(ValueError):
        parse_binomial("x11*x22")


def test_parse_binomial_round_trip():
    for s in fixtures.EXAMPLE_CIRCUITS + fixtures.PRISM_GRAVER:
        b = parse_binomial(s)
        assert parse_binomial(str(b)) == b


def test_term_order_validation():
    with pytest.raises(ValueError):
        TermOrder("grlex", [VarId(1, 1)])
    with pytest.raises(ValueError):
        TermOrder("lex", [VarId(1, 1), VarId(1, 1)])
    order = TermOrder("lex", [VarId(1, 1)])
    with pytest.raises(ValueError):
        order.key(parse_monomial("x12"))


def test_compare_examples():
    diag = parse_monomial("x11*x22")
    off = parse_monomial("x12*x21")
    vs = [VarId(1, 1), VarId(1, 2), VarId(2, 1), VarId(2, 2)]
    # under graded reverse lex the off-diagonal product is the larger one
    assert compare(natural_order(vs), diag, off) == -1
    assert compare(natural_order(vs, "lex"), diag, off) == 1
    assert compare(natural_order(vs, "deglex"), diag, off) == 1
    assert compare(natural_order(vs), diag, diag) == 0
    # lex ignores degree entirely once the top variable differs
    lex = TermOrder("lex", [VarId(1, 2), VarId(1, 1)])
    assert compare(lex, parse_monomial("x12"), parse_monomial("x11^3")) == 1


def test_leading_and_oriented():
    f12 = parse_binomial("x11*x22 - x12*x21")
    vs = f12.variables
    order = natural_order(vs)
    assert leading(order, f12) == parse_monomial("x12*x21")
    lead, tail = oriented(order, f12)
    assert (lead, tail) == (parse_monomial("x12*x21"), parse_monomial("x11*x22"))
    assert leading(natural_order(vs, "lex"), f12) == parse_monomial("x11*x22")


def test_buchberger_single_and_fixture_generators():
    f12 = parse_binomial("x11*x22 - x12*x21")
    order = natural_order(f12.variables)
    assert buchberger([f12], order) == [f12]
    # pairwise-coprime leads: the generators are already the reduced basis
    for g in (fixtures.path(4), fixtures.cycle(4), fixtures.triangle()):
        gens = generators_PG(g)
        order = natural_order(_vars_of(gens))
        assert frozenset(buchberger(gens, order)) == frozenset(gens)


def test_buchberger_elimination_ranking_produces_cubic():
    # ranking x22 first makes the diagonal terms lead and forces one S-pair
    gens = generators_PG(fixtures.path(3))
    vs = _vars_of(gens)
    ranking = [VarId(2, 2)] + [v for v in vs if v != VarId(2, 2)]
    gb = buchberger(gens, TermOrder("lex", ranking))
    cubic = parse_binomial("x12*x21*x33 - x11*x23*x32")
    assert frozenset(gb) == frozenset(gens) | {cubic}
    init = initial_ideal(gb, TermOrder("lex", ranking))
    assert len(init.generators) == 3
    assert init.squarefree


def test_buchberger_idempotent_and_membership_random():
    rnd = random.Random(8080)
    parsed = [parse_binomial(s) for s in fixtures.EXAMPLE_CIRCUITS]
    for _ in range(10):
        gens = rnd.sample(parsed, rnd.randint(2, 4))
        order = natural_order(_vars_of(gens),
                              rnd.choice(("lex", "deglex", "degrevlex")))
        gb = buchberger(gens, order)
        assert buchberger(gb, order) == gb
        for g in gens:
            assert normal_form(g, gb, order) == 0


def test_normal_form():
    g = fixtures.k2()
    gens = generators_PG(g)
    order = natural_order(_vars_of(gens))
    gb = buchberger(gens, order)
    assert normal_form(gens[0], gb, order) == 0
    assert normal_form(parse_monomial("x11"), gb, order) == parse_monomial("x11")
    # the leading monomial rewrites to the trailing one
    assert normal_form(parse_monomial("x12*x21"), gb, order) \
        == parse_monomial("x11*x22")
    assert normal_form(parse_monomial("x11*x22"), gb, order) \
        == parse_monomial("x11*x22")


def test_initial_ideal():
    gens = generators_PG(fixtures.k2())
    order = natural_order(_vars_of(gens))
    init = initial_ideal(gens, order)
    assert init.generators == (parse_monomial("x12*x21"),)
    assert init.squarefree
    # minimalization drops leads divisible by another lead
    bigger = gens + [Binomial(parse_monomial("x12^2*x21"),
                              parse_monomial("x11^2*x22"))]
    assert initial_ideal(bigger, order).generators \
        == (parse_monomial("x12*x21"),)


def test_toric_gb_matches_buchberger_on_defining_ideal():
    for g in (fixtures.path(3), fixtures.five_vertex_example()):
        gens = generators_PG(g)
        order = natural_order(_vars_of(gens))
        assert toric_gb(build_AG(g), order) == buchberger(gens, order)


def test_toric_gb_independent_columns_and_incidence_example():
    cfg = incidence_config(fixtures.k2())
    assert toric_gb(cfg, TermOrder("degrevlex", cfg.variables)) == []
    cfg = incidence_config(prism(fixtures.triangle_pendant()))
    order = natural_order(cfg.variables)
    got = frozenset(toric_gb(cfg, order))
    want = frozenset(parse_binomial(s) for s in
                     ("x11*x22 - x12*x21", "x22*x33 - x23*x32",
                      "x11*x33 - x13*x31", "x11*x44 - x14*x41"))
    assert got == want


def _small_graphs(rnd):
    """A tree, a unicyclic graph and a multicycle graph, drawn from rnd."""
    n = rnd.randint(3, 5)
    yield Graph((), [(rnd.randint(1, v - 1), v) for v in range(2, n + 1)])
    k = rnd.randint(3, 4)
    ring = [(v, v + 1) for v in range(1, k)] + [(1, k)]
    yield Graph((), ring + [(rnd.randint(1, k), k + 1)])
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    yield Graph((), rnd.sample(pairs, rnd.randint(5, 6)))


def test_buchberger_independent_of_generator_order_and_repeats():
    rnd = random.Random(2024)
    kinds = set()
    for _ in range(8):
        for g in _small_graphs(rnd):
            kinds.update(classify(g).kinds)
            gens = generators_PG(g)
            cfg = build_AG(g)
            ranking = list(cfg.variables)
            rnd.shuffle(ranking)
            order = TermOrder(rnd.choice(TermOrder.kinds), ranking)
            want = buchberger(gens, order)
            # repeats, some written with their sides swapped
            noisy = gens + [Binomial(b.minus, b.plus) if rnd.random() < 0.5
                            else b for b in rnd.sample(gens, len(gens) // 2)]
            rnd.shuffle(noisy)
            assert buchberger(noisy, order) == want
            assert toric_gb(cfg, order) == want
    assert {"tree", "multicycle"} <= kinds
    assert kinds & {"unicyclic-even", "unicyclic-odd"}


def _workload_graphs(rnd):
    """Trees, even and odd unicyclic graphs, and bipartite and non-bipartite
    multicycles on 7-12 vertices, with labels scattered over 1..24 so that
    wide names like x_10,2 occur."""
    def spanning_tree(labels):
        return [(labels[rnd.randrange(k)], labels[k])
                for k in range(1, len(labels))]

    def labels():
        return rnd.sample(range(1, 25), rnd.randint(7, 12))

    yield Graph((), spanning_tree(labels()))
    for parity in (0, 1):
        ls = labels()
        k = rnd.choice([c for c in range(3, min(len(ls), 8) + 1)
                        if c % 2 == parity])
        ring = [(ls[t], ls[(t + 1) % k]) for t in range(k)]
        yield Graph((), ring + [(ls[rnd.randrange(v)], ls[v])
                                for v in range(k, len(ls))])
    for bipartite in (True, False):
        ls = labels()
        edges = spanning_tree(ls)
        side = {ls[0]: 0}
        for u, v in edges:
            side[v] = 1 - side[u]
        # a chord joins two sides exactly when it keeps the graph bipartite
        chords = [(a, b) for k, a in enumerate(ls) for b in ls[k + 1:]
                  if (a, b) not in edges and (b, a) not in edges
                  and (side[a] != side[b]) == bipartite]
        yield Graph((), edges + rnd.sample(chords, 2))


def test_buchberger_matches_toric_gb_on_workload_sized_graphs():
    # the S-pair completion of the generators against the interreduced
    # Graver basis of the kernel lattice, under shuffled chains
    rnd = random.Random(1998)
    kinds = set()
    wide = False
    for kind in TermOrder.kinds:
        for g in _workload_graphs(rnd):
            kinds.update(classify(g).kinds)
            cfg = build_AG(g)
            wide = wide or any(max(v) > 9 for v in cfg.variables)
            ranking = list(cfg.variables)
            rnd.shuffle(ranking)
            order = TermOrder(kind, ranking)
            assert buchberger(generators_PG(g), order) \
                == toric_gb(cfg, order)
    assert kinds == {"tree", "unicyclic-even", "unicyclic-odd",
                     "multicycle"}
    assert wide


def test_support_masks_only_filter():
    # x11^2 shares its support with x11*x22 but does not divide it
    square = parse_binomial("x11^2 - x12*x21")
    order = TermOrder("lex", [parse_var(s)
                              for s in ("x22", "x11", "x12", "x21")])
    assert normal_form(parse_monomial("x11*x22"), [square], order) \
        == parse_monomial("x11*x22")
    assert normal_form(parse_monomial("x11^3*x22"), [square], order) \
        == parse_monomial("x11*x12*x21*x22")
    # x11^2 comes first in the scan, and its support lies inside x11*x22's
    assert initial_ideal([square, parse_binomial("x11*x22 - x12^2")],
                         order).generators \
        == (parse_monomial("x11^2"), parse_monomial("x11*x22"))
    gb = buchberger([square, parse_binomial("x11*x22 - x12^2")], order)
    assert [str(g) for g in gb] == ["x11^2 - x12*x21", "x11*x12 - x21*x22",
                                    "x11*x22 - x12^2"]
    assert [leading(order, g) for g in gb] \
        == [parse_monomial(m) for m in ("x11^2", "x21*x22", "x11*x22")]
    # a variable in no lead of the basis passes through the rewriting
    gens = generators_PG(fixtures.k2())
    gb = buchberger(gens, natural_order(_vars_of(gens)))
    order = natural_order(_vars_of(gens) + [VarId(3, 3), "t"])
    assert normal_form(parse_monomial("x12^2*x21*x33"), gb, order) \
        == parse_monomial("x11*x12*x22*x33")
    assert normal_form(Monomial([(VarId(1, 2), 1), (VarId(2, 1), 1),
                                 ("t", 2)]), gb, order) \
        == Monomial([(VarId(1, 1), 1), (VarId(2, 2), 1), ("t", 2)])


def _saturation_graphs(rnd):
    """Cycles 3-5, 4-5 vertex unicyclic graphs, a small tree, the fixture."""
    for k in (3, 4, 5):
        yield fixtures.cycle(k)
    for n in (4, 5):
        k = rnd.randint(3, n - 1)
        ring = [(v, v + 1) for v in range(1, k)] + [(1, k)]
        yield Graph((), ring + [(rnd.randint(1, v - 1), v)
                                for v in range(k + 1, n + 1)])
    n = rnd.randint(3, 5)
    yield Graph((), [(rnd.randint(1, v - 1), v) for v in range(2, n + 1)])
    yield fixtures.triangle_pendant()


def test_toric_gb_matches_saturation_reference():
    rnd = random.Random(6174)
    for _ in range(3):
        for g in _saturation_graphs(rnd):
            cfg = build_AG(g)
            for kind in TermOrder.kinds:
                ranking = list(cfg.variables)
                rnd.shuffle(ranking)
                order = TermOrder(kind, ranking)
                assert toric_gb(cfg, order) == _saturation_toric_gb(cfg,
                                                                   order)


def test_squarefree_for_every_order_only_when_bipartite():
    # a lex ranking under which the triangle ideal gets a squared lead
    cfg = build_AG(fixtures.triangle())
    ranking = [parse_var(s) for s in
               ("x11", "x33", "x22", "x21", "x31", "x32", "x13", "x23", "x12")]
    order = TermOrder("lex", ranking)
    init = initial_ideal(toric_gb(cfg, order), order)
    assert not init.squarefree
    # the same ranking pattern on a path keeps every lead squarefree
    cfg = build_AG(fixtures.path(3))
    rnd = random.Random(13)
    for kind in ("lex", "deglex", "degrevlex"):
        ranking = list(cfg.variables)
        rnd.shuffle(ranking)
        order = TermOrder(kind, ranking)
        assert initial_ideal(toric_gb(cfg, order), order).squarefree


def test_indispensable_monomials():
    mons = indispensable_monomials(fixtures.five_vertex_example())
    assert len(mons) == 12
    assert all(m.degree == 2 and m.is_squarefree for m in mons)
    assert indispensable_monomials(fixtures.k2()) \
        == [parse_monomial("x11*x22"), parse_monomial("x12*x21")]
    from diagminors.graphs import Graph
    assert indispensable_monomials(Graph([1], [])) == []
