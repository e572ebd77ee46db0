"""Property tests on random small graphs: two routes, one answer.

The package's Graver basis (by completion) and the reference circuits (by
the hyperplane scan in tests/references.py) share only the kernel lattice
basis, so agreement between them checks both. The package's own circuits
are a filter of its Graver basis, so they are held to the reference too.
`graph_basis` reads the circuits of any graph off its cycles, paths and
odd-cycle handcuffs, with no linear algebra, and is held to all three.
Total unimodularity by the bipartite theorem is held to the minor search.
"""

from hypothesis import example, given, settings, strategies as st

from diagminors.bases import circuits, graph_basis, graver, ugb
from diagminors.binomials import binomial_from_vector
from diagminors.encoding import build_AG
from diagminors.graphs import Graph, components, is_bipartite
from diagminors.intmat import is_totally_unimodular
from diagminors import fixtures
from references import _hyperplane_circuits

LABELS = range(1, 7)


@st.composite
def bipartite_graphs(draw):
    """Up to 6 edges between the parts {1..k} and {k+1..6}."""
    k = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(1, k + 1) for j in range(k + 1, 7)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6,
                          unique=True))
    return Graph((), edges)


@st.composite
def odd_cycle_graphs(draw):
    """A triangle or pentagon on shuffled labels plus extra edges, at most 6."""
    labels = draw(st.permutations(LABELS))
    k = draw(st.sampled_from((3, 5)))
    edges = [tuple(sorted((labels[t], labels[(t + 1) % k])))
             for t in range(k)]
    others = [(i, j) for i in LABELS for j in LABELS
              if i < j and (i, j) not in edges]
    edges += draw(st.lists(st.sampled_from(others), max_size=6 - k,
                           unique=True))
    return Graph((), edges)


@st.composite
def small_graphs(draw):
    """Up to 6 vertices and any edges among them."""
    pairs = [(i, j) for i in LABELS for j in LABELS if i < j]
    return Graph((), draw(st.lists(st.sampled_from(pairs), min_size=1,
                                   unique=True)))


def _reference_circuits(cfg):
    return [binomial_from_vector(v.entries, cfg.variables)
            for v in _hyperplane_circuits(cfg.matrix)]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(bipartite_graphs())
def test_graver_equals_circuits_on_bipartite_graphs(g):
    # graph_basis reads both off the cycles of g's cone, with no completion
    cfg = build_AG(g)
    assert (graph_basis(g, "circuits") == graph_basis(g, "graver")
            == graver(cfg) == circuits(cfg) == _reference_circuits(cfg))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(odd_cycle_graphs())
def test_circuits_inside_graver_on_non_bipartite_graphs(g):
    cfg = build_AG(g)
    want = _reference_circuits(cfg)
    assert circuits(cfg) == graph_basis(g, "circuits") == want
    full = graver(cfg)
    assert graph_basis(g, "graver") == full
    assert set(want) <= set(full)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(odd_cycle_graphs())
@example(Graph((), [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)]))
@example(Graph((), [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)]))
@example(Graph((), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]))
@example(fixtures.triangle_pendant())
def test_graph_circuits_match_hyperplane_reference(g):
    # the bowtie is a tight pair of triangles, the second example a loose
    # pair, the third two components; the subset scan shares no circuit
    # route with the package
    got = graph_basis(g, "circuits")
    want = _reference_circuits(build_AG(g))
    assert len(got) == len(want)
    assert set(got) == set(want)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(bipartite_graphs())
@example(fixtures.k23())
def test_ugb_equals_circuits_on_bipartite_graphs(g):
    # each component is listed in Graver order, so on a connected graph
    # the list is the circuits' list
    rep = ugb(g)
    want = _reference_circuits(build_AG(g))
    assert rep.status == "exact"
    assert rep.count == len(want)
    assert set(rep.elements) == set(want)
    if len(components(g)) == 1:
        assert list(rep.elements) == want


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_graphs())
@example(Graph((), [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]))
@example(fixtures.cycle(5))
def test_tu_search_agrees_with_bipartite_theorem(g):
    # the theorem `matrix --tu` answers bipartite graphs by, checked by the
    # general minor search it no longer runs there
    tu, witness = is_totally_unimodular(build_AG(g).matrix)
    assert tu == is_bipartite(g)
    assert (witness is None) == tu
