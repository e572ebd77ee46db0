"""Built-in verification battery: one numbered check per headline claim.

Each criterion function reproduces one published fact about diagonal
2-minor ideals on the built-in fixtures and returns a CriterionResult.
Wall-clock timings are collected for the test harness but never printed,
so the battery output is byte-stable across runs.
"""

import itertools
import math
import random
import time
from collections import namedtuple

from . import fixtures
from .bases import circuits, degree_stats, graver, ugb
from .binomials import (TermOrder, buchberger, indispensable_monomials,
                        initial_ideal, natural_order, parse_binomial,
                        parse_var, toric_gb, var_sort_key)
from .constructions import build_H, prism, verify_PG_equals_IH
from .encoding import (build_AG, generators_PG, heights, incidence_config,
                       verify_extreme_rays)
from .graphs import Graph, is_bipartite
from .intmat import IntVector, det, is_totally_unimodular, matrix_circuits, rank

CriterionResult = namedtuple("CriterionResult",
                             ["number", "title", "passed", "details",
                              "timings"])


def _result(number, title, issues, timings, ok_note):
    if issues:
        return CriterionResult(number, title, False, "; ".join(issues),
                               timings)
    return CriterionResult(number, title, True, ok_note, timings)


def _parse_set(strings):
    return frozenset(parse_binomial(s) for s in strings)


def _set_diff_note(label, got, want):
    return ("%s: %d computed, %d missing, %d extra"
            % (label, len(got), len(want - got), len(got - want)))


def criterion_1():
    """Five-vertex example: 17 configuration columns, 36 circuits = UGB."""
    t0 = time.monotonic()
    issues = []
    g = fixtures.five_vertex_example()
    cfg = build_AG(g)
    want_cols = [(parse_var(name), vec)
                 for name, vec in fixtures.EXAMPLE_CONFIGURATION]
    got_cols = [(v, tuple(cfg.columns[v])) for v in cfg.variables]
    if got_cols != want_cols:
        issues.append("configuration columns differ from the expected 17")
    want = _parse_set(fixtures.EXAMPLE_CIRCUITS)
    got = frozenset(circuits(cfg))
    if got != want:
        issues.append(_set_diff_note("circuits", got, want))
    rep = ugb(g)
    if rep.status != "exact":
        issues.append("universal basis status is %s" % rep.status)
    if frozenset(rep.elements) != want:
        issues.append("universal basis differs from the 36 listed binomials")
    timings = {"total": time.monotonic() - t0}
    return _result(1, "five-vertex example: configuration columns, circuits,"
                      " and universal basis", issues, timings,
                   "17 columns and 36 binomials reproduced")


def criterion_2():
    """Defining binomials are already the reduced basis, squarefree leads."""
    issues = []
    timings = {}
    for name, g in fixtures.fixture_battery().items():
        t0 = time.monotonic()
        gens = generators_PG(g)
        variables = sorted({v for b in gens for v in b.variables},
                           key=var_sort_key)
        order = natural_order(variables)
        gb = buchberger(gens, order)
        init = initial_ideal(gb, order)
        timings[name] = time.monotonic() - t0
        if frozenset(gb) != frozenset(gens):
            issues.append("%s: reduced basis differs from the defining"
                          " binomials" % name)
        if len(init.generators) != g.m:
            issues.append("%s: initial ideal has %d generators, expected %d"
                          % (name, len(init.generators), g.m))
        if not init.squarefree or any(m.degree != 2 for m in init.generators):
            issues.append("%s: initial ideal is not squarefree quadratic"
                          % name)
    return _result(2, "defining binomials form the reduced basis with"
                      " squarefree quadratic initial ideal", issues, timings,
                   "%d fixtures checked" % len(timings))


def criterion_3():
    """Total unimodularity of the configuration matrix <=> bipartite."""
    t0 = time.monotonic()
    issues = []
    battery = fixtures.fixture_battery()
    names = (["k2"] + ["path-%d" % n for n in range(2, 8)]
             + ["star-%d" % n for n in range(3, 9)]
             + ["cycle-4", "cycle-6", "triangle", "triangle-pendant",
                "decorated-six-cycle"])
    for name in names:
        g = battery[name]
        mat = build_AG(g).matrix
        tu, witness = is_totally_unimodular(mat)
        if tu != is_bipartite(g):
            issues.append("%s: unimodular is %s but bipartite is %s"
                          % (name, tu, is_bipartite(g)))
        if not tu:
            if witness is None:
                issues.append("%s: no witness minor reported" % name)
            elif (witness.det in (-1, 0, 1)
                  or det(mat.submatrix(witness.rows, witness.cols))
                  != witness.det):
                issues.append("%s: witness minor does not certify" % name)
    timings = {"total": time.monotonic() - t0}
    return _result(3, "total unimodularity of the configuration matrix"
                      " matches bipartiteness", issues, timings,
                   "%d fixtures checked" % len(names))


def criterion_4():
    """Stars n=3..8: n(n-1)/2 universal basis elements of degree at most 3."""
    t0 = time.monotonic()
    issues = []
    for n in range(3, 9):
        # a star is bipartite, so its basis is one element per path: a
        # quadric per edge and a cubic per pair of leaves
        want = (n - 1) + math.comb(n - 1, 2)
        rep = ugb(fixtures.star(n))
        if rep.count != want:
            issues.append("star-%d: %d elements, expected %d"
                          % (n, rep.count, want))
        if rep.max_degree != 3:
            issues.append("star-%d: max degree %d, expected 3"
                          % (n, rep.max_degree))
        if n == 4 and frozenset(rep.elements) != _parse_set(
                fixtures.STAR4_UGB):
            issues.append("star-4: universal basis differs from the listed"
                          " six binomials")
    timings = {"total": time.monotonic() - t0}
    return _result(4, "star universal bases: n(n-1)/2 elements, max degree 3,"
                      " star-4 list", issues, timings,
                   "stars n=3..8 reproduced")


def criterion_5():
    """Paths n=2..7: n(n-1)/2 elements, max degree n, bound attained."""
    t0 = time.monotonic()
    issues = []
    for n in range(2, 8):
        g = fixtures.path(n)
        rep = ugb(g)
        if rep.count != n * (n - 1) // 2:
            issues.append("path-%d: %d elements, expected %d"
                          % (n, rep.count, n * (n - 1) // 2))
        if rep.max_degree != n:
            issues.append("path-%d: max degree %d, expected %d"
                          % (n, rep.max_degree, n))
        stats = degree_stats(rep, g)
        if stats.get("bipartite_bound") != n or not stats.get(
                "bound_respected"):
            issues.append("path-%d: degree bound %s is not attained"
                          % (n, stats.get("bipartite_bound")))
        if n == 5 and frozenset(rep.elements) != _parse_set(
                fixtures.PATH5_UGB):
            issues.append("path-5: universal basis differs from the listed"
                          " ten binomials")
    timings = {"total": time.monotonic() - t0}
    return _result(5, "path universal bases: n(n-1)/2 elements, max degree n,"
                      " path-5 list", issues, timings,
                   "paths n=2..7 reproduced, degree bound attained")


def criterion_6():
    """Graver basis of the prism incidence configuration: the 16 elements."""
    t0 = time.monotonic()
    issues = []
    cfg = incidence_config(prism(fixtures.triangle_pendant()))
    got = frozenset(graver(cfg))
    want = _parse_set(fixtures.PRISM_GRAVER)
    if got != want:
        issues.append(_set_diff_note("graver basis", got, want))
    witness = parse_binomial(fixtures.PRISM_GRAVER_WITNESS)
    if witness not in got:
        issues.append("the degree-5 element is not primitive")
    if witness in frozenset(circuits(cfg)):
        issues.append("the degree-5 element is a circuit")
    timings = {"total": time.monotonic() - t0}
    return _result(6, "Graver basis of the prism incidence configuration"
                      " (16 elements, degree-5 primitive non-circuit)",
                   issues, timings, "16 elements reproduced")


def _labeled_trees(n):
    """All labeled trees on vertices 1..n via sequence decoding."""
    if n == 1:
        yield Graph([1], [])
        return
    if n == 2:
        yield Graph((), [(1, 2)])
        return
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        degree = [1] * (n + 1)
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = [x for x in range(1, n + 1) if degree[x] == 1]
        edges.append((u, w))
        yield Graph((), edges)


def criterion_7():
    """Host construction verifies: equal for trees/unicyclic, not prisms."""
    issues = []
    timings = {}
    t0 = time.monotonic()
    checked = 0
    for n in range(1, 8):
        for g in _labeled_trees(n):
            if not verify_PG_equals_IH(g, build_H(g)).equal:
                issues.append("a labeled tree on %d vertices fails" % n)
                break
            checked += 1
    timings["trees"] = time.monotonic() - t0
    t0 = time.monotonic()
    for name, g in (("triangle-pendant", fixtures.triangle_pendant()),
                    ("pendant-cycle", fixtures.pendant_cycle())):
        if not verify_PG_equals_IH(g, build_H(g)).equal:
            issues.append("%s: expected ideal equality" % name)
    for k in (4, 6):
        g = fixtures.cycle(k)
        h = prism(g)
        rep = verify_PG_equals_IH(g, h)
        hts = heights(g, h)
        if rep.equal or not rep.containment_ok:
            issues.append("cycle-%d prism: expected strict containment" % k)
        if (hts.ht_PG, hts.ht_IH) != (k, k + 1):
            issues.append("cycle-%d prism: heights %d vs %d, expected"
                          " %d vs %d" % (k, hts.ht_PG, hts.ht_IH, k, k + 1))
    timings["others"] = time.monotonic() - t0
    return _result(7, "host graphs verify: equality for all trees up to 7"
                      " vertices and unicyclic fixtures, strict containment"
                      " for even-cycle prisms", issues, timings,
                   "%d trees plus 4 fixtures verified" % checked)


def criterion_8():
    """Extreme-ray certificates: all 2m+n columns verified per fixture."""
    t0 = time.monotonic()
    issues = []
    for name, g in fixtures.fixture_battery().items():
        rep = verify_extreme_rays(g)
        if not rep.all_ok or rep.count != 2 * g.m + g.n:
            issues.append("%s: %d of %d rays verified"
                          % (name, rep.count, 2 * g.m + g.n))
    timings = {"total": time.monotonic() - t0}
    return _result(8, "extreme-ray certificates (2m+n rays per fixture)",
                   issues, timings, "all fixtures certified")


def criterion_9():
    """Indispensable monomials: 2m pairwise non-dividing per fixture."""
    t0 = time.monotonic()
    issues = []
    for name, g in fixtures.fixture_battery().items():
        mons = indispensable_monomials(g)
        if len(mons) != 2 * g.m:
            issues.append("%s: %d monomials, expected %d"
                          % (name, len(mons), 2 * g.m))
        if any(a is not b and a.divides(b) for a in mons for b in mons):
            issues.append("%s: a monomial divides another" % name)
    timings = {"total": time.monotonic() - t0}
    return _result(9, "indispensable monomials (2m pairwise non-dividing per"
                      " fixture)", issues, timings, "all fixtures checked")


def _cramer_kernel(sub):
    """Kernel vector of a corank-one matrix via alternating signed minors."""
    size = sub.cols
    for r in itertools.combinations(range(sub.rows), size - 1):
        if rank(sub.submatrix(r, tuple(range(size)))) != size - 1:
            continue
        vec = []
        for k in range(size):
            without = tuple(j for j in range(size) if j != k)
            d = det(sub.submatrix(r, without))
            vec.append(d if k % 2 == 0 else -d)
        return vec
    raise ValueError("matrix does not have corank one")


def _circuits_subset_oracle(mat):
    """Circuits the slow way: scan every column subset, no pruning.

    A subset supports a circuit when its rank is one less than its size
    while every proper subset is independent; the vector itself comes from
    Cramer minors. Serves as an independent cross-check of matrix_circuits.
    """
    found = {}
    all_rows = tuple(range(mat.rows))
    for size in range(1, mat.cols + 1):
        for cols in itertools.combinations(range(mat.cols), size):
            if rank(mat.submatrix(all_rows, cols)) != size - 1:
                continue
            if any(rank(mat.submatrix(all_rows, cols[:k] + cols[k + 1:]))
                   != size - 1 for k in range(size)):
                continue
            vec = _cramer_kernel(mat.submatrix(all_rows, cols))
            full = [0] * mat.cols
            for k, j in enumerate(cols):
                full[j] = vec[k]
            v = IntVector(full).primitive_normalized()
            found[v.entries] = v
    return sorted(found.values(), key=lambda v: (len(v.support), v.support))


def criterion_10():
    """Cross-cutting properties: basis inclusions and oracle agreement."""
    issues = []
    timings = {}
    battery = fixtures.fixture_battery()

    small = ["k2", "path-3", "star-3", "triangle", "path-4", "star-4",
             "triangle-pendant", "cycle-4", "path-5", "star-5"]
    t0 = time.monotonic()
    for name in small:
        cfg = build_AG(battery[name])
        cs = frozenset(circuits(cfg))
        gr = frozenset(graver(cfg))
        if not cs <= gr:
            issues.append("(a) %s: circuits are not inside the Graver basis"
                          % name)
        if is_bipartite(battery[name]) and cs != gr:
            issues.append("(b) %s: circuits differ from the Graver basis"
                          % name)
    timings["a-b"] = time.monotonic() - t0

    t0 = time.monotonic()
    walk_names = (["path-%d" % n for n in range(2, 7)]
                  + ["star-%d" % n for n in range(3, 7)]
                  + ["cycle-4", "cycle-6", "pendant-cycle"])
    for name in walk_names:
        g = battery[name]
        rep = ugb(g)
        cs = frozenset(circuits(build_AG(g)))
        if rep.status != "exact" or frozenset(rep.elements) != cs:
            issues.append("(c) %s: walk basis differs from the circuit basis"
                          % name)
    timings["c"] = time.monotonic() - t0

    t0 = time.monotonic()
    mats = [("configuration of %s" % name, build_AG(battery[name]).matrix)
            for name in ["k2", "path-2", "path-3", "star-3", "triangle",
                         "path-4", "star-4", "cycle-4", "triangle-pendant"]]
    mats.append(("prism incidence",
                 incidence_config(prism(battery["triangle-pendant"])).matrix))
    mats.append(("cycle-4 incidence",
                 incidence_config(battery["cycle-4"]).matrix))
    mats.append(("path-5 incidence",
                 incidence_config(battery["path-5"]).matrix))
    for label, mat in mats:
        engine = [v.entries for v in matrix_circuits(mat)]
        oracle = [v.entries for v in _circuits_subset_oracle(mat)]
        if engine != oracle:
            issues.append("(d) %s: circuit engine disagrees with the subset"
                          " oracle" % label)
    timings["d"] = time.monotonic() - t0

    t0 = time.monotonic()
    cfg = build_AG(battery["cycle-4"])
    variables = list(cfg.variables)
    rnd = random.Random(271828)
    for trial in range(25):
        ranking = variables[:]
        rnd.shuffle(ranking)
        order = TermOrder(rnd.choice(("lex", "deglex", "degrevlex")), ranking)
        gb = toric_gb(cfg, order)
        init = initial_ideal(gb, order)
        if not init.squarefree:
            issues.append("(e) trial %d: initial ideal is not squarefree"
                          % trial)
    timings["e"] = time.monotonic() - t0
    return _result(10, "cross-cutting properties: circuit/Graver inclusions,"
                       " walk-circuit agreement, subset oracle, random"
                       " squarefree initial ideals", issues, timings,
                   "all five property suites passed")


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all():
    """Run every criterion in order and return the result list."""
    return [fn() for fn in CRITERIA]


def format_line(result):
    """One pass/fail line per criterion; details appended on failure."""
    line = ("%s criterion %d: %s"
            % ("PASS" if result.passed else "FAIL", result.number,
               result.title))
    if not result.passed:
        line += " [%s]" % result.details
    return line
