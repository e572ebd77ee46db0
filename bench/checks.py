"""Answer checks that share no code with the program under test.

Every check rests on a fact about the ideal P_G, not on a snapshot of an
earlier output, so a later change that turns a sandwich into an exact
answer is not scored as wrong:

- every output binomial lies in ker A_G (a sparse matrix-vector product
  over this file's own encoding of A_G);
- circuits are the support-minimal kernel vectors (rank of the support
  columns is one less than the support size), and for bipartite G the
  circuits equal the Graver basis, so every Graver element is a circuit;
- the universal Groebner basis of a tree on n vertices has n(n-1)/2
  elements of maximal degree diameter+1 (paths: n), from the even cycles
  of its prism; circuits and Graver agree with it because G is bipartite;
- the frozen fixture lists, relabelled, whenever a fixture is drawn;
- a sandwich report has count = lower count <= upper count, and the
  triangle-pendant's upper bound is its 16-element Graver basis;
- `verify` passes with ht(P_G) = ht(I_H) = m on trees and unicyclic graphs;
- a `gb` or `toric_gb` answer is the reduced Groebner basis of P_G under an
  order evaluated here: every element lies in ker A_G, each lead beats its
  tail, no lead divides another lead or a tail, every S-binomial reduces to
  zero (Buchberger's criterion) and every generator f_ij reduces to zero.
  This is exact, for both verbs, because P_G = <f_ij> for every G (below):
  the answer's ideal lies between <f_ij> and P_G, so it is P_G, and the
  reduced basis of an ideal under an order is unique;
- initial ideals are squarefree for bipartite G (A_G is unimodular);
- `analyze` kinds and cycles match what the generator drew;
- a witness host H names a 4-cycle z_ii z_ji z_jj z_ij per edge and has
  |E(H)| - |V(H)| + (bipartite components of H) = m;
- `matrix` prints A_G, of rank n + m, totally unimodular exactly when G is
  bipartite, with a witness minor of determinant at least 2 otherwise.

Why P_G = <f_ij>. An integer kernel vector of A_G has equal entries t_e on
x_ij and x_ji for each edge e = {i, j}, and -(sum of t_e over the edges at
v) on x_vv, so ker A_G is spanned over Z by the exponent vectors of the
f_ij, and P_G is the saturation of <f_ij> by the product of the variables.
That saturation changes nothing: for a diagonal variable, a degrevlex order
with the diagonals last makes every lead x_ij*x_ji; for x_ij, one with x_ij
last and the diagonals just above it makes the lead of f_ij x_ii*x_jj and
every other lead x_ab*x_ba. Either way the leads are pairwise coprime, so
the f_ij are a Groebner basis with no lead divisible by the last variable,
which is then a non-zero-divisor modulo <f_ij>.

Each check returns a list of failure reasons; an empty list is a pass.
"""

from fractions import Fraction
from math import gcd


# ------------------------------------------------------------ parsing

def parse_var(text):
    body = text[1:]
    if body.startswith("_"):
        body = body[1:]
    if "," in body:
        a, _, b = body.partition(",")
        return int(a), int(b)
    return int(body[0]), int(body[1])


def parse_monomial(text):
    out = {}
    if text.strip() == "1":
        return out
    for factor in text.strip().split("*"):
        name, _, exp = factor.partition("^")
        var = parse_var(name)
        out[var] = out.get(var, 0) + (int(exp) if exp else 1)
    return out


def parse_binomial(text):
    left, _, right = text.partition(" - ")
    return parse_monomial(left), parse_monomial(right)


def from_json(entry):
    return ({parse_var(k): e for k, e in entry["plus"].items()},
            {parse_var(k): e for k, e in entry["minus"].items()})


def key(b):
    """Sign-free identity of a binomial."""
    return frozenset((frozenset(b[0].items()), frozenset(b[1].items())))


# ------------------------------------------------------------ graph facts

class Facts:
    """What this file knows about a drawn graph, computed from its edges."""

    def __init__(self, case):
        self.vertices = case.vertices
        self.edges = [tuple(sorted(e)) for e in case.edges]
        self.edge_index = {e: t for t, e in enumerate(self.edges)}
        self.n = len(self.vertices)
        self.m = len(self.edges)
        self.adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.bipartite = bipartite_components(self.vertices, self.edges) == 1

    def column(self, var):
        """Column of A_G for a variable, as {coordinate: entry}."""
        i, j = var
        if i == j:
            if i not in self.adj:
                raise KeyError(var)
            return {("v", i): 1}
        e = (min(i, j), max(i, j))
        if e not in self.edge_index:
            raise KeyError(var)
        if i < j:
            return {("v", i): 1, ("v", j): 1, ("e", e): -1}
        return {("e", e): 1}

    def generators(self):
        return [({(i, i): 1, (j, j): 1}, {(i, j): 1, (j, i): 1})
                for i, j in self.edges]

    def diameter(self):
        best = 0
        for root in self.vertices:
            dist = {root: 0}
            frontier = [root]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in self.adj[v]:
                        if w not in dist:
                            dist[w] = dist[v] + 1
                            nxt.append(w)
                frontier = nxt
            best = max(best, max(dist.values()))
        return best


def bipartite_components(vertices, edges):
    """Number of connected components that are bipartite.

    A connected graph is bipartite exactly when this is 1.
    """
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = {}
    count = 0
    for root in vertices:
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        ok = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    ok = False
        count += ok
    return count


# ------------------------------------------------------------ linear algebra

def rank(columns):
    """Rank of sparse integer columns, by exact elimination over Q."""
    rows = sorted({k for col in columns for k in col}, key=str)
    mat = [[Fraction(col.get(r, 0)) for col in columns] for r in rows]
    return _eliminate(mat)[0]


def det(square):
    return _eliminate([[Fraction(x) for x in row] for row in square])[1]


def _eliminate(mat):
    mat = [row[:] for row in mat]
    r = 0
    sign = 1
    prod = Fraction(1)
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if pivot is None:
            prod = Fraction(0)
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            sign = -sign
        prod *= mat[r][c]
        for k in range(r + 1, len(mat)):
            if mat[k][c]:
                f = mat[k][c] / mat[r][c]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
        r += 1
    return r, sign * prod


def in_kernel(facts, b):
    acc = {}
    for side, sign in ((b[0], 1), (b[1], -1)):
        for var, e in side.items():
            for coord, entry in facts.column(var).items():
                acc[coord] = acc.get(coord, 0) + sign * e * entry
    return not any(acc.values())


def is_circuit(facts, b):
    support = list(b[0]) + list(b[1])
    return rank([facts.column(v) for v in support]) == len(support) - 1


def is_primitive(b):
    if set(b[0]) & set(b[1]):
        return False
    g = 0
    for e in list(b[0].values()) + list(b[1].values()):
        g = gcd(g, e)
    return g == 1


def degree(mono):
    return sum(mono.values())


def divides(a, b):
    return all(b.get(v, 0) >= e for v, e in a.items())


# ------------------------------------------------------------ term orders

def compare(order, a, b):
    """Sign of a - b under (kind, chain), the chain listed highest first.

    degrevlex breaks degree ties at the lowest-ranked variable where the
    exponents differ: the monomial with less of it is the larger.
    """
    kind, chain = order
    if kind != "lex":
        da, db = degree(a), degree(b)
        if da != db:
            return 1 if da > db else -1
    if kind == "degrevlex":
        for var in reversed(chain):
            ea, eb = a.get(var, 0), b.get(var, 0)
            if ea != eb:
                return 1 if ea < eb else -1
        return 0
    for var in chain:
        ea, eb = a.get(var, 0), b.get(var, 0)
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


def _reduce(mono, rules, limit=100000):
    for _ in range(limit):
        for lead, tail in rules:
            if divides(lead, mono):
                mono = dict(mono)
                for v, e in lead.items():
                    mono[v] -= e
                for v, e in tail.items():
                    mono[v] = mono.get(v, 0) + e
                mono = {v: e for v, e in mono.items() if e}
                break
        else:
            return mono
    return None


def _lcm(a, b):
    out = dict(a)
    for v, e in b.items():
        out[v] = max(out.get(v, 0), e)
    return out


def _times(mono, num, den):
    """mono * num / den, for den dividing mono * num."""
    out = dict(mono)
    for v, e in num.items():
        out[v] = out.get(v, 0) + e
    for v, e in den.items():
        out[v] -= e
    return {v: e for v, e in out.items() if e}


def is_groebner(rules):
    """Buchberger's criterion on (lead, tail) rules: the S-binomial of every
    pair of rules whose leads share a variable reduces to zero."""
    for k, (a, b) in enumerate(rules):
        for c, d in rules[:k]:
            if not set(a) & set(c):
                continue
            big = _lcm(a, c)
            p = _reduce(_times(b, big, a), rules)
            if p is None or p != _reduce(_times(d, big, c), rules):
                return False
    return True


def check_reduced_basis(facts, order, oriented):
    """Reasons `oriented` [(lead, tail)] is not the reduced Groebner basis
    of P_G."""
    bad = []
    for lead, tail in oriented:
        if not in_kernel(facts, (lead, tail)):
            bad.append("element outside ker A_G")
        if compare(order, lead, tail) <= 0:
            bad.append("lead is not the larger term under the order")
    if bad:
        return bad[:3]
    leads = [lt[0] for lt in oriented]
    for k, (lead, tail) in enumerate(oriented):
        for k2, other in enumerate(leads):
            if k2 != k and divides(other, lead):
                return ["one lead divides another"]
            if divides(other, tail):
                return ["a lead divides a tail"]
    if not is_groebner(oriented):
        return ["an S-binomial does not reduce to zero"]
    for plus, minus in facts.generators():
        a, b = _reduce(plus, oriented), _reduce(minus, oriented)
        if a is None or b is None or a != b:
            return ["a generator f_ij does not reduce to zero"]
    return []


# ------------------------------------------------------------ per verb

def _fixture_list(name, verb, status):
    from diagminors import fixtures
    table = {("five-vertex-example", "circuits"): "EXAMPLE_CIRCUITS",
             ("five-vertex-example", "ugb"): "EXAMPLE_CIRCUITS",
             ("triangle-pendant", "graver"): "PRISM_GRAVER",
             ("triangle", "ugb"): "TRIANGLE_UGB"}
    for fx, attr in (("star-4", "STAR4_UGB"), ("path-5", "PATH5_UGB")):
        for v in ("circuits", "graver", "ugb"):
            table[(fx, v)] = attr
    attr = table.get((name, verb))
    if attr is None or (verb == "ugb" and status != "exact"):
        return None
    return getattr(fixtures, attr)


def _relabelled(texts, mapping):
    out = set()
    for text in texts:
        plus, minus = parse_binomial(text)
        out.add(key(({(mapping[i], mapping[j]): e
                      for (i, j), e in plus.items()},
                     {(mapping[i], mapping[j]): e
                      for (i, j), e in minus.items()})))
    return out


def _basis_elements(facts, elements, need_circuits):
    bad = []
    try:
        if not all(in_kernel(facts, b) for b in elements):
            bad.append("element outside ker A_G")
        if not all(is_primitive(b) for b in elements):
            bad.append("element not primitive")
        if need_circuits and not all(is_circuit(facts, b) for b in elements):
            bad.append("element is not a circuit")
    except KeyError as exc:
        return ["variable %s is not a variable of G" % (exc.args[0],)]
    keys = {key(b) for b in elements}
    if len(keys) != len(elements):
        bad.append("repeated element")
    if not all(key(f) in keys for f in facts.generators()):
        bad.append("a generator f_ij is missing")
    return bad


def check_basis(op, payload, facts):
    verb = op.verb
    elements = [from_json(e) for e in payload["elements"]]
    status = payload.get("status", "exact")
    bad = []
    if payload["count"] != len(elements):
        bad.append("count does not match the listed elements")
    sandwich = verb == "ugb" and status == "sandwich"
    need_circuits = (verb == "circuits"
                     or (facts.bipartite and verb in ("graver", "ugb")))
    bad += _basis_elements(facts, elements, need_circuits)
    if verb == "ugb":
        if status not in ("exact", "sandwich"):
            bad.append("unknown status %r" % status)
        top = max((max(degree(p), degree(q)) for p, q in elements),
                  default=0)
        if payload["max_degree"] != top:
            bad.append("max degree does not match the elements")
        if sandwich and not (payload["lower_count"] == len(elements)
                             <= payload["upper_count"]):
            bad.append("sandwich bounds out of order")
        if (sandwich and op.case.fixture == "triangle-pendant"
                and payload["upper_count"] != 16):
            bad.append("upper bound is not the 16-element Graver basis")
    if op.case.kind == "tree":
        n = facts.n
        if len(elements) != n * (n - 1) // 2:
            bad.append("tree basis has %d elements, not n(n-1)/2 = %d"
                       % (len(elements), n * (n - 1) // 2))
        top = max((max(degree(p), degree(q)) for p, q in elements),
                  default=0)
        if top != facts.diameter() + 1:
            bad.append("tree basis has max degree %d, not diameter+1 = %d"
                       % (top, facts.diameter() + 1))
    frozen = (_fixture_list(op.case.fixture, verb, status)
              if op.case.fixture else None)
    if frozen is not None:
        if {key(b) for b in elements} != _relabelled(frozen,
                                                     op.case.relabel):
            bad.append("differs from the frozen fixture list")
    return bad


def check_gb(op, payload, facts):
    order = op.order
    oriented = [from_json(e) for e in payload["basis"]]
    bad = []
    if payload["count"] != len(oriented):
        bad.append("count does not match the basis")
    if payload["order"]["kind"] != order[0] or [
            parse_var(v) for v in payload["order"]["chain"]] != list(order[1]):
        bad.append("order echoed differently from the one asked for")
    try:
        bad += check_reduced_basis(facts, order, oriented)
    except KeyError as exc:
        return bad + ["variable %s is not a variable of G" % (exc.args[0],)]
    squarefree = all(all(e == 1 for e in lead.values())
                     for lead, _ in oriented)
    if payload["initial_squarefree"] != squarefree:
        bad.append("squarefree flag disagrees with the leads")
    if facts.bipartite and not squarefree:
        bad.append("non-squarefree initial ideal for bipartite G")
    return bad


def check_toric(op, texts, facts):
    order = op.order
    oriented = []
    for text in texts:
        a, b = parse_binomial(text)
        oriented.append((a, b) if compare(order, a, b) > 0 else (b, a))
    try:
        bad = check_reduced_basis(facts, order, oriented)
    except KeyError as exc:
        return ["variable %s is not a variable of G" % (exc.args[0],)]
    if facts.bipartite and not all(all(e == 1 for e in lead.values())
                                   for lead, _ in oriented):
        bad.append("non-squarefree initial ideal for bipartite G")
    return bad


def check_analyze(op, payload, facts):
    case = op.case
    bad = []
    if payload["vertices"] != facts.n or payload["edges"] != facts.m:
        bad.append("vertex or edge count differs from the input")
    comps = payload["components"]
    if len(comps) != 1:
        return bad + ["%d components for a connected input" % len(comps)]
    comp = comps[0]
    if comp["kind"] != case.kind:
        bad.append("kind %s, drawn %s" % (comp["kind"], case.kind))
    if case.cycle:
        got = comp["cycle"] or []
        if len(got) != len(case.cycle) or set(got) != set(case.cycle):
            bad.append("reported cycle is not the drawn cycle")
    elif comp["cycle"] is not None:
        bad.append("cycle reported for a tree")
    if comp["bipartite"] != facts.bipartite:
        bad.append("bipartite flag is wrong")
    if payload["host_exists"] != (case.kind != "multicycle"):
        bad.append("host existence is wrong")
    return bad


def check_witness(op, payload, facts):
    named = {}
    edges = []
    for e in payload["edges"]:
        edge = (e["u"], e["v"])
        edges.append(edge)
        if e["name"] is not None:
            named[tuple(e["name"])] = edge
    bad = []
    for i, j in facts.edges:
        try:
            quad = [named[(i, i)], named[(j, i)], named[(j, j)],
                    named[(i, j)]]
        except KeyError:
            return ["host lacks a named edge for edge %s" % ((i, j),)]
        meets = [set(quad[a]) & set(quad[(a + 1) % 4]) for a in range(4)]
        if (any(len(x) != 1 for x in meets)
                or len(set().union(*map(set, quad))) != 4):
            bad.append("named edges of %s do not form a 4-cycle" % ((i, j),))
            break
    vertices = sorted(set(payload["vertices"]))
    b = bipartite_components(vertices, edges)
    if len(edges) - len(vertices) + b != facts.m:
        bad.append("ht(I_H) = %d differs from ht(P_G) = %d"
                   % (len(edges) - len(vertices) + b, facts.m))
    return bad


def check_verify(op, payload, facts):
    bad = []
    if payload["pass"] is not True:
        bad.append("verdict is fail")
    hts = payload["heights"]
    if hts["ht_PG"] != facts.m or hts["ht_IH"] != facts.m:
        bad.append("heights %d, %d differ from m = %d"
                   % (hts["ht_PG"], hts["ht_IH"], facts.m))
    return bad


def check_matrix(op, payload, facts):
    coords = ([("v", v) for v in facts.vertices]
              + [("e", e) for e in facts.edges])
    try:
        cols = [facts.column(parse_var(c)) for c in payload["columns"]]
    except KeyError as exc:
        return ["column %s is not a variable of G" % (exc.args[0],)]
    want = [[col.get(r, 0) for col in cols] for r in coords]
    bad = []
    if len(cols) != 2 * facts.m + facts.n:
        bad.append("A_G has %d columns, not 2m+n" % len(cols))
    if payload["rows"] != want:
        bad.append("matrix differs from A_G")
    if payload["rank"] != facts.n + facts.m:
        bad.append("rank %d differs from n+m" % payload["rank"])
    if payload["totally_unimodular"] != facts.bipartite:
        bad.append("unimodularity verdict disagrees with bipartiteness")
    wit = payload["witness"]
    if not payload["totally_unimodular"]:
        if wit is None:
            bad.append("no witness minor")
        else:
            sub = [[payload["rows"][r][c] for c in wit["cols"]]
                   for r in wit["rows"]]
            d = det(sub)
            if d != wit["det"] or abs(d) < 2:
                bad.append("witness minor does not certify")
    return bad


def check(op, outcome):
    """Failure reasons for an op's outcome: its parsed JSON payload, or the
    printed basis of a toric_gb call."""
    facts = Facts(op.case)
    if op.verb == "toric_gb":
        return check_toric(op, outcome, facts)
    if op.verb in ("circuits", "graver", "ugb"):
        return check_basis(op, outcome, facts)
    return {"gb": check_gb, "analyze": check_analyze,
            "construct": check_witness, "verify": check_verify,
            "matrix": check_matrix}[op.verb](op, outcome, facts)
