"""Seeded inputs for the benchmark workloads.

A workload is a fixed cycle of slots. Each slot names a slice, a verb and
the family of graph it draws; the seed only picks the instance inside the
family (sizes within the slot's bin, tree shapes, vertex labels, edge order
and term orders). Keeping the mix fixed per cycle keeps the share of each
kind of op, and so the share of ops that fail at the seed, the same from
seed to seed. README.md in this directory gives why each slot is there.

Nothing here imports diagminors: the inputs are edge-list text and argv
lists, built from the graph definitions alone.
"""

import random

# Per-op time limit in seconds. Every known hang (the ladder, the sandwich
# inputs, long odd cycles, large witnesses) needs more than twice it, and
# nearly every input the slots treat as answerable finishes in under half of
# it; README.md gives the measured exceptions.
OP_LIMIT_S = 1.5

ORDER_KINDS = ("lex", "deglex", "degrevlex")


class Case:
    """One generated graph together with the facts its generator knows.

    `family` is how it was drawn (tree, path, star, cycle, unicyclic,
    multicycle or fixture); `cycle` lists the vertices of its unique cycle
    in order when it has exactly one; `fixture` names the frozen fixture it
    relabels and `relabel` maps fixture labels to the drawn labels.
    """

    __slots__ = ("edges", "family", "cycle", "fixture", "relabel")

    def __init__(self, edges, family, cycle=(), fixture=None, relabel=None):
        self.edges = list(edges)
        self.family = family
        self.cycle = tuple(cycle)
        self.fixture = fixture
        self.relabel = relabel

    @property
    def vertices(self):
        return sorted({v for e in self.edges for v in e})

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    @property
    def kind(self):
        """Component kind the generator drew (every case is connected)."""
        if self.m == self.n - 1:
            return "tree"
        if self.m == self.n:
            return "unicyclic-even" if len(self.cycle) % 2 == 0 \
                else "unicyclic-odd"
        return "multicycle"

    def edge_text(self):
        return "".join("%d %d\n" % e for e in self.edges)


class Op:
    """One user computation: a CLI verb, or a direct toric_gb call."""

    __slots__ = ("index", "cycle", "slice", "verb", "args", "case", "order")

    def __init__(self, slice_name, verb, case, args=(), order=None):
        self.index = None
        self.cycle = None
        self.slice = slice_name
        self.verb = verb
        self.case = case
        self.args = list(args)
        self.order = order

    @property
    def label(self):
        c = self.case
        name = c.fixture or c.family
        return "%s/%s %s n=%d m=%d" % (self.slice, self.verb, name, c.n, c.m)

    def argv(self, path):
        return [self.verb, path] + self.args + ["--format", "json"]


def format_var(i, j):
    """Variable name as the CLI prints and reads it: x12, or x_10,2."""
    if 0 <= i <= 9 and 0 <= j <= 9:
        return "x%d%d" % (i, j)
    return "x_%d,%d" % (i, j)


def case_variables(case):
    """Every variable of P_G: one diagonal per vertex, two per edge."""
    out = [(v, v) for v in case.vertices]
    for u, v in case.edges:
        out += [(u, v), (v, u)]
    return out


def random_order(case, kind, rng):
    """A term order of the given kind over a random full variable chain."""
    chain = case_variables(case)
    rng.shuffle(chain)
    return kind, tuple(chain)


def order_arg(order):
    kind, chain = order
    return "%s:%s" % (kind, ",".join(format_var(i, j) for i, j in chain))


# ---------------------------------------------------------------- graphs
# Generators work on labels 1..n; relabel() then scatters the labels,
# shuffles the edge order and flips edge orientations.

def _tree_edges(n, rng, first=2):
    return [(rng.randrange(1, k), k) for k in range(first, n + 1)]


def _cycle_edges(length):
    return [(i, i + 1) for i in range(1, length)] + [(1, length)]


def relabel(edges, rng, family, cycle=(), fixture=None, shape=False):
    """Scatter the labels; with `shape`, keep the label order, the edge
    order and the orientations, so the instance computes exactly like the
    original up to renaming."""
    labels = sorted({v for e in edges for v in e})
    span = max(40, 4 * len(labels))
    drawn = rng.sample(range(1, span + 1), len(labels))
    if shape:
        drawn.sort()
    mapping = dict(zip(labels, drawn))
    if shape:
        out = [(mapping[u], mapping[v]) for u, v in edges]
    else:
        out = [(mapping[u], mapping[v]) if rng.random() < 0.5
               else (mapping[v], mapping[u]) for u, v in edges]
        rng.shuffle(out)
    return Case(out, family, [mapping[v] for v in cycle], fixture,
                mapping if fixture else None)


def tree(n, rng):
    return relabel(_tree_edges(n, rng), rng, "tree")


def path(n, rng):
    return relabel([(k, k + 1) for k in range(1, n)], rng, "path")


def star(n, rng):
    return relabel([(1, k) for k in range(2, n + 1)], rng, "star")


def cycle(length, rng):
    return relabel(_cycle_edges(length), rng, "cycle",
                   cycle=range(1, length + 1))


def unicyclic(length, n, rng):
    """A cycle of the given length with a random forest hanging off it."""
    edges = _cycle_edges(length) + _tree_edges(n, rng, first=length + 1)
    return relabel(edges, rng, "unicyclic", cycle=range(1, length + 1))


def multicycle(n, extra, rng, bipartite):
    """A random tree plus `extra` chords, bipartite or not as asked.

    Trees whose two colour classes leave too few chords are drawn again.
    """
    while True:
        edges = _tree_edges(n, rng)
        depth = {1: 0}
        for u, v in edges:
            depth[v] = depth[u] + 1
        present = {tuple(sorted(e)) for e in edges}
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if (u, v) not in present]
        cross = [p for p in pairs if (depth[p[0]] + depth[p[1]]) % 2]
        same = [p for p in pairs if not (depth[p[0]] + depth[p[1]]) % 2]
        if len(cross if bipartite else pairs) >= extra and (bipartite or same):
            break
    if bipartite:
        chords = rng.sample(cross, extra)
    else:
        first = rng.choice(same)
        pairs.remove(first)
        chords = [first] + rng.sample(pairs, extra - 1)
    return relabel(edges + chords, rng, "multicycle")


FIXTURES = {
    "k2": [(1, 2)],
    "triangle": _cycle_edges(3),
    "triangle-pendant": [(1, 2), (2, 3), (1, 3), (1, 4)],
    "five-vertex-example": [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (3, 5)],
    "theta": [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)],
    "k23": [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)],
    "bowtie": [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)],
    "decorated-six-cycle": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
                            (1, 7), (1, 8), (2, 9), (3, 10), (10, 11),
                            (10, 12)],
    "star-4": [(1, 2), (1, 3), (1, 4)],
    "star-8": [(1, k) for k in range(2, 9)],
    "path-3": [(1, 2), (2, 3)],
    "path-4": [(1, 2), (2, 3), (3, 4)],
    "path-5": [(1, 2), (2, 3), (3, 4), (4, 5)],
    "cycle-6": _cycle_edges(6),
}

_FIXTURE_CYCLES = {"triangle": (1, 2, 3), "triangle-pendant": (1, 2, 3),
                   "decorated-six-cycle": (1, 2, 3, 4, 5, 6),
                   "cycle-6": (1, 2, 3, 4, 5, 6)}


def fixture(name, rng, shape=False):
    return relabel(FIXTURES[name], rng, "fixture",
                   cycle=_FIXTURE_CYCLES.get(name, ()), fixture=name,
                   shape=shape)


# ---------------------------------------------------------------- slots
# A slot is a function (cycle number, rng) -> Op. Sizes are drawn inside
# each slot's bin. Where a slot alternates between inputs it does so by the
# cycle number, so every cycle holds the same number of ops of each
# outcome at the seed and the failed share does not depend on the seed.

STRATA = 4


class Draw(random.Random):
    """The generator of one slot in one cycle.

    Its first size() is stratified over cycles: each block of STRATA cycles
    draws it once from each of STRATA equal parts of the range, in an order
    drawn from the seed. A run then holds nearly the same mix of sizes
    whatever the seed, which keeps its medians steady; later draws are
    plain.
    """

    def __init__(self, text, stratum):
        super().__init__(text)
        self._stratum = stratum

    def size(self, lo, hi):
        if self._stratum is None:
            return self.randint(lo, hi)
        u = (self._stratum + self.random()) / STRATA
        self._stratum = None
        return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _even(rng, lo, hi):
    return 2 * rng.size((lo + 1) // 2, hi // 2)


def _odd(rng, lo, hi):
    return 2 * rng.size(lo // 2, (hi - 1) // 2) + 1


def _unicyclic(rng, lo, hi, parity, cycle_lo, cycle_hi):
    """Unicyclic graph on lo..hi vertices; cycle length bounds may be
    fractions of the vertex count."""
    n = rng.size(lo, hi)
    a = int(cycle_lo * n) if cycle_lo < 1 else cycle_lo
    b = int(cycle_hi * n) if cycle_hi < 1 else min(cycle_hi, n)
    length = (_even if parity == 0 else _odd)(rng, max(a, 3), b)
    return unicyclic(length, n, rng)


def _cli(slice_name, verb, make, args=()):
    return lambda c, rng: Op(slice_name, verb, make(c, rng), args)


def _rotate(c, items):
    return items[c % len(items)]


WITNESS = ("--kind", "witness")


def _host_slots():
    def hang(c, rng):
        # One known hang per cycle: the walk enumeration of a long odd
        # cycle, or a witness whose clique sums grow quadratically.
        if c % 2 == 0:
            return Op("ugb", "ugb", cycle(11 if c % 4 == 0 else 13, rng))
        return Op("large", "construct",
                  _unicyclic(rng, 1300, 1500, 0, 0.25, 0.5), WITNESS)

    def deep(c, rng):
        # A cycle past the recursion limit of the cycle search.
        case = cycle(rng.size(1100, 1500), rng)
        if c % 2 == 0:
            return Op("large", "analyze", case)
        return Op("large", "construct", case, WITNESS)

    def answered(r):
        """One round of the slots answered at the seed. The two rounds of a
        cycle take the two sides of each alternative, so every cycle holds
        the same ops whatever its number."""
        slots = [
            _cli("ugb", "ugb", lambda c, rng: tree(rng.size(8, 10), rng)),
            _cli("ugb", "ugb", lambda c, rng: tree(rng.size(11, 13), rng)),
            _cli("ugb", "ugb", lambda c, rng: (path, star)[r](
                rng.size(8, 13), rng)),
            _cli("ugb", "ugb", lambda c, rng: fixture(
                _rotate(2 * c + r, ("star-4", "path-5", "triangle")), rng)),
            _cli("ugb", "ugb", lambda c, rng: unicyclic(
                4, rng.size(8, 13), rng)),
            _cli("ugb", "ugb", lambda c, rng: unicyclic(
                6, rng.size(8, 13), rng)),
            _cli("ugb", "ugb", lambda c, rng: unicyclic(
                8, rng.size(9, 13), rng)),
            _cli("ugb", "ugb", lambda c, rng: cycle((5, 7)[r], rng)),
            _cli("ugb", "ugb", lambda c, rng: cycle(9, rng)),
        ]
        for lo, hi in ((30, 44), (45, 60)):
            slots += [
                _cli("verify", "verify", lambda c, rng, lo=lo, hi=hi:
                     tree(rng.size(lo, hi), rng)),
                _cli("verify", "verify", lambda c, rng, lo=lo, hi=hi:
                     _unicyclic(rng, lo, hi, 0, 4, 12)),
                _cli("verify", "verify", lambda c, rng, lo=lo, hi=hi:
                     _unicyclic(rng, lo, hi, 1, 3, 11)),
            ]
        return slots + [
            _cli("large", "analyze",
                 lambda c, rng: path(rng.size(200, 1500), rng)),
            _cli("large", "analyze",
                 lambda c, rng: cycle(rng.size(200, 700), rng)),
            _cli("large", "analyze", lambda c, rng: _unicyclic(
                rng, 200, 1500, r, 0.25, 0.5)),
            _cli("large", "construct",
                 lambda c, rng: path(rng.size(200, 1500), rng), WITNESS),
            _cli("large", "construct",
                 lambda c, rng: cycle(_odd(rng, 200, 700), rng), WITNESS),
            _cli("large", "construct", lambda c, rng: _unicyclic(
                rng, 200, 700, 1, 0.25, 0.5), WITNESS),
            _cli("large", "construct", lambda c, rng: _unicyclic(
                rng, 200, 400, 0, 0.25, 0.5), WITNESS),
        ]

    # Two rounds of the answered slots per pair of known failures keep the
    # limit's share of the run's time down and the run's op count up.
    return answered(0) + answered(1) + [hang, deep]


def _groebner_slots():
    def gb(make, kind):
        def slot(c, rng):
            case = make(c, rng)
            order = random_order(case, kind, rng)
            return Op("gb", "gb", case, ["--order", order_arg(order)], order)
        return slot

    def toric(make, kind):
        def slot(c, rng):
            case = make(c, rng)
            return Op("toric", "toric_gb", case,
                      order=random_order(case, kind, rng))
        return slot

    def reach(c, rng):
        # Saturation well past the limit at the seed, so the reach of the
        # binomials layer shows as a measured share of failed ops. The
        # time of toric_gb swings by orders of magnitude with the variable
        # chain, so this op keeps the fixture's shape and uses the natural
        # chain under lex or deglex, which takes over 10 s at the seed.
        case = fixture("decorated-six-cycle", rng, shape=True)
        order = (_rotate(c, ("lex", "deglex")),
                 tuple(sorted(case_variables(case))))
        return Op("toric", "toric_gb", case, order=order)

    def families(r):
        return (
            lambda lo, hi: lambda c, rng: tree(rng.size(lo, hi), rng),
            lambda lo, hi: lambda c, rng: _unicyclic(rng, lo, hi, 0, 4, 8),
            lambda lo, hi: lambda c, rng: _unicyclic(rng, lo, hi, 1, 3, 7),
            lambda lo, hi: lambda c, rng: multicycle(
                rng.size(lo, hi), rng.randint(2, 3), rng, r % 2 == 0),
        )

    # Op times swing with the random chain, so a run needs many small ops
    # for its medians to settle; four rounds of each slot per cycle keep
    # the one reach op a small share of the ops.
    slots = []
    for r in range(4):
        slots += [gb(family(lo, hi), kind)
                  for lo, hi in ((7, 9), (10, 12))
                  for family in families(r) for kind in ORDER_KINDS]
        for kind in ORDER_KINDS:
            slots += [
                toric(lambda c, rng: cycle(rng.size(3, 5), rng), kind),
                toric(lambda c, rng, r=r: _unicyclic(rng, 4, 5, r % 2, 3, 4),
                      kind),
            ]
    slots.append(reach)
    return slots


LADDER = (("circuits", "star-8"), ("graver", "cycle-6"), ("ugb", "bowtie"),
          ("circuits", "decorated-six-cycle"))


def _bases_slots():
    def hang(c, rng):
        # One known hang per cycle: a ladder entry, or a sandwich input
        # whose upper bound needs the Graver basis.
        if c % 2 == 0:
            verb, name = _rotate(c // 2, LADDER)
            return Op("ladder", verb, fixture(name, rng))
        if (c // 2) % 2 == 0:
            # An odd cycle with at least one tree vertex hanging off it.
            n = rng.size(5, 7)
            case = unicyclic(_odd(rng, 3, n - 1), n, rng)
        else:
            case = multicycle(rng.size(5, 6), 2, rng, False)
        return Op("sandwich", "ugb", case)

    small = (
        lambda c, rng: tree(rng.size(4, 6), rng),
        lambda c, rng: (path, star)[c % 2](rng.size(4, 6), rng),
        lambda c, rng: cycle(rng.size(3, 5), rng),
        lambda c, rng: _unicyclic(rng, 5, 6, c % 2, 3, 4),
        lambda c, rng: fixture(_rotate(c, ("five-vertex-example", "theta",
                                           "k23", "bowtie")), rng),
        lambda c, rng: star(7, rng),
        lambda c, rng: multicycle(5, 2, rng, c % 2 == 0),
        lambda c, rng: fixture(_rotate(c, ("star-4", "path-5", "triangle",
                                           "triangle-pendant")), rng),
    )
    slots = [_cli("circuits", "circuits", make) for make in small]
    slots += [
        _cli("graver", "graver", lambda c, rng: fixture(
            _rotate(c, ("k2", "path-3", "star-4", "path-4")), rng)),
        _cli("graver", "graver", lambda c, rng: fixture("triangle", rng)),
        _cli("graver", "graver", lambda c, rng: tree(rng.size(3, 5), rng)),
    ]
    matrices = (
        lambda c, rng: tree(rng.size(4, 8), rng),
        lambda c, rng: (path, star)[c % 2](rng.size(4, 8), rng),
        lambda c, rng: _unicyclic(rng, 4, 8, 0, 4, 6),
        lambda c, rng: _unicyclic(rng, 4, 8, 1, 3, 5),
        lambda c, rng: cycle(rng.size(3, 8), rng),
        lambda c, rng: multicycle(rng.size(5, 7), 2, rng, True),
        lambda c, rng: multicycle(rng.size(5, 8), 2, rng, False),
        lambda c, rng: fixture(_rotate(c, ("five-vertex-example", "theta",
                                           "k23", "bowtie")), rng),
    )
    slots += [_cli("matrix", "matrix", make, ("--tu",)) for make in matrices]
    slots += [
        _cli("ugb", "ugb", lambda c, rng: fixture(
            _rotate(c, ("five-vertex-example", "theta", "k23")), rng)
            if c % 2 == 0 else multicycle(5, 2, rng, True)),
        hang,
    ]
    return slots


SLOTS = {"host": _host_slots, "groebner": _groebner_slots,
         "bases": _bases_slots}

WORKLOADS = tuple(SLOTS)

# Whole cycles a traced run replays, untraced and then traced. The op set
# is fixed per workload, so per-layer totals compare across commits however
# fast the program is.
TRACE_CYCLES = {"host": 2, "groebner": 3, "bases": 3}


def trace_ops(workload):
    """Number of ops in a traced run of the workload."""
    return TRACE_CYCLES[workload] * len(SLOTS[workload]())


def _edge_set(case):
    return frozenset(tuple(sorted(e)) for e in case.edges)


class Pool:
    """The op stream of one run, drawn one cycle at a time from the seed.

    Cycle c, slot s is drawn from its own generator seeded by the
    workload, the seed, c and s, so a longer run extends a shorter one
    without changing it. No graph is drawn twice in a run: a repeat is
    drawn again from the same generator.
    """

    def __init__(self, workload, seed):
        if workload not in SLOTS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.seed = seed
        self.slots = SLOTS[workload]()
        self.cycles = 0
        self._seen = set()

    def next_cycle(self):
        c = self.cycles
        self.cycles += 1
        out = []
        for s, slot in enumerate(self.slots):
            order = random.Random("%s:%d:%d:block%d" % (
                self.workload, self.seed, s, c // STRATA)).sample(
                    range(STRATA), STRATA)
            rng = Draw("%s:%d:%d:%d" % (self.workload, self.seed, c, s),
                       order[c % STRATA])
            op = slot(c, rng)
            while _edge_set(op.case) in self._seen:
                op = slot(c, rng)
            self._seen.add(_edge_set(op.case))
            op.index = c * len(self.slots) + s
            op.cycle = c
            out.append(op)
        return out


def warmup_op(workload):
    """The untimed warm-up op: a single edge on label 0, which no drawn
    graph uses, run through the workload's main verb."""
    case = Case([(0, 1)], "tree")
    if workload == "groebner":
        order = ("lex", tuple(case_variables(case)))
        return Op("warmup", "gb", case, ["--order", order_arg(order)], order)
    return Op("warmup", {"host": "ugb", "bases": "circuits"}[workload], case)
