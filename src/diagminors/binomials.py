"""Monomials, binomials with unit coefficients, term orders and Groebner bases.

The variable set is {x_ii} for vertices and {x_ij, x_ji} for edges {i, j};
a variable is a VarId pair (i, j). Auxiliary variables (synthetic incidence
columns) are plain strings, which sort after all VarIds.

Every polynomial in sight is a pure difference of two coprime monomials, so
Groebner computations reduce to monomial rewriting and stay coefficient-free.
"""

import heapq
from collections import namedtuple
from typing import NamedTuple

from .intmat import matrix_graver


class VarId(NamedTuple):
    i: int
    j: int

    @property
    def kind(self):
        return "diag" if self.i == self.j else "off"

    def __str__(self):
        return format_var(self)


def var_sort_key(v):
    """Total order on variables: VarIds by (i, j), then strings by name."""
    if isinstance(v, VarId):
        return (0, v.i, v.j)
    return (1, str(v))


def format_var(v):
    """x11 while both indices are single digits, x_10,2 beyond."""
    if not isinstance(v, VarId):
        return str(v)
    if 0 <= v.i <= 9 and 0 <= v.j <= 9:
        return "x%d%d" % (v.i, v.j)
    return "x_%d,%d" % (v.i, v.j)


def parse_var(text):
    """Inverse of format_var; accepts x11, x1,1 and x_1,1."""
    if not text.startswith("x"):
        raise ValueError("variable must start with x: %r" % text)
    body = text[1:]
    if body.startswith("_"):
        body = body[1:]
    if "," in body:
        a, _, b = body.partition(",")
        if a.isdigit() and b.isdigit():
            return VarId(int(a), int(b))
    elif len(body) == 2 and body.isdigit():
        return VarId(int(body[0]), int(body[1]))
    raise ValueError("cannot read variable %r; use x_i,j for wide indices"
                     % text)


class Monomial:
    """Sparse monomial: map variable -> positive exponent, with cached degree."""

    __slots__ = ("items", "degree", "_map")

    def __init__(self, exponents=()):
        pairs = exponents.items() if hasattr(exponents, "items") else exponents
        acc = {}
        for v, e in pairs:
            e = int(e)
            if e < 0:
                raise ValueError("negative exponent for %s" % format_var(v))
            if e:
                acc[v] = acc.get(v, 0) + e
        self.items = tuple(sorted(acc.items(), key=lambda kv: var_sort_key(kv[0])))
        self.degree = sum(acc.values())
        self._map = acc

    @property
    def support(self):
        return tuple(v for v, _ in self.items)

    @property
    def is_squarefree(self):
        return all(e == 1 for _, e in self.items)

    def exponent(self, v):
        return self._map.get(v, 0)

    def __mul__(self, other):
        acc = dict(self._map)
        for v, e in other.items:
            acc[v] = acc.get(v, 0) + e
        return Monomial(acc)

    def divides(self, other):
        return all(other._map.get(v, 0) >= e for v, e in self.items)

    def __truediv__(self, other):
        acc = dict(self._map)
        for v, e in other.items:
            left = acc.get(v, 0) - e
            if left < 0:
                raise ValueError("%s does not divide %s" % (other, self))
            acc[v] = left
        return Monomial(acc)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __str__(self):
        if not self.items:
            return "1"
        return "*".join(format_var(v) + ("^%d" % e if e > 1 else "")
                        for v, e in self.items)

    def __repr__(self):
        return "Monomial(%s)" % self


ONE = Monomial()


def monomial_gcd(a, b):
    return Monomial((v, min(e, b._map.get(v, 0))) for v, e in a.items)


def monomial_lcm(a, b):
    acc = dict(a._map)
    for v, e in b.items:
        acc[v] = max(acc.get(v, 0), e)
    return Monomial(acc)


class Binomial:
    """Difference of two coprime monomials with coefficients +1 and -1.

    The constructor divides out the common monomial factor, which is the
    lattice-ideal convention: all ideals handled here are saturated, where
    x^a(x^u - x^v) and x^u - x^v generate the same ideal data. Equality and
    hashing ignore which side is written first; canonical() fixes the sign.
    """

    __slots__ = ("plus", "minus")

    def __init__(self, plus, minus):
        g = monomial_gcd(plus, minus)
        if g.items:
            plus, minus = plus / g, minus / g
        if plus == minus:
            raise ValueError("zero binomial: both sides equal %s" % plus)
        self.plus = plus
        self.minus = minus

    @property
    def degree(self):
        return max(self.plus.degree, self.minus.degree)

    @property
    def variables(self):
        return tuple(sorted(set(self.plus.support) | set(self.minus.support),
                            key=var_sort_key))

    def canonical(self):
        """Put the side with the smaller support tuple first.

        The sides are coprime, hence have disjoint supports, so this is a
        well-defined sign convention that needs no term order.
        """
        kp = tuple(var_sort_key(v) for v in self.plus.support)
        km = tuple(var_sort_key(v) for v in self.minus.support)
        if km < kp:
            return Binomial(self.minus, self.plus)
        return self

    def __eq__(self, other):
        return (isinstance(other, Binomial)
                and {self.plus, self.minus} == {other.plus, other.minus})

    def __hash__(self):
        return hash(frozenset((self.plus, self.minus)))

    def __str__(self):
        c = self.canonical()
        return "%s - %s" % (c.plus, c.minus)

    def __repr__(self):
        return "Binomial(%s)" % self


def parse_monomial(text):
    """Monomial from text like x11*x22 or x33^2*x12; '1' is the unit."""
    text = text.strip()
    if text == "1":
        return ONE
    pairs = []
    for factor in text.split("*"):
        factor = factor.strip()
        base, _, power = factor.partition("^")
        e = int(power) if power else 1
        pairs.append((parse_var(base), e))
    return Monomial(pairs)


def parse_binomial(text):
    """Binomial from text like 'x11*x22 - x12*x21'."""
    left, sep, right = text.partition("-")
    if not sep:
        raise ValueError("binomial needs two sides: %r" % text)
    return Binomial(parse_monomial(left), parse_monomial(right))


class TermOrder:
    """Monomial order: lex, deglex or degrevlex over an explicit ranking.

    variable_ranking lists every usable variable from highest to lowest.
    degrevlex is the degree order refined by: of two monomials with equal
    degree the larger is the one scarcer in the lowest-ranked variable where
    they differ (reverse lexicographic on negated, reversed exponents).
    """

    kinds = ("lex", "deglex", "degrevlex")

    __slots__ = ("kind", "variable_ranking", "_index")

    def __init__(self, kind, variable_ranking):
        if kind not in self.kinds:
            raise ValueError("unknown order kind %r" % kind)
        ranking = tuple(variable_ranking)
        if len(set(ranking)) != len(ranking):
            raise ValueError("variable ranking contains duplicates")
        self.kind = kind
        self.variable_ranking = ranking
        self._index = {v: k for k, v in enumerate(ranking)}

    def key(self, m):
        """Sort key: key(a) > key(b) iff a > b in this order."""
        exps = [0] * len(self.variable_ranking)
        for v, e in m.items:
            if v not in self._index:
                raise ValueError("variable %s is not ranked" % format_var(v))
            exps[self._index[v]] = e
        if self.kind == "lex":
            return tuple(exps)
        if self.kind == "deglex":
            return (m.degree, tuple(exps))
        return (m.degree, tuple(-e for e in reversed(exps)))

    def __repr__(self):
        return "TermOrder(%s, %d variables)" % (self.kind,
                                                len(self.variable_ranking))


def natural_order(variables, kind="degrevlex"):
    """Order over the given variables ranked x11 > x12 > ... (row-major)."""
    return TermOrder(kind, sorted(variables, key=var_sort_key))


def compare(order, a, b):
    """-1, 0 or 1 as the monomial a is below, equal to or above b."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def leading(order, b):
    """Leading monomial of a binomial."""
    return b.plus if order.key(b.plus) > order.key(b.minus) else b.minus


def oriented(order, b):
    """(leading, trailing) pair of a binomial."""
    if order.key(b.plus) > order.key(b.minus):
        return b.plus, b.minus
    return b.minus, b.plus


def _bits(monomials):
    """One bit per variable of the given monomials, in order of first use.

    The bits index the support masks of `_mask`. They come from the
    monomials in hand, never from the term order, which need only have
    `key()`.
    """
    bit = {}
    for m in monomials:
        for v, _ in m.items:
            if v not in bit:
                bit[v] = 1 << len(bit)
    return bit


def _mask(m, bit):
    """Support mask of a monomial: the bits of its variables.

    A variable with no bit contributes 0. The mask then only filters less:
    `not mask(a) & ~mask(b)` still holds whenever a divides b.
    """
    mask = 0
    for v, _ in m.items:
        mask |= bit.get(v, 0)
    return mask


def _rule(lead, tail, bit):
    """Rewriting rule (lead, tail, lead_mask) of an oriented binomial."""
    return lead, tail, _mask(lead, bit)


def _rewrite(m, rules, bit):
    """Reduce a monomial by rewriting rules until none applies.

    Each rule is a (lead, tail, lead_mask) triple from `_rule` under the
    same `bit` map. A lead can divide m only when its support mask lies
    inside m's, so one integer AND rejects most leads before their
    exponents are compared (the short exponent vectors of Bachmann and
    Schoenemann, ISSAC 1998); m's mask is recomputed after each step.
    Each application strictly decreases the monomial in the order the rules
    came from, so this terminates; for rules read off a Groebner basis the
    result is the unique normal form.
    """
    changed = True
    while changed:
        changed = False
        outside = ~_mask(m, bit)
        for lead, tail, lead_mask in rules:
            if not lead_mask & outside and lead.divides(m):
                m = (m / lead) * tail
                changed = True
                break
    return m


def _reduce_binomial(plus, minus, rules, bit):
    """Normal form of the difference plus - minus; 0 when the sides merge."""
    plus = _rewrite(plus, rules, bit)
    minus = _rewrite(minus, rules, bit)
    if plus == minus:
        return 0
    return Binomial(plus, minus)


def buchberger(generators, order):
    """Reduced Groebner basis of the ideal spanned by binomial generators.

    Classic Buchberger with the normal selection strategy (smallest S-pair
    lcm first, ties by insertion index) and the coprime-lead criterion,
    followed by inter-reduction; output is sorted by ascending lead, and
    each output element has its lead as its plus side. During the run each
    element is kept only as its (lead, tail, lead_mask) rewriting rule,
    oriented once when it enters. Every monomial of the run lives in the
    generators' variables, each of which has its own bit, so a lead mask is
    exactly the lead's support: two leads are coprime iff their masks are
    disjoint, and `_rewrite` uses the masks to skip leads that cannot
    divide. The S-pairs of an element with those before it form one run
    sorted by lcm, and a heap merges the runs holding one pair of each, so
    the queue stays as small as the basis. `order` needs only `key()`.
    """
    gens = list(generators)
    bit = _bits(side for g in gens for side in (g.plus, g.minus))
    rules = []
    seen = set()
    heap = []

    def pair_key(k, j):
        return order.key(monomial_lcm(rules[k][0], rules[j][0]))

    def queue_next(run, j):
        k = next(run, None)
        if k is not None:
            heapq.heappush(heap, (pair_key(k, j), k, j, run))

    def add(b):
        rule = _rule(*oriented(order, b), bit)
        j = len(rules)
        # coprime leads: the S-pair reduces to zero, so it is never queued
        run = [k for k, (_, _, mask_k) in enumerate(rules)
               if mask_k & rule[2]]
        rules.append(rule)
        seen.add(b)
        run.sort(key=lambda k: pair_key(k, j))
        queue_next(iter(run), j)

    for g in gens:
        if g not in seen:
            add(g)
    while heap:
        _, i, j, run = heapq.heappop(heap)
        queue_next(run, j)
        lead_i, tail_i, _ = rules[i]
        lead_j, tail_j, _ = rules[j]
        big = monomial_lcm(lead_i, lead_j)
        spair_plus = (big / lead_i) * tail_i
        spair_minus = (big / lead_j) * tail_j
        if spair_plus == spair_minus:
            continue
        reduced = _reduce_binomial(spair_plus, spair_minus, rules, bit)
        if reduced != 0 and reduced not in seen:
            add(reduced)
    return _interreduce(rules, order, bit)


def _interreduce(rules, order, bit):
    """Minimalize leads, fully reduce tails, sort ascending by lead.

    `rules` are (lead, tail, lead_mask) triples from `_rule` under `bit`;
    the masks prefilter both the lead-divisibility scan and the tail
    rewriting. `order` needs only `key()`.
    """
    kept = []
    for rule in sorted(rules, key=lambda r: order.key(r[0])):
        lead, _, lead_mask = rule
        if not any(not k_mask & ~lead_mask and k_lead.divides(lead)
                   for k_lead, _, k_mask in kept):
            kept.append(rule)
    out = []
    for idx, (lead, tail, _) in enumerate(kept):
        tail = _rewrite(tail, kept[:idx] + kept[idx + 1:], bit)
        out.append(Binomial(lead, tail))
    # Binomial(lead, tail) keeps lead, less any common factor, as plus.
    out.sort(key=lambda g: order.key(g.plus))
    return out


def normal_form(b, basis, order):
    """Normal form of a Monomial or Binomial modulo a Groebner basis.

    Returns a Monomial for monomial input, and a Binomial or 0 for binomial
    input. Canonical only when `basis` really is a Groebner basis for
    `order`; both sides reduce independently because coefficients are units.
    """
    pairs = [oriented(order, g) for g in basis]
    bit = _bits(m for pair in pairs for m in pair)
    rules = [_rule(lead, tail, bit) for lead, tail in pairs]
    if isinstance(b, Monomial):
        return _rewrite(b, rules, bit)
    return _reduce_binomial(b.plus, b.minus, rules, bit)


InitialIdeal = namedtuple("InitialIdeal", ["generators", "squarefree"])


def initial_ideal(basis, order):
    """Leading monomials of a basis, minimalized, with a squarefree flag."""
    leads = sorted({leading(order, g) for g in basis}, key=order.key)
    bit = _bits(leads)
    kept = []
    for m in leads:
        mask = _mask(m, bit)
        if not any(not k_mask & ~mask and k.divides(m)
                   for k, k_mask in kept):
            kept.append((m, mask))
    minimal = tuple(m for m, _ in kept)
    return InitialIdeal(minimal,
                        all(m.is_squarefree for m in minimal))


def binomial_from_vector(vec, variables):
    """Binomial x^(v+) - x^(v-) for an integer kernel vector."""
    plus = Monomial((variables[k], e) for k, e in enumerate(vec) if e > 0)
    minus = Monomial((variables[k], -e) for k, e in enumerate(vec) if e < 0)
    return Binomial(plus, minus)


def toric_gb(cfg, order):
    """Reduced Groebner basis of the toric ideal of a vector configuration.

    The Graver basis of cfg.matrix is a universal Groebner basis (Sturmfels
    1996, ch. 7), so interreducing its elements, each oriented by `order`,
    gives the reduced basis: sorted by ascending lead, each element with its
    lead as its plus side. Configurations with linearly independent columns
    have a zero ideal (empty basis).
    """
    pairs = [oriented(order, binomial_from_vector(v.entries, cfg.variables))
             for v in matrix_graver(cfg.matrix)]
    bit = _bits(m for pair in pairs for m in pair)
    return _interreduce([_rule(lead, tail, bit) for lead, tail in pairs],
                        order, bit)


def indispensable_monomials(g):
    """The monomials x_ii*x_jj and x_ij*x_ji over the edges of a graph."""
    out = []
    for i, j in g.edges:
        out.append(Monomial([(VarId(i, i), 1), (VarId(j, j), 1)]))
        out.append(Monomial([(VarId(i, j), 1), (VarId(j, i), 1)]))
    return out
