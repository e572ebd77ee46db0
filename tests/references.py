"""Reference routes the engines are checked against.

Each one reaches an answer of the package by a road the package itself no
longer takes, so agreement checks the engine rather than restating it:
circuits by a hyperplane scan over a kernel lattice basis, where the
package filters its Graver basis; and toric Groebner bases by saturation,
where the package interreduces its Graver basis.
"""

from itertools import combinations

from diagminors.binomials import (Binomial, Monomial, ONE,
                                  binomial_from_vector, buchberger)
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
