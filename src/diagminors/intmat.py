"""Exact integer linear algebra on small dense matrices.

Everything here works over arbitrary-precision integers: ranks and
determinants via fraction-free (Bareiss) elimination, total unimodularity
with explicit witness minors, integer kernel lattice bases via unimodular
column operations, conformally minimal kernel vectors (the Graver basis)
by completion, and the circuits as its support-minimal elements. The
completion runs on the merged lattice, one coordinate per class of
coordinates that are equal, negated or zero on the whole kernel lattice
(on A_G, x_ij = x_ji leaves m + n of its 2m + n coordinates), and each
reduction touches only the support of the element it subtracts.
"""

from collections import namedtuple
from itertools import combinations, islice
from math import gcd


MinorWitness = namedtuple("MinorWitness", ["rows", "cols", "det"])


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class IntVector:
    """Immutable integer vector with a cached support."""

    __slots__ = ("entries", "support")

    def __init__(self, entries):
        self.entries = tuple(int(e) for e in entries)
        self.support = tuple(i for i, e in enumerate(self.entries) if e != 0)

    @property
    def is_primitive(self):
        """True when the gcd of the nonzero entries is 1."""
        return gcd(*self.entries) == 1

    def primitive_normalized(self):
        """Divide out the content and make the first nonzero entry positive."""
        if not self.support:
            return self
        g = gcd(*self.entries)
        if self.entries[self.support[0]] < 0:
            g = -g
        return IntVector(e // g for e in self.entries)

    def dot(self, other):
        return sum(a * b for a, b in zip(self.entries, other.entries))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, IntVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "IntVector(%s)" % (self.entries,)


class IntMatrix:
    """Dense integer matrix with optional column names."""

    __slots__ = ("rows", "cols", "entries", "column_names")

    def __init__(self, entries, column_names=None):
        self.entries = tuple(tuple(int(e) for e in row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows: expected %d entries" % self.cols)
        if column_names is not None:
            column_names = tuple(column_names)
            if len(column_names) != self.cols:
                raise ValueError("column_names length %d != cols %d"
                                 % (len(column_names), self.cols))
            if len(set(column_names)) != self.cols:
                raise ValueError("duplicate column names")
        self.column_names = column_names

    @classmethod
    def from_columns(cls, columns, column_names=None):
        columns = [tuple(c) for c in columns]
        height = len(columns[0]) if columns else 0
        return cls([[c[i] for c in columns] for i in range(height)], column_names)

    def column(self, j):
        return IntVector(row[j] for row in self.entries)

    def row(self, i):
        return IntVector(self.entries[i])

    def submatrix(self, row_idx, col_idx):
        return IntMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def transpose(self):
        return IntMatrix([[self.entries[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.entries == other.entries
                and self.column_names == other.column_names)

    def __hash__(self):
        return hash((self.entries, self.column_names))

    def __str__(self):
        return "\n".join(" ".join(str(e) for e in row) for row in self.entries)

    def __repr__(self):
        return "IntMatrix(%d x %d)" % (self.rows, self.cols)


def rank(m):
    """Rank over the rationals by fraction-free Bareiss elimination."""
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        piv = a[r][c]
        for i in range(r + 1, nrows):
            fac = a[i][c]
            row_i, row_r = a[i], a[r]
            for j in range(c + 1, ncols):
                row_i[j] = (piv * row_i[j] - fac * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def det(m):
    """Determinant of a square matrix by Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = None
        for i in range(k, n):
            if a[i][k]:
                pivot_row = i
                break
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            fac = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (piv * a[i][j] - fac * a[k][j]) // prev
            a[i][k] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def _peel(m):
    """Drop rows/columns with at most one nonzero entry, to a fixpoint.

    Removing such a line preserves total unimodularity in both directions:
    expanding any minor along it maps violations to violations of the
    smaller matrix and conversely, so witnesses found in the core are
    genuine minors of the original matrix.
    """
    act_rows = list(range(m.rows))
    act_cols = list(range(m.cols))
    changed = True
    while changed:
        changed = False
        keep = []
        for i in act_rows:
            nz = sum(1 for j in act_cols if m.entries[i][j])
            if nz > 1:
                keep.append(i)
            else:
                changed = True
        act_rows = keep
        keep = []
        for j in act_cols:
            nz = sum(1 for i in act_rows if m.entries[i][j])
            if nz > 1:
                keep.append(j)
            else:
                changed = True
        act_cols = keep
    return act_rows, act_cols


def is_totally_unimodular(m):
    """Decide whether every square minor lies in {-1, 0, 1}.

    Returns (True, None) or (False, MinorWitness) where the witness carries
    the row indices, column indices and determinant of a violating minor.
    The search first peels unit rows/columns (see _peel), then enumerates
    minors of the remaining core in ascending size, skipping any submatrix
    containing an entry outside {-1, 0, 1} -- after the 1x1 scan below the
    core has no such entries, so the prune never fires but the scan is what
    makes it safe.
    """
    for i in range(m.rows):
        for j in range(m.cols):
            if abs(m.entries[i][j]) > 1:
                return False, MinorWitness((i,), (j,), m.entries[i][j])
    act_rows, act_cols = _peel(m)
    top = min(len(act_rows), len(act_cols))
    for size in range(2, top + 1):
        for rs in combinations(act_rows, size):
            for cs in combinations(act_cols, size):
                d = det(m.submatrix(rs, cs))
                if d < -1 or d > 1:
                    return False, MinorWitness(rs, cs, d)
    return True, None


def _kernel_columns(entries, nrows, ncols):
    """Basis of {u in Z^ncols : M u = 0} as raw lists, via unimodular column ops.

    Works on the stacked matrix [M; I]: column operations with determinant
    +-1 bring the top block to column echelon form; the bottom blocks of the
    trailing all-zero-top columns are then a lattice basis of the kernel
    (saturated, because the kernel of an integer matrix is saturated and the
    accumulated transformation is invertible over the integers).
    """
    total = nrows + ncols
    work = []
    for j in range(ncols):
        col = [entries[i][j] for i in range(nrows)]
        col.extend(1 if t == j else 0 for t in range(ncols))
        work.append(col)
    lead = 0
    for r in range(nrows):
        pivots = [k for k in range(lead, ncols) if work[k][r]]
        if not pivots:
            continue
        k0 = pivots[0]
        for k in pivots[1:]:
            a, b = work[k0][r], work[k][r]
            g, x, y = _xgcd(a, b)
            u, v = a // g, b // g
            c0, c1 = work[k0], work[k]
            for t in range(total):
                s, w = c0[t], c1[t]
                c0[t] = x * s + y * w
                c1[t] = u * w - v * s
        work[lead], work[k0] = work[k0], work[lead]
        lead += 1
    return [work[k][nrows:] for k in range(lead, ncols)]


def kernel_lattice_basis(m):
    """Basis of the integer kernel lattice of m.

    Each vector is primitive and sign-normalized (first nonzero entry
    positive); the count is always cols - rank(m).
    """
    raw = _kernel_columns(m.entries, m.rows, m.cols)
    return [IntVector(v).primitive_normalized() for v in raw]


def _lattice_classes(basis, ncols):
    """Classes of the coordinates that are equal, negated or zero on a lattice.

    Coordinate i of a lattice vector is column i of `basis` (one lattice
    basis vector per row) dotted with the vector's basis coefficients, so
    two coordinates with equal or negated columns are equal or negated on
    the whole lattice, and a zero column is a coordinate that is zero on
    it. Returns the first coordinate of each nonzero class, in order, and
    per coordinate its class and its sign relative to that first one; a
    zero coordinate gets sign 0.
    """
    reps, where, classes = [], [], {}
    for i in range(ncols):
        col = tuple(b[i] for b in basis)
        lead = next((e for e in col if e), 0)
        if not lead:
            where.append((0, 0))
            continue
        sign = 1 if lead > 0 else -1
        key = tuple(sign * e for e in col)
        if key not in classes:
            classes[key] = (len(reps), sign)
            reps.append(i)
        k, rep_sign = classes[key]
        where.append((k, sign * rep_sign))
    return reps, where


def _signs(v):
    """Bit masks of the positive and of the negative entries of v."""
    pos = neg = 0
    for i, e in enumerate(v):
        if e > 0:
            pos |= 1 << i
        elif e < 0:
            neg |= 1 << i
    return pos, neg


def _element(v):
    """A completion element: the vector, its support and its sign masks."""
    return v, tuple(i for i, e in enumerate(v) if e), _signs(v)


def _reduce(s, found, skip=-1):
    """Reduce the list s in place by the elements of found but the one at
    `skip`; return the sign masks of the remainder.

    Each h of found, or -h, is subtracted as often as it stays conformally
    below s: the masks pick the orientation, the entry sizes the multiple.
    The multiple, the subtraction and the mask update touch only h's
    support. Subtracting only shrinks s, so one pass over found reduces it.
    """
    spos, sneg = _signs(s)
    for k, (h, support, (hpos, hneg)) in enumerate(found):
        if not (hpos & ~spos or hneg & ~sneg):
            q = min(s[i] // h[i] for i in support)
        elif not (hneg & ~spos or hpos & ~sneg):
            q = -min(-s[i] // h[i] for i in support)
        else:
            continue
        if q and k != skip:
            for i in support:
                s[i] -= q * h[i]
                if not s[i]:
                    spos &= ~(1 << i)
                    sneg &= ~(1 << i)
    return spos, sneg


def matrix_graver(m):
    """All conformally minimal nonzero kernel vectors, one per sign class.

    Each is primitive with its first nonzero entry positive, sorted by
    (support size, support, entries). Coordinates that are equal, negated
    or zero on the kernel lattice are merged first (read off the columns
    of a lattice basis): on A_G, x_ij = x_ji on every edge, so m + n
    coordinates remain of 2m + n. Conformality, primitivity and the sign
    of the first nonzero entry are the same on the merged and the full
    vectors, which are expanded once at the end and sorted there.

    Completion (Pottier 1996; Hemmecke 2002) on one representative of each
    pair {v, -v}: starting from a lattice basis, for every pair of
    representatives f, g both f + g and f - g are reduced by subtracting
    representatives, in either orientation, conformally below them, and a
    nonzero remainder joins the set. This completes the symmetric set of
    the representatives and their negatives, since reducing -s gives the
    negative of reducing s and the pairs (f, -f) and (f, f) give nothing
    new. A sum of two terms of compatible signs is skipped, being conformal
    already. The completed set contains the Graver basis as its
    conformally minimal part: the elements no other one reduces.
    """
    basis = [v.entries for v in kernel_lattice_basis(m)]
    reps, where = _lattice_classes(basis, m.cols)
    found = [_element([b[i] for i in reps]) for b in basis]
    for k, (f, _, (fpos, fneg)) in enumerate(found):  # sees those appended
        for g, _, (gpos, gneg) in islice(found, k):
            sums = []
            if fpos & gneg or fneg & gpos:
                sums.append([a + b for a, b in zip(f, g)])
            if fpos & gpos or fneg & gneg:
                sums.append([a - b for a, b in zip(f, g)])
            for s in sums:
                if any(_reduce(s, found)):
                    found.append(_element(s))
    zero = (0,) * m.cols
    out = []
    for k, (v, _, _) in enumerate(found):
        s = list(v)
        _reduce(s, found, k)
        if s == v:
            full = tuple(sign * v[c] for c, sign in where)
            out.append(IntVector(full if full > zero else (-e for e in full)))
    return sorted(out, key=lambda v: (len(v.support), v.support, v.entries))


def matrix_circuits(m):
    """All minimal-support nonzero kernel vectors, one per sign class.

    Each is primitive with its first nonzero entry positive. Every circuit
    is a Graver element and every kernel support contains a circuit support
    (Sturmfels 1996, ch. 4), so these are the Graver elements of minimal
    support, in Graver order: by (support size, support), as a circuit
    support carries one circuit. The Graver basis can be far larger than
    the circuits, but not for A_G on at most 7 vertices (bowtie: 57 to 43).
    """
    return support_minimal(matrix_graver(m))


def support_minimal(vectors):
    """The vectors whose support strictly contains no other one's, in order."""
    supports = [set(v.support) for v in vectors]
    return [v for v, s in zip(vectors, supports)
            if not any(t < s for t in supports)]
