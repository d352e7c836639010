"""Exact linear programming over rationals.

Everything here works on small dense problems: tableaus are lists of
Fraction rows and pivoting follows Bland's rule, so there is no floating
point, no cycling, and every reported optimum is a true vertex.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import List, Optional, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)

Row = Tuple[Fraction, ...]


def simplex_max(objective: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> Tuple[Fraction, List[Fraction]]:
    """Maximize objective . x subject to rows . x <= rhs and x >= 0.

    Requires rhs >= 0 so x = 0 is a feasible start.  Returns (value, x)
    at an optimal vertex; raises ValueError if the problem is unbounded.
    """
    m, n = len(rows), len(objective)
    if any(Fraction(b) < 0 for b in rhs):
        raise ValueError("simplex_max needs a nonnegative right-hand side")
    tab = [
        [Fraction(v) for v in rows[i]]
        + [ONE if j == i else ZERO for j in range(m)]
        + [Fraction(rhs[i])]
        for i in range(m)
    ]
    cost = [Fraction(v) for v in objective] + [ZERO] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        col = next((j for j in range(n + m) if cost[j] > 0), None)
        if col is None:
            break
        pivot: Optional[int] = None
        best: Optional[Fraction] = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot]):
                    best, pivot = ratio, i
        if pivot is None:
            raise ValueError("unbounded linear program")
        prow = tab[pivot]
        a = prow[col]
        prow = [v / a for v in prow]
        tab[pivot] = prow
        for i in range(m):
            f = tab[i][col]
            if i != pivot and f:
                tab[i] = [u - f * v for u, v in zip(tab[i], prow)]
        f = cost[col]
        if f:
            cost = [u - f * v for u, v in zip(cost, prow)]
        basis[pivot] = col
    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    return -cost[-1], x


def max_min_affine(pieces: Sequence[Tuple[Fraction, Sequence[Fraction]]], dim: int) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """Maximize min_i (k_i + <c_i, phi>) over phi in the box [0,1]^dim.

    Each piece is (k_i, c_i).  Returns the maximum and a phi attaining it.
    Used to compare min-of-affine transformers: w <= w' reduces to this
    maximum being <= 0 for each difference family.
    """
    if not pieces:
        raise ValueError("need at least one affine piece")
    if len(pieces) == 1:
        # The vertex Bland's rule reaches: each coordinate with a positive
        # coefficient at 1, the rest at 0.
        k, coeffs = pieces[0]
        cs = [Fraction(c) for c in coeffs]
        phi = tuple(ONE if c > 0 else ZERO for c in cs)
        return Fraction(k) + sum(c for c in cs if c > 0), phi
    # Shift t so the start t' = t + shift is feasible and nonnegative at phi = 0.
    low = min(Fraction(k) for k, _ in pieces)
    shift = ONE - min(ZERO, low)
    rows = []
    rhs = []
    for k, coeffs in pieces:
        rows.append([ONE] + [-Fraction(c) for c in coeffs])
        rhs.append(Fraction(k) + shift)
    for j in range(dim):
        rows.append([ZERO] * (j + 1) + [ONE] + [ZERO] * (dim - j - 1))
        rhs.append(ONE)
    value, x = simplex_max([ONE] + [ZERO] * dim, rows, rhs)
    return value - shift, tuple(x[1:])


def box_upper_bound(pieces: Sequence[Tuple[Fraction, Sequence[Fraction]]]) -> Fraction:
    """An upper bound on `max_min_affine(pieces, dim)`, without an LP.

    Each piece alone peaks over the box at k_i + sum_j max(c_ij, 0), and a
    minimum never exceeds any of its terms.  The bound is exact for a
    single piece; a caller that only needs to know whether the maximum is
    <= 0 can skip the LP whenever this already is.
    """
    if not pieces:
        raise ValueError("need at least one affine piece")
    return min(k + sum(c for c in coeffs if c > 0) for k, coeffs in pieces)


def _solve_tree(p: Sequence[Fraction], q: Sequence[Fraction], cells) -> Optional[Tuple[Fraction, ...]]:
    # Peel leaf rows/columns; succeeds exactly when the cells form a spanning tree.
    m, n = len(p), len(q)
    rows = [Fraction(v) for v in p]
    cols = [Fraction(v) for v in q]
    remaining = set(cells)
    values = {}
    while remaining:
        step = None
        for (i, j) in remaining:
            if sum(1 for (a, b) in remaining if a == i) == 1:
                step = (i, j, rows[i])
                break
            if sum(1 for (a, b) in remaining if b == j) == 1:
                step = (i, j, cols[j])
                break
        if step is None:
            return None
        i, j, v = step
        if v < 0:
            return None
        values[(i, j)] = v
        rows[i] -= v
        cols[j] -= v
        remaining.discard((i, j))
    if any(rows) or any(cols):
        return None
    return tuple(values.get((i, j), ZERO) for i in range(m) for j in range(n))


def coupling_vertices(p: Sequence, q: Sequence) -> List[Tuple[Fraction, ...]]:
    """All vertices of the transportation polytope with marginals p and q.

    Entries come back row-major as flat tuples d[i*len(q)+j].  Vertices
    are basic feasible solutions, i.e. spanning trees of the bipartite
    supply/demand graph, enumerated outright; fine for the small supports
    this engine targets and refused beyond that.
    """
    p = [Fraction(v) for v in p]
    q = [Fraction(v) for v in q]
    if sum(p) != sum(q):
        raise ValueError("marginals must have equal mass")
    m, n = len(p), len(q)
    k = m + n - 1
    cells = [(i, j) for i in range(m) for j in range(n)]
    if comb(len(cells), k) > 200000:
        raise ValueError("coupling support too large for vertex enumeration")
    seen = set()
    for basis in combinations(cells, k):
        d = _solve_tree(p, q, basis)
        if d is not None:
            seen.add(d)
    return sorted(seen)
