"""Exact linear programming over rationals, in integer arithmetic.

Everything here works on small dense problems.  A tableau row is a list of
ints, a positive multiple of the rational row it stands for, kept divided
by its gcd; the cost row carries its own positive scale.  A pivot updates a
row as `a * row - f * prow`, with `a` the positive pivot entry, and the
ratio test cross-multiplies, so no rational is ever formed inside the loop.
Pivoting follows Bland's rule, so there is no cycling, every reported
optimum is a true vertex, and the pivot sequence is the one a tableau of
rationals takes.  Inputs and outputs stay rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import List, Optional, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def _ints(values) -> Tuple[int, List[int]]:
    """(den, nums): the rationals `values` as integers over their least
    common denominator."""
    values = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values)) if values else 1
    return den, [v.numerator * (den // v.denominator) for v in values]


def _reduced(row: List[int]) -> List[int]:
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def simplex_max(objective: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> Tuple[Fraction, List[Fraction]]:
    """Maximize objective . x subject to rows . x <= rhs and x >= 0.

    Requires rhs >= 0 so x = 0 is a feasible start.  Returns (value, x)
    at an optimal vertex; raises ValueError if the problem is unbounded.
    """
    m, n = len(rows), len(objective)
    tab = []
    for i in range(m):
        scale, row = _ints(list(rows[i]) + [rhs[i]])
        if row[-1] < 0:
            raise ValueError("simplex_max needs a nonnegative right-hand side")
        slack = [0] * m
        slack[i] = scale
        tab.append(row[:-1] + slack + row[-1:])
    scale, cost = _ints(objective)
    cost += [0] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        col = next((j for j in range(n + m) if cost[j] > 0), None)
        if col is None:
            break
        pivot: Optional[int] = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                if pivot is None:
                    pivot = i
                    continue
                # the ratio b / a against the best b' / a', a and a' positive
                here, best = tab[i][-1] * tab[pivot][col], tab[pivot][-1] * a
                if here < best or (here == best and basis[i] < basis[pivot]):
                    pivot = i
        if pivot is None:
            raise ValueError("unbounded linear program")
        prow = tab[pivot]
        a = prow[col]
        for i in range(m):
            f = tab[i][col]
            if i != pivot and f:
                tab[i] = _reduced([a * u - f * v for u, v in zip(tab[i], prow)])
        f = cost[col]
        cost = [a * u - f * v for u, v in zip(cost, prow)]
        scale *= a
        g = gcd(scale, *cost)
        if g > 1:
            scale //= g
            cost = [v // g for v in cost]
        basis[pivot] = col
    x = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tab[i][-1], tab[i][b])
    return Fraction(-cost[-1], scale), x


def max_min_affine(pieces: Sequence[Tuple[Fraction, Sequence[Fraction]]], dim: int) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """Maximize min_i (k_i + <c_i, phi>) over phi in the box [0,1]^dim.

    Each piece is (k_i, c_i), rationals or ints.  Returns the maximum and a
    phi attaining it.  Used to compare min-of-affine transformers: w <= w'
    reduces to this maximum being <= 0 for each difference family.
    """
    if not pieces:
        raise ValueError("need at least one affine piece")
    if len(pieces) == 1:
        # The vertex Bland's rule reaches: each coordinate with a positive
        # coefficient at 1, the rest at 0.
        k, coeffs = pieces[0]
        phi = tuple(ONE if c > 0 else ZERO for c in coeffs)
        return Fraction(k) + sum(c for c in coeffs if c > 0), phi
    den, flat = _ints([v for k, coeffs in pieces for v in (k, *coeffs)])
    width = dim + 1
    ints = [flat[i:i + width] for i in range(0, len(flat), width)]
    # Shift t so the start t' = t + shift is feasible and nonnegative at phi = 0.
    shift = den - min(0, min(row[0] for row in ints))
    rows = [[1] + [-c for c in row[1:]] for row in ints]
    rhs = [row[0] + shift for row in ints]
    for j in range(dim):
        rows.append([0] * (j + 1) + [1] + [0] * (dim - j - 1))
        rhs.append(1)
    # t' here is den times the t' of the rows over rationals: each piece row
    # is that row times den, so the pivots and phi are the same
    value, x = simplex_max([1] + [0] * dim, rows, rhs)
    return (value - shift) / den, tuple(x[1:])


def box_upper_bound(pieces: Sequence[Tuple[Fraction, Sequence[Fraction]]]) -> Fraction:
    """An upper bound on `max_min_affine(pieces, dim)`, without an LP.

    Each piece alone peaks over the box at k_i + sum_j max(c_ij, 0), and a
    minimum never exceeds any of its terms.  The bound is exact for a
    single piece; a caller that only needs to know whether the maximum is
    <= 0 can skip the LP whenever this already is.  Pieces of ints give an
    int.
    """
    if not pieces:
        raise ValueError("need at least one affine piece")
    return min(k + sum(c for c in coeffs if c > 0) for k, coeffs in pieces)


def _solve_tree(p: Sequence[int], q: Sequence[int], cells) -> Optional[Tuple[int, ...]]:
    # Peel leaf rows/columns; succeeds exactly when the cells form a spanning tree.
    m, n = len(p), len(q)
    rows = list(p)
    cols = list(q)
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
    return tuple(values.get((i, j), 0) for i in range(m) for j in range(n))


def coupling_vertices(p: Sequence, q: Sequence) -> List[Tuple[Fraction, ...]]:
    """All vertices of the transportation polytope with marginals p and q.

    Entries come back row-major as flat tuples d[i*len(q)+j].  Vertices
    are basic feasible solutions, i.e. spanning trees of the bipartite
    supply/demand graph, enumerated outright; fine for the small supports
    this engine targets and refused beyond that.  The enumeration runs on
    integer marginals, whose polytope has integer vertices: marginals of
    ints give vertices of ints, and other rationals are brought to one
    denominator first and their vertices divided by it.
    """
    whole = all(type(v) is int for v in (*p, *q))
    den, ints = (1, [*p, *q]) if whole else _ints([*p, *q])
    p, q = ints[:len(p)], ints[len(p):]
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
    if whole:
        return sorted(seen)
    return [tuple(Fraction(v, den) for v in d) for d in sorted(seen)]
