"""Exact linear algebra over Q.

Matrices are lists of rows and vectors are lists of ints and Fractions; the
rref rows, kernels and solutions hold ints where integral (poly._exact).
Everything is small (desk scale), so plain Gaussian elimination is enough:
one sparse rref, from which rank, kernel_basis, row_space_basis and solve
read their answers.  Every coordinate vector the library needs (structure
constants, weights, inverses, interpolation) comes from solve.
"""

from fractions import Fraction
from itertools import compress

from .poly import _exact


def zeros(n, m):
    return [[0] * m for _ in range(n)]


def identity(n):
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = 1
    return mat


def mat_vec(a, v):
    return [sum((c * x for c, x in zip(row, v) if x), 0) for row in a]


def _subtract(target, c, row):
    """target -= c * row, both dicts of nonzero entries."""
    for j, x in row.items():
        y = target.get(j, 0) - c * x
        if y:
            target[j] = y
        else:
            target.pop(j, None)


def rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list).

    Rows are eliminated as dicts of their nonzero entries: each row is
    reduced by the pivot rows found so far, and a new pivot is cleared from
    the earlier rows, so the pivot rows stay reduced against each other."""
    if not rows:
        return [], []
    reduced = {}  # pivot column -> row with a 1 there and 0 in every other pivot
    for row in rows:
        new = {j: row[j] for j in compress(range(len(row)), row)}
        for p in [j for j in new if j in reduced]:
            _subtract(new, new[p], reduced[p])
        if not new:
            continue
        col = min(new)
        if new[col] != 1:
            inv = Fraction(1) / new[col]
            new = {j: _exact(x * inv) for j, x in new.items()}
        for other in reduced.values():
            if col in other:
                _subtract(other, other[col], new)
        reduced[col] = new
    pivots = sorted(reduced)
    out = [[0] * len(rows[0]) for _ in pivots]
    for dense, p in zip(out, pivots):
        for j, x in reduced[p].items():
            dense[j] = _exact(x)
    return out, pivots


def rank(rows):
    return len(rref(rows)[0])


def kernel_basis(rows):
    """Basis of {v : A v = 0} for the matrix with the given rows."""
    if not rows:
        return []
    m = len(rows[0])
    red, pivots = rref(rows)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * m
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def row_space_basis(rows):
    return rref(rows)[0]


def solve(rows, k):
    """One rref of the augmented matrix [A | b_1 | b_2 ...]: the first k
    columns of rows are A, each later column a target b.  For each target,
    in order, the x with A x = b whose free coordinates are 0, or None when
    b lies outside the column span of A.  With no rows there are no columns
    to count the targets by, so the result is []: a caller whose system can
    be empty (every target then 0, solved by x = 0) handles that itself."""
    red, pivots = rref(rows)
    # rows whose pivot lies past A read 0 = b_i: b is in the span iff each is 0
    split = sum(p < k for p in pivots)
    out = []
    for t in range(k, len(rows[0]) if rows else k):
        if any(row[t] for row in red[split:]):
            out.append(None)
            continue
        x = [0] * k
        for row, p in zip(red, pivots[:split]):
            x[p] = row[t]
        out.append(x)
    return out
