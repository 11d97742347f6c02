"""Exact linear algebra over Q.

A matrix is a list of sparse rows {col: entry}, the one matrix form of the
library; an explicit zero entry counts as absent.  Vectors read off a
matrix (solutions, kernel vectors) are dense lists.  Entries and vectors
hold ints where integral (poly._exact).  Everything is small (desk scale),
so plain Gaussian elimination is enough: one sparse rref, from which rank,
kernel_basis and solve read their answers.  Every coordinate vector the
library needs (structure constants, weights, inverses, interpolation) comes
from solve.
"""

from fractions import Fraction

from .poly import _exact


def from_columns(columns):
    """The rows of the matrix with the given sparse columns {key: entry}:
    one row {c: entry of column c} per key that occurs, sorted by key."""
    rows = {}
    for c, column in enumerate(columns):
        for key, x in column.items():
            rows.setdefault(key, {})[c] = x
    return [rows[key] for key in sorted(rows)]


def combine(coeffs, rows):
    """The sparse row sum_j c * rows[j] over the sparse coefficients {j: c}."""
    out = {}
    for j, c in coeffs.items():
        for col, x in rows[j].items():
            out[col] = out.get(col, 0) + c * x
    return {col: x for col, x in out.items() if x}


def _subtract(target, c, row):
    """target -= c * row, both dicts of nonzero entries."""
    for j, x in row.items():
        y = target.get(j, 0) - c * x
        if y:
            target[j] = y
        else:
            target.pop(j, None)


def rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list), the
    rows sparse with no zero entry.

    Each row is reduced by the pivot rows found so far, and a new pivot is
    cleared from the earlier rows, so the pivot rows stay reduced against
    each other."""
    reduced = {}  # pivot column -> row with a 1 there and 0 in every other pivot
    for row in rows:
        new = {j: x for j, x in row.items() if x}
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
    return [{j: _exact(x) for j, x in reduced[p].items()} for p in pivots], pivots


def rank(rows):
    return len(rref(rows)[0])


def kernel_basis(rows, width):
    """Basis of {v : A v = 0} for the matrix A with the given rows and
    width columns: one vector per free column f, 1 at f and 0 at the other
    free columns."""
    red, pivots = rref(rows)
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * width
        v[f] = 1
        for row, p in zip(red, pivots):
            v[p] = -row.get(f, 0)
        basis.append(v)
    return basis


def solve(rows, k, targets):
    """One rref of the augmented matrix [A | b_1 | ... | b_targets]: columns
    0 .. k-1 of rows are A, and column k + t - 1 is the target b_t.  For
    each target, in order, the x with A x = b whose free coordinates are 0,
    or None when b lies outside the column span of A."""
    red, pivots = rref(rows)
    out = [[0] * k for _ in range(targets)]
    # the pivots ascend: the rows with a pivot in A come first and give x;
    # a row whose pivot lies past A reads 0 = b, so b is outside the span
    # when that row has an entry in b's column
    for row, p in zip(red, pivots):
        for t, x in row.items():
            if t >= k:
                if p < k:
                    out[t - k][p] = x
                else:
                    out[t - k] = None
    return out
