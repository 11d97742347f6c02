"""Exact linear algebra over Q.

A matrix is a list of sparse rows {col: entry}, the one matrix form of the
library; an explicit zero entry counts as absent.  Vectors read off a
matrix (solutions, kernel vectors) are dense lists, holding ints where
integral.  Elimination runs fraction free on primitive int rows, as the
Groebner engine does (integral, primitive, eliminate): echelon is the one
forward pass, rank counts its pivots, and rref back-substitutes it, from
which kernel_basis and solve read their answers.  Every coordinate vector
the library needs (structure constants, weights, inverses, interpolation)
comes from solve.
"""

from fractions import Fraction
from math import gcd, lcm


def integral(row):
    """(d, d * row) for the least positive int d that makes every entry of
    the sparse dict {key: entry} an int.  A row of ints alone is returned
    itself, with no pass over it (an integral Fraction still takes the
    denominator pass, which makes it an int); a caller that changes the
    row copies it."""
    if {*map(type, row.values())} <= {int}:
        return 1, row
    den = lcm(*(x.denominator for x in row.values()))
    return den, {k: x.numerator * (den // x.denominator) for k, x in row.items()}


def primitive(row, lead):
    """The multiple of the sparse dict with coprime int entries, positive at
    lead: the row itself when it is that multiple already, so a caller that
    changes the result, or the row after it, copies it first."""
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction entry, which gcd refuses: clear denominators
        row = integral(row)[1]
        g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {k: x // g for k, x in row.items()}


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


def eliminate(row, pivot, col):
    """(b/g) row - (a/g) pivot for int rows with no zero entry and with
    entries a and b at col, g = gcd(a, b): an int row with no zero entry and
    no entry at col."""
    g = gcd(row[col], pivot[col])
    up, factor = pivot[col] // g, row[col] // g
    out = {j: up * x for j, x in row.items()} if up != 1 else dict(row)
    for j, x in pivot.items():
        v = out.get(j, 0) - factor * x
        if v:
            out[j] = v
        else:  # factor * x is not 0, so j was in out
            del out[j]
    return out


def echelon(rows):
    """The forward pass: {pivot column: primitive int row whose least column
    it is}, the pivots of the rref.  Each row loses its least column to the
    pivot row there until that column is a new pivot or the row is zero."""
    out = {}
    for row in rows:
        row = integral({j: x for j, x in row.items() if x})[1]
        while row:
            col = min(row)
            if col not in out:
                out[col] = primitive(row, col)
                break
            row = eliminate(row, out[col], col)
    return out


def rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list), the
    rows sparse with no zero entry.

    The echelon rows are back-substituted, last pivot first, so the pivot
    rows that reduce a row are reduced already and have no entry at any
    other pivot."""
    reduced = echelon(rows)
    pivots = sorted(reduced)
    out = []
    for p in reversed(pivots):
        row = reduced[p]
        for q in [q for q in row if q != p and q in reduced]:
            row = eliminate(row, reduced[q], q)
        reduced[p] = row = primitive(row, p)
        d = row[p]
        out.append({j: x // d if x % d == 0 else Fraction(x, d) for j, x in row.items()})
    return out[::-1], pivots


def rank(rows):
    return len(echelon(rows))


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
