"""Exact linear algebra over Q.

Matrices are lists of lists of Fraction; vectors are lists of Fraction.
Everything is small (desk scale), so plain Gaussian elimination is enough.
"""

from fractions import Fraction


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n):
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = Fraction(1)
    return mat


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def mat_vec(a, v):
    return [sum((c * x for c, x in zip(row, v) if x), Fraction(0)) for row in a]


def rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    mat = [list(row) for row in rows]
    if not mat:
        return [], []
    m = len(mat[0])
    pivots = []
    r = 0
    for col in range(m):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                c = mat[i][col]
                mat[i] = [x - c * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


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
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def inverse(a):
    """A^-1 from one elimination of [A | I]; ValueError when A is singular."""
    n = len(a)
    red, pivots = rref([list(row) + unit for row, unit in zip(a, identity(n))])
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def row_space_basis(rows):
    return rref(rows)[0]


def coordinates(vectors, target):
    """x with sum_k x[k] * vectors[k] == target, or None when target lies
    outside the span (unique when the vectors are linearly independent)."""
    k = len(vectors)
    red, pivots = rref([[v[t] for v in vectors] + [b] for t, b in enumerate(target)])
    if k in pivots:
        return None
    x = [Fraction(0)] * k
    for row, p in zip(red, pivots):
        x[p] = row[k]
    return x
