"""Second routes the tests check the library against: a partition count by
its own recursion, membership in a derivation module by its own Groebner
basis, equality of ideals and of derivation modules as inclusion both ways,
dense matrices and vectors and their conversion to and from the library's
sparse rows {col: entry} and vectors {i: c}, dense matrix products, dense
action matrices of a module and the common kernel of some of them, a Lie
algebra's brackets as dense vectors, a matrix Lie algebra's structure
constants and gl2, the Jacobi identity on every triple of
a structure table, a vector field's action and bracket on its coefficient
Polynomials, a module conjugated by a rational unitriangular matrix, the
Fraction rref that linalg's fraction-free elimination replaced, the weight
search that tried every point of the box [1, d]^k, monomiality decided
by the membership of each candidate monomial, the variable x_i and the
partial d/dx_i, the Groebner basis built with S-pairs taken position by
position, and the polynomial grammar parsed with one Polynomial per atom."""

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from algebroids import derivations, groebner, linalg
from algebroids.derivations import Derivation
from algebroids.errors import ParseError, PreconditionError
from algebroids.groebner import FreeModuleElement, groebner_basis
from algebroids.liealg import span_lie_algebra
from algebroids.poly import Polynomial, _exact, _Tokens, divides, minimal_monomials, mono_mul
from algebroids.repmod import MatrixRep


@lru_cache(maxsize=None)
def partitions_in_rectangle(m, d, n):
    """Number of partitions of m with at most n parts, each part at most d."""
    if d < 0 or n < 0:
        raise ValueError("rectangle sides must be non-negative")
    if m < 0 or m > n * d:
        return 0
    if m == 0:
        return 1
    # split on whether some part equals d
    return partitions_in_rectangle(m, d - 1, n) + partitions_in_rectangle(m - d, d, n - 1)


def same_ideal(a, b):
    """Each ideal contains the other's generators."""
    return all(b.contains(g) for g in a.gens) and all(a.contains(g) for g in b.gens)


def _module_basis(derivations, weights):
    return groebner_basis([d.vector for d in derivations], weights)


def module_contains(dm, delta):
    """Whether the DerivationModule dm contains delta: one module Groebner
    basis of its generators, under the weighted grevlex order (position over
    term), built for this call; membership does not depend on the order."""
    if not dm.generators:
        return delta.is_zero()
    return _module_basis(dm.generators, dm.weights).contains(delta.vector)


def variable(nvars, i):
    """The polynomial x_i of Q[x_1..x_nvars]."""
    return Polynomial.monomial(nvars, [int(j == i) for j in range(nvars)])


def partial(nvars, i):
    """The field d/dx_i of Q[x_1..x_nvars]."""
    return Derivation([Polynomial.one(nvars) if j == i else Polynomial.zero(nvars)
                       for j in range(nvars)])


def same_module(dm, derivations):
    """The DerivationModule dm and the module the derivations generate
    contain each other's generators."""
    others = [d for d in derivations if not d.is_zero()]
    if not others or not dm.generators:
        return not others and not dm.generators
    mine = _module_basis(dm.generators, dm.weights)
    if not all(mine.contains(d.vector) for d in others):
        return False
    theirs = _module_basis(others, dm.weights)
    return all(theirs.contains(g.vector) for g in dm.generators)


def zeros(n, m):
    return [[0] * m for _ in range(n)]


def identity(n):
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = 1
    return mat


def mat_vec(a, v):
    return [sum((c * x for c, x in zip(row, v) if x), 0) for row in a]


def mat_mul(a, b):
    """Dense product of two matrices given as lists of rows."""
    return [[sum((x * row[j] for x, row in zip(ai, b)), 0) for j in range(len(b[0]))]
            for ai in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def sparse(v):
    """The sparse vector {i: c} of a dense vector."""
    return {i: c for i, c in enumerate(v) if c}


def dense(v, n):
    """The dense vector of length n of a sparse vector {i: c}."""
    return [v.get(i, 0) for i in range(n)]


def sparse_rows(matrix):
    """The rows {col: entry} of a dense matrix given as a list of rows."""
    return [sparse(row) for row in matrix]


def dense_rows(rows, width):
    """The dense matrix of sparse rows {col: entry} with width columns."""
    return [dense(row, width) for row in rows]


def lie_algebra_from_matrices(mats, labels=None):
    """Structure constants of a matrix Lie algebra spanned by the given
    (linearly independent) matrices, closed under commutator."""
    def flat(m):
        return [c for row in m for c in row]

    def commutator(a, b):
        ab, ba = flat(mat_mul(mats[a], mats[b])), flat(mat_mul(mats[b], mats[a]))
        return sparse([x - y for x, y in zip(ab, ba)])

    return span_lie_algebra([sparse(flat(m)) for m in mats], commutator, labels)


def gl2():
    """Basis E11, E12, E21, E22 of 2x2 matrices."""
    units = []
    for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        m = zeros(2, 2)
        m[i][j] = Fraction(1)
        units.append(m)
    return lie_algebra_from_matrices(units, labels=["E11", "E12", "E21", "E22"])


def matrix_rep(algebra, matrices):
    """The MatrixRep of dense action matrices, one per basis element."""
    return MatrixRep(algebra, [sparse_rows(zip(*m)) for m in matrices])


def dense_matrices(rep):
    """rho(e_k) of a MatrixRep as dense matrices with Fraction entries."""
    return [[[Fraction(col.get(r, 0)) for col in m] for r in range(rep.dim)]
            for m in rep.columns]


def invariants_dimension(rep, nil):
    """Common kernel of the listed action matrices (basis indices or explicit
    matrices); returns (dimension, kernel basis)."""
    stacked = []
    dense = dense_matrices(rep)
    for item in nil:
        stacked.extend(dense[item] if isinstance(item, int) else item)
    basis = linalg.kernel_basis(sparse_rows(stacked), rep.dim)
    return len(basis), basis


def unitriangular(n):
    """Sparse rows of the n x n matrix P with 1 on the diagonal, 1 .. n-1 on
    the superdiagonal and -1/2 in the top right corner (n >= 3)."""
    rows = [{i: 1, i + 1: i + 1} for i in range(n - 1)] + [{n - 1: 1}]
    rows[0][n - 1] = Fraction(-1, 2)
    return rows


def conjugated(rep, p):
    """The MatrixRep P^-1 rho P of a MatrixRep, for the sparse rows p of an
    upper unitriangular P: each column of rho P is solved against P by back
    substitution."""
    n = rep.dim
    p_columns = [{} for _ in range(n)]
    for u, row in enumerate(p):
        for v, a in row.items():
            p_columns[v][u] = a
    columns = []
    for m in rep.columns:
        out = []
        for p_column in p_columns:
            x = {}
            for u, a in p_column.items():
                for r, b in m[u].items():
                    x[r] = x.get(r, 0) + a * b
            y = {}
            for i in reversed(range(n)):
                c = x.get(i, 0) - sum(a * y.get(j, 0) for j, a in p[i].items() if j > i)
                if c:
                    y[i] = c
            out.append(y)
        columns.append(out)
    return MatrixRep(rep.algebra, columns)


def dense_brackets(algebra):
    """{(i, j): [e_i, e_j] as a tuple of length dim} for the nonzero brackets
    with i < j, read off the algebra's sparse table."""
    return {(i, j): tuple(row.get(k, 0) for k in range(algebra.dim))
            for (i, j), row in algebra._table.items() if i < j}


def jacobi_holds(table, n):
    """Whether the antisymmetric sparse table (i, j) -> {k: c_ij^k} of an
    n-dimensional algebra satisfies the Jacobi identity: the cyclic sum of
    [[e_a, e_b], e_c] over every triple i < j < k vanishes."""
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in table.get((a, b), {}).items():
                        for t, y in table.get((m, c), {}).items():
                            total[t] = total.get(t, 0) + x * y
                if any(total.values()):
                    return False
    return True


def jm_by_membership(ideal):
    """The i for which some generator g of the ideal has d g/d x_i outside
    it, by a normal form of each derivative: J_m of a monomial ideal, the
    partial derivatives that are not tangent to it."""
    return [i for i in range(ideal.nvars)
            if not all(ideal.contains(g.diff(i)) for g in ideal.gens)]


def apply_field(delta, f):
    """sum_i a_i df/dx_i over the coefficient Polynomials a_i of delta,
    accumulating c1 * c2 * e_i x^(a + e - 1_i) for each term c1 x^a of a_i
    and c2 x^e of f with e_i > 0."""
    terms = {}
    for i, a in enumerate(delta.coefficients):
        for e, c2 in f.terms.items():
            if not e[i]:
                continue
            lowered = list(e)
            lowered[i] -= 1
            c = c2 * e[i]
            for exp, c1 in a.terms.items():
                key = mono_mul(exp, lowered)
                terms[key] = terms.get(key, 0) + c1 * c
    return Polynomial(delta.nvars, terms)


def bracket_fields(delta, eta):
    """[delta, eta] as the Derivation whose k-th coefficient is
    delta(b_k) - eta(a_k), for delta = sum a_i d/dx_i and eta = sum b_i d/dx_i."""
    return Derivation([apply_field(delta, b) - apply_field(eta, a)
                       for a, b in zip(delta.coefficients, eta.coefficients)])


def _subtract(target, c, row):
    """target -= c * row, both dicts of nonzero entries."""
    for j, x in row.items():
        y = target.get(j, 0) - c * x
        if y:
            target[j] = y
        else:
            target.pop(j, None)


def fraction_rref(rows):
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


def enumerated_weights(f):
    """quasi_homogeneous_weights by enumeration: for each d, every a in
    [1, d]^k, k the kernel dimension, and the least w = d u + sum a_j k_j
    that is positive and integral.  Its guards (no rational solution, no
    positive real one) are the library's."""
    n = f.nvars
    exps = sorted(f.terms)
    used = [i for i in range(n) if any(e[i] for e in exps)]
    if not used:
        return None
    if f.is_homogeneous():
        return (1,) * n, f.degree()
    width = len(used)
    rows = [{j: e[i] for j, i in enumerate(used) if e[i]} for e in exps]
    u = linalg.solve([{**row, width: 1} for row in rows], width, 1)[0]
    if u is None:
        return None
    kernel = linalg.kernel_basis(rows, width)
    scale = lcm(*(x.denominator for v in [u] + kernel for x in v))
    u = [int(x * scale) for x in u]
    kernel = [[int(x * scale) for x in k] for k in kernel]
    if not derivations._strictly_feasible(list(zip(u, *kernel))):
        return None
    for d in range(1, 101):
        base = [d * x for x in u]
        best = None
        for a in product(range(1, d + 1), repeat=len(kernel)):
            w = base
            for c, k in zip(a, kernel):
                w = [x + c * y for x, y in zip(w, k)]
            if all(x > 0 and x % scale == 0 for x in w):
                w = tuple(x // scale for x in w)
                if best is None or w < best:
                    best = w
        if best is not None:
            full = [1] * n
            for i, x in zip(used, best):
                full[i] = x
            return tuple(full), d
    return None


def monomialize_by_membership(ideal):
    """monomialize by membership: every term of every generator is divisible
    by a minimal monomial among those terms, so the ideal lies in the ideal
    of the candidate monomials, and only the converse needs a check."""
    if ideal.is_unit():
        raise PreconditionError("unit ideal")
    monos = set()
    for g in ideal.gens:
        monos.update(g.terms)
    candidate = [Polynomial.monomial(ideal.nvars, e) for e in minimal_monomials(monos)]
    if all(ideal.contains(g) for g in candidate):
        return candidate
    return None


def position_first_basis(gens, weights=None):
    """The reduced Groebner basis as the engine built it before it chose
    S-pairs by degree or sugar: Buchberger's loop pops the pair of least lcm under
    the position-over-term order, so it works position by position, with
    the coprimality criterion (ideals only) and the chain criterion, fraction
    free on the engine's own reduction."""
    key = groebner.order_key(weights)
    items = [g for g in gens if not g.is_zero()]
    nvars, rank = items[0].nvars, items[0].rank
    basis, leads, buckets, pairs, done = [], [], {}, [], set()

    def add(terms):
        j = len(basis)
        mono = min(terms, key=key)
        element = FreeModuleElement(nvars, rank, linalg.primitive(terms, mono))
        (pos, exp), coeff = lead = mono, element.terms[mono]
        for i, lexp, _c in buckets.get(pos, ()):
            if len(terms) > 1 or len(basis[i].terms) > 1:
                lcm_key = key((pos, groebner._lcm_exp(lexp, exp)))
                heapq.heappush(pairs, (tuple(-x for x in lcm_key), i, j))
        basis.append(element)
        leads.append(lead)
        buckets.setdefault(pos, []).append((j, exp, coeff))

    for g in items:
        add(g.terms)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        p, ei = leads[i][0]
        ej = leads[j][0][1]
        if rank == 1 and all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        L = groebner._lcm_exp(ei, ej)
        if any(k != i and k != j and divides(ek, L)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k, ek, _c in buckets[p]):
            continue
        spoly = linalg.eliminate(basis[i].mul_term(groebner._quot(L, ei)).terms,
                                 basis[j].mul_term(groebner._quot(L, ej)).terms, (p, L))
        rem = groebner._reduce(spoly, buckets, basis, key)[0]
        if rem:
            add(rem)
    keep = []
    for bucket in buckets.values():
        first = {exp: k for k, exp, _c in reversed(bucket)}
        keep += [first[exp] for exp in minimal_monomials(first)]
    keep.sort()
    basis = [basis[k] for k in keep]
    leads = [leads[k] for k in keep]
    buckets = groebner._buckets(leads)
    reduced = {}
    for element, (mono, coeff) in zip(basis, leads):
        rem, scale = groebner._reduce({m: c for m, c in element.terms.items() if m != mono},
                                      buckets, basis, key)
        reduced[mono] = FreeModuleElement(nvars, rank,
                                          linalg.primitive({mono: coeff * scale, **rem}, mono))
    monos = sorted(reduced, key=key)
    return groebner.GroebnerBasis(key, [reduced[m] for m in monos], monos, nvars, rank)


def parse_poly_by_atoms(text, varnames):
    """The polynomial grammar parsed with one Polynomial per atom, each
    product and power taken on Polynomials."""
    nvars = len(varnames)
    index = {name: i for i, name in enumerate(varnames)}
    toks = _Tokens(text)

    def parse_sum():
        sign = 1
        while toks.peek() in ("+", "-"):
            if toks.next() == "-":
                sign = -sign
        node = parse_product() * sign
        while toks.peek() in ("+", "-"):
            sign = 1
            while toks.peek() in ("+", "-"):
                if toks.next() == "-":
                    sign = -sign
            node = node + parse_product() * sign
        return node

    def parse_product():
        node = parse_power()
        while True:
            tok = toks.peek()
            if tok == "*":
                toks.next()
                node = node * parse_power()
            elif tok == "(" or (isinstance(tok, tuple) and tok[0] == "name"):
                node = node * parse_power()
            else:
                return node

    def parse_power():
        base = parse_atom()
        if toks.peek() == "^":
            toks.next()
            tok = toks.next()
            if not (isinstance(tok, tuple) and tok[0] == "int"):
                raise ParseError("exponent must be a non-negative integer")
            return base ** tok[1]
        return base

    def parse_atom():
        tok = toks.next()
        if tok == "(":
            node = parse_sum()
            if toks.next() != ")":
                raise ParseError("missing closing parenthesis")
            return node
        if isinstance(tok, tuple) and tok[0] == "int":
            num = tok[1]
            if toks.peek() == "/":
                toks.next()
                den = toks.next()
                if not (isinstance(den, tuple) and den[0] == "int") or den[1] == 0:
                    raise ParseError("bad rational literal")
                return Polynomial.constant(nvars, Fraction(num, den[1]))
            return Polynomial.constant(nvars, num)
        if isinstance(tok, tuple) and tok[0] == "name":
            if tok[1] not in index:
                raise ParseError(f"undeclared variable {tok[1]!r}")
            return variable(nvars, index[tok[1]])
        raise ParseError(f"unexpected token {tok!r}")

    result = parse_sum()
    if toks.peek() is not None:
        raise ParseError(f"trailing input at token {toks.peek()!r}")
    return result
