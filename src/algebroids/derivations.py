"""Tangential derivation modules T(I), Jacobian/Tjurina ideals,
quasi-homogeneity detection, and monomial-ideal extraction."""

from itertools import combinations, count
from math import gcd, perm

from . import linalg
from .errors import PreconditionError
from .groebner import FreeModuleElement, Ideal, syzygies
from .poly import Polynomial, default_varnames, format_poly, minimal_monomials, mono_mul, wdeg


class Derivation:
    """Vector field sum a_i d/dx_i, held as its element of A^n: position i
    holds the terms of a_i."""

    __slots__ = ("vector",)

    def __init__(self, coefficients):
        self.vector = FreeModuleElement.from_polys(list(coefficients))
        if self.vector.rank != self.nvars:
            raise ValueError("need one coefficient per variable")

    @property
    def nvars(self):
        return self.vector.nvars

    @property
    def coefficients(self):
        return self.vector.to_polys()

    @classmethod
    def from_vector(cls, vec):
        """The field whose element of A^n is vec, held without a copy."""
        delta = cls.__new__(cls)
        delta.vector = vec
        return delta

    def apply(self, f):
        """sum_i a_i df/dx_i."""
        if f.nvars != self.nvars:
            raise ValueError("mixing polynomials from different rings")
        terms = _derive(self.vector.terms, {(0, e): c for e, c in f.terms.items()}, {}, 1)
        return Polynomial(self.nvars, {e: c for (_, e), c in terms.items()})

    def bracket(self, other):
        """[self, other], whose k-th coefficient is self(b_k) - other(a_k)."""
        a, b = self.vector.terms, other.vector.terms
        terms = _derive(b, a, _derive(a, b, {}, 1), -1)
        return Derivation.from_vector(FreeModuleElement(self.nvars, self.nvars, terms))

    def is_zero(self):
        return not self.vector.terms

    def vanishes_at_origin(self):
        return all(any(exp) for _, exp in self.vector.terms)

    def linear_part(self):
        """Sparse columns {row: entry} of the induced action on m/m^2 in the
        basis x_1..x_n: column i is the linear part of delta(x_i) = a_i,
        {j: c} for its terms c x_j."""
        columns = [{} for _ in range(self.nvars)]
        for (i, exp), c in self.vector.terms.items():
            if wdeg(exp) == 1:
                columns[i][exp.index(1)] = c
        return columns

    def __eq__(self, other):
        return isinstance(other, Derivation) and self.vector == other.vector

    def format(self, varnames=None):
        names = varnames or default_varnames(self.nvars)
        parts = [f"({format_poly(c, names)})*d/d{name}"
                 for name, c in zip(names, self.coefficients) if not c.is_zero()]
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"Derivation({self.format()})"


def _derive(field, terms, out, sign):
    """out plus sign * delta(p_pos) at each position pos, for the terms
    {(i, x^a): c} of delta = sum a_i d/dx_i and {(pos, x^e): c} of
    sum p_pos e_pos: c1 x^a in a_i and c2 x^e with e_i > 0 add
    sign * c1 * c2 * e_i x^(a + e - 1_i) at pos."""
    by_var = {}
    for (i, exp), c in field.items():
        by_var.setdefault(i, []).append((exp, c if sign > 0 else -c))
    for (pos, e), c2 in terms.items():
        for i, a in by_var.items():
            if not e[i]:
                continue
            lowered = list(e)
            lowered[i] -= 1
            c = c2 * e[i]
            for exp, c1 in a:
                key = (pos, mono_mul(exp, lowered))
                out[key] = out.get(key, 0) + c1 * c
    return out


class DerivationModule:
    """Finite generating set of derivations preserving a given ideal."""

    __slots__ = ("nvars", "weights", "generators", "ideal")

    def __init__(self, generators, ideal):
        self.generators = [g for g in generators if not g.is_zero()]
        self.ideal = ideal
        self.nvars = ideal.nvars
        self.weights = ideal.weights
        for delta in self.generators:
            for f in ideal.gens:
                if not ideal.contains(delta.apply(f)):
                    raise PreconditionError("generator does not preserve the ideal")

    def all_vanish_at_origin(self):
        return all(g.vanishes_at_origin() for g in self.generators)

    def __repr__(self):
        return f"DerivationModule({self.generators!r})"


def tangent_derivations(ideal):
    """Generators of {delta : delta(f) in I for every generator f of I}.

    Computed as one module-kernel (syzygy) computation: syzygies of the
    Jacobian columns augmented by the ideal generators in each slot.  The
    zero ideal has n zero columns of rank 0, whose syzygies are the partials
    d/dx_1, ..., d/dx_n in order: T(0) = Der(A).
    """
    if ideal.is_unit():
        raise PreconditionError("unit ideal")
    n = ideal.nvars
    fs = ideal.gens
    s = len(fs)
    columns = [FreeModuleElement(n, s, {(j, e): c for j, f in enumerate(fs)
                                        for e, c in f.diff(i).terms.items()})
               for i in range(n)]
    columns += [FreeModuleElement(n, s, {(j, e): c for e, c in g.terms.items()})
                for g in fs for j in range(s)]
    derivations = []
    seen = set()
    for syz in syzygies(columns):
        proj = syz.project(list(range(n)))
        if proj.is_zero() or proj in seen:
            continue
        seen.add(proj)
        derivations.append(Derivation.from_vector(proj))
    return DerivationModule(derivations, ideal)


def krull_dimension(ideal):
    """Krull dimension of A/I in the graded polynomial model.

    The dimension of A/in(I) is the pole order at t = 1 of its Hilbert
    series K(t, ..., t) / (1 - t)^n, so n minus the order of t = 1 as a root
    of K(t, ..., t), K the K-polynomial of the initial ideal: the least k with
    K^(k)(1) = sum c d!/(d - k)! != 0 over K's sparse terms c t^d.
    """
    k = k_polynomial(ideal.leading_exponents(), ideal.nvars)
    if not k:
        return -1  # the unit ideal
    terms = [(wdeg(exp), c) for exp, c in k.items()]
    return ideal.nvars - next(j for j in count() if sum(c * perm(d, j) for d, c in terms))


def jacobian_ideal(ideal):
    """I plus all r x r minors of the Jacobian matrix, r = height of I.

    For a principal ideal this is the Tjurina ideal (f, df/dx_1, ...).
    """
    if ideal.is_unit():
        raise PreconditionError("unit ideal")
    n = ideal.nvars
    fs = ideal.gens
    s = len(fs)
    height = n - krull_dimension(ideal)
    if height < 1 or height > min(n, s):
        raise PreconditionError("height undetermined")
    jac = [[f.diff(i) for i in range(n)] for f in fs]  # s x n
    minors = []
    for rows in combinations(range(s), height):
        for cols in combinations(range(n), height):
            minors.append(_det([[jac[r][c] for c in cols] for r in rows]))
    return Ideal(n, fs + minors, ideal.weights)


def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    out = Polynomial.zero(mat[0][0].nvars)
    for j, top in enumerate(mat[0]):
        if top.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = top * _det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def quasi_homogeneous_weights(f):
    """Positive integer weights w (gcd 1) and degree d <= 100 with f
    quasi-homogeneous, minimizing d; None when no positive solution exists.

    The first feasible d has gcd(w, d) = 1: a common factor g would make
    d/g feasible with w/g, and d/g was tried first."""
    if f.is_zero():
        raise PreconditionError("zero polynomial")
    n = f.nvars
    exps = sorted(f.terms)
    used = [i for i in range(n) if any(e[i] for e in exps)]
    if not used:
        return None
    if f.is_homogeneous():
        return (1,) * n, f.degree()
    # alpha . w = d over the used variables is w = d u + sum a_j k_j, with u
    # solving alpha . u = 1 and k_j the kernel basis (k_j is 1 at the j-th
    # free coordinate, where u is 0); unused variables get weight 1.  Both
    # are scaled by one common denominator (linalg.integral of their
    # entries), so w = (d U + sum a_j K_j) / scale
    width = len(used)
    rows = [{j: e[i] for j, i in enumerate(used) if e[i]} for e in exps]
    u = linalg.solve([{**row, width: 1} for row in rows], width, 1)[0]
    if u is None:
        return None
    kernel = linalg.kernel_basis(rows, width)
    scale, ints = linalg.integral({(k, i): x for k, v in enumerate([u] + kernel)
                                   for i, x in enumerate(v)})
    u, *kernel = [[ints[k, i] for i in range(width)] for k in range(len(kernel) + 1)]
    if not _strictly_feasible(list(zip(u, *kernel))):
        return None
    for d in range(1, 101):
        best = _least_weights([d * x for x in u], kernel, scale, d)
        if best is not None:
            full = [1] * n
            for i, x in zip(used, best):
                full[i] = x
            return tuple(full), d
    return None


def _least_weights(w, kernel, scale, d):
    """The least (w + sum_j a_j K_j) / scale over ints a_j in [1, d] whose
    entries are ints in [1, d] (a used variable's weight is at most d), or
    None.  Depth first over a_1, a_2, ...: a branch is cut once some entry
    can no longer land in [scale, d * scale] with the a_j left in [1, d]."""
    cols = list(zip(*kernel)) or [()] * len(w)
    if not all(scale - sum(max(y, d * y) for y in c) <= x <= d * scale - sum(min(y, d * y) for y in c)
               for x, c in zip(w, cols)):
        return None
    if not kernel:
        return tuple(x // scale for x in w) if all(x % scale == 0 for x in w) else None
    found = (_least_weights([x + a * y for x, y in zip(w, kernel[0])], kernel[1:], scale, d)
             for a in range(1, d + 1))
    return min((v for v in found if v is not None), default=None)


def _strictly_feasible(rows):
    """Whether some real a has c_0 + sum_j c_j a_j > 0 for every integer row
    (c_0, c_1, ...): Fourier-Motzkin elimination of a_1, a_2, ... in turn
    (Schrijver, Theory of Linear and Integer Programming, 1986, 12.2).  A
    lower and an upper bound on a_j combine to a row free of a_j, kept
    primitive; the system is feasible when every constant row left is
    positive."""
    rows = {tuple(r) for r in rows}
    for j in range(1, len(next(iter(rows)))):
        pos = [r for r in rows if r[j] > 0]
        neg = [r for r in rows if r[j] < 0]
        rows = {r for r in rows if r[j] == 0}
        for p in pos:
            for q in neg:
                row = [-q[j] * x + p[j] * y for x, y in zip(p, q)]
                g = gcd(*row) or 1
                rows.add(tuple(x // g for x in row))
    return all(r[0] > 0 for r in rows)


def k_polynomial(exps, nvars):
    """The K-polynomial of the monomial ideal I generated by x^e, e in exps:
    the numerator of the multigraded Hilbert series K / prod (1 - x_i) of
    A/I, as {exponent: nonzero integer coefficient}; empty for the unit
    ideal.  Colon recursion K(I) = K(I') - x^m K(I' : x^m), with I = I' +
    (x^m) and x^m a minimal generator of least degree (Bayer and Stillman,
    J. Symbolic Comput. 1992)."""
    gens = minimal_monomials(set(map(tuple, exps)))
    if not gens:
        return {(0,) * nvars: 1}
    m, rest = gens[0], gens[1:]
    if not any(m):
        return {}
    out = k_polynomial(rest, nvars)
    colon = {tuple(max(e - f, 0) for e, f in zip(g, m)) for g in rest}
    for exp, c in k_polynomial(colon, nvars).items():
        key = mono_mul(exp, m)
        out[key] = out.get(key, 0) - c
    return {exp: c for exp, c in out.items() if c}


def monomialize(ideal):
    """Minimal monomial generators when the ideal is monomial in the given
    coordinates; None otherwise.

    An ideal is monomial exactly when its reduced Groebner basis consists of
    monomials.  Then every term of a generator lies in the ideal, and the
    terms generate it, so their minimal ones are its minimal generators."""
    if ideal.is_unit():
        raise PreconditionError("unit ideal")
    if any(len(g.terms) > 1 for g in ideal.groebner().elements):
        return None
    monos = set()
    for g in ideal.gens:
        monos.update(g.terms)
    return [Polynomial.monomial(ideal.nvars, e) for e in minimal_monomials(monos)]
