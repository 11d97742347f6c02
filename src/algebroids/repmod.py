"""Explicit matrix modules over structure-constant Lie algebras: sl2 weight
theory, Cayley-Sylvester counts, and the rank-one filtration of R (x) V_d
over the sl2 algebroid on Q[x]."""

from fractions import Fraction

from . import linalg
from .errors import AlgebroidError, InconsistencyError, PreconditionError
from .groebner import FreeModuleElement
from .liealg import represents, sl2
from .poly import _exact, monomials
from .series import divide_denominator, multiply_denominator


class MatrixRep:
    """Action matrices rho(e_k), one per basis element of the algebra, each
    given as its sparse columns; a dense column is refused.  The state is
    columns[k][v] = {r: entry} alone, the image of basis vector v under
    rho(e_k), each entry an int when integral and a Fraction otherwise.

    Bracket compatibility rho([x,y]) = [rho(x), rho(y)] is checked exactly on
    construction, for every pair of basis elements and every column.  A
    non-abelian representation given transposed (by rows) fails the check:
    rho^T represents the opposite algebra.
    """

    __slots__ = ("algebra", "dim", "columns")

    def __init__(self, algebra, columns):
        if len(columns) != algebra.dim:
            raise ValueError("need one matrix per basis element")
        if not all(isinstance(col, dict) for m in columns for col in m):
            raise ValueError("action matrices must be given as sparse columns {row: entry}")
        self.algebra = algebra
        self.dim = len(columns[0]) if columns else 0
        if not all(len(m) == self.dim and all(max(col, default=-1) < self.dim for col in m)
                   for m in columns):
            raise ValueError("action matrices must be square and of one size")
        self.columns = [[{r: _exact(c) for r, c in col.items() if c} for col in m]
                        for m in columns]
        self._validate()

    def _validate(self):
        if not represents(self.algebra, self.columns):
            raise AlgebroidError("matrices do not represent the bracket")

    def __repr__(self):
        return f"MatrixRep(algebra dim {self.algebra.dim}, module dim {self.dim})"


def binary_form_rep(d):
    """sl2 acting on binary forms of degree d; basis v_k = x^(d-k) y^k.

    H v_k = (d-2k) v_k, X v_k = k v_{k-1}, Y v_k = (d-k) v_{k+1}, as sparse
    columns: column k of H holds d-2k at row k, column k of X holds k at
    row k-1 and column k of Y holds d-k at row k+1.
    """
    n = d + 1
    h = [{k: d - 2 * k} for k in range(n)]
    x = [{}] + [{k - 1: k} for k in range(1, n)]
    y = [{k + 1: d - k} for k in range(d)] + [{}]
    return MatrixRep(sl2(), [h, x, y])


def polarize(columns, basis):
    """Sparse columns {row: entry} of the derivation action of m, given by
    its sparse columns, on the monomials in basis (all of one degree, e.g.
    poly.monomials), by exact polarization."""
    index = {e: r for r, e in enumerate(basis)}
    out = [{} for _ in basis]
    for image, exp in zip(out, basis):
        for i, col in enumerate(columns):
            if exp[i]:
                for k, c in col.items():
                    # replace one factor v_i by its image term m[k][i] v_k
                    new = list(exp)
                    new[i] -= 1
                    new[k] += 1
                    r = index[tuple(new)]
                    image[r] = image.get(r, 0) + exp[i] * c
    return out


def sym_power_rep(rep, n):
    """Action on S^n(V) by exact polarization of the monomial basis."""
    basis = monomials((1,) * rep.dim, n)
    return MatrixRep(rep.algebra, [polarize(m, basis) for m in rep.columns])


def weight_space_dims(h):
    """Integer eigenvalue -> multiplicity of a diagonal H given by its sparse
    columns {row: entry}, read off the diagonal; None when H is not
    diagonal."""
    if any(r != v for v, col in enumerate(h) for r in col):
        return None
    dims = {}
    for v, col in enumerate(h):
        e = col.get(v, 0)
        if e != int(e):
            raise PreconditionError("H not rationally diagonalizable")
        dims[int(e)] = dims.get(int(e), 0) + 1
    return dict(sorted(dims.items()))


def decompose_sl2(rep):
    """Multiset {highest weight e: multiplicity} of a module over a Q-form
    of sl2: weight-space dimensions when rho(e_1) is diagonal and e_1 is the
    H of an sl2-triple ([e_1, e_2] = 2 e_2, [e_1, e_3] = -2 e_3 and [e_2,
    e_3] a nonzero multiple of e_1), the Casimir (sl2_isotypic) otherwise."""
    # ad e_1 kills [e_2, e_3] (Jacobi), so it is a multiple of e_1
    table = rep.algebra._table
    triple = (rep.algebra.dim == 3 and table.get((0, 1)) == {1: 2}
              and table.get((0, 2)) == {2: -2} and (1, 2) in table)
    dims = weight_space_dims(rep.columns[0]) if triple else None
    if dims is None:
        return sl2_isotypic(rep)
    mults = {}
    for e in sorted(dims):
        if e < 0:
            continue
        m = dims.get(e, 0) - dims.get(e + 2, 0)
        if m < 0:
            raise InconsistencyError("negative multiplicity in weight decomposition")
        if m:
            mults[e] = m
    if sum((e + 1) * m for e, m in mults.items()) != rep.dim:
        raise InconsistencyError("weight multiplicities do not sum to the dimension")
    return mults


def _casimir(rep):
    """Sparse columns of the Casimir C = sum (kappa^-1)_ij rho_i rho_j of a
    module over a Q-form of sl2, kappa its Killing form."""
    kappa = rep.algebra.killing_matrix()
    dim = len(kappa)
    # column j of kappa^-1 solves kappa x = e_j, and kappa is symmetric
    kappa_inv = linalg.solve([{**row, dim + i: 1} for i, row in enumerate(kappa)], dim, dim)
    if dim != 3 or None in kappa_inv:
        raise PreconditionError("not a form of sl2")
    pairs = [(i, j) for i in range(3) for j in range(3) if kappa_inv[i][j]]
    coeffs = {k: kappa_inv[i][j] for k, (i, j) in enumerate(pairs)}
    casimir = []
    for v in range(rep.dim):
        # column v of rho_i rho_j is rho_i applied to column v of rho_j
        products = [linalg.combine(rep.columns[j][v], rep.columns[i]) for i, j in pairs]
        casimir.append(linalg.combine(coeffs, products))
    return casimir


def sl2_isotypic(rep):
    """Multiset {k: multiplicity of V_k} of a module over a Q-form of sl2,
    read off the Casimir C (_casimir); C acts on V_k as k(k+2)/8, so
    non-split forms need no rational nilpotent (Humphreys, 6.2 and 7)."""
    casimir = _casimir(rep)
    n = rep.dim
    mults = {}
    filled = 0
    for k in range(n):
        if filled == n:
            break
        shift = Fraction(k * (k + 2), 8)
        shifted = [{**col, v: col.get(v, 0) - shift} for v, col in enumerate(casimir)]
        kernel = n - linalg.rank(shifted)
        if kernel % (k + 1):
            raise InconsistencyError("Casimir eigenspace is not a sum of copies of V_k")
        if kernel:
            mults[k] = kernel // (k + 1)
            filled += kernel
    if filled != n:
        raise InconsistencyError("Casimir eigenspaces do not fill the module")
    return mults


def sym_kernel_dims(mults, depth):
    """[dim ker e on S^n(V) for n <= depth] for V = sum of mults[k] copies of
    V_k and any nonzero nilpotent e: the number of irreducible summands of
    S^n(V), i.e. its weight-0 plus weight-1 multiplicities, from the weight
    generating function prod_w 1/(1 - q^w t)."""
    # chars[n] = {weight: multiplicity} of S^n(V)
    chars = [{0: 1}] + [{} for _ in range(depth)]
    for k, m in mults.items():
        for w in range(-k, k + 1, 2):
            for _ in range(m):
                # multiply by 1/(1 - q^w t): S^n gains q^w times the updated S^(n-1)
                for n in range(1, depth + 1):
                    acc = chars[n]
                    for u, c in chars[n - 1].items():
                        acc[u + w] = acc.get(u + w, 0) + c
    return [ch.get(0, 0) + ch.get(1, 0) for ch in chars]


def _gaussian_binomials(d, depth, top):
    """For n = 0..depth, the int coefficients of degree <= top of the
    Gaussian binomial [n+d, d]_q, by [n+d, d] = [n-1+d, d] (1 - q^(n+d)) /
    (1 - q^n); one list, updated in place and yielded once per n.  Both
    steps are triangular (a term depends only on terms of lower degree), so
    the list stops at degree min(nd, top), nd being the degree of [n+d, d]."""
    gauss = [1]
    yield gauss
    for n in range(1, depth + 1):
        gauss += [0] * (min(n * d, top) + 1 - len(gauss))
        yield divide_denominator(multiply_denominator(gauss, [(n + d, 1)]), [(n, 1)])


def cayley_sylvester(n, d, e):
    """[S^n(S^d V) : V_e] = g[m] - g[m-1] for m = (nd - e)/2 and g the
    coefficients of the Gaussian binomial [n+d, d]_q, whose coefficient of
    q^m counts the partitions of m into at most n parts of size at most d."""
    if n < 0 or d < 0 or e < 0:
        raise ValueError("arguments must be non-negative")
    if (n * d - e) % 2 or n * d - e < 0:
        return 0
    m = (n * d - e) // 2
    for gauss in _gaussian_binomials(d, n, m):
        pass
    return gauss[m] - (gauss[m - 1] if m else 0)


def covariant_dimensions(d, depth):
    """[dim C^n_d for n = 0..depth], C^n_d the covariants of degree n of the
    binary d-ic: the number of irreducible summands of S^n(V_d).  The
    Cayley-Sylvester sum over e telescopes to the middle coefficient, of
    q^floor(nd/2), of the Gaussian binomial [n+d, d]_q (Sylvester 1878)."""
    if d < 0 or depth < 0:
        raise ValueError("arguments must be non-negative")
    return [gauss[n * d // 2]
            for n, gauss in enumerate(_gaussian_binomials(d, depth, depth * d // 2))]


# -- Example 3.7: filtration of R (x) V_d over the sl2 algebroid -----------

# anchor of H, X+, X-: (a, s) for the vector field a x^s d/dx on Q[x]
_ANCHOR = {"H": (2, 1), "X+": (1, 2), "X-": (-1, 0)}


def _algebroid_ops(d):
    """H, X+, X- on Q[x] (x) V_d, as op(v) = anchor(v') + rho(op) v on the
    terms of v, with rho = binary_form_rep(d) read by its sparse columns."""
    rank = d + 1

    def make(columns, a, s):
        def op(vec):
            out = {}
            for (j, (k,)), c in vec.terms.items():
                if k:
                    mono = (j, (k - 1 + s,))
                    out[mono] = out.get(mono, 0) + a * k * c
                for r, m in columns[j].items():
                    out[(r, (k,))] = out.get((r, (k,)), 0) + m * c
            return FreeModuleElement(1, rank, out)

        return op

    return {name: make(columns, *_ANCHOR[name])
            for name, columns in zip(("H", "X+", "X-"), binary_form_rep(d).columns)}


def sl2_algebroid_filtration(d):
    """Rank-one filtration of M = Q[x] (x) V_d under the transitive sl2
    algebroid with anchor H -> 2x d/dx, X+ -> x^2 d/dx, X- -> -d/dx.

    Builds the highest vectors m_0 = v_d and m_{i+1} = (X+ - w_i x) m_i,
    w_i = -d + 2i, and checks exactly for each i <= d that m_i != 0, X- m_i
    = 0, H m_i = w_i m_i and that m_i's least position is d - i; at the top
    it checks m_{d+1} = (X+ - w_d x) m_d = 0.  The report follows from these
    checks, with no Groebner basis.

    N_i = Q[x] m_i + ... + Q[x] m_d is closed under the operators.  Every
    operator satisfies op(f v) = f op(v) + anchor(f') v, so a Q[x]-span is
    closed once the images of its generators lie in it, and for j >= i,
    X- m_j = 0, H m_j = w_j m_j and X+ m_j = m_{j+1} + w_j x m_j, where
    m_{d+1} = 0.

    N_i is free of rank d + 1 - i, and N_i / N_{i+1} is free of rank one.
    The least positions d - j of the m_j are distinct, so in a relation
    sum q_j m_j = 0 over Q(x) the largest j with q_j != 0 is alone at
    position d - j: q_j = 0, and the m_j are independent.  N_i / N_{i+1} is
    cyclic, generated by the class mu_i of m_i, and q mu_i = 0 puts q m_i in
    N_{i+1}, so q = 0 by that independence: a cyclic torsion-free module
    over Q[x] is free of rank one.

    X+ mu_i = w_i x mu_i in N_i / N_{i+1}, since m_{i+1} lies in N_{i+1}.
    A scalar c with X+ mu_i = c x mu_i gives (w_i - c) x mu_i = 0, and x mu_i
    != 0, so c = w_i: the half weight w_i / 2 works only when w_i = 0.
    """
    if d < 0:
        raise PreconditionError("degree must be non-negative")
    if d > 400:
        raise PreconditionError("outside desk scale (need 0 <= d <= 400)")
    ops = _algebroid_ops(d)
    weights = [-d + 2 * i for i in range(d + 1)]
    vectors = []
    m_vec = FreeModuleElement(1, d + 1, {(d, (0,)): 1})
    for i, w in enumerate(weights):
        if m_vec.is_zero():
            raise InconsistencyError("filtration vector vanished")
        if not ops["X-"](m_vec).is_zero():
            raise InconsistencyError("X- does not annihilate a filtration vector")
        if ops["H"](m_vec) != m_vec.mul_term((0,), w):
            raise InconsistencyError("H eigenvalue mismatch on a filtration vector")
        if min(pos for pos, _exp in m_vec.terms) != d - i:
            raise InconsistencyError("submodule ranks do not drop by one")
        vectors.append(m_vec)
        m_vec = ops["X+"](m_vec) - m_vec.mul_term((1,), w)
    if not m_vec.is_zero():
        raise InconsistencyError("no scalar quotient relation for X+")
    return {
        "highest_vectors": vectors,
        "weights": weights,
        "ranks": [d + 1 - i for i in range(d + 1)],
        "quotient_count": d + 1,
        "quotient_scalars": [Fraction(w) for w in weights],
        "half_factor_confirmed": all(w == 0 for w in weights),
    }
