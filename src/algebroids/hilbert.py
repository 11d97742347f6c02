"""Hilbert series of weighted-graded quotients, equivariant torus-character
series of monomial ideals, J-adic graded pieces, and dimension/multiplicity
extraction from rational series."""

from math import comb, factorial
from types import SimpleNamespace

from .derivations import k_polynomial, monomialize
from .errors import PreconditionError
from .poly import _exact, divides, monomials, wdeg
from .series import (CharacterSeries, RationalSeries, SeriesPrefix,
                     quasi_polynomial_of, reconstruct_rational)


def hilbert_series_quotient(ideal):
    """Hilbert series of A/I for a weighted-homogeneous ideal I:
    K(t^w_1, ..., t^w_n) / prod (1 - t^{w_i}), K the K-polynomial of in(I)
    (1 for the zero ideal).  The numerator is a dense coefficient list, so
    its degree, read off K's sparse terms first, must be at most 10^5."""
    weights = ideal.weights
    if not ideal.is_quasi_homogeneous():
        raise PreconditionError("not homogeneous")
    k = k_polynomial(ideal.leading_exponents(), ideal.nvars)
    top = max((wdeg(exp, weights) for exp in k), default=-1)
    if top > 10 ** 5:
        raise PreconditionError(f"Hilbert series numerator of degree {top} is outside desk scale")
    coeffs = [0] * (top + 1)
    for exp, c in k.items():
        coeffs[wdeg(exp, weights)] += c
    return RationalSeries(coeffs, [(w, 1) for w in weights])


def _standard_monomial_characters(gens, weights, bound):
    """Map weighted degree -> {exponent: 1} over monomials outside the ideal."""
    coeffs = {}
    for deg in range(bound + 1):
        for exp in monomials(weights, deg):
            if not any(divides(g, exp) for g in gens):
                coeffs.setdefault(deg, {})[exp] = 1
    return coeffs


def equivariant_series_monomial(ideal, bound=12):
    """Torus-character Hilbert series of A/I for a monomial ideal I.

    Closed form: the K-polynomial of I over prod (1 - x_i t^{w_i});
    explicit coefficients through the bound by direct standard-monomial
    enumeration.
    """
    weights = ideal.weights
    n = ideal.nvars
    monos = monomialize(ideal)
    if monos is None:
        raise PreconditionError("not monomial with respect to coordinate torus")
    gens = [next(iter(m.terms)) for m in monos]
    closed_terms = [(c, exp, wdeg(exp, weights))
                    for exp, c in k_polynomial(gens, n).items()]
    closed_den = []
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        closed_den.append((unit, weights[i]))
    coeffs = _standard_monomial_characters(gens, weights, bound)
    return CharacterSeries(n, coeffs, bound, closed_terms, closed_den)


class GradedPieceReport(SimpleNamespace):
    """Dimensions of J^i / J^{i+1} with a reconstructed series and the
    (dimension, multiplicity) pair of the cumulative quasi-polynomial."""

    def to_json(self):
        out = {
            "dims": [[i, d] for i, d in self.dims],
            "series": self.series.to_json(),
            "dimension": self.dimension,
            "multiplicity": str(self.multiplicity),
            "lengths_certified": self.lengths_certified,
            "quasi_polynomial": self.quasi.to_json(),
        }
        if self.caveat:
            out["caveat"] = self.caveat
        return out


def graded_pieces_series(j_ideal, m_spec="ring", depth=8, solvable_certificate=False):
    """Series of the J-adic associated graded ring sum dim(J^i/J^{i+1}) t^i.

    m_spec must be "ring" (M = A).  When J is quasi-homogeneous, m-primary
    and has exactly n = nvars minimal generators, they form a regular
    sequence (height n = number of forms in a Cohen-Macaulay ring), so
    gr_J(A) = (A/J)[y_1..y_n] (Matsumura, Thm 16.2) and the dims are proved:
    l(A/J) C(i+n-1, n-1), the series l(A/J)/(1-t)^n, with no power of J
    built.  Otherwise the dims are colength differences of J^0..J^{depth+1}
    and the series is fitted to them against (1-t)^n: J being m-primary,
    gr_J(A) has Krull dimension n, so its series is h(t)/(1-t)^n with h a
    polynomial (Matsumura, Commutative Ring Theory, Thm 13.4).  Dimensions
    are exact vector-space dimensions; they equal lengths under a
    solvability certificate, otherwise the report carries a caveat.
    """
    if m_spec != "ring":
        raise PreconditionError("only M = A is supported")
    colength = j_ideal.colength()
    if colength is None:
        raise PreconditionError("J not m-primary")
    mu = len(j_ideal.minimal_generators())
    n = j_ideal.nvars
    if mu == n and j_ideal.is_quasi_homogeneous():
        counts = [colength * comb(i + n - 1, n - 1) for i in range(depth + 1)]
        series = RationalSeries([colength], [(1, n)])
    else:
        colengths = []
        for i in range(depth + 2):
            power = j_ideal.power(i)
            c = 0 if power.is_unit() else power.colength()
            if c is None:
                raise PreconditionError("J not m-primary")
            colengths.append(c)
        counts = [b - a for a, b in zip(colengths, colengths[1:])]
        series = reconstruct_rational(SeriesPrefix(counts), [(1, n)])
    dims = list(enumerate(counts))
    quasi = quasi_polynomial_of(series)
    d, e = dimension_multiplicity(series, quasi)
    caveat = None if solvable_certificate else "lengths reported as dimensions; requires solvable fibre"
    return GradedPieceReport(dims=dims, series=series, quasi=quasi, dimension=d,
                             multiplicity=e, lengths_certified=solvable_certificate,
                             caveat=caveat)


def dimension_multiplicity(rs, coeff_qp=None):
    """(d, e) of a length series: the length function grows like (e/d!) n^d.

    When the coefficient function of rs is an honest polynomial the series
    is read as a graded-pieces series and the Hilbert-Samuel function is its
    cumulative sum; when it is genuinely periodic (a covariant-type series)
    the coefficient quasi-polynomial carries (d, e) directly.  coeff_qp is
    quasi_polynomial_of(rs) when the caller has already fitted it.
    """
    if not rs.numerator:
        return 0, 0
    if coeff_qp is None:
        coeff_qp = quasi_polynomial_of(rs)
    poly = coeff_qp.residues[0]
    if any(p != poly for p in coeff_qp.residues):
        d = coeff_qp.degree
        return d, _exact(factorial(d) * coeff_qp.leading_coefficient())
    if poly:
        # sum_{i<=n} of a n^k + ... is a n^(k+1)/(k+1) + ...
        k = len(poly) - 1
        return k + 1, _exact(factorial(k) * poly[-1])
    # the coefficients vanish from the numerator's degree on: the partial
    # sums are eventually the constant sum of the first ones
    return 0, sum(rs.expand(rs.numerator_degree).coeffs)
