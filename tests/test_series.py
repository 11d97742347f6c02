"""Rational series, quasi-polynomials, and character series."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from algebroids import series
from algebroids.errors import AlgebroidError, PreconditionError
from algebroids.groebner import Ideal
from algebroids.hilbert import dimension_multiplicity, equivariant_series_monomial
from algebroids.poly import Polynomial
from algebroids.pipeline import covariants_report
from algebroids.series import (CharacterSeries, QuasiPolynomial,
                               RationalSeries, SeriesPrefix,
                               integrate_characters, quasi_polynomial_of,
                               reconstruct_rational)

from constructs import SemigroupSpec, gamma_restriction
from references import partitions_in_rectangle


# -- partitions: the oracle of the covariant counts -------------------------

def brute_partitions(m, d, n):
    """Partitions of m with at most n parts, each part at most d."""
    count = 0
    def rec(rem, maxpart, slots):
        nonlocal count
        if rem == 0:
            count += 1
            return
        if slots == 0:
            return
        for p in range(min(rem, maxpart), 0, -1):
            rec(rem - p, p, slots - 1)
    rec(m, d, n)
    return count


def test_partitions_examples():
    assert partitions_in_rectangle(0, 5, 5) == 1
    assert partitions_in_rectangle(4, 3, 3) == 3  # (3,1),(2,2),(2,1,1)
    assert partitions_in_rectangle(-1, 3, 3) == 0
    assert partitions_in_rectangle(10, 3, 3) == 0


def test_partitions_against_brute_force():
    for d in range(5):
        for n in range(5):
            for m in range(d * n + 1):
                assert partitions_in_rectangle(m, d, n) == brute_partitions(m, d, n)


def test_partitions_symmetry_and_column_sum():
    for d in range(9):
        for n in range(9):
            total = 0
            for m in range(d * n + 1):
                p = partitions_in_rectangle(m, d, n)
                assert p == partitions_in_rectangle(d * n - m, d, n)
                total += p
            assert total == comb(n + d, d)


# -- expansion and reconstruction ----------------------------------------

def test_expand_examples():
    rs = RationalSeries([1], [(1, 1), (2, 1)])
    assert rs.expand(5).coeffs == [1, 1, 2, 2, 3, 3]
    rs = RationalSeries([1], [(1, 3)])
    assert rs.expand(3).coeffs == [1, 3, 6, 10]
    assert RationalSeries([], [(1, 2)]).expand(4).coeffs == [0] * 5


def test_series_are_equal_only_when_every_coefficient_is():
    # 4 + 3t + 2t^2 + t^3 and (4 - 5t)/(1 - t)^2 = 4 + 3t + 2t^2 + t^3 - t^5 - ...
    # agree past each one's own numerator and denominator degrees, through t^4
    poly = RationalSeries([4, 3, 2, 1], [])
    assert poly != RationalSeries([4, -5], [(1, 2)])
    assert poly == RationalSeries([4, -1, -1, -1, -1], [(1, 1)])
    assert RationalSeries([], [(1, 1)]) == RationalSeries([], [(2, 3)])


def test_numerator_accepts_only_integers():
    assert RationalSeries([Fraction(4, 2), 3, 0], [(1, 1)]).numerator == [2, 3]
    assert type(RationalSeries([Fraction(4, 2)], [(1, 1)]).numerator[0]) is int
    for bad in (Fraction(1, 2), 2.5, 2.0, "1"):
        with pytest.raises(PreconditionError, match="not an integer"):
            RationalSeries([1, bad], [(1, 1)])


def test_reconstruct_examples():
    ones = SeriesPrefix([1] * 10)
    rs = reconstruct_rational(ones, [(1, 1)])
    assert rs.numerator == [1]
    # wrong denominator guess must be detected
    prefix = SeriesPrefix([n // 2 + 1 for n in range(12)])
    with pytest.raises(AlgebroidError, match="no stabilization"):
        reconstruct_rational(prefix, [(1, 3)])
    # 1/(2(1 - t)) has no integer numerator over 1 - t
    with pytest.raises(AlgebroidError, match="no stabilization"):
        reconstruct_rational(SeriesPrefix([Fraction(1, 2)] * 10), [(1, 1)])


def test_reconstruct_round_trip_random():
    rng = random.Random(23)
    for _ in range(40):
        num = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))]
        factors = []
        for n in range(1, 5):
            mult = rng.randrange(0, 3)
            if mult:
                factors.append((n, mult))
        if not factors:
            factors = [(1, 1)]
        rs = RationalSeries(num, factors)
        bound = rs.numerator_degree + sum(n * d for n, d in rs.factors) + 6
        prefix = rs.expand(bound)
        back = reconstruct_rational(prefix, factors)
        assert back.expand(bound).coeffs == prefix.coeffs


# -- quasi-polynomials ---------------------------------------------------

def test_quasi_polynomial_free_semigroup():
    for l in range(1, 6):
        qp = quasi_polynomial_of(RationalSeries([1], [(1, l)]))
        for n in range(31):
            assert qp(n) == comb(n + l - 1, l - 1)


def test_quasi_polynomial_covariant_cubic():
    rs = RationalSeries([1, -1, 1], [(1, 2), (4, 1)])
    qp = quasi_polynomial_of(rs)
    assert qp.period == 4
    const = [Fraction(1), Fraction(3, 8), Fraction(1, 2), Fraction(3, 8)]
    for n in range(qp.threshold, 40):
        assert qp(n) == Fraction(n * n, 8) + Fraction(n, 2) + const[n % 4]


def test_quasi_polynomial_zero():
    qp = quasi_polynomial_of(RationalSeries([], [(1, 2)]))
    assert all(not p for p in qp.residues)


def test_quasi_polynomials_equal_only_when_every_value_is():
    # n(n - 1)(n - 2) vanishes at n = 0, 1, 2 but is 6 at n = 3
    cubic = QuasiPolynomial(1, [[0, 2, -3, 1]])
    assert cubic != QuasiPolynomial(1, [[]])
    assert cubic == QuasiPolynomial(2, [[0, 2, -3, 1], [0, 2, -3, 1]])


def test_quasi_polynomial_of_a_polynomial_series():
    # no denominator factors: no pole, so the fit has no points to pass through
    rs = RationalSeries([1, 2], [])
    qp = quasi_polynomial_of(rs)
    assert (qp.period, qp.residues, qp.threshold) == (1, [[]], 2)
    assert [qp(n) for n in range(2, 6)] == [0] * 4
    assert dimension_multiplicity(rs) == (0, Fraction(3))


def test_quasi_polynomial_fit_is_checked_on_every_coefficient(monkeypatch):
    # a fit through the first point only: right at n = 1, wrong from n = 2
    monkeypatch.setattr(series, "_fit_polynomial", lambda points: [points[0][1]])
    with pytest.raises(AlgebroidError, match="did not verify"):
        quasi_polynomial_of(RationalSeries([1], [(1, 2)]))


def test_quasi_polynomial_refuses_a_series_outside_desk_scale(monkeypatch):
    # each bound is checked before any coefficient is expanded: at the bound
    # the expansion starts, one step past it the input is refused
    def expansion_started(rs, bound):
        raise RuntimeError("expanded")

    monkeypatch.setattr(RationalSeries, "expand", expansion_started)
    # no factor: need = numerator degree + 3
    for degree, accepted in ((10 ** 5 - 3, True), (10 ** 5 - 2, False)):
        rs = RationalSeries([0] * degree + [1], [])
        with pytest.raises(RuntimeError if accepted else PreconditionError,
                           match="expanded" if accepted else "outside desk scale"):
            quasi_polynomial_of(rs)
    # period 1: 125^3 <= 2 * 10^6 < 126^3
    for poles, accepted in ((125, True), (126, False)):
        rs = RationalSeries([1], [(1, poles)])
        with pytest.raises(RuntimeError if accepted else PreconditionError,
                           match="expanded" if accepted else "outside desk scale"):
            quasi_polynomial_of(rs)


def test_quasi_polynomial_matches_expansion_random():
    rng = random.Random(41)
    for _ in range(25):
        num = [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))]
        factors = [(n, rng.randrange(0, 2) + (1 if n == 1 else 0))
                   for n in (1, 2, 3, 4)]
        factors = [(n, m) for n, m in factors if m]
        rs = RationalSeries(num, factors)
        qp = quasi_polynomial_of(rs)
        hi = 4 * qp.period + qp.threshold + 5
        prefix = rs.expand(hi)
        for n in range(qp.threshold, hi + 1):
            assert qp(n) == prefix[n]


# -- dimension and multiplicity against a cumulative fit -----------------

def cumulative_quasi_polynomial(rs):
    """Quasi-polynomial of the partial sums sum_{i<=n} coefficient(i): a
    second fit, of rs/(1 - t)."""
    return quasi_polynomial_of(RationalSeries(rs.numerator, list(rs.factors) + [(1, 1)]))


def oracle_dimension_multiplicity(rs):
    """(d, e) from the top term of the cumulative quasi-polynomial, or of
    the coefficient one when that is genuinely periodic."""
    if not rs.numerator:
        return 0, 0
    qp = quasi_polynomial_of(rs)
    if all(p == qp.residues[0] for p in qp.residues):
        qp = cumulative_quasi_polynomial(rs)
    d = qp.degree
    if d < 0:
        return 0, 0
    return d, factorial(d) * qp.leading_coefficient()


def test_cumulative_quasi_polynomial():
    rs = RationalSeries([2], [(1, 2)])  # coefficients 2(n+1)
    cum = cumulative_quasi_polynomial(rs)
    for n in range(20):
        assert cum(n) == (n + 1) * (n + 2)


def dimension_multiplicity_cases():
    covariant = [covariants_report(d, 40).series for d in range(4)]
    free = [RationalSeries([l], [(1, n)]) for l in (1, 2, 5) for n in (1, 2, 3, 4)]
    toral = [RationalSeries([1], [(1, r)] if r else []) for r in range(5)]
    rng = random.Random(43)
    shapes = [RationalSeries([rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))],
                             [(1, rng.randrange(1, 3))] + [(n, 1) for n in (2, 3) if rng.random() < 0.4])
              for _ in range(20)]
    return (covariant + free + toral + shapes
            + [RationalSeries([1, -1], [(1, 1)]), RationalSeries([], [(1, 2)]),
               RationalSeries([1, 2], [])])


def test_dimension_multiplicity_matches_the_cumulative_fit():
    for rs in dimension_multiplicity_cases():
        try:
            want = oracle_dimension_multiplicity(rs)
        except AlgebroidError as exc:
            with pytest.raises(AlgebroidError, match=str(exc)):
                dimension_multiplicity(rs)
            continue
        assert dimension_multiplicity(rs) == want, rs
        assert dimension_multiplicity(rs, quasi_polynomial_of(rs)) == want, rs
    assert oracle_dimension_multiplicity(RationalSeries([1, -1], [(1, 1)])) == (0, 1)
    assert dimension_multiplicity(RationalSeries([1, -1], [(1, 1)])) == (0, 1)
    assert dimension_multiplicity(RationalSeries([1, -2, 1], [(1, 1)])) == (0, 0)
    assert dimension_multiplicity(covariants_report(3, 40).series) == (2, Fraction(1, 4))


# -- character series ----------------------------------------------------

def xy_quotient_series(bound):
    """Character series of Q[x,y]/(xy): standard monomials x^a, y^b."""
    coeffs = {0: {(0, 0): 1}}
    for n in range(1, bound + 1):
        coeffs[n] = {(n, 0): 1, (0, n): 1}
    return CharacterSeries(2, coeffs, bound,
                           closed_terms=[(1, (0, 0), 0), (-1, (1, 1), 2)],
                           closed_denominator=[((1, 0), 1), ((0, 1), 1)])


def test_integrate_characters():
    cs = xy_quotient_series(8)
    prefix, closed = integrate_characters(cs)
    assert prefix.coeffs == [1, 2, 2, 2, 2, 2, 2, 2, 2]
    assert closed is not None
    assert closed.expand(8).coeffs == prefix.coeffs  # (1+t)/(1-t)


def test_integrate_commutes_with_truncation():
    cs = xy_quotient_series(8)
    head = CharacterSeries(cs.rank, {n: lc for n, lc in cs.coeffs.items() if n <= 5}, 5,
                           cs.closed_terms, cs.closed_denominator)
    a, _ = integrate_characters(head)
    b, _ = integrate_characters(cs)
    assert a.coeffs == b.coeffs[:6]


def polynomial_ring_series(bound):
    coeffs = {}
    for n in range(bound + 1):
        coeffs[n] = {(a, n - a): 1 for a in range(n + 1)}
    return CharacterSeries(2, coeffs, bound)


def test_gamma_restriction_identity_and_idempotence():
    cs = polynomial_ring_series(8)
    full = SemigroupSpec(2, [(1, 0), (0, 1)])
    restricted, report = gamma_restriction(cs, full)
    assert restricted == cs
    assert report["condition_holds_on_support"]
    again, _ = gamma_restriction(restricted, full)
    assert again == restricted


def test_gamma_restriction_diagonal():
    cs = polynomial_ring_series(10)
    diag = SemigroupSpec(2, [(1, 1)])
    restricted, report = gamma_restriction(cs, diag)
    assert report["condition_holds_on_support"]
    prefix, _ = integrate_characters(restricted)
    # only the diagonal monomials (xy)^a survive: 1/(1-t^2)
    assert prefix.coeffs == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


@pytest.mark.parametrize("gens, violations, holds", [
    ([(2, 0), (3, 0), (0, 1)], 1424, False),
    ([(2, 0), (0, 1)], 0, None)], ids=["violated", "undecided"])
def test_gamma_restriction_counts_the_pairs_it_cannot_check(gens, violations, holds):
    # Q[x,y]/(x^3) through degree 40: 80 characters x^a y^b in gamma (a even)
    # and 40 outside (a = 1); 272 of the 3200 sums lie past gamma's
    # membership bound of 64, so the condition is never reported as holding
    cs = equivariant_series_monomial(Ideal(2, [Polynomial.monomial(2, (3, 0))]), bound=40)
    _, report = gamma_restriction(cs, SemigroupSpec(2, gens))
    assert report["unchecked_pairs"] == 272
    assert len(report["violations"]) == violations
    assert report["condition_holds_on_support"] is holds
    assert report["verified_to_bound"] is None


def test_gamma_restriction_reports_a_full_check():
    cs = polynomial_ring_series(10)
    _, report = gamma_restriction(cs, SemigroupSpec(2, [(1, 1)]))
    assert report["unchecked_pairs"] == 0
    assert report["verified_to_bound"] == 10


def test_character_series_accepts_only_integers():
    cs = CharacterSeries(1, {0: {(0,): Fraction(4, 2)}, 1: {(1,): Fraction(0)}}, 1,
                         closed_terms=[(Fraction(2, 2), (0,), Fraction(0))],
                         closed_denominator=[((1,), Fraction(3, 3))])
    assert cs.coeffs == {0: {(0,): 2}} and type(cs.coeffs[0][(0,)]) is int
    assert cs.closed_terms == [(1, (0,), 0)] and cs.closed_denominator == [((1,), 1)]
    (s, _, p), (_, q) = cs.closed_terms[0], cs.closed_denominator[0]
    assert type(s) is type(p) is type(q) is int
    for bad in (Fraction(1, 2), 2.5):
        for coeffs, terms, den in [({0: {(0,): bad}}, None, None),
                                   ({}, [(bad, (0,), 0)], [((1,), 1)]),
                                   ({}, [(1, (0,), 0)], [((1,), bad)])]:
            with pytest.raises(PreconditionError, match="not an integer"):
                CharacterSeries(1, coeffs, 1, terms, den)


def test_semigroup_membership():
    s = SemigroupSpec(2, [(2, 0), (0, 3)])
    assert s.contains((4, 3))
    assert not s.contains((1, 0))
    assert s.contains((0, 0))


def test_semigroup_membership_with_generators_of_mixed_sign():
    # a (1, -1) + b (-1, 2) = (a - b, 2b - a): (0, 1) at a = b = 1, while
    # (0, -1) would need a = b = -1
    s = SemigroupSpec(2, [(1, -1), (-1, 2)], bound=6)
    assert s.contains((0, 1)) and s.contains((1, -1)) and s.contains((1, 0))
    assert not s.contains((0, -1))
    group = SemigroupSpec(2, [(1, 0), (-1, 0), (0, 1)], bound=6)
    assert group.contains((-3, 2)) and not group.contains((0, -1))
    with pytest.raises(PreconditionError, match="bound"):
        group.contains((4, 3))
