"""Hilbert series, equivariant character series, and J-adic graded pieces."""

import json
import random
from fractions import Fraction
from math import comb

import pytest

from algebroids.derivations import jacobian_ideal, tangent_derivations
from algebroids.errors import PreconditionError
from algebroids.groebner import Ideal
from algebroids.hilbert import (dimension_multiplicity,
                                equivariant_series_monomial,
                                graded_pieces_series, hilbert_series_quotient)
from algebroids.poly import Polynomial, monomials, parse_poly
from algebroids.series import (RationalSeries, integrate_characters)

from references import partial, variable


def P(text, varnames):
    return parse_poly(text, list(varnames))


def test_hilbert_zero_ideal():
    rs = hilbert_series_quotient(Ideal(3, []))
    assert rs == RationalSeries([1], [(1, 3)])


def test_zero_ideal_takes_the_general_route():
    # the zero ideal's reduced basis is empty: it contains only 0, every
    # monomial is standard, and T(0) is Der(A), the partials in order
    for n in (1, 2, 3):
        ideal = Ideal(n, [])
        assert ideal.groebner().leads() == ()
        assert ideal.colength() is None
        assert ideal.standard_monomials() is None
        assert ideal.contains(Polynomial.zero(n))
        assert not any(ideal.contains(g) for g in
                       [Polynomial.one(n)] + [variable(n, i) for i in range(n)])
        assert not ideal.contains(variable(n, 0) ** 2 - variable(n, n - 1))
        assert not ideal.is_unit()
        assert tangent_derivations(ideal).generators == [partial(n, i) for i in range(n)]
        with pytest.raises(PreconditionError, match="J not m-primary"):
            graded_pieces_series(ideal)


def test_hilbert_artinian_example():
    ideal = Ideal(2, [P("x^2", "xy"), P("x*y", "xy"), P("y^3", "xy")])
    rs = hilbert_series_quotient(ideal)
    assert rs.expand(6).coeffs == [1, 2, 1, 0, 0, 0, 0]


def test_hilbert_curve_example():
    gens = [P("x^2", "xyz"), P("x*y", "xyz"), P("z", "xyz")]
    rs = hilbert_series_quotient(Ideal(3, gens))
    assert rs.expand(8).coeffs == [1, 2, 1, 1, 1, 1, 1, 1, 1]


def test_hilbert_weighted():
    ideal = Ideal(3, [P("z^2 - x^2*y", "xyz")], (1, 2, 2))
    rs = hilbert_series_quotient(ideal)
    # A/(f) with f of weighted degree 4: (1 - t^4)/((1-t)(1-t^2)^2)
    expected = RationalSeries([1, 0, 0, 0, -1], [(1, 1), (2, 2)])
    assert rs.expand(10).coeffs == expected.expand(10).coeffs


def test_hilbert_requires_homogeneous():
    with pytest.raises(PreconditionError, match="not homogeneous"):
        hilbert_series_quotient(Ideal(2, [P("x^2 + y^3", "xy")]))


def test_equivariant_xy():
    cs = equivariant_series_monomial(Ideal(2, [P("x*y", "xy")]))
    assert (1, (0, 0), 0) in cs.closed_terms
    assert (-1, (1, 1), 2) in cs.closed_terms
    assert len(cs.closed_terms) == 2
    assert sorted(cs.closed_denominator) == [((0, 1), 1), ((1, 0), 1)]
    # explicit coefficients: x^a and y^b are the standard monomials
    assert cs.coeffs[3] == {(3, 0): 1, (0, 3): 1}


def test_equivariant_x2_xy():
    cs = equivariant_series_monomial(Ideal(2, [P("x^2", "xy"), P("x*y", "xy")]))
    terms = sorted(cs.closed_terms)
    assert (1, (0, 0), 0) in terms
    assert (-1, (2, 0), 2) in terms
    assert (-1, (1, 1), 2) in terms
    assert (1, (2, 1), 3) in terms  # lcm(x^2, xy) = x^2 y


def test_equivariant_integration_consistency_random():
    rng = random.Random(47)
    for _ in range(10):
        nvars = rng.randrange(1, 4)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            exp = tuple(rng.randrange(4) for _ in range(nvars))
            if any(exp):
                gens.append(Polynomial.monomial(nvars, exp))
        if not gens:
            continue
        ideal = Ideal(nvars, gens)
        cs = equivariant_series_monomial(ideal, bound=12)
        prefix, closed = integrate_characters(cs)
        rs = hilbert_series_quotient(ideal)
        assert prefix.coeffs == rs.expand(12).coeffs
        if closed is not None:
            assert closed.expand(12).coeffs == rs.expand(12).coeffs


def test_equivariant_closed_form_of_m6_matches_standard_monomials():
    # m^6 in three variables has 28 generators
    gens = [Polynomial.monomial(3, e) for e in monomials((1, 1, 1), 6)]
    cs = equivariant_series_monomial(Ideal(3, gens), bound=10)
    # K / prod (1 - x_i): the coefficient of x^a sums the c x^e with e <= a
    for d in range(11):
        for a in monomials((1, 1, 1), d):
            expected = sum(c for c, e, _p in cs.closed_terms
                           if all(x <= y for x, y in zip(e, a)))
            assert cs.coeffs.get(d, {}).get(a, 0) == expected
    prefix, closed = integrate_characters(cs)
    assert prefix.coeffs == [comb(d + 2, 2) for d in range(6)] + [0] * 5
    assert closed.expand(10).coeffs == prefix.coeffs


def test_graded_pieces_cusp():
    j = Ideal(2, [P("x^2", "xy"), P("y", "xy")])
    report = graded_pieces_series(j, "ring", depth=8)
    assert [d for _, d in report.dims] == [2 * (i + 1) for i in range(9)]
    assert report.series == RationalSeries([2], [(1, 2)])
    assert (report.dimension, report.multiplicity) == (2, 2)
    assert not report.lengths_certified
    assert "solvable" in report.caveat


def test_graded_pieces_json():
    # the report of the benchmark's graded/cusp job, which hashes it
    j = Ideal(2, [P("x^2", "xy"), P("y", "xy")])
    assert json.loads(json.dumps(graded_pieces_series(j, "ring", depth=3).to_json())) == {
        "dims": [[0, 2], [1, 4], [2, 6], [3, 8]],
        "series": {"numerator": [2], "denominator": [{"n": 1, "mult": 2}]},
        "dimension": 2, "multiplicity": "2", "lengths_certified": False,
        # 2 + 2n from n = 1 on
        "quasi_polynomial": {"period": 1, "n0": 1, "residues": [["2", "2"]]},
        "caveat": "lengths reported as dimensions; requires solvable fibre"}
    certified = graded_pieces_series(j, "ring", depth=3, solvable_certificate=True).to_json()
    assert certified["lengths_certified"] is True and "caveat" not in certified


def test_graded_pieces_maximal_ideal():
    m = Ideal(3, [variable(3, i) for i in range(3)])
    report = graded_pieces_series(m, "ring", depth=6, solvable_certificate=True)
    assert report.series == RationalSeries([1], [(1, 3)])
    assert (report.dimension, report.multiplicity) == (3, 1)
    assert report.lengths_certified and report.caveat is None


def test_graded_pieces_power_consistency():
    j = Ideal(2, [P("x^2", "xy"), P("y", "xy")])
    report = graded_pieces_series(j, "ring", depth=6)
    for n in range(6):
        assert sum(d for i, d in report.dims if i <= n) == j.power(n + 1).colength()


@pytest.mark.parametrize("depth", [5, 8, 10])
def test_graded_pieces_series_builds_each_power_once(monkeypatch, depth):
    # J = m^2 has 3 minimal generators in 2 variables, so the series reads
    # the colengths of J^0..J^(depth+1): J^i is J^(i-1) * J, one product
    # each, and a second series on the same J builds none
    j = Ideal(2, [P("x^2", "xy"), P("x*y", "xy"), P("y^2", "xy")])
    calls = []
    product = Ideal.product
    monkeypatch.setattr(Ideal, "product", lambda self, other: calls.append(1) or product(self, other))
    first = graded_pieces_series(j, "ring", depth=depth)
    assert len(calls) == depth + 1
    assert graded_pieces_series(j, "ring", depth=depth).to_json() == first.to_json()
    assert len(calls) == depth + 1


def test_graded_pieces_round_trip():
    j = Ideal(2, [P("x^2", "xy"), P("x*y", "xy"), P("y^2", "xy")])
    report = graded_pieces_series(j, "ring", depth=6)
    expansion = report.series.expand(6)
    for i, d in report.dims:
        if i <= 6:
            assert expansion[i] == d
            assert report.quasi(i) == d or i < report.quasi.threshold


def _power_dims(j, depth):
    """dim J^i/J^{i+1} for i <= depth from the colengths of the powers of J:
    the route that does not rest on J being a complete intersection."""
    j = Ideal(j.nvars, j.minimal_generators(), j.weights)
    colengths = [0] + [j.power(i).colength() for i in range(1, depth + 2)]
    return [b - a for a, b in zip(colengths, colengths[1:])]


def _ideal(gens, weights, order):
    """The ideal of gens (text in x, y, z) with the variables in the given
    order; weights are keyed by variable name."""
    return Ideal(len(order), [P(g, order) for g in gens], [weights[v] for v in order])


# Jacobian ideals of isolated singularities, each with its weights, and
# complete intersections with a redundant or a linear generator
COMPLETE_INTERSECTIONS = {
    "D4": (None, "x^2*y + y^3", {"x": 1, "y": 1}),
    "E6": (None, "x^2 + y^3 + z^4", {"x": 6, "y": 4, "z": 3}),
    "E7": (None, "x^2 + y^3 + y*z^3", {"x": 9, "y": 6, "z": 4}),
    "E8": (None, "x^2 + y^3 + z^5", {"x": 15, "y": 10, "z": 6}),
    "fermat": (None, "x^3 + y^3 + z^3", {"x": 1, "y": 1, "z": 1}),
    "cusp": (["x^2", "y"], None, {"x": 1, "y": 1}),
    "maximal": (["x", "y", "z"], None, {"x": 1, "y": 1, "z": 1}),
    "redundant": (["x^2", "y", "x^2 + y"], None, {"x": 1, "y": 2}),
}


@pytest.mark.parametrize("name", sorted(COMPLETE_INTERSECTIONS))
def test_graded_pieces_complete_intersection_matches_powers(name):
    gens, f, weights = COMPLETE_INTERSECTIONS[name]
    names = "".join(weights)
    for order in (names, names[::-1]):
        if f is not None:
            j = jacobian_ideal(_ideal([f], weights, order))
        else:
            j = _ideal(gens, weights, order)
        assert len(j.minimal_generators()) == len(order)
        report = graded_pieces_series(j, "ring", depth=6)
        assert [d for _, d in report.dims] == _power_dims(j, 6)
        assert report.series == RationalSeries([j.colength()], [(1, len(order))])


def test_graded_pieces_more_generators_than_variables():
    # (x^2, xy, y^2) = m^2 needs three generators in two variables: it is not
    # a complete intersection and its pieces grow as 4i + 3, not 3(i + 1)
    for order in ("xy", "yx"):
        j = _ideal(["x^2", "x*y", "y^2"], {"x": 1, "y": 1}, order)
        report = graded_pieces_series(j, "ring", depth=6)
        dims = [d for _, d in report.dims]
        assert dims == _power_dims(j, 6) == [4 * i + 3 for i in range(7)]
        assert report.series.expand(6).coeffs == dims


def test_graded_pieces_rejects_module():
    j = Ideal(2, [P("x", "xy"), P("y", "xy")])
    with pytest.raises(PreconditionError):
        graded_pieces_series(j, j)


def test_graded_pieces_requires_primary():
    j = Ideal(2, [P("x", "xy")])
    with pytest.raises(PreconditionError, match="not m-primary"):
        graded_pieces_series(j)


def test_dimension_multiplicity():
    for l in range(1, 5):
        assert dimension_multiplicity(RationalSeries([1], [(1, l)])) == (l, 1)
    covariant = RationalSeries([1, -1, 1], [(1, 2), (4, 1)])
    assert dimension_multiplicity(covariant) == (2, Fraction(1, 4))
    assert dimension_multiplicity(RationalSeries([], [(1, 2)])) == (0, 0)
