"""Reduced Groebner bases cross-checked against sympy (a test-only dependency):
its grevlex, and its lex through weights steep enough to order the monomials
of its lex basis as lex does."""

import random
from fractions import Fraction

import pytest

from algebroids.groebner import FreeModuleElement, Ideal, groebner_basis
from algebroids.poly import Polynomial, parse_poly

sympy = pytest.importorskip("sympy")

XYZ = ("x", "y", "z")
SINGULARITIES = {
    "D4": "x^2 + y^2*z + z^3",
    "E6": "x^2 + y^3 + z^4",
    "E7": "x^2 + y^3 + y*z^3",
    "E8": "x^2 + y^3 + z^5",
}


def jacobian(text):
    f = parse_poly(text, XYZ)
    return [f.diff(i) for i in range(3)]


def random_ideal(seed):
    """Three random polynomials without constant term, so never the unit ideal."""
    rng = random.Random(seed)
    gens = []
    while len(gens) < 3:
        terms = {}
        for _ in range(rng.randrange(2, 4)):
            exp = tuple(rng.randrange(3) for _ in range(3))
            if any(exp):
                terms[exp] = rng.randrange(-4, 5)
        g = Polynomial(3, terms)
        if not g.is_zero():
            gens.append(g)
    return gens


CASES = {name: jacobian(text) for name, text in SINGULARITIES.items()}
CASES["E6 J^2"] = Ideal(3, jacobian(SINGULARITIES["E6"])).power(2).gens
CASES.update({f"random {seed}": random_ideal(seed) for seed in range(5)})


def ours(gens, weights=None):
    """The monic multiples of the basis elements, as sorted term lists."""
    gb = groebner_basis([FreeModuleElement.from_poly(g) for g in gens], weights)
    return sorted(sorted(e.scale(Fraction(1, e.terms[lead])).to_polys()[0].terms.items())
                  for e, lead in zip(gb.elements, gb.leads()))


def theirs(gens, kind):
    syms = sympy.symbols(XYZ)
    exprs = [sympy.Poly.from_dict({exp: sympy.Rational(c.numerator, c.denominator)
                                   for exp, c in g.terms.items()}, *syms).as_expr()
             for g in gens]
    gb = sympy.groebner(exprs, *syms, order=kind, domain="QQ")
    return sorted(sorted((exp, Fraction(int(c.p), int(c.q))) for exp, c in p.terms())
                  for p in gb.polys)


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_reduced_basis_matches_sympy(name, kind):
    expected = theirs(CASES[name], kind)
    weights = None
    if kind == "lex":
        # with every exponent of sympy's lex basis below b, the weights
        # (b^2, b, 1) give its monomials the weighted degrees that read their
        # exponents as base-b digits, so the weighted order compares them as
        # lex does and keeps every lead.  Then the weighted initial ideal
        # contains the lex one, and an inclusion of initial ideals is an
        # equality; the reduced bases, read off it, agree.
        b = 1 + max(e for poly in expected for exp, _c in poly for e in exp)
        weights = (b * b, b, 1)
    assert ours(CASES[name], weights) == expected
