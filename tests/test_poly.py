"""Polynomial arithmetic, parsing and formatting."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from algebroids import poly
from algebroids.errors import ParseError, PreconditionError
from algebroids.groebner import FreeModuleElement, order_key
from algebroids.poly import Polynomial, format_poly, monomials, parse_poly, wdeg

from references import parse_poly_by_atoms


def P(text, varnames=("x", "y", "z")):
    return parse_poly(text, list(varnames))


def random_poly(rng, nvars=3, max_deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        terms[exp] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return Polynomial(nvars, terms)


def test_parse_basic():
    f = P("z^2 - x^2*y")
    assert f.terms == {(0, 0, 2): Fraction(1), (2, 1, 0): Fraction(-1)}
    assert P("x + x") == P("2*x")
    assert P("(x+y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("-3/2*x*y") == Polynomial(3, {(1, 1, 0): Fraction(-3, 2)})


def test_parse_errors():
    with pytest.raises(ParseError):
        P("x +")
    with pytest.raises(ParseError):
        P("q^2")
    with pytest.raises(ParseError):
        P("x^-1")


def test_parse_implicit_products():
    for implicit, explicit in [("2x y", "2*x*y"), ("x(y + 1)", "x*(y + 1)"),
                               ("(x + 1)(y - 1)", "(x + 1)*(y - 1)"), ("2 x^2 y", "2*x^2*y")]:
        assert P(implicit) == P(explicit), implicit


# -- the parser against one Polynomial per atom ------------------------------

def random_expression(rng, depth=0):
    """A valid expression over x, y, z: signed products of ints, rationals,
    variables and parenthesized sums, each factor maybe raised to a power,
    joined by *, a blank or nothing where the grammar allows it."""
    def factor():
        r = rng.random()
        if r < 0.2 and depth < 2:
            atom = "(" + random_expression(rng, depth + 1) + ")"
        elif r < 0.4:
            atom = str(rng.randrange(12))
        elif r < 0.5:
            atom = f"{rng.randrange(9)}/{rng.randrange(1, 7)}"
        else:
            atom = rng.choice("xyz")
        return atom + (f"^{rng.randrange(4)}" if rng.random() < 0.3 else "")

    def product():
        out = factor()
        for _ in range(rng.randrange(3)):
            nxt = factor()
            # juxtaposition needs a name or "(" next; "2 3" and "x2" are not
            # products, and a blank keeps "x" "y" from reading as "xy"
            if nxt[0] == "(" or (nxt[0].isalpha() and not out[-1].isalnum()):
                out += rng.choice(["*", " * ", " ", ""]) + nxt
            elif nxt[0].isalpha():
                out += rng.choice(["*", " ", " * "]) + nxt
            else:
                out += rng.choice(["*", " * "]) + nxt
        return out

    signs = lambda: "".join(rng.choice("+- ") for _ in range(rng.randrange(3)))
    out = signs() + product()
    for _ in range(rng.randrange(3)):
        out += " " + rng.choice("+-") + signs() + " " + product()
    return out


def parse_outcome(parse, text):
    try:
        p = parse(text, ["x", "y", "z"])
    except ParseError as exc:
        return "error", str(exc)
    return "poly", p, list(p.terms.items())


def test_parser_matches_the_atom_by_atom_parser_on_valid_input():
    rng = random.Random(53)
    for _ in range(400):
        text = random_expression(rng)
        new, old = parse_outcome(parse_poly, text), parse_outcome(parse_poly_by_atoms, text)
        assert old[0] == "poly", (text, old)
        # equal polynomials, their terms in the same order
        assert new == old, text


MALFORMED_TOKENS = ["x", "y", "z", "q", "x2", "2", "0", "3/", "/", "/0", "^", "^2", "^x", "^-1",
                    "(", ")", "*", "+", "-", " ", "1/2", "@", ".", "_w", "é"]


def test_parser_raises_the_atom_by_atom_parsers_errors():
    rng = random.Random(59)
    errors = set()
    for _ in range(600):
        text = "".join(rng.choice(MALFORMED_TOKENS) for _ in range(rng.randrange(1, 9)))
        new, old = parse_outcome(parse_poly, text), parse_outcome(parse_poly_by_atoms, text)
        assert new == old, text
        if old[0] == "error":
            errors.add(old[1].split(" ")[0])
    # every message of the grammar is met
    assert errors >= {"unexpected", "exponent", "missing", "bad", "undeclared", "trailing"}


def test_polynomials_add_only_to_polynomials():
    # scalars multiply (the parser multiplies by signs), but never add
    x = P("x")
    assert 2 * x == x * 2 == P("2*x")
    for add in (lambda: x + 1, lambda: 1 - x, lambda: x - Fraction(1, 2), lambda: 1 + x):
        with pytest.raises(TypeError):
            add()
    assert x != 0 and P("1") != 1


def test_format_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        f = random_poly(rng)
        assert P(format_poly(f, ["x", "y", "z"])) == f
    assert format_poly(Polynomial.zero(2), ["x", "y"]) == "0"


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(30):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b - b == a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * Polynomial.one(3) == a


def test_diff_product_rule():
    rng = random.Random(3)
    for _ in range(15):
        a, b = random_poly(rng), random_poly(rng)
        for i in range(3):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_degree_and_homogeneity():
    f = P("z^2 - x^2*y")
    assert f.degree() == 3
    assert not f.is_homogeneous()
    # quasi-homogeneous of degree 4 for weights (1,2,2)
    assert f.is_homogeneous((1, 2, 2))
    assert f.degree((1, 2, 2)) == 4


def test_homogeneous_components_sum():
    rng = random.Random(19)
    for _ in range(10):
        f = random_poly(rng)
        parts = FreeModuleElement.from_poly(f).homogeneous_components()
        total = Polynomial.zero(3)
        for d, part in parts.items():
            (g,) = part.to_polys()
            assert g.is_homogeneous() and g.degree() == d
            total = total + g
        assert total == f


@pytest.mark.parametrize("weights", [None, (1, 1, 1), (3, 2, 2)])
def test_term_degrees_agree(weights):
    # each term's degree, read through wdeg, Polynomial.degree and
    # is_homogeneous, homogeneous_components and groebner.order_key
    rng = random.Random(26)
    key = order_key(weights)
    for _ in range(20):
        v = FreeModuleElement.from_polys([random_poly(rng), random_poly(rng)])
        parts = v.homogeneous_components(weights)
        component = {m: d for d, part in parts.items() for m in part.terms}
        degree = {}
        for pos, exp in v.terms:
            d = degree[exp] = sum(w * e for w, e in zip(weights or (1, 1, 1), exp))
            term = Polynomial.monomial(3, exp) * 2
            assert wdeg(exp, weights) == d == term.degree(weights) == component[(pos, exp)]
            assert -key((pos, exp))[1] == d and term.is_homogeneous(weights)
        for g in v.to_polys() + [q for part in parts.values() for q in part.to_polys()]:
            degrees = {degree[exp] for exp in g.terms}
            assert g.degree(weights) == max(degrees, default=-1)
            assert g.is_homogeneous(weights) == (len(degrees) <= 1)


def test_pow():
    f = P("x + y", ("x", "y"))
    assert f ** 3 == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3", ("x", "y"))
    assert f ** 0 == Polynomial.one(2)
    # a single term: exponents scaled, coefficient powered, as by repeated products
    for g in [P("x", ("x", "y")), P("-2/3*x^2*y", ("x", "y")), P("5", ("x", "y"))]:
        prod = Polynomial.one(2)
        for k in range(6):
            assert g ** k == prod
            prod = prod * g
    assert Polynomial.zero(2) ** 0 == Polynomial.one(2)
    assert Polynomial.zero(2) ** 3 == Polynomial.zero(2)


def test_pow_squares_no_further_than_its_highest_bit(monkeypatch):
    # (x + y)^4 multiplies at most 3 x 3 and 1 x 5 terms; squaring its 5
    # terms once more, past the last bit, would take 25 pairs
    f = P("x + y - 2*z")
    prod = Polynomial.one(3)
    for k in range(10):
        assert f ** k == prod
        prod = prod * f
    monkeypatch.setattr(poly, "MAX_PRODUCT_PAIRS", 24)
    assert P("x + y", ("x", "y")) ** 4 == P("x^4 + 4*x^3*y + 6*x^2*y^2 + 4*x*y^3 + y^4", ("x", "y"))


def test_products_past_the_desk_scale_bound_are_refused_before_they_start(monkeypatch):
    # (x + y + z + w)^40 would take 30 s: its last product, of (.)^8 by
    # (.)^32, is 165 x 6545 pairs, and it is refused before it starts
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="165 by 6545 terms"):
        P("(x + y + z + w)^40", ("x", "y", "z", "w"))
    assert time.perf_counter() - start < 5
    monkeypatch.setattr(poly, "MAX_PRODUCT_PAIRS", 6)
    assert len((P("x + y") * P("x + y + z")).terms) == 5
    with pytest.raises(PreconditionError, match="3 by 3 terms"):
        P("x + y + z") * P("x - y + 1")


@pytest.mark.parametrize("weights", [(1, 1, 1), (3, 2, 2), (1, 4), (2,)])
def test_monomials_are_the_ascending_box_filter(weights):
    for k in range(-1, 9):
        box = itertools.product(*(range(k // w + 1) for w in weights)) if k >= 0 else []
        expected = [e for e in box if sum(w * a for w, a in zip(weights, e)) == k]
        assert monomials(weights, k) == expected
