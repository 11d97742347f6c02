"""Coordinates modulo m*M, read off one graded piece."""

from algebroids import graded
from algebroids.groebner import FreeModuleElement
from algebroids.poly import Polynomial, parse_poly


def V(text):
    return FreeModuleElement.from_poly(parse_poly(text, ["x", "y"]))


def test_coordinates_of_an_empty_piece_are_empty():
    # M = (x) with x of degree 2: M has nothing in degree 3, and (m*M)_3 is
    # empty because no monomial has degree 1
    zero = FreeModuleElement.from_poly(Polynomial.zero(2))
    assert graded.coordinates([V("x")], [2], 3, (2, 2), [zero, zero]) == [{}, {}]


def test_coordinates_modulo_m_times_the_module():
    # M = (x, y^2): in degree 2, x*y lies in m*M and y^2 is the kept y^2
    kept, degrees = [V("x"), V("y^2")], [1, 2]
    assert graded.coordinates(kept, degrees, 1, (1, 1), [V("3*x"), V("y")]) == [{0: 3}, None]
    assert (graded.coordinates(kept, degrees, 2, (1, 1), [V("x*y"), V("x^2 - 2*y^2")])
            == [{}, {1: -2}])

