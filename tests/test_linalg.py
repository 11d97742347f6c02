"""Exact linear algebra helpers."""

from fractions import Fraction

import pytest

from algebroids import linalg


def F(*xs):
    return [Fraction(x) for x in xs]


def test_coordinates_in_span():
    vectors = [F(1, 0, 1), F(0, 1, 1)]
    x = linalg.coordinates(vectors, F(2, -3, -1))
    assert x == F(2, -3)


def test_coordinates_outside_span():
    assert linalg.coordinates([F(1, 0, 1), F(0, 1, 1)], F(0, 0, 1)) is None


def test_coordinates_dependent_vectors_give_a_solution():
    vectors = [F(1, 2), F(2, 4)]
    x = linalg.coordinates(vectors, F(3, 6))
    assert [sum(c * v[t] for c, v in zip(x, vectors)) for t in range(2)] == F(3, 6)


def test_coordinates_empty_vectors():
    assert linalg.coordinates([], F(0, 0)) == []
    assert linalg.coordinates([], F(0, 1)) is None


def test_inverse():
    a = [F(2, 1, 0), F(0, 1, 3), F(1, 0, 1)]
    assert linalg.mat_mul(a, linalg.inverse(a)) == linalg.identity(3)
    assert linalg.inverse([]) == []


def test_inverse_singular():
    with pytest.raises(ValueError):
        linalg.inverse([F(1, 2), F(2, 4)])
