"""Exact linear algebra helpers."""

import random
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


def _random_rows(rng, density, exact):
    n, m = rng.randrange(0, 9), rng.randrange(1, 10)
    rows = [[rng.randrange(-4, 5) if rng.random() < density else 0 for _ in range(m)]
            for _ in range(n)]
    if exact:
        rows = [[Fraction(x, rng.randrange(1, 5)) for x in row] for row in rows]
    if rows:
        rows.append([0] * m)
        rows.append(list(rows[rng.randrange(len(rows))]))
        rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("density", [0.2, 1.0], ids=["sparse", "dense"])
@pytest.mark.parametrize("exact", [False, True], ids=["int", "fraction"])
def test_rref_shape_and_row_space(density, exact):
    rng = random.Random(7)
    for _ in range(150):
        rows = _random_rows(rng, density, exact)
        red, pivots = linalg.rref(rows)
        assert len(red) == len(pivots)
        assert pivots == sorted(set(pivots))
        for i, (row, p) in enumerate(zip(red, pivots)):
            assert all(isinstance(x, Fraction) for x in row)
            assert all(x == 0 for x in row[:p]) and row[p] == 1
            assert all(other[p] == 0 for k, other in enumerate(red) if k != i)
        # every input row is the combination of the output rows read off its
        # pivot entries, and the rank is the column rank: equal row spaces
        for row in rows:
            combo = [sum((row[p] * r[j] for r, p in zip(red, pivots)), Fraction(0))
                     for j in range(len(row))]
            assert combo == row
        assert len(red) == linalg.rank([list(col) for col in zip(*rows)])
