"""Exact linear algebra helpers."""

import random
from fractions import Fraction
from math import gcd

import pytest

from algebroids import linalg

from references import (dense_rows, fraction_rref, identity, mat_mul, mat_vec, sparse,
                        sparse_rows)


def F(*xs):
    return [Fraction(x) for x in xs]


def augmented(vectors, *targets):
    """Sparse rows of [vectors as columns | targets as columns]."""
    return sparse_rows([[v[t] for v in vectors] + [b[t] for b in targets]
                        for t in range(len(targets[0]))])


def test_coordinates_in_span():
    vectors = [F(1, 0, 1), F(0, 1, 1)]
    assert linalg.solve(augmented(vectors, F(2, -3, -1)), 2, 1) == [F(2, -3)]


def test_coordinates_outside_span():
    assert linalg.solve(augmented([F(1, 0, 1), F(0, 1, 1)], F(0, 0, 1)), 2, 1) == [None]


def test_coordinates_dependent_vectors_give_a_solution():
    vectors = [F(1, 2), F(2, 4)]
    [x] = linalg.solve(augmented(vectors, F(3, 6)), 2, 1)
    assert [sum(c * v[t] for c, v in zip(x, vectors)) for t in range(2)] == F(3, 6)
    # the free coordinate is 0
    assert x == F(3, 0)


def test_coordinates_empty_vectors():
    # no coefficient columns
    assert linalg.solve(sparse_rows([F(0), F(0)]), 0, 1) == [[]]
    assert linalg.solve(sparse_rows([F(0), F(1)]), 0, 1) == [None]


def test_solve_with_no_rows_gives_zero_solutions():
    # an empty matrix: every target is 0, solved by x = 0
    assert linalg.solve([], 3, 2) == [[0, 0, 0], [0, 0, 0]]
    assert linalg.solve([], 0, 1) == [[]]
    assert linalg.solve([], 2, 0) == []


def test_kernel_of_no_rows_is_the_unit_vectors():
    assert linalg.kernel_basis([], 3) == identity(3)
    assert linalg.kernel_basis([], 0) == []


def test_from_columns_is_one_row_per_key_sorted_by_key():
    columns = [{"b": 1, "a": 2}, {}, {"c": 3, "a": -1}]
    assert linalg.from_columns(columns) == [{0: 2, 2: -1}, {0: 1}, {2: 3}]
    assert linalg.from_columns([]) == [] and linalg.from_columns([{}]) == []


def test_combine_is_the_dense_combination():
    # sum_j c_j rows_j is the transpose of rows times c; the first entry cancels
    rows = [F(1, 0, 2), F(0, 3, -1), F(1, 1, 1)]
    coeffs = [1, 0, -1]
    combined = linalg.combine(sparse(coeffs), sparse_rows(rows))
    assert combined == sparse(mat_vec([list(col) for col in zip(*rows)], coeffs)) == {1: -1, 2: 1}


def test_solve_several_targets_in_one_call():
    vectors = [F(1, 0, 1), F(0, 1, 1)]
    targets = [F(2, -3, -1), F(0, 0, 1), F(0, 0, 0), F(0, 0, 1), F(1, 1, 2)]
    assert linalg.solve(augmented(vectors, *targets), 2, len(targets)) == [
        F(2, -3), None, F(0, 0), None, F(1, 1)]


def test_inverse():
    # column j of a^-1 solves a x = e_j
    a = [F(2, 1, 0), F(0, 1, 3), F(1, 0, 1)]
    cols = linalg.solve(sparse_rows([row + unit for row, unit in zip(a, identity(3))]), 3, 3)
    assert mat_mul(a, [list(row) for row in zip(*cols)]) == identity(3)
    assert linalg.solve([], 0, 0) == []


def test_inverse_singular():
    # a singular matrix misses some unit target
    a = [F(1, 2), F(2, 4)]
    cols = linalg.solve(sparse_rows([row + unit for row, unit in zip(a, identity(2))]), 2, 2)
    assert None in cols


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
        red, pivots = linalg.rref(sparse_rows(rows))
        red = dense_rows(red, len(rows[0]) if rows else 0)
        assert len(red) == len(pivots)
        assert pivots == sorted(set(pivots))
        for i, (row, p) in enumerate(zip(red, pivots)):
            assert all(type(x) is int or x.denominator > 1 for x in row)
            assert all(x == 0 for x in row[:p]) and row[p] == 1
            assert all(other[p] == 0 for k, other in enumerate(red) if k != i)
        # every input row is the combination of the output rows read off its
        # pivot entries, and the rank is the column rank: equal row spaces
        for row in rows:
            combo = [sum((row[p] * r[j] for r, p in zip(red, pivots)), Fraction(0))
                     for j in range(len(row))]
            assert combo == row
        assert len(red) == linalg.rank(sparse_rows(zip(*rows)))


def test_rref_ignores_explicit_zeros_and_returns_none():
    rng = random.Random(5)
    for _ in range(100):
        rows = _random_rows(rng, 0.4, rng.random() < 0.5)
        red, pivots = linalg.rref(sparse_rows(rows))
        assert linalg.rref([dict(enumerate(row)) for row in rows]) == (red, pivots)
        assert all(x for row in red for x in row.values())


def test_solve_property():
    # every returned x satisfies A x = b, and None comes back exactly when
    # appending b raises the rank
    rng = random.Random(11)
    found = {True: 0, False: 0}
    for _ in range(300):
        rows = _random_rows(rng, rng.choice([0.3, 1.0]), rng.random() < 0.5)
        if not rows:
            continue
        m = len(rows[0])
        k = rng.randrange(0, m + 1)
        solutions = linalg.solve(sparse_rows(rows), k, m - k)
        assert len(solutions) == m - k
        coeffs = [row[:k] for row in rows]
        rank = linalg.rank(sparse_rows(coeffs))
        for t, x in enumerate(solutions, start=k):
            b = [row[t] for row in rows]
            raises = linalg.rank(sparse_rows([c + [y] for c, y in zip(coeffs, b)])) > rank
            assert (x is None) == raises
            if x is not None:
                assert mat_vec(coeffs, x) == b
            found[raises] += 1
    assert min(found.values()) > 100


def _entry(rng, size):
    """A nonzero int, or a Fraction with a random denominator."""
    x = rng.choice([-1, 1]) * rng.randrange(1, size)
    return x if rng.random() < 0.5 else Fraction(x, rng.randrange(1, size))


def _planted_rows(rng):
    """Sparse rows of planted rank at most r: combinations of r random sparse
    base rows, with a zero row, an explicit zero entry and a duplicate row."""
    m, r = rng.randrange(1, 13), rng.randrange(0, 7)
    base = [{j: _entry(rng, 6) for j in range(m) if rng.random() < 0.4} for _ in range(r)]
    rows = [linalg.combine({i: _entry(rng, 4) for i in range(r) if rng.random() < 0.5}, base)
            for _ in range(rng.randrange(0, 10))]
    if rows:
        rows += [{}, {rng.randrange(m): 0}, dict(rng.choice(rows))]
    rng.shuffle(rows)
    return rows, r


def _dense_rows(rng):
    """A dense rational matrix with large numerators and denominators, where
    fraction-free elimination grows its coefficients the most."""
    n, m = rng.randrange(1, 10), rng.randrange(1, 10)
    return [{j: _entry(rng, 100) for j in range(m)} for _ in range(n)]


@pytest.mark.parametrize("kind", ["planted", "dense"])
def test_rref_matches_the_fraction_reference(kind):
    # the same rows, entry types and pivots as the Fraction rref; the echelon
    # rows are primitive ints and give the rank and the pivots
    rng = random.Random(41)
    for _ in range(200):
        if kind == "planted":
            rows, planted = _planted_rows(rng)
        else:
            rows = _dense_rows(rng)
            planted = len(rows)
        red, pivots = linalg.rref(rows)
        expected, expected_pivots = fraction_rref(rows)
        assert (red, pivots) == (expected, expected_pivots) and len(pivots) <= planted
        assert [{j: type(x) for j, x in row.items()} for row in red] == [
            {j: type(x) for j, x in row.items()} for row in expected]
        forward = linalg.echelon(rows)
        assert sorted(forward) == pivots and linalg.rank(rows) == len(red)
        for p, row in forward.items():
            assert min(row) == p and row[p] > 0
            assert all(type(x) is int and x for x in row.values())
            assert gcd(*row.values()) == 1


def test_integral_and_primitive():
    row = {"a": Fraction(1, 2), "b": Fraction(-2, 3), "c": 4}
    assert linalg.integral(row) == (6, {"a": 3, "b": -4, "c": 24})
    assert linalg.primitive(row, "b") == {"a": -3, "b": 4, "c": -24}
    assert linalg.primitive({0: 6, 1: -9}, 0) == {0: 2, 1: -3}
