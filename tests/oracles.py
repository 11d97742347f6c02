"""Second routes the tests check the library against: a partition count by
its own recursion, equality of ideals and of derivation modules as
inclusion both ways, dense matrix products, and the Jacobi identity on
every triple of a structure table."""

from functools import lru_cache

from algebroids.groebner import groebner_basis


@lru_cache(maxsize=None)
def partitions_in_rectangle(m, d, n):
    """Number of partitions of m with at most n parts, each part at most d."""
    if d < 0 or n < 0:
        raise ValueError("rectangle sides must be non-negative")
    if m < 0 or m > n * d:
        return 0
    if m == 0:
        return 1
    # split on whether some part equals d
    return partitions_in_rectangle(m, d - 1, n) + partitions_in_rectangle(m - d, d, n - 1)


def same_ideal(a, b):
    """Each ideal contains the other's generators."""
    return all(b.contains(g) for g in a.gens) and all(a.contains(g) for g in b.gens)


def same_module(dm, derivations):
    """The DerivationModule dm and the module the derivations generate
    contain each other's generators."""
    others = [d for d in derivations if not d.is_zero()]
    if not others or not all(dm.contains(d) for d in others):
        return not others and not dm.generators
    gb = groebner_basis([d.to_vector() for d in others], dm.module_order())
    return all(gb.contains(v) for v in dm.vectors())


def mat_mul(a, b):
    """Dense product of two matrices given as lists of rows."""
    return [[sum((x * row[j] for x, row in zip(ai, b)), 0) for j in range(len(b[0]))]
            for ai in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def jacobi_holds(table, n):
    """Whether the antisymmetric sparse table (i, j) -> {k: c_ij^k} of an
    n-dimensional algebra satisfies the Jacobi identity: the cyclic sum of
    [[e_a, e_b], e_c] over every triple i < j < k vanishes."""
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in table.get((a, b), {}).items():
                        for t, y in table.get((m, c), {}).items():
                            total[t] = total.get(t, 0) + x * y
                if any(total.values()):
                    return False
    return True
