"""Second routes the tests check the library against: a partition count by
its own recursion, and equality of ideals and of derivation modules as
inclusion both ways."""

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
