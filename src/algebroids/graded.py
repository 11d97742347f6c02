"""Graded linear algebra on a graded submodule M of A^r, A = Q[x1..xn].

A is graded by positive weights w, and position p of A^r is shifted by
shifts[p], so x^e at position p has degree sum w_i e_i + shifts[p].  When
some homogeneous elements of M generate it in every degree below d, the
x^a k over those k with deg x^a = d - deg k > 0 span (m*M)_d.  So one
elimination of [(m*M)_d | kept elements of degree d | targets] answers each
question about degree d: graded Nakayama (Eisenbud, Commutative Algebra,
Cor. 4.8) picks minimal generators from its pivots, and a Lie bracket's
class in M/mM is read off its rref as coordinates, with no Groebner basis.
"""

from . import linalg
from .poly import monomials, wdeg


def _piece(kept, degrees, d, weights, targets):
    """(number of (m*M)_d columns, indices of the kept elements of degree
    d, rows of [(m*M)_d | kept elements of degree d | targets]), one row per
    term that occurs in a column."""
    # the monomials of each degree gap, listed once
    gaps = {d - e: monomials(weights, d - e) for e in set(degrees) if e < d}
    span = [k.mul_term(a) for k, e in zip(kept, degrees) if e < d for a in gaps[d - e]]
    same = [i for i, e in enumerate(degrees) if e == d]
    columns = span + [kept[i] for i in same] + list(targets)
    return len(span), same, linalg.from_columns([col.terms for col in columns])


def minimal_generators(candidates, weights, shifts):
    """(indices of the kept candidates, their degrees): graded Nakayama as
    one linalg.echelon per candidate degree d, from the lowest up.  Each
    candidate is a nonzero homogeneous element.  The candidates of degree d
    kept are the pivot columns of [(m*M)_d | candidates of degree d in the
    given order]: those outside (m*M)_d + the span of the candidates before
    them.  A repeated candidate is never a pivot."""
    by_degree = {}
    for i, c in enumerate(candidates):
        pos, exp = next(iter(c.terms))
        by_degree.setdefault(wdeg(exp, weights) + shifts[pos], []).append(i)
    kept, degrees = [], []
    for d in sorted(by_degree):
        same = by_degree[d]
        span, _kept_of_d, rows = _piece([candidates[k] for k in kept], degrees, d,
                                        weights, [candidates[i] for i in same])
        for p in sorted(linalg.echelon(rows)):
            if p >= span:
                kept.append(same[p - span])
                degrees.append(d)
    return kept, degrees


def coordinates(kept, degrees, d, weights, targets):
    """For each target of degree d, its coordinates {k: c} on the kept
    elements of degree d modulo (m*M)_d, or None when it is not in M.  The
    kept elements are minimal generators of M with the given degrees, so
    the coordinates are unique."""
    span, same, rows = _piece(kept, degrees, d, weights, targets)
    return [None if x is None else {k: c for k, c in zip(same, x[span:]) if c}
            for x in linalg.solve(rows, span + len(same), len(targets))]
