"""The fraction-free Groebner engine against a Fraction reference, and the
one coefficient form of the exact core: an int when integral, a Fraction
with denominator > 1 otherwise, never a float."""

import heapq
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from algebroids import linalg
from algebroids.derivations import tangent_derivations
from algebroids.groebner import (FreeModuleElement, groebner_basis, lifts, order_key,
                                 syzygies)
from algebroids.liealg import LieAlgebra, fibre_lie_algebra
from algebroids.pipeline import parse_input
from algebroids.poly import Polynomial
from algebroids.series import (QuasiPolynomial, RationalSeries, SeriesPrefix,
                               quasi_polynomial_of, reconstruct_rational)

from references import dense_brackets, dense_rows, sparse_rows

# -- the reference: Buchberger over Q with monic S-polynomials and reductions


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _quot(b, a):
    return tuple(y - x for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _lead(terms, key):
    mono = min(terms, key=key)
    return mono, terms[mono]


def ref_reduce(terms, basis, key):
    """Full normal form of the terms modulo the basis (term dicts), every
    step divided by a leading coefficient; key sorts monomials descending."""
    leads = [_lead(b, key) for b in basis]
    work = {m: Fraction(c) for m, c in terms.items()}
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        pos, exp = mono
        for b, ((lpos, lexp), lcoeff) in zip(basis, leads):
            if lpos == pos and _divides(lexp, exp):
                break
        else:
            rem[mono] = coeff
            continue
        qexp = _quot(exp, lexp)
        factor = coeff / lcoeff
        for (p2, e2), c2 in b.items():
            m2 = (p2, tuple(a + d for a, d in zip(e2, qexp)))
            if m2 == mono:
                continue
            if m2 not in work:
                heapq.heappush(heap, (key(m2), m2))
            work[m2] = work.get(m2, 0) - factor * c2
            if not work[m2]:
                del work[m2]
    return rem


def ref_groebner_basis(gens, key):
    """The Fraction Buchberger: normal selection, the coprimality criterion
    for ideals and the chain criterion, monic S-polynomials; returns the
    monic reduced basis as term dicts, sorted by descending lead."""
    basis, leads, pairs, done = [], [], [], set()

    def add(terms):
        lead = _lead(terms, key)
        for i, ((pos, exp), _c) in enumerate(leads):
            if pos == lead[0][0]:
                lcm_key = key((pos, _lcm(exp, lead[0][1])))
                heapq.heappush(pairs, (tuple(-x for x in lcm_key), i, len(basis)))
        basis.append(terms)
        leads.append(lead)

    for g in gens:
        add({m: Fraction(c) for m, c in g.terms.items()})
    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        (p, ei), ci = leads[i]
        (_, ej), cj = leads[j]
        if gens[0].rank == 1 and all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        L = _lcm(ei, ej)
        if any(k not in (i, j) and pk == p and _divides(ek, L)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k, ((pk, ek), _c) in enumerate(leads)):
            continue
        spoly = {}
        for b, e, c, sign in ((basis[i], ei, ci, 1), (basis[j], ej, cj, -1)):
            q = _quot(L, e)
            for (pos, x), v in b.items():
                m = (pos, tuple(a + d for a, d in zip(x, q)))
                spoly[m] = spoly.get(m, 0) + sign * v / c
        rem = ref_reduce({m: v for m, v in spoly.items() if v}, basis, key)
        if rem:
            add(rem)
    keep = [k for k, ((pk, ek), _c) in enumerate(leads)
            if not any(t != k and pt == pk and _divides(et, ek) and (et != ek or t < k)
                       for t, ((pt, et), _c2) in enumerate(leads))]
    minimal = [basis[k] for k in keep]
    out = []
    for b in minimal:
        mono, coeff = _lead(b, key)
        tail = ref_reduce({m: c for m, c in b.items() if m != mono}, minimal, key)
        out.append({mono: Fraction(1), **{m: c / coeff for m, c in tail.items()}})
    return sorted(out, key=lambda b: key(_lead(b, key)[0]))


def ref_augmented(vectors, key):
    nvars, r = vectors[0].nvars, vectors[0].rank
    rows = []
    for i, v in enumerate(vectors):
        terms = dict(v.terms)
        terms[(r + i, (0,) * nvars)] = 1
        rows.append(FreeModuleElement(nvars, r + len(vectors), terms))
    return rows, ref_groebner_basis(rows, key)


def ref_syzygies(vectors):
    rows, basis = ref_augmented(vectors, order_key())
    r = vectors[0].rank
    positions = list(range(r, r + len(vectors)))
    return [FreeModuleElement(rows[0].nvars, rows[0].rank, b).project(positions)
            for b in basis if all(pos >= r for pos, _e in b)]


def ref_lifts(gens, targets, key):
    rows, basis = ref_augmented(gens, key)
    r = gens[0].rank
    positions = list(range(r, r + len(gens)))
    out = []
    for t in targets:
        rem = ref_reduce(t.terms, basis, key)
        if any(pos < r for pos, _e in rem):
            out.append(None)
        else:
            neg = FreeModuleElement(rows[0].nvars, rows[0].rank, {m: -c for m, c in rem.items()})
            out.append(neg.project(positions).to_polys())
    return out


# -- seeded random inputs ----------------------------------------------------

def random_coeff(rng):
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 1, 2, 3, 5]))
    return c.numerator if c.denominator == 1 else c


def random_poly(rng, nvars, degree=2, terms=3):
    return Polynomial(nvars, {tuple(rng.randrange(degree + 1) for _ in range(nvars)):
                              random_coeff(rng) for _ in range(rng.randrange(1, terms + 1))})


def random_vectors(rng, nvars, rank, count):
    out = []
    while len(out) < count:
        v = FreeModuleElement.from_polys([random_poly(rng, nvars) for _ in range(rank)])
        if not v.is_zero():
            out.append(v)
    return out


def cases():
    """(vectors, order): ideals in 3 variables, then rank-2 modules in 2; each
    order given by its weights, unit weights being the unweighted order."""
    rng = random.Random(18)
    ideal_orders = [(1, 1, 1), (9, 3, 1), (1, 2, 3)]
    module_orders = [(1, 1), (2, 1), (1, 2), (3, 1)]
    return ([(random_vectors(rng, 3, 1, 3), ideal_orders[k % 3]) for k in range(12)]
            + [(random_vectors(rng, 2, 2, 3), module_orders[k % 4]) for k in range(12)])


CASES = cases()


@pytest.mark.parametrize("vectors, order", CASES)
def test_fraction_free_basis_matches_the_fraction_reference(vectors, order):
    gb = groebner_basis(vectors, order)
    assert ([e.scale(Fraction(1, e.terms[lead])).terms for e, lead in zip(gb.elements, gb.leads())]
            == ref_groebner_basis(vectors, order_key(order)))


def test_basis_elements_are_primitive_ints_positive_at_their_leads():
    # the one copy a basis holds, for every seeded case
    for vectors, order in CASES:
        gb = groebner_basis(vectors, order)
        for e, lead in zip(gb.elements, gb.leads()):
            assert all(type(c) is int for c in e.terms.values())
            assert gcd(*e.terms.values()) == 1
            assert lead == min(e.terms, key=order_key(order)) and e.terms[lead] > 0


@pytest.mark.parametrize("vectors, order", CASES[:6] + CASES[12:18])
def test_syzygies_and_lifts_match_the_fraction_reference(vectors, order):
    assert syzygies(vectors, []) == ref_syzygies(vectors)
    rng = random.Random(3)
    nvars, rank = vectors[0].nvars, vectors[0].rank
    members = []
    for _ in range(2):
        acc = FreeModuleElement(nvars, rank)
        for v in vectors:
            for exp, c in random_poly(rng, nvars, terms=2).terms.items():
                acc = acc + v.mul_term(exp, c)
        members.append(acc)
    targets = members + random_vectors(rng, nvars, rank, 3)
    found = lifts(vectors, targets, order)
    assert found == ref_lifts(vectors, targets, order_key(order))
    assert all(lift is not None for lift in found[:2])
    # and every coefficient is in the one form (see below)
    assert all(all_canonical(s.terms.values()) for s in syzygies(vectors, []))
    assert all(all_canonical(q.terms.values()) for lift in found if lift for q in lift)


# -- integral and primitive: the all-int fast path at its edge ---------------

def lcm_integral(row):
    """(d, d * row) by the lcm of the denominators, on every row."""
    den = lcm(*(Fraction(x).denominator for x in row.values()))
    return den, {k: int(x * den) for k, x in row.items()}


def gcd_primitive(row, lead):
    ints = lcm_integral(row)[1]
    g = gcd(*ints.values())
    return {k: x // (g if ints[lead] > 0 else -g) for k, x in ints.items()}


INTEGRAL_ROWS = [
    {0: Fraction(4, 2), 1: Fraction(1, 1)},  # integral Fractions
    {0: Fraction(1, 1)},
    {0: 3, 1: Fraction(1, 2), 2: -Fraction(5, 3)},  # ints mixed with Fractions
    {0: Fraction(6, 3), 1: 4, 2: -8},  # an integral Fraction among ints
    {0: -3, 1: 6, 2: 9},  # a negative lead and gcd 3
    {0: 4, 1: -6, 2: 10},  # all ints, gcd 2
    {0: -1, 1: 2},  # a negative lead, gcd 1
    {0: 5, 1: 7},  # already primitive
    {},
]


@pytest.mark.parametrize("row", INTEGRAL_ROWS)
def test_integral_and_primitive_give_the_lcm_route_in_ints(row):
    before = dict(row)
    den, ints = linalg.integral(row)
    assert (den, ints) == lcm_integral(row)
    assert all(type(x) is int for x in ints.values())
    if row:
        out = linalg.primitive(row, 0)
        assert out == gcd_primitive(row, 0)
        assert all(type(x) is int for x in out.values()) and out[0] > 0
    # neither changes the row it is given
    assert row == before and list(row.items()) == list(before.items())


def test_an_int_row_with_gcd_one_is_returned_itself():
    row = {0: 5, 1: -7}
    assert linalg.integral(row) == (1, row) and linalg.integral(row)[1] is row
    assert linalg.primitive(row, 0) is row
    assert linalg.primitive(row, 1) == {0: -5, 1: 7}


# -- one coefficient form ----------------------------------------------------

def canonical(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def all_canonical(values):
    return all(canonical(c) for c in values)


@pytest.mark.parametrize("vectors, order", CASES)
def test_groebner_outputs_are_canonical(vectors, order):
    gb = groebner_basis(vectors, order)
    assert all(all_canonical(e.terms.values()) for e in gb.elements)
    rng = random.Random(5)
    nvars, rank = vectors[0].nvars, vectors[0].rank
    for f in random_vectors(rng, nvars, rank, 4):
        assert all_canonical(gb.normal_form(f).terms.values())


def test_linear_algebra_outputs_are_canonical():
    rng = random.Random(29)
    for _ in range(120):
        n, m = rng.randrange(1, 6), rng.randrange(1, 7)
        rows = [[random_coeff(rng) if rng.random() < 0.6 else 0 for _ in range(m)]
                for _ in range(n)]
        red, _pivots = linalg.rref(sparse_rows(rows))
        assert all(all_canonical(row) for row in dense_rows(red, m))
        assert all(all_canonical(v) for v in linalg.kernel_basis(sparse_rows(rows), m))
        assert all(all_canonical(x) for x in linalg.solve(sparse_rows(rows), m - 1, 1)
                   if x is not None)


def test_constructors_store_the_one_form():
    # integral Fractions become ints; nothing else changes value
    p = Polynomial(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): 2.5})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 3), (0, 0): Fraction(5, 2)}
    assert all_canonical(p.terms.values()) and all_canonical((p * Fraction(3)).terms.values())
    v = FreeModuleElement(2, 1, {(0, (1, 0)): Fraction(6, 3), (0, (0, 1)): Fraction(1, 2)})
    assert all_canonical(v.terms.values()) and all_canonical(v.scale(Fraction(2)).terms.values())
    g = LieAlgebra(3, {(0, 1): {1: Fraction(2)}, (0, 2): {2: Fraction(-2)},
                       (1, 2): {0: Fraction(1)}})
    assert all(all_canonical(vec) for vec in dense_brackets(g).values())
    assert all(all_canonical(row.values()) for row in g._table.values())
    prefix = SeriesPrefix([Fraction(4, 2), 3, Fraction(1, 3), 0.5])
    assert prefix.coeffs == [2, 3, Fraction(1, 3), Fraction(1, 2)]
    assert all_canonical(prefix.coeffs) and all_canonical(SeriesPrefix(prefix.coeffs[:3]).coeffs)


def test_series_outputs_are_canonical():
    rng = random.Random(31)
    for _ in range(30):
        num = [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))]
        factors = [(1, rng.randrange(1, 3))] + [(n, 1) for n in (2, 3, 4) if rng.random() < 0.4]
        rs = RationalSeries(num, factors)
        bound = rs.numerator_degree + sum(n * d for n, d in rs.factors) + 4
        prefix = rs.expand(bound)
        assert all(type(c) is int for c in prefix.coeffs)
        back = reconstruct_rational(SeriesPrefix([Fraction(c) for c in prefix.coeffs]), factors)
        assert all(type(c) is int for c in back.numerator)
        assert back.expand(bound).coeffs == prefix.coeffs
        qp = quasi_polynomial_of(rs)
        assert all(all_canonical(poly) for poly in qp.residues)
        assert all_canonical(qp(n) for n in range(qp.threshold, qp.threshold + 8))
    # the cubic covariants: residues n^2/8 + n/2 + (1, 3/8, 1/2, 3/8)
    qp = quasi_polynomial_of(RationalSeries([1, -1, 1], [(1, 2), (4, 1)]))
    assert qp.residues[0] == [1, Fraction(1, 2), Fraction(1, 8)]
    assert all(all_canonical(poly) for poly in qp.residues)
    # evaluation off the integral values: n/2 + 1/3 on odd n, 3n^2/4 on even n
    qp = QuasiPolynomial(2, [[0, 0, Fraction(3, 4)], [Fraction(1, 3), Fraction(1, 2)]])
    values = [qp(n) for n in range(-3, 5)]
    assert values == [Fraction(-7, 6), 3, Fraction(-1, 6), 0, Fraction(5, 6), 3,
                      Fraction(11, 6), 12]
    assert all_canonical(values)


FIBRE_INPUTS = [
    "vars: x, y, z\nweights: 1, 2, 2\nideal: z^2 - x^2*y\n",
    "vars: x, y, z\nweights: 3, 2, 2\nideal: x^2 + y^2*z + z^3\n",
    "vars: x1, x2, x3, x4\nideal: x1^2 + x2^2 + x3^2 + x4^2\n",
    # E6 with non-integral coefficients
    "vars: x, y, z\nweights: 6, 4, 3\nideal: 1/2*x^2 + 3/4*y^3 - 5/3*z^4\n",
]


@pytest.mark.parametrize("text", FIBRE_INPUTS)
def test_fibre_outputs_are_canonical(text):
    dm = tangent_derivations(parse_input(text).ideal())
    algebra, basis = fibre_lie_algebra(dm)
    assert all(all_canonical(vec) for vec in dense_brackets(algebra).values())
    assert all(all_canonical(row.values()) for row in algebra._table.values())
    assert all(all_canonical(d.vector.terms.values()) for d in basis + dm.generators)
