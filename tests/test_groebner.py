"""Groebner bases, normal forms, lifts, colength, and syzygies."""

import random
import time
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations_with_replacement, product
from operator import mul

import pytest

from algebroids import groebner
from algebroids.derivations import jacobian_ideal, tangent_derivations
from algebroids.errors import PreconditionError
from algebroids.groebner import (FreeModuleElement, Ideal, _greedy_minimal_generators,
                                 groebner_basis, lifts, order_key, syzygies)
from algebroids.poly import Polynomial, monomials, parse_poly, wdeg

from references import position_first_basis, same_ideal, variable


def P(text, varnames=("x", "y")):
    return parse_poly(text, list(varnames))


def E(*polys):
    """The rank-1 module elements of the polynomials."""
    return [FreeModuleElement.from_poly(p) for p in polys]


def gb_polys(gens):
    gb = groebner_basis(E(*gens))
    return gb, [e.to_polys()[0] for e in gb.elements]


def test_groebner_trivial():
    _, polys = gb_polys([P("x"), P("y")])
    assert set(polys) == {P("x"), P("y")}


def test_groebner_standard_example():
    # {x^2+y^2, xy} reduces to {xy, x^2+y^2, y^3}
    _, polys = gb_polys([P("x^2 + y^2"), P("x*y")])
    assert set(polys) == {P("x*y"), P("x^2 + y^2"), P("y^3")}


def test_groebner_monomial_input():
    _, polys = gb_polys([P("x^2"), P("y")])
    assert set(polys) == {P("y"), P("x^2")}


def test_groebner_idempotent():
    gb, polys = gb_polys([P("x^2 + y^2"), P("x*y")])
    _, again = gb_polys(polys)
    assert set(again) == set(polys)


def test_normal_form_and_membership():
    gb, _ = gb_polys([P("x^2 + y^2"), P("x*y")])
    rem = gb.normal_form(*E(P("x^2")))
    assert rem.to_polys()[0] == P("-y^2")
    assert not gb.contains(FreeModuleElement.from_poly(P("x^2")))
    assert gb.contains(FreeModuleElement.from_poly(P("y^3")))


def test_lift_reproduces_member():
    ideal = Ideal(2, [P("x^2 + y^2"), P("x*y")])
    lift = lifts(E(*ideal.gens), E(P("y^3")), ideal.weights)[0]
    assert lift is not None
    total = sum((c * g for c, g in zip(lift, ideal.gens)), Polynomial.zero(2))
    assert total == P("y^3")
    # known identity: y^3 = y(x^2+y^2) - x(xy)
    assert P("y") * P("x^2+y^2") - P("x") * P("x*y") == P("y^3")


def test_membership_soundness_random():
    rng = random.Random(5)
    gens = [P("x^2 + y^2"), P("x*y"), P("y^4 - x")]
    ideal = Ideal(2, gens)
    for _ in range(20):
        f = Polynomial.zero(2)
        for g in gens:
            exp = (rng.randrange(3), rng.randrange(3))
            c = Fraction(rng.randrange(-5, 6))
            f = f + g * Polynomial.monomial(2, exp) * c
        lift = lifts(E(*ideal.gens), E(f), ideal.weights)[0]
        assert lift is not None
        total = sum((c * g for c, g in zip(lift, gens)), Polynomial.zero(2))
        assert total == f


def test_colength_examples():
    assert Ideal(2, [P("x"), P("y")]).colength() == 1
    ideal = Ideal(2, [P("x^2"), P("x*y"), P("y^3")])
    assert ideal.colength() == 4
    assert set(ideal.standard_monomials()) == {(0, 0), (1, 0), (0, 1), (0, 2)}
    three = Ideal(3, [parse_poly(s, ["x", "y", "z"]) for s in ("x^2", "x*y", "z")])
    assert three.colength() is None
    with pytest.raises(PreconditionError, match="unit ideal"):
        Ideal(2, [P("x"), P("y"), P("1 - x*y")]).standard_monomials()


def box_standard_monomials(ideal):
    """Every exponent below the pure-power bounds that no lead divides;
    None when some variable has no pure power among the leads."""
    lts = ideal.leading_exponents()
    n = ideal.nvars
    bounds = []
    for i in range(n):
        pure = [lt[i] for lt in lts if not any(lt[:i] + lt[i + 1:])]
        if not pure:
            return None
        bounds.append(min(pure))
    box = product(*(range(b) for b in bounds))
    return sorted(e for e in box if not any(all(a <= b for a, b in zip(lt, e)) for lt in lts))


def test_standard_monomials_match_the_box_filter():
    rng = random.Random(29)
    seen = set()
    for trial in range(60):
        monomial = trial % 2 == 0
        nvars = rng.randrange(1, 4)
        gens = []
        for i in range(nvars):
            if rng.random() < 0.8:  # a pure power, so most ideals are finite
                gens.append(variable(nvars, i) ** rng.randrange(1, 5))
        for _ in range(rng.randrange(1, 4)):
            nterms = 1 if monomial else rng.randrange(2, 4)
            terms = {tuple(rng.randrange(4) for _ in range(nvars)): rng.choice([-2, -1, 1, 3])
                     for _ in range(nterms)}
            gens.append(Polynomial(nvars, terms))
        # the generators with a non-constant term
        ideal = Ideal(nvars, [g for g in gens if any(any(e) for e in g.terms)])
        if ideal.is_unit():
            continue
        expected = box_standard_monomials(ideal)
        assert ideal.standard_monomials() == expected
        seen.add((monomial, expected is None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def brute_colength(gens, nvars, bound):
    """Dimension of the degree-<=bound quotient by linear algebra."""
    from algebroids import linalg

    monos = []
    def enum(prefix, rem):
        if len(prefix) == nvars:
            monos.append(tuple(prefix))
            return
        for e in range(rem + 1):
            enum(prefix + [e], rem - e)
    enum([], bound)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        for m in monos:
            prod = g * Polynomial.monomial(nvars, m)
            if any(sum(e) > bound for e in prod.terms):
                continue
            rows.append({index[e]: c for e, c in prod.terms.items()})
    return len(monos) - linalg.rank(rows)


def test_colength_against_linear_algebra():
    rng = random.Random(17)
    names = ["x", "y", "z"]
    for _ in range(8):
        nvars = rng.randrange(2, 4)
        gens = [variable(nvars, i) ** rng.randrange(2, 4) for i in range(nvars)]
        # one extra monomial or binomial generator
        exp = tuple(rng.randrange(3) for _ in range(nvars))
        extra = Polynomial.monomial(nvars, exp)
        if rng.random() < 0.5:
            exp2 = tuple(rng.randrange(3) for _ in range(nvars))
            if sum(exp2) == sum(exp):
                extra = extra + Polynomial.monomial(nvars, exp2)
        if any(any(e) for e in extra.terms):  # not a constant
            gens.append(extra)
        ideal = Ideal(nvars, gens)
        if ideal.is_unit():
            continue
        assert ideal.colength() == brute_colength(gens, nvars, 10)


def test_syzygies_koszul():
    for f, g in [(P("x"), P("y")), (P("x^2 + 1"), P("y^3")), (P("x"), P("x^2 - y"))]:
        syz = syzygies(E(f, g), [])
        for s in syz:
            polys = s.to_polys()
            assert polys[0] * f + polys[1] * g == Polynomial.zero(2)
        koszul = FreeModuleElement.from_polys([g, -f])
        assert groebner_basis(syz).contains(koszul)


def test_syzygies_whitney_columns():
    names = ["x", "y", "z"]
    f = parse_poly("z^2 - x^2*y", names)
    cols = [f.diff(i) for i in range(3)] + [f]
    syz = syzygies(E(*cols), [])
    zero = FreeModuleElement(3, 4)
    for s in syz:
        acc = Polynomial.zero(3)
        for i, p in enumerate(s.to_polys()):
            acc = acc + p * cols[i]
        assert acc.is_zero()
    assert len(syz) >= 4


def test_mul_term_matches_polynomial_product():
    v = FreeModuleElement(2, 2, {(0, (1, 0)): Fraction(3, 2), (1, (0, 2)): Fraction(-1)})
    for exp in [(0, 0), (2, 1)]:
        for coeff in [1, Fraction(1), Fraction(-2, 3), 0]:
            shifted = v.mul_term(exp, coeff)
            term = Polynomial.monomial(2, exp) * coeff
            assert shifted == FreeModuleElement.from_polys([term * p for p in v.to_polys()])
            assert all(type(c) is int or c.denominator > 1 for c in shifted.terms.values())
    assert v.mul_term((1, 1)).terms == {(0, (2, 1)): Fraction(3, 2), (1, (1, 3)): Fraction(-1)}


def test_ideal_power_and_product():
    m = Ideal(2, [P("x"), P("y")])
    sq = m.power(2)
    assert same_ideal(sq, m.product(m))
    assert sq.colength() == 3
    assert m.power(0).is_unit()


# -- lifts, and a basis independent of pair order and generator order ------

XYZ = ("x", "y", "z")


def random_poly(rng, nvars, degree=2, terms=3):
    out = {}
    for _ in range(rng.randrange(1, terms + 1)):
        out[tuple(rng.randrange(degree + 1) for _ in range(nvars))] = rng.randrange(-3, 4)
    return Polynomial(nvars, out)


def jacobian_and_slot_columns(ideal):
    """The n Jacobian columns and the s^2 slot columns g e_j of I's
    generators, elements of A^s."""
    n, fs = ideal.nvars, ideal.gens
    cols = [FreeModuleElement.from_polys([f.diff(i) for f in fs]) for i in range(n)]
    zero = Polynomial.zero(n)
    slots = [FreeModuleElement.from_polys([g if k == j else zero for k in range(len(fs))])
             for g in fs for j in range(len(fs))]
    return cols, slots


def syzygy_modulo_ideals():
    named = [("xyz", ["x*y", "y*z", "x*z"], None),
             ("xyzw", ["x*z - y^2", "y*w - z^2", "x*w - y*z"], None),
             ("abcdef", ["a*e - b*d", "a*f - c*d", "b*f - c*e"], None),
             ("xyz", ["x^2 - y^3", "y^5 - z^2"], (3, 2, 5))]
    out = [Ideal(len(names), [P(g, names) for g in gens], weights) for names, gens, weights in named]
    rng = random.Random(67)
    while len(out) < len(named) + 20:
        nvars = rng.randint(2, 4)
        ideal = Ideal(nvars, [random_poly(rng, nvars) for _ in range(rng.randint(1, 3))])
        if ideal.gens and not ideal.is_unit():
            out.append(ideal)
    return out


@pytest.mark.parametrize("ideal", syzygy_modulo_ideals())
def test_syzygies_modulo_relations_are_the_projected_augmented_syzygies(ideal):
    # the relations enter with no unit vector: the syzygies of the columns
    # modulo the slots are the nonzero projections of all the syzygies of
    # columns and slots together, de-duplicated, in the same order
    cols, slots = jacobian_and_slot_columns(ideal)
    projected = []
    for q in syzygies(cols + slots, []):
        q = q.project(range(len(cols)))
        if not q.is_zero() and q not in projected:
            projected.append(q)
    modulo = syzygies(cols, slots)
    assert modulo == projected
    relations = groebner_basis(slots)
    for q in modulo:
        acc = FreeModuleElement(ideal.nvars, len(ideal.gens))
        for p, col in zip(q.to_polys(), cols):
            for exp, c in p.terms.items():
                acc = acc + col.mul_term(exp, c)
        assert relations.contains(acc)


def whitney_module():
    """The four generators of T(I) for the Whitney umbrella z^2 - x^2*y."""
    x, y, z = (variable(3, i) for i in range(3))
    zero = Polynomial.zero(3)
    return [FreeModuleElement.from_polys(v) for v in
            ([x, -2 * y, zero], [x, zero, z], [zero, 2 * z, x * x], [z, zero, x * y])]


def random_modules(seed, count, nvars=2, rank=2):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        vecs = [FreeModuleElement.from_polys([random_poly(rng, nvars) for _ in range(rank)])
                for _ in range(3)]
        vecs = [v for v in vecs if not v.is_zero()]
        if vecs:
            out.append(vecs)
    return out


def combination(gens, coeffs):
    acc = FreeModuleElement(gens[0].nvars, gens[0].rank)
    for g, c in zip(gens, coeffs):
        for exp, k in c.terms.items():
            acc = acc + g.mul_term(exp, k)
    return acc


# an ideal (as rank-1 elements), the Whitney T(I), and random rank-2 modules
MODULE_CASES = ([[FreeModuleElement.from_poly(parse_poly(s, XYZ))
                  for s in ("x^2 + y*z", "x*y - z^2", "y^3 + x")],
                 whitney_module()]
                + random_modules(11, 4))


def module_weights(gens, weighted):
    """No weights, or the weights n, ..., 1."""
    return tuple(range(gens[0].nvars, 0, -1)) if weighted else None


@pytest.mark.parametrize("weighted", [False, True], ids=["pot", "weighted"])
@pytest.mark.parametrize("gens", MODULE_CASES)
def test_tracked_module_basis_reps_and_lift(gens, weighted):
    # lifts of random members reproduce them; a random element is lifted
    # exactly when the Groebner basis of the gens contains it
    weights = module_weights(gens, weighted)
    rng = random.Random(3)
    nvars = gens[0].nvars
    members = [combination(gens, [random_poly(rng, nvars) for _ in gens]) for _ in range(3)]
    for f, lift in zip(members, lifts(gens, members, weights)):
        assert lift is not None
        assert combination(gens, lift) == f
    gb = groebner_basis(gens, weights)
    others = [FreeModuleElement.from_polys([random_poly(rng, nvars, terms=2)
                                            for _ in range(gens[0].rank)])
              for _ in range(6)]
    others += [g + other for g, other in zip(gens, others)]
    found = lifts(gens, others, weights)
    assert any(lift is None for lift in found)
    for f, lift in zip(others, found):
        assert (lift is not None) == gb.contains(f)
        if lift is not None:
            assert combination(gens, lift) == f


@pytest.mark.parametrize("weighted", [False, True], ids=["pot", "weighted"])
@pytest.mark.parametrize("gens", MODULE_CASES)
def test_module_basis_ignores_generator_order(gens, weighted):
    weights = module_weights(gens, weighted)
    expected = groebner_basis(gens, weights).elements
    rng = random.Random(7)
    for _ in range(3):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert groebner_basis(shuffled, weights).elements == expected


@pytest.mark.parametrize("weighted", [False, True], ids=["pot", "weighted"])
def test_leads_are_those_of_the_elements(weighted):
    # the basis keeps the leads Buchberger found; recomputed from its
    # elements they agree, in descending order
    rng = random.Random(43)
    ideals = [E(*[random_poly(rng, 3) for _ in range(4)]) for _ in range(8)]
    for gens in ideals + MODULE_CASES:
        gens = [g for g in gens if not g.is_zero()]
        weights = module_weights(gens, weighted)
        key = order_key(weights)
        gb = groebner_basis(gens, weights)
        leads = [min(e.terms, key=key) for e in gb.elements]
        assert list(gb.leads()) == leads == sorted(leads, key=key)


# -- S-pairs by sugar against the position-first selection ----------------

def same_basis(gb, reference):
    return list(gb.leads()) == list(reference.leads()) and gb.elements == reference.elements


def test_sugar_selection_keeps_the_basis_of_graded_and_ungraded_input():
    # Whitney's T(I) is homogeneous under (1, 2, 2) only with its positions
    # shifted, x^2 + y only under (1, 2), and x*y is one term: the sugar of
    # each orders its pairs, and the reduced basis stays
    cases = [(whitney_module(), (1, 2, 2)), (whitney_module(), None),
             (E(P("x^2 + y"), P("x*y^2 - 1")), None), (E(P("x^2 + y"), P("x*y")), (1, 2)),
             (E(P("x*y")), None)]
    for gens, weights in cases:
        assert same_basis(groebner_basis(gens, weights), position_first_basis(gens, weights))


@pytest.mark.parametrize("weights", [None, (1, 2, 3), (2, 1, 1)])
def test_sugar_selection_keeps_random_inhomogeneous_bases(weights):
    # seeded ideals and rank-2 modules, most with an inhomogeneous element,
    # whose remainders' sugar can exceed their leads' degrees
    rng = random.Random(59)
    cases = [E(*[random_poly(rng, 3) for _ in range(3)]) for _ in range(8)]
    cases += random_modules(61, 6, nvars=3)
    cases = [gens for gens in ([g for g in c if not g.is_zero()] for c in cases) if gens]
    assert sum(any(len({wdeg(exp, weights) for _pos, exp in g.terms}) > 1 for g in gens)
               for gens in cases) >= 10
    for gens in cases:
        assert same_basis(groebner_basis(gens, weights), position_first_basis(gens, weights))


@pytest.mark.parametrize("weighted", [False, True], ids=["pot", "weighted"])
@pytest.mark.parametrize("gens", MODULE_CASES)
def test_degree_selection_keeps_the_module_basis(gens, weighted):
    weights = module_weights(gens, weighted)
    assert same_basis(groebner_basis(gens, weights), position_first_basis(gens, weights))


def test_degree_selection_keeps_whitneys_graded_module_basis():
    # T(I) of Whitney is homogeneous under (1, 2, 2) with shifts; its sugar
    # ignores them
    gens = whitney_module()
    assert same_basis(groebner_basis(gens, (1, 2, 2)), position_first_basis(gens, (1, 2, 2)))


def random_graded_module(rng, weights, shifts):
    """Three elements of A^len(shifts), each homogeneous of one degree when
    position p is shifted by shifts[p]."""
    out = []
    for _ in range(3):
        d = max(shifts) + rng.randrange(4)
        terms = {}
        for pos, shift in enumerate(shifts):
            monos = monomials(weights, d - shift)
            for exp in rng.sample(monos, k=min(rng.randrange(3), len(monos))):
                terms[(pos, exp)] = rng.choice([-2, -1, 1, 3])
        if terms:
            out.append(FreeModuleElement(len(weights), len(shifts), terms))
    return out


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 2, 3), (3, 2, 1), (2, 1, 5)])
def test_degree_selection_keeps_random_graded_bases(weights):
    # homogeneous and weighted ideals and rank-2 modules, under their own
    # order (the sugar of an ideal's pair is its lcm's degree) and under the
    # unweighted one
    rng = random.Random(41)
    cases = [[FreeModuleElement.from_poly(g) for g in random_graded_ideal(rng, weights).gens]
             for _ in range(6)]
    cases += [random_graded_module(rng, weights, (0, rng.randrange(-2, 3))) for _ in range(6)]
    for gens in filter(None, cases):
        for order in (weights, None):
            assert same_basis(groebner_basis(gens, order), position_first_basis(gens, order))


DEGREE_SELECTION_IDEALS = [
    ("xyz", ["z^2 - x^2*y"], (1, 2, 2)),
    ("xyz", ["x^3 + y^4 + z^2"], (4, 3, 6)),
    ("xyz", ["x^2*y + y^3 + z^2"], (2, 2, 3)),
    ("xyz", ["x*y", "y*z", "x*z"], None),
    ("abcdef", ["a*e - b*d", "a*f - c*d", "b*f - c*e"], None),
    ("abcd", ["a*c - b^2", "b*d - c^2", "a*d - b*c"], None),
]


@pytest.mark.parametrize("names, gens, weights", DEGREE_SELECTION_IDEALS,
                         ids=["whitney", "e6", "d4", "axes", "minors23", "twisted-cubic"])
def test_degree_selection_keeps_the_tangent_syzygy_bases(monkeypatch, names, gens, weights):
    # every basis tangent_derivations builds on its augmented rows (v_i,
    # e_i) and (u, 0), under the unweighted order, equals the
    # position-first basis of the same rows
    built = []
    engine = groebner.groebner_basis

    def spy(rows, order=None):
        gb = engine(rows, order)
        built.append((rows, order, gb))
        return gb

    monkeypatch.setattr(groebner, "groebner_basis", spy)
    ideal = Ideal(len(names), [P(g, names) for g in gens], weights)
    tangent_derivations(ideal)
    augmented = [entry for entry in built if entry[0][0].rank > 1]
    assert augmented
    for rows, order, gb in augmented:
        assert same_basis(gb, position_first_basis(rows, order))


# (9, 3, 1) orders the monomials with exponents below 3, those of the
# generators, as lex does
@pytest.mark.parametrize("weights", [pytest.param(None, id="grevlex"),
                                     pytest.param((9, 3, 1), id="lex")])
def test_ideal_basis_ignores_generator_order(weights):
    rng = random.Random(23)
    for _ in range(4):
        gens = [FreeModuleElement.from_poly(random_poly(rng, 3)) for _ in range(4)]
        gens = [g for g in gens if not g.is_zero()]
        expected = groebner_basis(gens, weights).elements
        for _ in range(3):
            rng.shuffle(gens)
            assert groebner_basis(gens, weights).elements == expected


def textbook_compare(weights):
    """cmp of two module monomials (pos, exp), positive when the first is
    larger: position over term, the lower position the larger; at one
    position weighted grevlex compares the weighted degree, then the last
    differing exponent, smaller wins."""
    def compare(m1, m2):
        (p1, a), (p2, b) = m1, m2
        if p1 != p2:
            return p2 - p1
        da, db = (sum(w * e for w, e in zip(weights or (1,) * len(a), exp)) for exp in (a, b))
        if da != db:
            return da - db
        diff = [x - y for x, y in zip(a, b) if x != y]
        return -diff[-1] if diff else 0

    return compare


def test_descending_key_is_the_textbook_order():
    rng = random.Random(1)
    monos = {(rng.randrange(3), tuple(rng.randrange(4) for _ in range(3))) for _ in range(120)}
    for weights in (None, (1, 2, 3), (3, 1, 1)):
        expected = sorted(monos, key=cmp_to_key(textbook_compare(weights)), reverse=True)
        assert sorted(monos, key=order_key(weights)) == expected


def test_unit_weights_are_the_unweighted_order():
    rng = random.Random(26)
    monos = [(rng.randrange(3), tuple(rng.randrange(4) for _ in range(3))) for _ in range(60)]
    unit, plain = order_key((1, 1, 1)), order_key()
    assert [unit(m) for m in monos] == [plain(m) for m in monos]


def test_term_orders_and_ideals_reject_bad_weights():
    # a weight <= 0 makes no well-order
    for weights in [(1, 0, -1), (-1, 2, 3)]:
        with pytest.raises(ValueError, match="positive"):
            order_key(weights)
    # one positive int weight per variable: truncated to the first two
    # variables, (2, 1) would make x*z + y^2 quasi-homogeneous
    f = P("x*z + y^2", "xyz")
    for weights in [(2, 1), (1, 1, 1, 1), (1, 0, 1), (1, -2, 1), (1, Fraction(1, 2), 1)]:
        with pytest.raises(ValueError):
            Ideal(3, [f], weights)


# -- minimal generators: graded Nakayama against the greedy route ----------

DET23 = ("abcdef", ["a*e - b*d", "a*f - c*d", "b*f - c*e"])


def random_graded_ideal(rng, weights):
    """Quasi-homogeneous generators with dependent ones among them: a
    multiple of one generator plus another of the multiple's degree."""
    nvars = len(weights)
    gens = []
    for _ in range(rng.randrange(2, 5)):
        d = rng.randrange(min(weights), 5)
        terms = rng.sample(monomials(weights, d), k=min(2, len(monomials(weights, d))))
        gens.append(Polynomial(nvars, {e: rng.choice([-2, -1, 1, 3]) for e in terms}))
    for _ in range(rng.randrange(1, 4)):
        g, h = sorted(rng.sample(gens, 2), key=lambda f: f.degree(weights))
        gap = h.degree(weights) - g.degree(weights)
        if gap:
            g = g * Polynomial.monomial(nvars, rng.choice(monomials(weights, gap)))
        gens.append(g * rng.choice([1, 2]) + h)
    rng.shuffle(gens)
    return Ideal(nvars, gens, weights)


def test_graded_minimal_generators_match_greedy_on_random_ideals():
    rng = random.Random(29)
    dropped = 0
    for weights in [(1, 1, 1), (1, 2, 3)] * 20:
        ideal = random_graded_ideal(rng, weights)
        assert ideal.is_quasi_homogeneous()
        kept = ideal.minimal_generators()
        assert kept == _greedy_minimal_generators(ideal)
        dropped += len(ideal.gens) - len(kept)
    assert dropped >= 40


def test_graded_minimal_generators_match_greedy_on_determinantal_jacobian():
    names, gens = DET23
    jac = jacobian_ideal(Ideal(len(names), [P(g, names) for g in gens]))
    assert len(jac.gens) == 42
    for order in (jac.gens, jac.gens[::-1]):
        ideal = Ideal(jac.nvars, order)
        kept = ideal.minimal_generators()
        assert len(kept) == 21
        assert kept == _greedy_minimal_generators(ideal)


def test_minimal_generators_of_graded_ideal_build_no_groebner_basis(monkeypatch):
    names, gens = DET23
    jac = jacobian_ideal(Ideal(len(names), [P(g, names) for g in gens]))
    calls = []
    original = groebner.groebner_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "groebner_basis", counted)
    assert len(jac.minimal_generators()) == 21
    assert calls == []
    # an ideal that is not quasi-homogeneous takes the greedy route
    assert Ideal(2, [P("x^2 + y^3"), P("x")]).minimal_generators() == [P("x"), P("x^2 + y^3")]
    assert calls


# -- powers: the basis of the last power times the generators, as inputs ------

def test_power_is_the_ideal_of_all_k_fold_products():
    rng = random.Random(31)
    for weights in [(1, 1, 1), (1, 2, 3)] * 3:
        ideal = random_graded_ideal(rng, weights)
        for k in (1, 2, 3):
            products = [reduce(mul, combo)
                        for combo in combinations_with_replacement(ideal.gens, k)]
            power = ideal.power(k)
            assert same_ideal(power, Ideal(ideal.nvars, products, weights))


def test_monomial_basis_forms_no_pairs(monkeypatch):
    # two single terms have a zero S-polynomial, so a monomial ideal's basis
    # never forms a pair (each pair's lcm is taken when it is formed)
    formed = []
    lcm_exp = groebner._lcm_exp
    monkeypatch.setattr(groebner, "_lcm_exp", lambda a, b: formed.append(1) or lcm_exp(a, b))
    gens = [Polynomial.monomial(3, e) for e in monomials((1, 1, 1), 6)]
    gens += [P("x^2*y", XYZ), P("x^7", XYZ), P("3*y*z", XYZ)]
    gb = groebner_basis(E(*gens))
    assert formed == []
    # the minimal generators: y*z, x^2*y and the sextics outside (y*z, x^2*y)
    sextics = [e for e in monomials((1, 1, 1), 6) if not (e[1] and e[2] or e[0] >= 2 and e[1])]
    assert {e.to_polys()[0] for e in gb.elements} == (
        {P("y*z", XYZ), P("x^2*y", XYZ)} | {Polynomial.monomial(3, e) for e in sextics})


def test_coprime_leads_form_no_pairs(monkeypatch):
    # the leads x^3, y^4, z^5 are pairwise coprime, so each pair's
    # S-polynomial reduces to zero (Buchberger's first criterion): no pair
    # takes an lcm or enters the queue, and the tails y, z, x are irreducible
    formed, pushed = [], []
    lcm_exp, heappush = groebner._lcm_exp, groebner.heapq.heappush
    monkeypatch.setattr(groebner, "_lcm_exp", lambda a, b: formed.append(1) or lcm_exp(a, b))
    monkeypatch.setattr(groebner.heapq, "heappush", lambda heap, item: pushed.append(item) or heappush(heap, item))
    gens = [P(g, XYZ) for g in ("x^3 + y", "y^4 + z", "z^5 + x")]
    gb = groebner_basis(E(*gens))
    assert formed == [] and pushed == []
    assert {e.to_polys()[0] for e in gb.elements} == set(gens)


def test_redundant_input_forms_no_pair(monkeypatch):
    # an input waits in the queue at its sugar and is reduced like an
    # S-polynomial when taken: a combination of the other generators reduces
    # to zero, joins no basis and takes no lcm
    formed = []
    lcm_exp = groebner._lcm_exp
    monkeypatch.setattr(groebner, "_lcm_exp", lambda a, b: formed.append(1) or lcm_exp(a, b))
    gens = [P(g, XYZ) for g in ("x^2 + y*z", "y^2 - x*z", "x*y + z^2 + x*z")]
    gb = groebner_basis(E(*gens))
    alone = len(formed)
    assert alone > 0
    formed.clear()
    combination = P("x^3 + y*z^2", XYZ) * gens[0] + P("3*y^3 - z^3", XYZ) * gens[1]
    assert groebner_basis(E(*gens, combination)).elements == gb.elements
    assert len(formed) == alone


def test_power_of_coordinate_axes_jacobian_is_desk_scale():
    # J = m^2: J^9 = m^18 has 190 monomials, and power builds it from the
    # products of the 153 monomials of J^8's basis with J's 12 generators:
    # 1836 products, 190 up to sign.  Each input costs a reduction, and the
    # bound catches a power built from many more products than that
    j = jacobian_ideal(Ideal(3, [P(g, XYZ) for g in ("x*y", "y*z", "x*z")]))
    start = time.perf_counter()
    power = j.power(9)
    assert power.colength() == 1140  # C(20, 3), the colength of m^18
    assert time.perf_counter() - start < 60
    assert len(power.gens) == 190
