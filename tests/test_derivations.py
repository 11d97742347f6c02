"""Tangential derivation modules, Jacobian ideals, weights, monomialization."""

import random
import sys
import time
from itertools import combinations

import pytest

from algebroids.derivations import (Derivation, DerivationModule, jacobian_ideal, krull_dimension,
                                    monomialize, quasi_homogeneous_weights,
                                    tangent_derivations)
from algebroids import derivations, groebner
from algebroids.errors import PreconditionError
from algebroids.groebner import FreeModuleElement, Ideal
from algebroids.poly import Polynomial, monomials, parse_poly
from algebroids import linalg
from fractions import Fraction

from references import (apply_field, bracket_fields, dense_rows, enumerated_weights,
                        module_contains, monomialize_by_membership, partial, same_ideal,
                        same_module, sparse_rows, variable)


def P(text, varnames):
    return parse_poly(text, list(varnames))


def euler(nvars, weights=None):
    """The Euler field sum w_i x_i d/dx_i."""
    weights = weights or (1,) * nvars
    return Derivation([variable(nvars, i) * weights[i] for i in range(nvars)])


def test_fields_refuse_mixed_rings():
    x = variable(2, 0)
    z = variable(3, 2)
    for polys in ([x, z], [z, x, z], []):
        with pytest.raises(ValueError):
            Derivation(polys)
        with pytest.raises(ValueError):
            FreeModuleElement.from_polys(polys)
    with pytest.raises(ValueError):
        partial(2, 0).apply(variable(3, 0) * z)


def random_field(rng, nvars, weights):
    """A field sum a_i d/dx_i with Fraction coefficients: weighted-homogeneous
    of a random degree when weights is given, unstructured otherwise, and zero
    one time in six."""
    if rng.randrange(6) == 0:
        return Derivation([Polynomial.zero(nvars)] * nvars)
    degree = rng.randrange(-1, 3)
    coeffs = []
    for i in range(nvars):
        if weights is None:
            exps = [tuple(rng.randrange(3) for _ in range(nvars)) for _ in range(3)]
        else:
            exps = monomials(weights, degree + weights[i])
            exps = rng.sample(exps, min(2, len(exps)))
        coeffs.append(Polynomial(nvars, {e: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                                         for e in exps}))
    return Derivation(coeffs)


@pytest.mark.parametrize("weights", [None, (1, 1, 1), (1, 2, 3)])
def test_field_terms_match_the_polynomial_reference(weights):
    rng = random.Random(2011)
    for _ in range(25):
        delta, eta, zeta = [random_field(rng, 3, weights) for _ in range(3)]
        f = Polynomial(3, {tuple(rng.randrange(4) for _ in range(3)):
                           Fraction(rng.randrange(-5, 6), rng.randrange(1, 3)) for _ in range(4)})
        assert delta.apply(f) == apply_field(delta, f) == sum(
            (a * f.diff(i) for i, a in enumerate(delta.coefficients)), Polynomial.zero(3))
        bracket = delta.bracket(eta)
        assert bracket == bracket_fields(delta, eta)
        assert bracket.apply(f) == delta.apply(eta.apply(f)) - eta.apply(delta.apply(f))
        jacobi = [a.bracket(b.bracket(c)).vector
                  for a, b, c in ((delta, eta, zeta), (eta, zeta, delta), (zeta, delta, eta))]
        assert (jacobi[0] + jacobi[1] + jacobi[2]).is_zero()


def whitney_ideal():
    return Ideal(3, [P("z^2 - x^2*y", "xyz")], (1, 2, 2))


def test_quasi_homogeneous_weights():
    w, d = quasi_homogeneous_weights(P("z^2 - x^2*y", "xyz"))
    assert (w, d) == ((1, 2, 2), 4)
    f = P("x^3 + x*y^2", "xy")  # homogeneous
    assert quasi_homogeneous_weights(f) == ((1, 1), 3)
    assert quasi_homogeneous_weights(P("x^2 + x^3", "xy")) is None


# the parent's weight search, kept as the reference: one rref of
# alpha . w = d per degree d, and a recursion over the free coordinates

def _positive_weight_solution(exps, used, n, d):
    m = len(used)
    aug = [[Fraction(e[i]) for i in used] + [Fraction(d)] for e in exps]
    red, pivots = linalg.rref(sparse_rows(aug))
    red = dense_rows(red, m + 1)
    if m in pivots:
        return None
    free = [j for j in range(m) if j not in pivots]
    best = None

    def assemble(assignment):
        w = [None] * m
        for idx, j in enumerate(free):
            w[j] = Fraction(assignment[idx])
        for i, p in enumerate(pivots):
            val = red[i][m]
            for j in free:
                val -= red[i][j] * w[j]
            w[p] = val
        if all(x > 0 and x.denominator == 1 for x in w):
            return tuple(int(x) for x in w)
        return None

    def rec(idx, assignment):
        nonlocal best
        if idx == len(free):
            w = assemble(assignment)
            if w is not None and (best is None or w < best):
                best = w
            return
        for v in range(1, d + 1):
            rec(idx + 1, assignment + [v])

    rec(0, [])
    if best is None:
        return None
    full = [1] * n
    for idx, i in enumerate(used):
        full[i] = best[idx]
    return tuple(full)


def reference_weights(f):
    n = f.nvars
    exps = sorted(f.terms)
    used = [i for i in range(n) if any(e[i] for e in exps)]
    if not used:
        return None
    if f.is_homogeneous():
        return (1,) * n, f.degree()
    for d in range(1, 101):
        sol = _positive_weight_solution(exps, used, n, d)
        if sol is not None:
            return sol, d
    return None


WEIGHT_INPUTS = [
    ("x^2 + y^2*z + z^3", "xyz"),            # D4
    ("x^2 + y^3 + z^4", "xyz"),              # E6
    ("x^2 + y^3 + y*z^3", "xyz"),            # E7
    ("x^2 + y^3 + z^5", "xyz"),              # E8
    ("z^2 - x^2*y", "xyz"),                  # Whitney umbrella
    ("x*y + z^3", "xyz"),
    ("x^3*y + y^3*z + z^3*x", "xyz"),        # Klein quartic
    ("x*y^2 + y^5 + z^7", "xyz"),
]


def test_weights_match_the_reference_search():
    for text, names in WEIGHT_INPUTS:
        f = P(text, names)
        assert quasi_homogeneous_weights(f) == reference_weights(f), text


def test_weights_match_the_reference_search_with_free_directions():
    # fewer independent exponents than used variables: the weight system
    # keeps a free direction.  Even cases take monomials of one weighted
    # degree, so positive weights exist; odd cases take random exponents
    # with one free direction, where they may not
    rng = random.Random(31)
    checked = 0
    while checked < 24:
        n = rng.choice([3, 4])
        if checked % 2 == 0:
            pool = list(monomials([rng.randrange(1, 4) for _ in range(n)], rng.randrange(3, 9)))
            exps = rng.sample(pool, min(len(pool), rng.randrange(2, n)))
        else:
            exps = list({tuple(rng.randrange(0, 5) for _ in range(n)) for _ in range(n - 1)})
        f = Polynomial(n, {e: rng.choice([-2, -1, 1, 3]) for e in exps})
        used = [i for i in range(n) if any(e[i] for e in exps)]
        free = len(used) - linalg.rank(sparse_rows([[e[i] for i in used] for e in exps]))
        if f.is_homogeneous() or not free or (checked % 2 and free > 1):
            continue
        assert quasi_homogeneous_weights(f) == reference_weights(f), exps
        checked += 1


def test_weight_search_matches_the_enumeration():
    # 300 polynomials in 2 to 4 variables that are not homogeneous: every
    # other one quasi-homogeneous (monomials of one weighted degree), the
    # others the same with one exponent moved by one, which leaves no
    # weights or other ones
    rng = random.Random(45)
    checked = found = 0
    while checked < 300:
        n = rng.choice([2, 3, 4])
        weights = [rng.randrange(1, 5) for _ in range(n)]
        pool = monomials(weights, rng.randrange(max(weights), 13))
        if len(pool) < 2:
            continue
        exps = {tuple(e) for e in rng.sample(pool, min(len(pool), rng.randrange(2, n + 1)))}
        if checked % 2:
            e = list(exps.pop())
            e[rng.randrange(n)] += rng.choice([-1, 1]) if min(e) > 0 else 1
            exps.add(tuple(e))
        f = Polynomial(n, {e: rng.choice([-2, -1, 1, 3]) for e in exps})
        if f.is_homogeneous():
            continue
        expected = enumerated_weights(f)
        assert quasi_homogeneous_weights(f) == expected, exps
        checked += 1
        found += expected is not None
    assert 200 < found < 300


def test_weight_search_on_large_kernels():
    # x1*...*xn + x1^(n+1): n - 2 free weights, whose box [1, d]^(n-2) the
    # enumeration took 7-9 s to exhaust at n = 8 (over an hour at n = 10,
    # extrapolated; 2-core VM)
    for n in (8, 10):
        names = [f"x{i}" for i in range(1, n + 1)]
        start = time.perf_counter()
        weights = quasi_homogeneous_weights(P("*".join(names) + f" + x1^{n + 1}", names))
        assert weights == ((1,) * (n - 1) + (2,), n + 1)
        assert time.perf_counter() - start < 2


@pytest.fixture
def no_degree_loop(monkeypatch):
    def enumerate_(*args, **kwargs):
        raise AssertionError("entered the degree loop")

    monkeypatch.setattr(derivations, "_least_weights", enumerate_)


def test_weights_without_rational_solution_skip_the_degree_loop(no_degree_loop):
    # 2w = 1 and 3w = 1 have no common solution, for any degree
    assert quasi_homogeneous_weights(P("x^2 + x^3", "xy")) is None


@pytest.mark.parametrize("text, names", [("x*y + x*y*z*w", "xyzw"),
                                         ("a*b + a*b*c*d*e*f", "abcdef")])
def test_weights_without_positive_solution_skip_the_degree_loop(no_degree_loop, text, names):
    # alpha . w = 1 is solvable, but every solution gives the factor after
    # x*y (a*b) weight 0.  The degree loop took 1.5 s and over 25 s to
    # exhaust d <= 100; elimination decides both in under 1 ms (2-core VM)
    start = time.perf_counter()
    assert quasi_homogeneous_weights(P(text, names)) is None
    assert time.perf_counter() - start < 0.1


def test_weights_infeasible_by_construction_skip_the_degree_loop(no_degree_loop):
    # exponents with y_1 (a_1 - a_0) + ... + (a_k - a_0) = v >= 0, v != 0 and
    # y_i >= 0: any positive weights would give v . w = 0.  24 of the 40
    # samples reach the elimination; the others have no rational solution
    rng = random.Random(35)
    checked = 0
    while checked < 40:
        n = rng.choice([2, 3, 4, 5])
        base, *rest = [tuple(rng.randrange(0, 4) for _ in range(n))
                       for _ in range(rng.randrange(2, 4))]
        v = [rng.randrange(0, 3) for _ in range(n)]
        last = list(map(sum, zip(base, v)))
        for e in rest:
            y = rng.randrange(0, 3)
            last = [x - y * (a - b) for x, a, b in zip(last, e, base)]
        exps = {base, *rest, tuple(last)}
        if not any(v) or min(last) < 0 or len(exps) < 2 + len(rest):
            continue
        f = Polynomial(n, {e: rng.choice([-1, 1, 2]) for e in exps})
        assert quasi_homogeneous_weights(f) is None, exps
        checked += 1


def test_jacobian_ideal_examples():
    cusp = jacobian_ideal(Ideal(2, [P("x^3 - y^2", "xy")]))
    assert same_ideal(cusp, Ideal(2, [P("x^2", "xy"), P("y", "xy")]))
    wu = jacobian_ideal(whitney_ideal())
    assert same_ideal(wu, Ideal(3, [P("x^2", "xyz"), P("x*y", "xyz"), P("z", "xyz")],
                                (1, 2, 2)))
    quad = jacobian_ideal(Ideal(3, [P("x^2 + y^2 + z^2", "xyz")]))
    assert same_ideal(quad, Ideal(3, [P(v, "xyz") for v in "xyz"]))


def test_tjurina_ideal_matches_jacobian_for_hypersurface():
    f = P("x^3 - y^2", "xy")
    assert same_ideal(Ideal(2, [f] + [f.diff(i) for i in range(2)]),
                      jacobian_ideal(Ideal(2, [f])))


def test_tangent_linear_ideal():
    # I = (x1, x2) in 3 vars: T(I) = A d3 + sum_{i,j<=2} A xi dj
    ideal = Ideal(3, [variable(3, 0), variable(3, 1)])
    dm = tangent_derivations(ideal)
    zero = Polynomial.zero(3)
    expected = [Derivation([zero, zero, Polynomial.one(3)])]
    for i in range(2):
        for j in range(2):
            coeffs = [zero] * 3
            coeffs[j] = variable(3, i)
            expected.append(Derivation(coeffs))
    assert same_module(dm, expected)


def test_linear_part_holds_the_image_of_each_variable_in_its_column():
    # y d/dx sends x to y and y to 0; the quadratic part of x^2 d/dy is dropped
    x, y = variable(2, 0), variable(2, 1)
    assert Derivation([y, Polynomial.zero(2)]).linear_part() == [{1: 1}, {}]
    assert Derivation([3 * x + y, x * x - 2 * y]).linear_part() == [{0: 3, 1: 1}, {1: -2}]


def known_whitney_basis():
    zero = Polynomial.zero(3)
    x = variable(3, 0)
    y = variable(3, 1)
    z = variable(3, 2)
    d1 = Derivation([x, -2 * y, zero])
    d2 = Derivation([x, zero, z])
    d3 = Derivation([zero, 2 * z, x * x])
    d4 = Derivation([z, zero, x * y])
    return [d1, d2, d3, d4]


def test_tangent_whitney_matches_known_basis():
    dm = tangent_derivations(whitney_ideal())
    assert same_module(dm, known_whitney_basis())


def test_equals_generators_rejects_either_failed_inclusion():
    # the module-equality oracle that the tests above rely on
    dm = tangent_derivations(whitney_ideal())
    basis = known_whitney_basis()
    assert not same_module(dm, basis[:3])                             # T not in others
    assert not same_module(dm, basis + [partial(3, 0)])              # others not in T
    assert not same_module(dm, [])


def test_tangent_quadric():
    ideal = Ideal(3, [P("x^2 + y^2 + z^2", "xyz")])
    dm = tangent_derivations(ideal)
    zero = Polynomial.zero(3)
    expected = [euler(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            coeffs = [zero] * 3
            coeffs[j] = variable(3, i)
            coeffs[i] = -variable(3, j)
            expected.append(Derivation(coeffs))
    assert same_module(dm, expected)


def test_tangent_soundness():
    for ideal in (whitney_ideal(),
                  Ideal(2, [P("x^3 - y^2", "xy")]),
                  Ideal(3, [P("x^2 + y^2 + z^2", "xyz")])):
        dm = tangent_derivations(ideal)
        for delta in dm.generators:
            for f in ideal.gens:
                assert ideal.contains(delta.apply(f))


def test_euler_membership():
    for text, names in [("z^2 - x^2*y", "xyz"), ("x^3 - y^2", "xy"),
                        ("x^3 + y^3 + z^3", "xyz")]:
        f = P(text, names)
        w, _ = quasi_homogeneous_weights(f)
        ideal = Ideal(len(names), [f], w)
        dm = tangent_derivations(ideal)
        assert module_contains(dm, euler(len(names), w))


def test_jacobian_preserved_by_tangent_derivations():
    for ideal in (whitney_ideal(), Ideal(2, [P("x^3 - y^2", "xy")])):
        dm = tangent_derivations(ideal)
        jac = jacobian_ideal(ideal)
        for delta in dm.generators:
            for g in jac.gens:
                assert jac.contains(delta.apply(g))


def test_contains_derivation_examples():
    dm = tangent_derivations(whitney_ideal())
    assert not module_contains(dm, partial(3, 2))
    mono = Ideal(2, [P("x^2*y^3", "xy")])
    dm2 = tangent_derivations(mono)
    x_dx = Derivation([variable(2, 0), Polynomial.zero(2)])
    assert module_contains(dm2, x_dx)
    linear = Ideal(3, [variable(3, 0), variable(3, 1)])
    assert module_contains(tangent_derivations(linear), partial(3, 2))


def test_derivation_module_refuses_a_field_that_leaves_the_ideal():
    # x d/dx maps xy into (xy); y d/dx maps it to y^2, which is not in (xy)
    x, y = variable(2, 0), variable(2, 1)
    zero = Polynomial.zero(2)
    ideal = Ideal(2, [x * y])
    assert DerivationModule([Derivation([x, zero])], ideal).generators == [Derivation([x, zero])]
    with pytest.raises(PreconditionError, match="generator does not preserve the ideal"):
        DerivationModule([Derivation([x, zero]), Derivation([y, zero])], ideal)


def count_bases(monkeypatch):
    """Wrap groebner_basis in every module of the package that holds it;
    returns the list that records one entry per call."""
    calls = []
    original = groebner.groebner_basis

    def counted(gens, order):
        calls.append(order)
        return original(gens, order)

    for name, mod in list(sys.modules.items()):
        if name.startswith("algebroids") and getattr(mod, "groebner_basis", None) is original:
            monkeypatch.setattr(mod, "groebner_basis", counted)
    return calls


def test_module_contains_the_euler_parts_and_the_free_partials():
    n = 4
    dm = tangent_derivations(Ideal(n, [variable(n, 0), variable(n, 1)]))
    euler_parts = [Derivation([variable(n, j) if j == i else Polynomial.zero(n)
                               for j in range(n)]) for i in range(n)]
    assert all(module_contains(dm, d) for d in euler_parts)
    assert ([module_contains(dm, partial(n, i)) for i in range(n)]
            == [False, False, True, True])


def test_tangent_syzygies_give_the_slot_columns_no_unit_vectors(monkeypatch):
    # the twisted cubic, n = 4 and s = 3: the slot columns g e_j enter as
    # relations, so the syzygy basis has rank s + n = 7, not s + n + s^2 = 16
    ranks = []
    original = groebner.groebner_basis

    def recorded(gens, weights=None):
        ranks.append(gens[0].rank)
        return original(gens, weights)

    monkeypatch.setattr(groebner, "groebner_basis", recorded)
    ideal = Ideal(4, [P(g, "xyzw") for g in ("x*z - y^2", "y*w - z^2", "x*w - y*z")])
    tangent_derivations(ideal)
    assert ranks == [1, 7]


def test_monomialize_builds_one_basis(monkeypatch):
    ideal = Ideal(3, [P("x^2*y + 2*x*y*z", "xyz"), P("x*y*z", "xyz")])
    calls = count_bases(monkeypatch)
    assert sorted(next(iter(g.terms)) for g in monomialize(ideal)) == [(1, 1, 1), (2, 1, 0)]
    assert len(calls) == 1


def brute_force_derivations(f, weights, bound):
    """All derivations delta with delta(f) in (f) and coefficients of weighted
    degree <= bound, by linear algebra over monomial coefficients."""
    n = f.nvars
    fdeg = f.degree(weights)

    def monomials_up_to(b):
        out = []
        def rec(prefix):
            if len(prefix) == n:
                if sum(w * e for w, e in zip(weights, prefix)) <= b:
                    out.append(tuple(prefix))
                return
            for e in range(b + 1):
                if weights[len(prefix)] * e > b:
                    break
                rec(prefix + [e])
        rec([])
        return out

    # unknowns: coefficient monomials for each a_i, plus monomials of h in
    # delta(f) = h f
    unknowns = []
    for i in range(n):
        for m in monomials_up_to(bound):
            unknowns.append(("a", i, m))
    for m in monomials_up_to(bound):
        unknowns.append(("h", None, m))
    columns = []
    for kind, i, m in unknowns:
        if kind == "a":
            contrib = Polynomial.monomial(n, m) * f.diff(i)
        else:
            contrib = -(Polynomial.monomial(n, m) * f)
        columns.append(contrib)
    support = sorted({e for c in columns for e in c.terms})
    index = {e: k for k, e in enumerate(support)}
    rows = [[Fraction(0)] * len(unknowns) for _ in support]
    for j, c in enumerate(columns):
        for e, v in c.terms.items():
            rows[index[e]][j] = v
    found = []
    for vec in linalg.kernel_basis(sparse_rows(rows), len(unknowns)):
        coeffs = [Polynomial.zero(n) for _ in range(n)]
        for (kind, i, m), v in zip(unknowns, vec):
            if kind == "a" and v:
                coeffs[i] = coeffs[i] + Polynomial.monomial(n, m) * v
        delta = Derivation(coeffs)
        if not delta.is_zero():
            found.append(delta)
    return found


def test_tangent_completeness_desk_scale():
    cases = [(P("x^3 - y^2", "xy"), (2, 3), 5),
             (P("z^2 - x^2*y", "xyz"), (1, 2, 2), 4)]
    for f, weights, bound in cases:
        ideal = Ideal(f.nvars, [f], weights)
        dm = tangent_derivations(ideal)
        for delta in brute_force_derivations(f, weights, bound):
            assert module_contains(dm, delta)


def test_monomialize_examples():
    mono = monomialize(Ideal(2, [P("x^2*y^3", "xy")]))
    assert mono == [P("x^2*y^3", "xy")]
    assert monomialize(Ideal(2, [P("x^2 + y^2", "xy"), P("x*y", "xy")])) is None
    assert monomialize(Ideal(2, [P("(x + y)^2", "xy")])) is None


def test_monomialize_idempotent():
    gens = [P("x^2", "xy"), P("x*y^2", "xy"), P("y^3", "xy")]
    out = monomialize(Ideal(2, gens))
    assert out is not None
    again = monomialize(Ideal(2, out))
    assert sorted(p.sorted_terms() for p in again) == \
        sorted(p.sorted_terms() for p in out)


def test_monomialize_matches_the_membership_route():
    # the reduced basis route against one normal form per candidate: the
    # same list in the same order, or None on both
    rng = random.Random(49)

    def monomial(nvars):
        exp = (0,) * nvars
        while not any(exp):
            exp = tuple(rng.randrange(4) for _ in range(nvars))
        return Polynomial.monomial(nvars, exp)

    ideals = [Ideal(n, []) for n in (1, 2, 3)]
    ideals.append(Ideal(2, [P("x + y", "xy"), P("x - y", "xy")]))
    for trial in range(240):
        nvars = rng.randrange(1, 4)
        monos = [monomial(nvars) for _ in range(rng.randrange(1, 5))]
        if trial % 3 == 0:
            gens = monos
        elif trial % 3 == 1:
            # g_i = m_i + sum_(j > i) c u m_j, unitriangular over A: the same
            # monomial ideal, written with generators of several terms
            gens = [m + sum((monomial(nvars) * rng.choice([-2, -1, 1, 3]) * later
                             for later in monos[i + 1:] if rng.random() < 0.7),
                            Polynomial.zero(nvars))
                    for i, m in enumerate(monos)]
        else:
            gens = [sum((monomial(nvars) * rng.choice([-2, -1, 1, 3])
                         for _ in range(rng.randrange(1, 4))), Polynomial.zero(nvars))
                    for _ in range(rng.randrange(1, 4))]
        ideals.append(Ideal(nvars, gens))
    outcomes = set()
    for ideal in ideals:
        got = monomialize(ideal)
        assert got == monomialize_by_membership(ideal), ideal.gens
        if got is not None:
            assert same_ideal(Ideal(ideal.nvars, got), ideal)
        outcomes.add((got is None, all(len(g.terms) == 1 for g in ideal.gens)))
    # monomial ideals with monomial and with non-monomial generators, and
    # non-monomial ideals, all occur
    assert outcomes == {(False, True), (False, False), (True, False)}
    for unit in (Ideal(2, [Polynomial.one(2)]), Ideal(2, [P("x + 1", "xy"), P("x", "xy")])):
        for route in (monomialize, monomialize_by_membership):
            with pytest.raises(PreconditionError, match="unit ideal"):
                route(unit)


def test_monomialize_random_small():
    rng = random.Random(29)
    for _ in range(15):
        nvars = rng.randrange(2, 4)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            exp = tuple(rng.randrange(4) for _ in range(nvars))
            if any(exp):
                gens.append(Polynomial.monomial(nvars, exp))
        if not gens:
            continue
        ideal = Ideal(nvars, gens)
        out = monomialize(ideal)
        assert out is not None
        assert same_ideal(Ideal(nvars, out), ideal)


# -- Krull dimension from the K-polynomial against the variable subsets -----

def subset_dimension(ideal):
    """The largest set S of variables such that no leading monomial is
    supported inside S: the combinatorial dimension of the initial ideal."""
    if not ideal.gens:
        return ideal.nvars
    if ideal.is_unit():
        return -1
    lts = ideal.leading_exponents()
    n = ideal.nvars
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            if not any(all(e[i] == 0 or i in subset for i in range(n)) for e in lts):
                return size
    return 0


def random_ideal(rng, nvars, homogeneous):
    gens = []
    for _ in range(rng.randrange(1, 4)):
        d = rng.randrange(1, 4)
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            exp = [0] * nvars
            for _ in range(d if homogeneous else rng.randrange(d + 1)):
                exp[rng.randrange(nvars)] += 1
            terms[tuple(exp)] = rng.choice([-2, -1, 1, 3])
        gens.append(Polynomial(nvars, terms))
    return Ideal(nvars, gens)


def test_krull_dimension_matches_variable_subset_search():
    rng = random.Random(43)
    seen = set()
    for homogeneous in (True, False) * 30:
        ideal = random_ideal(rng, rng.randrange(2, 5), homogeneous)
        expected = subset_dimension(ideal)
        assert krull_dimension(ideal) == expected
        seen.add(expected)
    assert {-1, 0, 1, 2, 3} <= seen
