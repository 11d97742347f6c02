"""Structure-constant Lie algebras and fibre Lie algebra extraction."""

import json
import random
import sys
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from algebroids import groebner, linalg
from algebroids.derivations import (Derivation, DerivationModule,
                                   jacobian_ideal, tangent_derivations)
from algebroids.errors import AlgebroidError, PreconditionError
from algebroids.groebner import Ideal, _greedy_minimal_generators, groebner_basis, lifts
from algebroids.liealg import (LieAlgebra, fibre_lie_algebra,
                               minimal_module_generators, represents, sl2,
                               span_lie_algebra)
from algebroids.pipeline import analyze_singularity, parse_input
from algebroids.poly import Polynomial, parse_poly

from references import (dense, dense_brackets, dense_rows, gl2, identity, jacobi_holds,
                        lie_algebra_from_matrices, mat_mul, module_contains, sparse,
                        sparse_rows, variable, zeros)


def P(text, varnames):
    return parse_poly(text, list(varnames))


def test_abelian():
    g = LieAlgebra(3, {})
    fp = g.fingerprint()
    assert fp["derived_series"] == [3, 0]
    assert fp["solvable"]
    assert fp["center_dim"] == 3
    assert fp["killing_rank"] == 0


def test_sl2():
    g = sl2()
    fp = g.fingerprint()
    assert fp["derived_series"] == [3, 3]
    assert not fp["solvable"]
    assert fp["killing_rank"] == 3
    assert fp["radical_dim"] == 0
    assert fp["center_dim"] == 0


def test_gl2():
    g = gl2()
    fp = g.fingerprint()
    assert fp["dim"] == 4
    assert fp["derived_series"] == [4, 3, 3]
    assert fp["radical_dim"] == 1
    assert fp["center_dim"] == 1
    assert not fp["solvable"]


def test_jacobi_validated():
    # [e1,e2]=e3, [e1,e3]=e2, [e2,e3]=e2 violates Jacobi
    with pytest.raises(AlgebroidError):
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}})


def test_bracket_antisymmetry():
    g = sl2()
    rng = random.Random(2)
    for _ in range(10):
        u = [Fraction(rng.randrange(-3, 4)) for _ in range(3)]
        v = [Fraction(rng.randrange(-3, 4)) for _ in range(3)]
        uv = dense(g.bracket(sparse(u), sparse(v)), 3)
        vu = dense(g.bracket(sparse(v), sparse(u)), 3)
        assert uv == [-c for c in vu]


def test_lie_algebra_from_matrices():
    mats = [[[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]],
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]],
            [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]]
    g = lie_algebra_from_matrices(mats)
    assert g.fingerprint()["derived_series"] == [3, 3]
    # a non-closed span must be rejected
    bad = [[[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]],
           [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]]
    with pytest.raises(AlgebroidError):
        lie_algebra_from_matrices(bad)


def test_span_lie_algebra_matches_one_solve_per_pair():
    # random bases of gl3 and of its Borel: the one-rref structure constants
    # against a separate linalg.solve for every bracket
    rng = random.Random(23)
    for pairs in ([(i, j) for i in range(3) for j in range(3)],
                  [(i, j) for i in range(3) for j in range(3) if i <= j]):
        units = []
        for i, j in pairs:
            m = zeros(3, 3)
            m[i][j] = Fraction(1)
            units.append(m)
        for _ in range(3):
            while True:
                change = [[Fraction(rng.randrange(-2, 3)) for _ in units] for _ in units]
                if linalg.rank(sparse_rows(change)) == len(units):
                    break
            mats = [[[sum((c * u[r][s] for c, u in zip(row, units)), Fraction(0))
                      for s in range(3)] for r in range(3)] for row in change]
            g = lie_algebra_from_matrices(mats)
            flat = [[c for row in m for c in row] for m in mats]
            for a in range(len(mats)):
                for b in range(a + 1, len(mats)):
                    ab = mat_mul(mats[a], mats[b])
                    ba = mat_mul(mats[b], mats[a])
                    target = [x - y for ra, rb in zip(ab, ba) for x, y in zip(ra, rb)]
                    rows = [[f[t] for f in flat] + [target[t]] for t in range(9)]
                    e = identity(len(mats))
                    assert (dense(g.bracket(sparse(e[a]), sparse(e[b])), len(mats))
                            == linalg.solve(sparse_rows(rows), len(flat), 1)[0])


def whitney_dm():
    ideal = Ideal(3, [P("z^2 - x^2*y", "xyz")], (1, 2, 2))
    return tangent_derivations(ideal)


def test_whitney_fibre_fingerprint():
    algebra, basis = fibre_lie_algebra(whitney_dm())
    fp = algebra.fingerprint()
    assert fp["dim"] == 4
    assert fp["derived_series"] == [4, 2, 0]
    assert fp["solvable"]
    assert len(basis) == 4


def test_whitney_bracket_closure():
    dm = whitney_dm()
    _, basis = fibre_lie_algebra(dm)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert module_contains(dm, basis[i].bracket(basis[j]))


def quadric_dm(n):
    names = [f"x{i + 1}" for i in range(n)]
    f = sum((P(f"{v}^2", names) for v in names), Polynomial.zero(n))
    return tangent_derivations(Ideal(n, [f]))


def test_quadric_family():
    for n in (3, 4, 5, 6, 7):
        algebra, _ = fibre_lie_algebra(quadric_dm(n))
        fp = algebra.fingerprint()
        so_dim = n * (n - 1) // 2
        assert fp["dim"] == 1 + so_dim
        assert fp["radical_dim"] == 1
        assert not fp["solvable"]
        chain = fp["derived_series"]
        assert chain[-1] == so_dim
        assert chain == [1 + so_dim, so_dim, so_dim]
        # gl1 + so_n: kappa is nondegenerate on so_n, the Euler field is central
        assert fp["killing_rank"] == comb(n, 2)
        assert fp["center_dim"] == 1


# -- the sparse kernel against dense routes ---------------------------------

def _killing_by_products(g):
    """tr(ad a * ad b), the ad matrices assembled from bracket columns."""
    basis = identity(g.dim)
    ads = []
    for a in basis:
        cols = [dense(g.bracket(sparse(a), sparse(e)), g.dim) for e in basis]
        ads.append([[cols[i][k] for i in range(g.dim)] for k in range(g.dim)])
    return [[sum((mat_mul(x, y)[i][i] for i in range(g.dim)), Fraction(0))
             for y in ads] for x in ads]


def _fibre_of(names, gens):
    return fibre_lie_algebra(tangent_derivations(
        Ideal(len(names), [P(g, names) for g in gens])))[0]


def _named_algebra(name):
    return {"sl2": sl2, "gl2": gl2,
            "whitney": lambda: fibre_lie_algebra(whitney_dm())[0],
            "quadric5": lambda: fibre_lie_algebra(quadric_dm(5))[0],
            # gl2 acting on binary cubics, and gl1 + sl2 + sl3 on 2 x 3 matrices
            "discriminant": lambda: _fibre_of(
                "xyzw", ["y^2*z^2 - 4*x*z^3 - 4*y^3*w + 18*x*y*z*w - 27*x^2*w^2"]),
            "minors23": lambda: _fibre_of("abcdef", ["a*e - b*d", "a*f - c*d", "b*f - c*e"]),
            }[name]()


@pytest.mark.parametrize("name", ["sl2", "gl2", "whitney", "quadric5", "discriminant",
                                  "minors23"])
def test_killing_matrix_is_trace_of_ad_products(name):
    g = _named_algebra(name)
    assert dense_rows(g.killing_matrix(), g.dim) == _killing_by_products(g)


def _dense_jacobiator(dim, brackets, i, j, k):
    def br(u, v):
        out = [Fraction(0)] * dim
        for (a, b), row in brackets.items():
            for t, c in row.items():
                out[t] += (u[a] * v[b] - u[b] * v[a]) * c
        return out

    e = identity(dim)
    total = [Fraction(0)] * dim
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        total = [x + y for x, y in zip(total, br(br(e[a], e[b]), e[c]))]
    return total


def test_jacobi_failure_on_one_triple_only():
    # e1 is central; e2, e3, e4 carry the bracket of test_jacobi_validated
    brackets = {(1, 2): {3: 1}, (1, 3): {2: 1}, (2, 3): {2: 1}}
    failing = [(i, j, k) for i in range(4) for j in range(i + 1, 4)
               for k in range(j + 1, 4) if any(_dense_jacobiator(4, brackets, i, j, k))]
    assert failing == [(1, 2, 3)]
    with pytest.raises(AlgebroidError, match="Jacobi"):
        LieAlgebra(4, brackets)


def _table(brackets):
    """The antisymmetric sparse table (i, j) -> {k: c} of dense brackets given
    for i < j."""
    table = {}
    for (i, j), vec in brackets.items():
        row = {k: c for k, c in enumerate(vec) if c}
        if row:
            table[(i, j)] = row
            table[(j, i)] = {k: -c for k, c in row.items()}
    return table


def _accepted(dim, brackets):
    try:
        LieAlgebra(dim, {pair: dict(enumerate(vec)) for pair, vec in brackets.items()})
    except AlgebroidError:
        return False
    return True


def test_jacobi_check_matches_the_triple_loop():
    # the structure tables of four algebras in seeded random bases, then each
    # with one constant changed: the Jacobi check accepts exactly the tables
    # the triple loop of the oracle accepts
    rng = random.Random(11)
    verdicts = []
    for g in [sl2(), gl2(), fibre_lie_algebra(whitney_dm())[0],
              fibre_lie_algebra(quadric_dm(4))[0]]:
        n = g.dim
        for _ in range(3):
            change = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            while linalg.rank(sparse_rows(change)) < n:
                change[rng.randrange(n)][rng.randrange(n)] += 1
            vectors = sparse_rows(change)
            h = span_lie_algebra(vectors, lambda a, b: g.bracket(vectors[a], vectors[b]))
            brackets = dense_brackets(h)
            assert jacobi_holds(_table(brackets), n)
            pair = rng.choice([(i, j) for i in range(n) for j in range(i + 1, n)])
            vec = list(brackets.get(pair, [0] * n))
            vec[rng.randrange(n)] += rng.choice([-2, -1, 1, 2])
            brackets[pair] = tuple(vec)
            verdicts.append(jacobi_holds(_table(brackets), n))
            assert _accepted(n, brackets) is verdicts[-1]
    assert verdicts.count(False) >= 6


# the inputs of the benchmark's fibre workload: (vars, weights, generator,
# whether each cyclic rotation of the variables is run)
FIBRE_WORKLOAD = [
    ("x1 x2 x3", None, "x1^2 + x2^2 + x3^2", False),
    ("x1 x2 x3 x4", None, "x1^2 + x2^2 + x3^2 + x4^2", False),
    ("x y z", (1, 2, 2), "z^2 - x^2*y", True),
    ("x y z", (3, 2, 2), "x^2 + y^2*z + z^3", True),
    ("x y z", (6, 4, 3), "x^2 + y^3 + z^4", True),
    ("x y z", (9, 6, 4), "x^2 + y^3 + y*z^3", True),
    ("x y z", (15, 10, 6), "x^2 + y^3 + z^5", True),
    ("x y z", None, "x^3 + y^3 + z^3", False),
]


def _fibre_workload_algebras():
    for names, weights, gen, rotated in FIBRE_WORKLOAD:
        names = names.split()
        for k in range(len(names) if rotated else 1):
            perm = list(range(k, len(names))) + list(range(k))
            text = f"vars: {', '.join(names[i] for i in perm)}\n"
            if weights:
                text += f"weights: {', '.join(str(weights[i]) for i in perm)}\n"
            dm = tangent_derivations(parse_input(text + f"ideal: {gen}\n").ideal())
            yield fibre_lie_algebra(dm, require_origin=dm.all_vanish_at_origin())[0]


def _jacobi_verdicts(dim, brackets):
    """(the Jacobi check's verdict, whether the adjoint action represents the
    algebra) on a table that was never validated."""
    g = LieAlgebra.__new__(LieAlgebra)
    g.dim, g.labels, g._table = dim, [f"e{i + 1}" for i in range(dim)], _table(brackets)
    adjoint = [[g._table.get((j, i), {}) for i in range(dim)] for j in range(dim)]
    try:
        g._validate_jacobi()
        checked = True
    except AlgebroidError:
        checked = False
    return checked, represents(g, adjoint)


def test_jacobi_check_matches_the_adjoint_action():
    # the 18 tables of the fibre workload, each as it is, scaled by 2/3 (the
    # identity is homogeneous quadratic) and with one constant changed, and
    # random small tables with rational constants: the check accepts exactly
    # the tables whose adjoint action represents the bracket
    rng = random.Random(46)
    verdicts = []
    tables = []
    for g in _fibre_workload_algebras():
        brackets = dense_brackets(g)
        tables.append((g.dim, brackets))
        tables.append((g.dim, {pair: tuple(Fraction(2, 3) * c for c in vec)
                               for pair, vec in brackets.items()}))
        for _ in range(3):
            changed = dict(brackets)
            pair = rng.choice([(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)])
            vec = list(changed.get(pair, [0] * g.dim))
            vec[rng.randrange(g.dim)] += rng.choice([-2, -1, Fraction(1, 2), 1, 2])
            changed[pair] = tuple(vec)
            tables.append((g.dim, changed))
    for _ in range(60):
        n = rng.randint(3, 5)
        tables.append((n, {(i, j): tuple(rng.choice([0, 0, 0, 1, -1, 2, Fraction(1, 3)])
                                         for _ in range(n))
                           for i in range(n) for j in range(i + 1, n)}))
    for dim, brackets in tables:
        checked, reference = _jacobi_verdicts(dim, brackets)
        assert checked is reference
        verdicts.append(checked)
    assert len(tables) == 18 * 5 + 60
    assert verdicts.count(True) >= 36 and verdicts.count(False) >= 30


def test_fibre_solves_one_rref_per_bracket_degree(monkeypatch):
    # every kept field of the quadric has degree 0, so its 21 brackets are
    # one solve beside those of graded Nakayama
    dm = quadric_dm(4)
    calls = []
    original = linalg.rref

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(linalg, "rref", counted)
    minimal_module_generators(dm)
    nakayama = len(calls)
    calls.clear()
    algebra, basis = fibre_lie_algebra(dm)
    assert (algebra.dim, len(basis)) == (7, 7)
    assert len(calls) == nakayama + 1


def test_fibre_rejects_a_bracket_outside_the_module():
    # y d/dx and x d/dy preserve the zero ideal but do not span a module
    # closed under the bracket: [y dx, x dy] = y dy - x dx has no
    # coordinates on them modulo m*T
    x, y = (variable(2, i) for i in range(2))
    zero = Polynomial.zero(2)
    dm = DerivationModule([Derivation([y, zero]), Derivation([zero, x])], Ideal(2, []))
    with pytest.raises(AlgebroidError, match="bracket leaves the module"):
        fibre_lie_algebra(dm)


def test_fibre_rejects_a_bracket_outside_the_module_where_no_field_is_kept():
    # x^2 d/dy and y^2 d/dx are kept in degree 1; their bracket
    # 2x^2y d/dx - 2xy^2 d/dy has degree 2, where M is m*M and no field is kept
    x, y = (variable(2, i) for i in range(2))
    zero = Polynomial.zero(2)
    dm = DerivationModule([Derivation([zero, x ** 2]), Derivation([y ** 2, zero])], Ideal(2, []))
    assert minimal_module_generators(dm)[1] == [1, 1]
    assert dm.generators[0].bracket(dm.generators[1]) == Derivation([2 * x ** 2 * y, -2 * x * y ** 2])
    with pytest.raises(AlgebroidError, match="bracket leaves the module"):
        fibre_lie_algebra(dm)


def test_fibre_builds_no_groebner_basis(monkeypatch):
    # on a prebuilt module, graded Nakayama and the bracket coordinates are
    # linear algebra in each degree
    dm = quadric_dm(5)
    calls = []
    original = groebner.groebner_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("algebroids") and getattr(module, "groebner_basis", None) is original:
            monkeypatch.setattr(module, "groebner_basis", counted)
    algebra, _basis = fibre_lie_algebra(dm)
    assert algebra.dim == 11
    assert calls == []


def test_fingerprint_stable_under_generator_permutation():
    rng = random.Random(13)
    dm = whitney_dm()
    reference = fibre_lie_algebra(dm)[0].fingerprint()
    for _ in range(4):
        gens = list(dm.generators)
        rng.shuffle(gens)
        shuffled = DerivationModule(gens, dm.ideal)
        fp = fibre_lie_algebra(shuffled)[0].fingerprint()
        assert fp == reference


def test_fibre_requires_vanishing_at_origin():
    linear = Ideal(3, [P("x", "xyz"), P("y", "xyz")])
    dm = tangent_derivations(linear)
    with pytest.raises(PreconditionError, match="not logarithmic at origin"):
        fibre_lie_algebra(dm)
    algebra, _ = fibre_lie_algebra(dm, require_origin=False)
    assert algebra.dim == 5  # gl2 + the free partial


def test_to_json_shape():
    obj = sl2().to_json()
    assert obj["dim"] == 3
    assert all(len(entry) == 3 for entry in obj["brackets"])
    for i, j, vec in obj["brackets"]:
        assert 1 <= i < j <= 3
        assert all(isinstance(c, str) for c in vec)


@pytest.mark.parametrize("name", ["sl2", "gl2", "whitney", "quadric5"])
def test_structure_constants_have_one_sparse_form(name):
    # the stored rows hold no zero, there is no dense copy, and the rows read
    # back out of to_json rebuild the same algebra
    g = _named_algebra(name)
    assert all(row and all(row.values()) for row in g._table.values())
    assert not hasattr(g, "brackets")
    obj = g.to_json()
    rows = {(i - 1, j - 1): {k: Fraction(c) for k, c in enumerate(vec)}
            for i, j, vec in obj["brackets"]}
    assert LieAlgebra(obj["dim"], rows, obj["labels"]).to_json() == obj


def test_constructor_refuses_malformed_input():
    # a label count other than dim, a negative dim, a constant index outside
    # [0, dim) (a negative one would wrap in the adjoint action), a pair not
    # given as i < j
    for make in (lambda: LieAlgebra(3, {}, labels=["a"]),
                 lambda: LieAlgebra(3, {}, labels=["a", "b", "c", "d"]),
                 lambda: LieAlgebra(-1, {}),
                 lambda: LieAlgebra(3, {(0, 1): {3: 1}}),
                 lambda: LieAlgebra(3, {(0, 1): {-1: 1}}),
                 lambda: LieAlgebra(3, {(1, 0): {2: 1}}),
                 lambda: LieAlgebra(3, {(1, 1): {2: 1}})):
        with pytest.raises(ValueError):
            make()
    assert LieAlgebra(0, {}).to_json() == {"dim": 0, "brackets": [], "labels": []}


def test_bracket_refuses_indices_outside_the_algebra():
    # an index past dim, and a negative one, which would otherwise read a
    # table row of no pair
    g = sl2()
    for u, v in (({0: 1}, {3: 1}), ({0: 1, 5: 2}, {}), ({-1: 1}, {1: 1}), ({1: 1}, {-3: 1})):
        with pytest.raises(ValueError):
            g.bracket(u, v)
    assert g.bracket({0: 1}, {1: 1}) == {1: 2}


def test_span_of_one_vector_is_abelian():
    # no pair to bracket: the solve has no targets, and its result is empty
    g = sl2()
    h = span_lie_algebra([{0: 2, 1: 1}], lambda a, b: g.bracket({0: 2, 1: 1}, {0: 2, 1: 1}))
    assert h.to_json() == {"dim": 1, "brackets": [], "labels": ["e1"]}
    assert span_lie_algebra([], g.bracket).dim == 0


# -- the per-candidate Groebner route, kept as an independent oracle -------

ORACLE_INPUTS = {
    "whitney": ("xyz", ["z^2 - x^2*y"], (1, 2, 2), True),
    "d4": ("xyz", ["x^2 + y^2*z + z^3"], (3, 2, 2), True),
    "e6": ("xyz", ["x^2 + y^3 + z^4"], (6, 4, 3), True),
    "quadric3": ("xyz", ["x^2 + y^2 + z^2"], None, True),
    "fermat": ("xyz", ["x^3 + y^3 + z^3"], None, True),
    "toral": ("xyz", ["x", "y"], None, False),
    "e7": ("xyz", ["x^3 + x*y^3 + z^2"], (6, 4, 9), True),
    "e8": ("xyz", ["x^3 + y^5 + z^2"], (10, 6, 15), True),
    "quadric5": ("abcde", ["a^2 + b^2 + c^2 + d^2 + e^2"], None, True),
    # kept fields of degrees 0 and 4, so brackets land in degrees 4 and 8
    "fermat6": ("xyzw", ["x^6 + y^6 + z^6 + w^6"], None, True),
}
# the same inputs with the sum of the first two generators appended, so that
# some candidate is a combination of others of its degree
ORACLE_INPUTS.update({f"{name}+sum": data for name, data in list(ORACLE_INPUTS.items())})


def _oracle_dm(name):
    names, gens, weights, _origin = ORACLE_INPUTS[name]
    dm = tangent_derivations(Ideal(len(names), [P(g, names) for g in gens], weights))
    if not name.endswith("+sum"):
        return dm
    first, second = dm.generators[:2]
    extra = Derivation.from_vector(first.vector + second.vector)
    return DerivationModule(dm.generators + [extra], dm.ideal)


def _oracle_minimal_generators(dm):
    """Keep a candidate iff one Groebner basis of kept + m*T does not contain it."""
    weights = dm.weights
    shifts = [-w for w in weights]
    seen = []
    for g in dm.generators:
        for c in g.vector.homogeneous_components(weights, shifts=shifts).values():
            if c not in seen:
                seen.append(c)

    def degree(v):
        (pos, exp), _c = next(iter(v.terms.items()))
        return sum(w * e for w, e in zip(weights, exp)) - weights[pos]

    seen.sort(key=lambda v: (degree(v), sorted(v.terms)))
    n = dm.nvars
    m_times = [c.mul_term(tuple(1 if t == j else 0 for t in range(n)))
               for c in seen for j in range(n)]
    kept = []
    for c in seen:
        if not groebner_basis(kept + m_times, dm.weights).contains(c):
            kept.append(c)
    return kept


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_minimal_generators_match_groebner_membership(name):
    dm = _oracle_dm(name)
    assert minimal_module_generators(dm)[0] == _oracle_minimal_generators(dm)


@pytest.mark.parametrize("name", sorted(n for n in ORACLE_INPUTS if not n.endswith("+sum")))
def test_jacobian_minimal_generators_match_greedy(name):
    names, gens, weights, _origin = ORACLE_INPUTS[name]
    jac = jacobian_ideal(Ideal(len(names), [P(g, names) for g in gens], weights))
    for order in (jac.gens, jac.gens[::-1]):
        ideal = Ideal(jac.nvars, order, jac.weights)
        assert ideal.minimal_generators() == _greedy_minimal_generators(ideal)


def _relabellings(nvars):
    """Every variable order of up to 3 variables; a fixed seeded sample of 12
    orders, the written one first, of more."""
    orders = list(permutations(range(nvars)))
    if nvars <= 3:
        return orders
    return orders[:1] + random.Random(nvars).sample(orders[1:], 11)


@pytest.mark.parametrize("name", sorted(n for n in ORACLE_INPUTS if not n.endswith("+sum")))
def test_analysis_is_independent_of_variable_order(name):
    # the term order follows the vars: line, so each order is another route
    # to the same germ; the weights move with their variables
    names, gens, weights, _origin = ORACLE_INPUTS[name]
    seen = set()
    for order in _relabellings(len(names)):
        text = f"vars: {', '.join(names[i] for i in order)}\n"
        if weights is not None:
            text += f"weights: {', '.join(str(weights[i]) for i in order)}\n"
        report = analyze_singularity(parse_input(text + f"ideal: {'; '.join(gens)}\n"))
        series = report.series.to_json() if report.series is not None else None
        seen.add(json.dumps([report.fingerprint, report.colength, series,
                             report.dimension, str(report.multiplicity)], sort_keys=True))
    assert len(seen) == 1


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_fibre_brackets_match_tracked_lifts(name):
    dm = _oracle_dm(name)
    algebra, basis = fibre_lie_algebra(dm, require_origin=ORACLE_INPUTS[name][3])
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    found = lifts([d.vector for d in basis],
                  [basis[i].bracket(basis[j]).vector for i, j in pairs],
                  dm.weights)
    for (i, j), lift in zip(pairs, found):
        assert lift is not None
        expected = tuple(c.terms.get((0,) * dm.nvars, 0) for c in lift)
        assert tuple(dense(algebra.bracket({i: 1}, {j: 1}), len(basis))) == expected
