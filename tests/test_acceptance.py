"""Top-level acceptance checks.

Each test prints a single pass/fail line (outside pytest's capture, so the
lines show up on the terminal) in addition to its assertions.
"""

import random
from fractions import Fraction
from math import comb

from algebroids.derivations import (Derivation, monomialize,
                                    tangent_derivations)
from algebroids.errors import InconsistencyError
from algebroids.groebner import Ideal, lifts
from algebroids.hilbert import (dimension_multiplicity,
                                equivariant_series_monomial,
                                graded_pieces_series, hilbert_series_quotient)
from algebroids.liealg import fibre_lie_algebra
from algebroids.pipeline import (analyze_singularity, analyze_toral,
                                 covariants_report, parse_input)
from algebroids.poly import Polynomial, parse_poly
from algebroids.repmod import (binary_form_rep, cayley_sylvester, decompose_sl2,
                               sl2_algebroid_filtration, sym_power_rep)
from algebroids.series import (RationalSeries, integrate_characters,
                               quasi_polynomial_of)

from constructs import SemigroupSpec, gamma_restriction
from references import same_ideal, same_module, variable


def report(capsys, num, desc, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} ({desc}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} ({desc}): PASS", flush=True)


def P(text, varnames):
    return parse_poly(text, list(varnames))


DISCRIMINANT = ("vars: x, y, z, w\n"
                "ideal: y^2*z^2 - 4*x*z^3 - 4*y^3*w + 18*x*y*z*w - 27*x^2*w^2\n")

_cache = {}


def disc_report():
    if "disc" not in _cache:
        _cache["disc"] = analyze_singularity(parse_input(DISCRIMINANT),
                                             series_depth=12)
    return _cache["disc"]


def test_criterion_1_covariants_quadratic(capsys):
    def check():
        rep = covariants_report(2, 20)
        assert rep.dims == [n // 2 + 1 for n in range(21)]
        assert rep.series == RationalSeries([1], [(1, 1), (2, 1)])
    report(capsys, 1, "covariants d=2", check)


def test_criterion_2_covariants_cubic(capsys):
    def check():
        rep = covariants_report(3, 20)
        const = [Fraction(1), Fraction(3, 8), Fraction(1, 2), Fraction(3, 8)]
        for n, dim in enumerate(rep.dims):
            assert dim == Fraction(n * n, 8) + Fraction(n, 2) + const[n % 4]
        assert rep.series == RationalSeries([1, -1, 1], [(1, 2), (4, 1)])
        assert (rep.dimension, rep.multiplicity) == (2, Fraction(1, 4))
    report(capsys, 2, "covariants d=3", check)


def test_criterion_3_cayley_sylvester_oracle(capsys):
    def check():
        for n in range(6):
            for d in range(6):
                dec = decompose_sl2(sym_power_rep(binary_form_rep(d), n))
                for e in range(n * d + 1):
                    assert dec.get(e, 0) == cayley_sylvester(n, d, e)
    report(capsys, 3, "Cayley-Sylvester vs matrices, n,d <= 5", check)


def test_criterion_4_whitney_umbrella(capsys):
    def check():
        ideal = Ideal(3, [P("z^2 - x^2*y", "xyz")], (1, 2, 2))
        dm = tangent_derivations(ideal)
        zero = Polynomial.zero(3)
        x = variable(3, 0)
        y = variable(3, 1)
        z = variable(3, 2)
        deltas = [Derivation([x, -2 * y, zero]),
                  Derivation([x, zero, z]),
                  Derivation([zero, 2 * z, x * x]),
                  Derivation([z, zero, x * y])]
        assert same_module(dm, deltas)
        # fibre structure constants in exactly this basis: express each
        # bracket over the four generators and take constant terms
        weights = (1, 2, 2)
        vectors = [d.vector for d in deltas]
        def fibre_bracket(i, j):
            lift = lifts(vectors, [deltas[i].bracket(deltas[j]).vector], weights)[0]
            assert lift is not None
            return tuple(c.terms.get((0, 0, 0), 0) for c in lift)
        assert fibre_bracket(0, 1) == (0, 0, 0, 0)
        assert fibre_bracket(0, 2) == (0, 0, 2, 0)   # [d1, d3] = 2 d3
        assert fibre_bracket(1, 2) == (0, 0, 1, 0)   # [d2, d3] = d3
        assert fibre_bracket(0, 3) == (0, 0, 0, -1)  # [d1, d4] = -d4
        assert fibre_bracket(1, 3) == (0, 0, 0, 0)
        assert fibre_bracket(2, 3) == (0, 0, 0, 0)   # [d3, d4] = x d1 in m T(I)
        algebra, _ = fibre_lie_algebra(dm)
        fp = algebra.fingerprint()
        assert fp["derived_series"] == [4, 2, 0]
        assert fp["solvable"]
    report(capsys, 4, "Whitney umbrella", check)


def test_criterion_5_quadrics(capsys):
    def check():
        names = ["x1", "x2", "x3", "x4", "x5", "x6", "x7"]
        for n in (3, 4, 5, 6, 7):
            f = sum((P(f"{v}^2", names[:n]) for v in names[:n]),
                    Polynomial.zero(n))
            algebra, _ = fibre_lie_algebra(tangent_derivations(Ideal(n, [f])))
            fp = algebra.fingerprint()
            assert fp["dim"] == 1 + n * (n - 1) // 2
            assert fp["radical_dim"] == 1
            assert not fp["solvable"]
            assert fp["killing_rank"] == comb(n, 2)
            assert fp["center_dim"] == 1
    report(capsys, 5, "quadrics n=3..7", check)


def test_criterion_6_cubic_discriminant(capsys):
    def check():
        rep = disc_report()
        fp = rep.fingerprint
        assert fp["dim"] == 4
        assert fp["radical_dim"] == 1
        assert fp["derived_series"] == [4, 3, 3]
        assert rep.series == RationalSeries([1, -1, 1], [(1, 2), (4, 1)])
        assert (rep.dimension, rep.multiplicity) == (2, Fraction(1, 4))
        # cross-path agreement with the covariant algebra of binary cubics
        assert covariants_report(3, 12).series == rep.series
    report(capsys, 6, "cubic discriminant", check)


def test_criterion_7_smooth_case(capsys):
    def check():
        spec = parse_input("vars: x1, x2, x3, x4\nideal: x1; x2\n")
        rep = analyze_toral(spec)
        assert rep.jm_variables == [0, 1]
        fp = rep.fingerprint
        assert fp["dim"] == 6
        assert fp["radical_dim"] == 3
        assert (rep.dimension, rep.multiplicity) == (2, 1)
    report(capsys, 7, "smooth case I=(x1,x2)", check)


def test_criterion_8_solvability_oracles(capsys):
    def check():
        fermat = "vars: x, y, z\nideal: x^3 + y^3 + z^3\n"
        tangent = analyze_singularity(parse_input(fermat), series_depth=4)
        assert tangent.solvable
        assert tangent.oracle_checks.get("isolated_regular_sequence_solvable") is True
        tjurina = analyze_singularity(parse_input(fermat),
                                      mode="tjurina-algebroid", series_depth=4)
        assert tjurina.solvable
        assert tjurina.oracle_checks.get("jacobian_algebroid_solvable") is True
        # the contradiction flag must never fire across the example corpus
        corpus = [
            ("vars: x, y, z\nweights: 1, 2, 2\nideal: z^2 - x^2*y\n", "tangent"),
            ("vars: x, y, z\nideal: x^2 + y^2 + z^2\n", "tangent"),
            (fermat, "tangent"),
            (fermat, "tjurina-algebroid"),
            (DISCRIMINANT, "tangent"),
        ]
        try:
            for text, mode in corpus:
                if text == DISCRIMINANT:
                    disc_report()
                else:
                    analyze_singularity(parse_input(text), mode=mode,
                                        series_depth=4)
            for toral in ("vars: x, y\nideal: x^2*y^3\n",
                          "vars: x, y\nideal: x; y\n",
                          "vars: x1, x2, x3, x4\nideal: x1; x2\n"):
                analyze_toral(parse_input(toral))
        except InconsistencyError as exc:  # pragma: no cover
            raise AssertionError(f"contradiction flag raised: {exc}")
    report(capsys, 8, "solvability oracles", check)


def test_criterion_9_quasi_polynomial_sanity(capsys):
    def check():
        for l in range(1, 6):
            qp = quasi_polynomial_of(RationalSeries([1], [(1, l)]))
            for n in range(31):
                assert qp(n) == comb(n + l - 1, l - 1)
    report(capsys, 9, "quasi-polynomial of 1/(1-t)^l", check)


def test_criterion_10_monomialize_suite(capsys):
    def check():
        rng = random.Random(101)
        done = 0
        while done < 50:
            nvars = rng.randrange(1, 4)
            gens = []
            for _ in range(rng.randrange(1, 6)):
                exp = tuple(rng.randrange(4) for _ in range(nvars))
                if any(exp):
                    gens.append(Polynomial.monomial(nvars, exp))
            if not gens:
                continue
            ideal = Ideal(nvars, gens)
            out = monomialize(ideal)
            assert out is not None
            assert same_ideal(Ideal(nvars, out), ideal)
            again = monomialize(Ideal(nvars, out))
            assert sorted(p.sorted_terms() for p in again) == \
                sorted(p.sorted_terms() for p in out)
            done += 1
        assert monomialize(Ideal(2, [P("x^2 + y^2", "xy"), P("x*y", "xy")])) is None
        assert monomialize(Ideal(2, [P("(x + y)^2", "xy")])) is None
    report(capsys, 10, "monomialize property suite", check)


def test_criterion_11_cusp_series(capsys):
    def check():
        j = Ideal(2, [P("x^2", "xy"), P("y", "xy")])
        rep = graded_pieces_series(j, "ring", depth=8)
        assert [d for _, d in rep.dims] == [2 * (i + 1) for i in range(9)]
        assert rep.series == RationalSeries([2], [(1, 2)])
        assert (rep.dimension, rep.multiplicity) == (2, 2)
    report(capsys, 11, "cusp graded series", check)


def test_criterion_12_sl2_filtration(capsys):
    def check():
        for d in range(5):
            result = sl2_algebroid_filtration(d)
            assert result["quotient_count"] == d + 1
            assert result["ranks"] == list(range(d + 1, 0, -1))
    report(capsys, 12, "sl2 algebroid filtration d<=4", check)


def test_criterion_13_equivariant_consistency(capsys):
    def check():
        rng = random.Random(103)
        done = 0
        while done < 30:
            nvars = rng.randrange(1, 4)
            gens = []
            for _ in range(rng.randrange(1, 5)):
                exp = tuple(rng.randrange(4) for _ in range(nvars))
                if any(exp):
                    gens.append(Polynomial.monomial(nvars, exp))
            if not gens:
                continue
            ideal = Ideal(nvars, gens)
            cs = equivariant_series_monomial(ideal, bound=12)
            prefix, _ = integrate_characters(cs)
            assert prefix.coeffs == hilbert_series_quotient(ideal).expand(12).coeffs
            done += 1
        # diagonal restriction of Q[x,y]
        from algebroids.series import CharacterSeries
        coeffs = {n: {(a, n - a): 1 for a in range(n + 1)} for n in range(13)}
        cs = CharacterSeries(2, coeffs, 12)
        restricted, rep = gamma_restriction(cs, SemigroupSpec(2, [(1, 1)]))
        assert rep["condition_holds_on_support"]
        prefix, _ = integrate_characters(restricted)
        assert prefix.coeffs == RationalSeries([1], [(2, 1)]).expand(12).coeffs
    report(capsys, 13, "equivariant consistency", check)
