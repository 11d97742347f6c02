"""End-to-end reports and the command-line interface."""

import argparse
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from algebroids import cli, linalg
from algebroids.cli import build_parser, main
from algebroids.derivations import Derivation, tangent_derivations
from algebroids.errors import InconsistencyError, ParseError, PreconditionError
from algebroids.groebner import Ideal
from algebroids.hilbert import hilbert_series_quotient
from algebroids.liealg import LieAlgebra, fibre_lie_algebra, sl2
from algebroids.pipeline import (InputSpec, _levi_action, _sl2_covariant_path,
                                 analyze_singularity, analyze_toral,
                                 covariants_report, parse_input)
from algebroids.poly import Polynomial, monomials
from algebroids.repmod import binary_form_rep, covariant_dimensions, polarize, sl2_isotypic
from algebroids.series import RationalSeries

from references import (apply_field, dense_matrices, jm_by_membership, mat_add, mat_mul,
                        mat_scale, partitions_in_rectangle, sparse_rows, variable)

WHITNEY = "vars: x, y, z\nweights: 1, 2, 2\nideal: z^2 - x^2*y\n"
QUADRIC = "vars: x, y, z\nideal: x^2 + y^2 + z^2\n"
SPLIT_QUADRIC = "vars: x, y, z\nideal: x^2 + y*z\n"
FERMAT = "vars: x, y, z\nideal: x^3 + y^3 + z^3\n"
DISCRIMINANT = ("vars: x, y, z, w\n"
                "ideal: y^2*z^2 - 4*x*z^3 - 4*y^3*w + 18*x*y*z*w - 27*x^2*w^2\n")
# the three coordinate axes: the Jacobian ideal is m^2, 6 generators in 3 variables
AXES = "vars: x, y, z\nideal: x*y; y*z; x*z\n"
# the 2x2 minors of a generic 2x4 matrix [[a, b, c, d], [e, f, g, h]]
DETERMINANTAL_2X4 = ("vars: a, b, c, d, e, f, g, h\n"
                     "ideal: a*f - b*e; a*g - c*e; a*h - d*e; b*g - c*f; b*h - d*f; c*h - d*g\n")


def test_parse_input():
    spec = parse_input(WHITNEY)
    assert spec.varnames == ["x", "y", "z"]
    assert spec.weights == (1, 2, 2)
    assert len(spec.gens) == 1
    multi = parse_input("# comment\nvars: a, b\nideal: a^2; b^3\n")
    assert len(multi.gens) == 2


def test_parse_input_errors():
    for bad in ("ideal: x\n",                      # missing vars
                "vars: x\n",                       # missing ideal
                "vars: x\nweights: 1, 2\nideal: x\n",
                "vars: x\nideal: x\njunk line\n",
                "vars: x\nweights: 0\nideal: x\n"):
        with pytest.raises(ParseError):
            parse_input(bad)
    # a repeated key or variable is refused and named, not overwritten
    for bad, name in (("vars: x\nvars: y\nideal: x\n", "vars"),
                      ("vars: x\nweights: 1\nweights: 2\nideal: x\n", "weights"),
                      ("vars: x, y\nideal: x^2\nideal: y^3\n", "ideal"),
                      ("vars: x, y, x\nideal: x^2\n", "x")):
        with pytest.raises(ParseError, match=f"repeated.*'{name}'"):
            parse_input(bad)
    with pytest.raises(ParseError, match="bad variable name '2y'"):
        parse_input("vars: x, 2y\nideal: x^2\n")


def test_parse_input_reads_the_readme_example():
    # README's input block carries trailing comments; it is the Whitney spec
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Input files use a small line format:\n\n```\n")[1].split("```")[0]
    spec, whitney = parse_input(block), parse_input(WHITNEY)
    assert (spec.varnames, spec.weights, spec.gens) == (whitney.varnames, whitney.weights, whitney.gens)


def test_analyze_whitney():
    report = analyze_singularity(parse_input(WHITNEY))
    assert report.quasi_homogeneous
    assert not report.isolated
    assert report.logarithmic_at_origin
    assert report.fingerprint["dim"] == 4
    assert report.fingerprint["derived_series"] == [4, 2, 0]
    assert report.solvable
    assert report.series_note == "series out of scope (non-isolated)"


def test_analyze_whitney_infers_weights():
    spec = parse_input("vars: x, y, z\nideal: z^2 - x^2*y\n")
    report = analyze_singularity(spec)
    assert report.weights == (1, 2, 2)


def test_analyze_quadric():
    report = analyze_singularity(parse_input(QUADRIC))
    assert report.isolated and report.colength == 1
    fp = report.fingerprint
    assert fp["dim"] == 4 and fp["radical_dim"] == 1
    assert not report.solvable
    # the compact so(3) form has no rational nilpotent; the Casimir still
    # certifies m/m^2 = V_2 over Q-bar, so the split form's series follows
    assert report.series == RationalSeries([1], [(1, 1), (2, 1)])
    assert report.series_note is None
    split = analyze_singularity(parse_input(SPLIT_QUADRIC))
    assert split.series == report.series
    assert (split.dimension, split.multiplicity) == \
        (report.dimension, report.multiplicity)


def test_dense_quadric_has_the_written_fingerprint():
    # x1^2 + ... + x5^2 in y_i = sum_j M_ij x_j, M the first draw of rank 5
    # with entries in [-2, 2]: the fibre gl1 + so5 does not depend on the
    # coordinates the quadric is written in
    n = 5
    rng = random.Random(1)
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.rank(sparse_rows(m)) == n:
            break
    xs = [variable(n, j) for j in range(n)]
    ys = [sum((x * c for c, x in zip(row, xs)), Polynomial.zero(n)) for row in m]
    names = [f"x{j + 1}" for j in range(n)]
    dense = analyze_singularity(InputSpec(names, None, [sum((y * y for y in ys),
                                                           Polynomial.zero(n))]))
    written = analyze_singularity(InputSpec(names, None, [sum((x * x for x in xs),
                                                             Polynomial.zero(n))]))
    fp = dense.fingerprint
    assert fp == written.fingerprint
    assert (fp["dim"], fp["killing_rank"], fp["radical_dim"], fp["center_dim"]) == (11, 10, 1, 1)


def minors_2x3(v):
    a, b, c, d, e, f = v
    return [a * e - b * d, a * f - c * d, b * f - c * e]


@pytest.mark.parametrize("seed", [1, 2])
def test_dense_2x3_minors_have_the_written_fingerprint(seed):
    # the 2x2 minors of [[a, b, c], [d, e, f]] in y_i = sum_j M_ij x_j, M the
    # first draw of random.Random(seed) of rank 6 with entries in [-2, 2].
    # S-pairs by degree build the tangent syzygies degree by degree (0.6 s
    # in process on a 2-core VM); taken position by position they ran past
    # 20 s
    n = 6
    rng = random.Random(seed)
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.rank(sparse_rows(m)) == n:
            break
    xs = [variable(n, j) for j in range(n)]
    ys = [sum((x * c for c, x in zip(row, xs)), Polynomial.zero(n)) for row in m]
    names = list("abcdef")
    start = time.perf_counter()
    dense = analyze_singularity(InputSpec(names, None, minors_2x3(ys)))
    elapsed = time.perf_counter() - start
    written = analyze_singularity(InputSpec(names, None, minors_2x3(xs)))
    fp = dense.fingerprint
    assert fp == written.fingerprint
    assert (fp["dim"], fp["killing_rank"], fp["radical_dim"]) == (12, 11, 1)
    assert elapsed < 10


def test_analyze_determinantal_2x4_is_desk_scale():
    # 710 Jacobian candidates; the minimal generators come from one rref per
    # degree (0.3 s on a 2-core VM; a Groebner basis per candidate ran past
    # 100 s)
    start = time.perf_counter()
    report = analyze_singularity(parse_input(DETERMINANTAL_2X4))
    elapsed = time.perf_counter() - start
    assert len(report.jacobian_gens) == 86
    assert report.fingerprint["dim"] == 19
    assert len(report.tangent_generators) == 40
    assert elapsed < 15


def test_analyze_coordinate_axes_by_pruned_powers():
    # the series of J = m^2 is fitted to the colengths of J^0..J^11 against
    # (1 - t)^3; with every product of generators kept, J^9 alone has 2002
    report = analyze_singularity(parse_input(AXES), series_depth=10)
    assert report.solvable and report.colength == 4
    assert report.series == RationalSeries([4, 4], [(1, 3)])
    assert (report.dimension, report.multiplicity) == (3, 8)


def test_analyze_coordinate_axes_fits_over_the_krull_dimension():
    # gr_J(A) of J = m^2 has Krull dimension 3, so the power route fits
    # against (1 - t)^3 and stabilizes by depth 4, below the default depth 8;
    # against (1 - t)^6, 6 being J's number of generators, it needed depth 10
    for report in (analyze_singularity(parse_input(AXES)),
                   analyze_singularity(parse_input(AXES), series_depth=4)):
        assert report.series.numerator == [4, 4] and report.series.factors == ((1, 3),)
        assert (report.dimension, report.multiplicity) == (3, 8)


# -- the sl2 length path against the matrix kernel -------------------------

def _is_nilpotent(m):
    power = m
    for _ in range(len(m)):
        power = mat_mul(power, m)
    return not any(any(row) for row in power)


def _rational_nilpotent(mats):
    """A nonzero nilpotent among the matrices and their pairwise sums and
    differences, or None."""
    candidates = list(mats)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            candidates.append(mat_add(mats[i], mats[j]))
            candidates.append(mat_add(mats[i], mat_scale(mats[j], -1)))
    for m in candidates:
        if any(any(row) for row in m) and _is_nilpotent(m):
            return m
    return None


def _levi_rep(text):
    spec = parse_input(text)
    dm = tangent_derivations(spec.ideal())
    fibre, basis = fibre_lie_algebra(dm)
    return fibre, basis, _levi_action(fibre, basis)


@pytest.mark.parametrize("text", [DISCRIMINANT, SPLIT_QUADRIC],
                         ids=["discriminant", "split-quadric"])
def test_sl2_length_dims_match_nilpotent_kernel(text):
    fibre, basis, rep = _levi_rep(text)
    nil = _rational_nilpotent(dense_matrices(rep))
    assert nil is not None
    dims, _series = _sl2_covariant_path(fibre, basis, 12)
    nil_columns = [{r: c for r, c in enumerate(col) if c} for col in zip(*nil)]
    for n in range(7):
        monos = monomials((1,) * rep.dim, n)
        assert dims[n] == len(monos) - linalg.rank(polarize(nil_columns, monos))


def test_levi_action_needs_killing_rank_3():
    # gl1 acting on Q^3 by [h, v_i] = v_i: [g, g] = Q^3 is 3-dimensional
    # but abelian, so no form of sl2
    algebra = LieAlgebra(4, {(0, i): {i: 1} for i in (1, 2, 3)})
    assert len(algebra.derived_subalgebra_basis()) == 3
    assert _levi_action(algebra, []) is None


def test_sl2_path_on_binary_quartics_has_no_builtin_denominator():
    # sl2 acting on V_4 by linear fields in 5 variables: the length dims are
    # the covariant dimensions of the binary quartic, and no denominator is
    # built in for degree 4, which analyze reports as its series note
    fields = [Derivation([Polynomial(5, {tuple(int(r == j) for r in range(5)): c
                                         for j, c in column.items()})
                          for column in matrix])
              for matrix in binary_form_rep(4).columns]
    dims, series = _sl2_covariant_path(sl2(), fields, 12)
    assert series is None
    assert dims == covariant_dimensions(4, 12)


def test_compact_quadric_has_no_rational_nilpotent():
    _fibre, _basis, rep = _levi_rep(QUADRIC)
    assert _rational_nilpotent(dense_matrices(rep)) is None
    assert sl2_isotypic(rep) == {2: 1}


def test_discriminant_independent_of_variable_order():
    ideal = DISCRIMINANT.splitlines()[1]
    seen = set()
    for perm in itertools.permutations(["x", "y", "z", "w"]):
        report = analyze_singularity(parse_input(f"vars: {', '.join(perm)}\n{ideal}\n"),
                                     series_depth=12)
        seen.add(json.dumps([report.fingerprint, report.series.to_json(),
                             report.dimension, str(report.multiplicity)],
                            sort_keys=True))
    assert len(seen) == 1
    fingerprint, series, dimension, multiplicity = json.loads(seen.pop())
    assert fingerprint["derived_series"] == [4, 3, 3]
    assert RationalSeries.from_json(series) == RationalSeries([1, -1, 1], [(1, 2), (4, 1)])
    assert (dimension, multiplicity) == (2, "1/4")


def test_analyze_fermat_tjurina_mode():
    report = analyze_singularity(parse_input(FERMAT), mode="tjurina-algebroid",
                                 series_depth=4)
    assert report.isolated and report.colength == 8
    assert report.solvable
    assert report.oracle_checks.get("jacobian_algebroid_solvable") is True
    assert report.series is not None
    assert report.series.expand(4).coeffs == \
        RationalSeries([8], [(1, 3)]).expand(4).coeffs
    assert (report.dimension, report.multiplicity) == (3, 8)


def test_analyze_bad_mode():
    with pytest.raises(ParseError):
        analyze_singularity(parse_input(WHITNEY), mode="nonsense")


def test_toral_principal_monomial():
    report = analyze_toral(parse_input("vars: x, y\nideal: x^2*y^3\n"))
    assert report.to_json()["toral_fields_contained"]
    assert report.jm_variables == [0, 1]
    assert report.fingerprint["dim"] == 2
    assert report.fingerprint["solvable"]
    assert report.to_json()["scalar_connection_check"]
    assert (report.dimension, report.multiplicity) == (2, 1)


def test_toral_facts_on_random_monomial_ideals():
    # J_m read off the exponents against a normal form of each d g/d x_i, on
    # the generators as written (some of them not minimal); each toral field
    # x_i d/dx_i maps each minimal generator x^e to e_i x^e, which lies in I
    rng = random.Random(46)
    for _ in range(200):
        n = rng.randint(1, 3)
        names = ["x", "y", "z"][:n]
        count = rng.randint(1, 4)
        gens = []
        while len(gens) < count:
            exp = [rng.randrange(4) for _ in range(n)]
            if any(exp):
                gens.append("*".join(f"{v}^{e}" for v, e in zip(names, exp) if e))
        spec = parse_input(f"vars: {', '.join(names)}\nideal: {'; '.join(gens)}\n")
        report = analyze_toral(spec)
        ideal = Ideal(n, spec.gens)
        assert report.jm_variables == jm_by_membership(ideal)
        zero = Polynomial.zero(n)
        for i in range(n):
            field = Derivation([variable(n, i) if j == i else zero
                                for j in range(n)])
            for g in report.monomial_gens:
                (e,) = g.terms
                image = apply_field(field, g)
                assert image == g * e[i] and ideal.contains(image)


def test_toral_maximal_ideal():
    report = analyze_toral(parse_input("vars: x, y\nideal: x; y\n"))
    fp = report.fingerprint
    assert fp["dim"] == 4 and fp["derived_series"] == [4, 3, 3]
    assert report.series == RationalSeries([1], [(1, 2)])


@pytest.mark.parametrize("text", ["vars: x, y\nideal: x; y\n",
                                  "vars: x, y\nideal: x^2*y^3\n",
                                  "vars: x, y, z\nideal: x*y*z\n"])
def test_toral_series_matches_powers_of_maximal_ideal(text):
    # with r = nvars the (r, 1) series is that of gr_m(A): compare it with
    # the colengths of the powers of m, built independently
    report = analyze_toral(parse_input(text))
    n = len(report.varnames)
    assert report.v_dimension == n
    m = Ideal(n, [variable(n, i) for i in range(n)])
    colengths = [0] + [m.power(i).colength() for i in range(1, 7)]
    want = [b - a for a, b in zip(colengths, colengths[1:])]
    assert report.series.expand(5).coeffs == want


def test_toral_rejects_non_monomial():
    with pytest.raises(PreconditionError):
        analyze_toral(parse_input("vars: x, y\nideal: (x + y)^2\n"))


def test_covariants_report_degree_1_and_2():
    r1 = covariants_report(1, 8)
    assert r1.series == RationalSeries([1], [(1, 1)])
    r2 = covariants_report(2, 12)
    assert r2.dims == [n // 2 + 1 for n in range(13)]
    assert r2.series == RationalSeries([1], [(1, 1), (2, 1)])


def test_covariants_report_dims_are_the_partition_counts():
    for d in range(7):
        assert covariants_report(d, 40).dims == [partitions_in_rectangle(n * d // 2, d, n)
                                                 for n in range(41)]


def test_covariants_report_series_does_not_depend_on_the_depth():
    # the series depends on d alone; it used to be fitted on the requested
    # prefix, which left "no stabilization" at small depths
    for d in range(4):
        full = covariants_report(d, 40)
        for depth in range(41):
            report = covariants_report(d, depth)
            assert report.series == full.series
            assert report.dims == full.dims[:depth + 1]
            assert (report.dimension, report.multiplicity) == (full.dimension, full.multiplicity)


@pytest.mark.parametrize("d, depth", [(0, 0), (1, 0)] + [(2, n) for n in range(3)]
                         + [(3, n) for n in range(8)])
def test_cli_covariant_at_small_depth(capsys, d, depth):
    assert main(["covariant", "--degree", str(d), "--depth", str(depth), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dims"] == covariants_report(d, 40).dims[:depth + 1]
    assert obj["series"] is not None


def test_covariants_report_determinism():
    a = covariants_report(3, 14).to_json()
    b = covariants_report(3, 14).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_covariants_desk_cap():
    with pytest.raises(PreconditionError):
        covariants_report(7, 10)


# -- CLI -----------------------------------------------------------------

def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_tangent_and_fibre(tmp_path, capsys):
    path = write(tmp_path, "whitney.txt", WHITNEY)
    assert main(["tangent", path]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) >= 4
    assert main(["fibre", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dim"] == 4


def test_cli_hilbert_and_monomial(tmp_path, capsys):
    path = write(tmp_path, "mono.txt", "vars: x, y\nideal: x^2*y^3\n")
    assert main(["monomial", path]) == 0
    assert capsys.readouterr().out.strip() == "x^2*y^3"
    assert main(["hilbert", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["denominator"] == [{"n": 1, "mult": 2}]


def test_cli_covariant_and_quasipoly(capsys):
    assert main(["covariant", "--degree", "2", "--depth", "10", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dims"] == [n // 2 + 1 for n in range(11)]
    series = json.dumps(obj["series"])
    assert main(["quasipoly", "--series", series]) == 0
    qp = json.loads(capsys.readouterr().out)
    assert qp["period"] == 2


def test_cli_sl2_check(capsys):
    assert main(["sl2-check", "--d", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ranks"] == [3, 2, 1]
    assert obj["half_factor_confirmed"] is False


@pytest.mark.parametrize("text", ["vars: x, y, z\nideal: x*y\n",
                                  "vars: x, y, z, w\nideal: x^2 + y*z\n"],
                         ids=["xy", "quadric4"])
def test_cli_analyze_field_moving_origin(tmp_path, capsys, text):
    # d/dz resp. d/dw is tangent and does not vanish at the origin: the
    # report says so instead of aborting, and certifies no series
    path = write(tmp_path, "moving.txt", text)
    assert main(["analyze", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["logarithmic_at_origin"] is False
    assert "series" not in obj
    assert obj["series_note"] == "series out of scope (non-isolated)"


@pytest.mark.parametrize("f", ["x^3 + y^4 + z^2", "x^3 + y^3 + z^3", "z^2 - x^2*y"],
                         ids=["e6", "fermat", "whitney"])
def test_zero_generators_change_no_output(tmp_path, capsys, f):
    # the weights are inferred from the one nonzero generator whatever zero
    # generators are written beside it; only the echoed ideal differs
    def outputs(ideal_text):
        path = write(tmp_path, "f.txt", f"vars: x, y, z\nideal: {ideal_text}\n")
        out = []
        for argv in (["analyze", path, "--json"],
                     ["analyze", path, "--json", "--mode", "tjurina-algebroid"],
                     ["fibre", path], ["tangent", path], ["hilbert", path]):
            code = main(argv)
            text, err = capsys.readouterr()
            if argv[0] == "analyze" and code == 0:
                text = {k: v for k, v in json.loads(text).items() if k != "ideal"}
            out.append((code, text, err))
        return out

    expected = outputs(f)
    assert all(code == 0 for code, _text, _err in expected)
    assert outputs(f"0; {f}") == expected
    assert outputs(f"{f}; 0") == expected


def test_cli_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "vars x y\n")
    assert main(["analyze", bad]) == 2
    # variable names the polynomial grammar cannot spell
    capsys.readouterr()
    for names in ("x, 2y", "x y", "x, y-1", "x, y.z", "\u00b2, y"):
        unnamed = write(tmp_path, "unnamed.txt", f"vars: {names}\nideal: x^2\n")
        assert main(["analyze", unnamed, "--json"]) == 2
        assert "parse error" in capsys.readouterr().err
    # a superscript digit is no int: a parse error, not a crash
    superscript = write(tmp_path, "superscript.txt", "vars: x\nideal: x^\u00b2\n")
    assert main(["analyze", superscript, "--json"]) == 2
    assert "unexpected character" in capsys.readouterr().err
    missing = str(tmp_path / "nope.txt")
    assert main(["tangent", missing]) == 2
    nonmono = write(tmp_path, "nm.txt", "vars: x, y\nideal: (x + y)^2\n")
    assert main(["monomial", nonmono]) == 3
    assert main(["quasipoly", "--series", "{not json"]) == 2
    # well-formed JSON of the wrong shape is a parse error too
    for series in ['{"numerator":[1],"denominator":[[1,3]]}', '{"numerator":"x"}',
                   '{"numerator":[1.5],"denominator":[]}']:
        assert main(["quasipoly", "--series", series]) == 2
    capsys.readouterr()
    # a negative series depth is refused before any work, on an input with a
    # series and on one whose series is fitted
    for name, text, depth in (("fermat.txt", FERMAT, "-3"), ("axes.txt", AXES, "-1")):
        assert main(["analyze", write(tmp_path, name, text), "--series-depth", depth]) == 3
        assert "series depth must be >= 0" in capsys.readouterr().err


def test_cli_analyze_of_a_huge_exponent_is_desk_scale(tmp_path, capsys):
    # krull_dimension reads the order of t = 1 as a root of K off K's sparse
    # terms: the dense K(t) of x^(10^9) had 10^9 entries and ran past 20 s.
    # The analysis takes about 5 ms in process (Python 3.11, 2-core VM).
    huge = write(tmp_path, "huge.txt", "vars: x, y, z\nideal: x^1000000000\n")
    start = time.perf_counter()
    assert main(["analyze", huge, "--json"]) == 0
    assert time.perf_counter() - start < 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["isolated"] is False and obj["colength"] is None


def test_cli_hilbert_of_a_huge_exponent_is_refused(tmp_path, capsys):
    # the numerator's degree is read off K's sparse terms before a list is
    # built: the dense numerator of x^(10^9) would need about 90 GB.  The
    # refusal takes about 5 ms in process (Python 3.11, 2-core VM).
    huge = write(tmp_path, "huge.txt", "vars: x, y, z\nideal: x^1000000000\n")
    start = time.perf_counter()
    assert main(["hilbert", huge]) == 3
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert "precondition failure" in err and "numerator of degree 1000000000" in err
    # the bound is 10^5: x^(10^5) still has a series
    for e, refused in ((10 ** 5, False), (10 ** 5 + 1, True)):
        ideal = Ideal(3, [Polynomial.monomial(3, (e, 0, 0))])
        if refused:
            with pytest.raises(PreconditionError, match="outside desk scale"):
                hilbert_series_quotient(ideal)
        else:
            assert hilbert_series_quotient(ideal).numerator_degree == e


@pytest.mark.parametrize("argv", [["--degree", "-1", "--depth", "3"],
                                  ["--degree", "2", "--depth", "-3"],
                                  ["--degree", "7", "--depth", "3"]],
                         ids=["negative-degree", "negative-depth", "degree-7"])
def test_cli_covariant_outside_desk_scale_exits_3(capsys, argv):
    assert main(["covariant"] + argv) == 3
    err = capsys.readouterr().err
    assert "precondition failure" in err and "0 <= d <= 6, 0 <= N <= 40" in err


def test_cli_analyze_coordinate_axes_at_depth_10(tmp_path, capsys):
    # m^2 and its powers are monomial ideals, whose bases form no pairs
    # (0.9 s through the CLI on a 2-core VM; 2.0 s when every pair was formed)
    path = write(tmp_path, "axes.txt", AXES)
    start = time.perf_counter()
    assert main(["analyze", path, "--series-depth", "10", "--json"]) == 0
    elapsed = time.perf_counter() - start
    series = json.loads(capsys.readouterr().out)["series"]
    assert series == {"numerator": [4, 4], "denominator": [{"n": 1, "mult": 3}]}
    assert elapsed < 10


@pytest.mark.parametrize("names, text", [("x, y, z, w", "x*y + x*y*z*w"),
                                         ("a, b, c, d, e, f", "a*b + a*b*c*d*e*f")],
                         ids=["4-vars", "6-vars"])
def test_cli_analyze_without_positive_weights(tmp_path, capsys, names, text):
    # no positive weights exist; the weight search used to enumerate its
    # whole degree loop first (1.5 s and over 25 s).  The report takes
    # 8 ms in process on a 2-core VM
    path = write(tmp_path, "input.txt", f"vars: {names}\nideal: {text}\n")
    start = time.perf_counter()
    assert main(["analyze", path, "--json"]) == 0
    elapsed = time.perf_counter() - start
    obj = json.loads(capsys.readouterr().out)
    assert obj["quasi_homogeneous"] is False
    assert obj["weights"] == [1] * len(names.split(","))
    assert elapsed < 1


def test_cli_returns_4_on_an_inconsistency(monkeypatch, capsys):
    def inconsistent(d):
        raise InconsistencyError("no scalar quotient relation for X+")

    monkeypatch.setattr(cli, "sl2_algebroid_filtration", inconsistent)
    assert main(["sl2-check", "--d", "2"]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "inconsistency: no scalar quotient relation for X+\n")


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    # the first main call builds the one parser, with every subcommand's
    # parser; a repeat call, of the same or another subcommand, builds nothing
    made = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    full = ["algebroids"] + [f"algebroids {name}" for name in cli.COMMANDS]
    try:
        assert main(["sl2-check", "--d", "2"]) == 0
        assert made == full
        assert main(["sl2-check", "--d", "1"]) == 0
        assert main(["covariant", "--degree", "2", "--depth", "3"]) == 0
        assert made == full
    finally:
        build_parser.cache_clear()
    capsys.readouterr()
    # --help lists all nine subcommands
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out.split("positional arguments:\n")[1]
    names = ["analyze", "toral", "tangent", "fibre", "monomial", "hilbert",
             "covariant", "quasipoly", "sl2-check"]
    assert all(f"\n    {name} " in listed for name in names)
