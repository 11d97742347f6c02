"""Independent checks of every job's answer.

Each oracle takes the job's report and the facts recorded with the job, and
raises `OracleError` when the report contradicts them.  The facts are closed
forms that hold whatever variable order or generator order the seed picked:
they are keyed by variable name, never by position.

Closed forms used here, with their sources:
- Isolated quasi-homogeneous hypersurface f of degree d in n variables
  (Saito 1971): T(f) is minimally generated by the Euler field and the
  C(n, 2) Hamiltonian fields f_j d_i - f_i d_j.  So the fibre has dimension
  1 + C(n, 2), its derived algebra is spanned by the Hamiltonian fields
  (dimension C(n, 2)), and it is solvable unless some w_i + w_j = d, when a
  Hamiltonian field has degree 0.  Milnor number mu = prod(d / w_i - 1).
- The Jacobian ideal of such an f is generated by a regular sequence of n
  forms, so gr_J(A) is a polynomial ring in n variables over A/J and the
  graded-pieces series is mu / (1 - t)^n.
- Binary forms: dim C^n_d is the number of partitions of floor(nd/2) in an
  n x d box, the middle coefficient of the Gaussian binomial [n+d, n]_q.
"""

from fractions import Fraction
from math import comb, prod


class OracleError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise OracleError(message)


def expand(numerator, factors, bound):
    """Coefficients 0..bound of numerator(t) / prod (1 - t^n)^mult."""
    coeffs = [0] * (bound + 1)
    for k, c in enumerate(numerator):
        if k <= bound:
            coeffs[k] = c
    for n, mult in factors:
        for _ in range(mult):
            for k in range(n, bound + 1):
                coeffs[k] += coeffs[k - n]
    return coeffs


def _series_expansion(obj, bound):
    return expand(obj["numerator"], [(f["n"], f["mult"]) for f in obj["denominator"]], bound)


def gaussian_binomial(a, b):
    """Coefficient list of the q-binomial [a, b]_q, by q-Pascal recursion."""
    table = {}

    def rec(a, b):
        if b < 0 or b > a:
            return [0]
        if b == 0 or b == a:
            return [1]
        if (a, b) not in table:
            left = rec(a - 1, b - 1)
            right = [0] * b + rec(a - 1, b)
            size = max(len(left), len(right))
            table[(a, b)] = [(left[i] if i < len(left) else 0)
                             + (right[i] if i < len(right) else 0) for i in range(size)]
        return table[(a, b)]

    return rec(a, b)


def covariant_count(n, d):
    coeffs = gaussian_binomial(n + d, n)
    m = n * d // 2
    return coeffs[m] if m < len(coeffs) else 0


def check_fibre(report, facts, lib):
    fp = report["fingerprint"]
    family = facts["family"]
    n = facts["nvars"]
    if family == "whitney":
        _require(fp["derived_series"] == [4, 2, 0], f"Whitney derived series {fp['derived_series']}")
        return
    weights = facts["weights"]
    d = facts["degree"]
    _require(fp["dim"] == 1 + comb(n, 2), f"fibre dim {fp['dim']} != 1 + C({n}, 2)")
    _require(fp["derived_series"][1] == comb(n, 2),
             f"derived algebra dim {fp['derived_series'][1]} != C({n}, 2)")
    w = list(weights.values())
    degree_zero = any(w[i] + w[j] == d for i in range(n) for j in range(i + 1, n))
    _require(fp["solvable"] == (not degree_zero), f"solvable is {fp['solvable']}")
    if family == "quadric":
        _require(fp["radical_dim"] == 1, f"quadric radical dim {fp['radical_dim']}")


DISC_SERIES = ([1, -1, 1], [(1, 2), (4, 1)])


def check_discriminant(report, facts, lib):
    fp = report["fingerprint"]
    _require(fp["dim"] == 4 and fp["radical_dim"] == 1, f"fingerprint {fp}")
    _require(fp["derived_series"] == [4, 3, 3], f"derived series {fp['derived_series']}")
    bound = 40
    got = _series_expansion(report["series"], bound)
    _require(got == expand(*DISC_SERIES, bound), "series is not (1-t+t^2)/((1-t)^2(1-t^4))")
    cov = lib.pipeline.covariants_report(3, 12).series
    _require(got == _series_expansion(cov.to_json(), bound), "series differs from covariants_report(3, 12)")
    _require((report["dimension"], report["multiplicity"]) == (2, "1/4"),
             f"(dimension, multiplicity) = ({report['dimension']}, {report['multiplicity']})")


def check_decompose(report, facts, lib):
    n, d = facts["n"], facts["d"]
    for e in range(n * d + 1):
        want = lib.repmod.cayley_sylvester(n, d, e)
        _require(report.get(str(e), 0) == want,
                 f"multiplicity of V_{e} is {report.get(str(e), 0)}, Cayley-Sylvester says {want}")
    _require(sum((int(e) + 1) * m for e, m in report.items()) == comb(n + d, n),
             "dimensions do not add up to dim S^n(V_d)")


COVARIANT_SERIES = {2: ([1], [(1, 1), (2, 1)]), 3: DISC_SERIES}


def check_covariant(report, facts, lib):
    d, depth = facts["d"], facts["depth"]
    want = [covariant_count(n, d) for n in range(depth + 1)]
    _require(report["dims"] == want, f"covariant dims differ from Gaussian-binomial counts for d={d}")
    if d in COVARIANT_SERIES:
        _require(_series_expansion(report["series"], depth) == expand(*COVARIANT_SERIES[d], depth),
                 f"covariant series for d={d} differs from its closed form")


def check_graded_analyze(report, facts, lib):
    weights, d = facts["weights"], facts["degree"]
    n = len(weights)
    reported = dict(zip(facts["vars"], report["weights"]))
    _require(reported == weights, f"weights {reported} != {weights}")
    mu = prod(Fraction(d, w) - 1 for w in weights.values())
    _require(report["solvable"] is True and report["isolated"] is True, "not solvable and isolated")
    _require(report["colength"] == mu, f"colength {report['colength']} != Milnor number {mu}")
    bound = facts["depth"] + 4
    _require(_series_expansion(report["series"], bound) == expand([int(mu)], [(1, n)], bound),
             f"series is not {mu}/(1-t)^{n}")
    _require((report["dimension"], report["multiplicity"]) == (n, str(mu)),
             f"(dimension, multiplicity) = ({report['dimension']}, {report['multiplicity']})")


def check_toral(report, facts, lib):
    _require(sorted(report["jm_generators"]) == sorted(facts["jm"]),
             f"J_m generators {report['jm_generators']} != {facts['jm']}")
    fp = report["fingerprint"]
    _require(fp["dim"] == facts["dim"] and fp["radical_dim"] == facts["radical_dim"],
             f"fingerprint {fp}")
    _require((report["dimension"], report["multiplicity"]) == (len(facts["jm"]), "1"),
             f"(dimension, multiplicity) = ({report['dimension']}, {report['multiplicity']})")


def _minimal_exponents(exponents):
    exps = sorted({tuple(e) for e in exponents}, key=sum)
    out = []
    for e in exps:
        if not any(all(a <= b for a, b in zip(m, e)) for m in out):
            out.append(e)
    return sorted(out)


def check_hilbert(report, facts, lib):
    bound = 12
    n = len(facts["vars"])
    ideal = lib.groebner.Ideal(n, [lib.poly.Polynomial.monomial(n, e) for e in facts["exponents"]])
    prefix, _closed = lib.series.integrate_characters(
        lib.hilbert.equivariant_series_monomial(ideal, bound=bound))
    _require(_series_expansion(report, bound) == [int(c) for c in prefix.coeffs],
             "Hilbert series differs from the integrated equivariant series")


def check_monomial(report, facts, lib):
    names = facts["vars"]
    got = sorted(tuple(next(iter(lib.poly.parse_poly(line, names).terms))) for line in report)
    _require(got == _minimal_exponents(facts["exponents"]),
             f"minimal generators {report} differ from the divisibility-minimal set")


def check_cusp(report, facts, lib):
    c, depth = facts["colength"], facts["depth"]
    _require(report["dims"] == [[i, c * (i + 1)] for i in range(depth + 1)], f"dims {report['dims']}")
    _require(_series_expansion(report["series"], depth) == expand([c], [(1, 2)], depth),
             f"series is not {c}/(1-t)^2")
    _require((report["dimension"], report["multiplicity"]) == (2, str(c)),
             f"(dimension, multiplicity) = ({report['dimension']}, {report['multiplicity']})")


def check_sl2_check(report, facts, lib):
    d = facts["d"]
    _require(report["quotient_count"] == d + 1, f"quotient count {report['quotient_count']}")
    _require(report["ranks"] == list(range(d + 1, 0, -1)), f"ranks {report['ranks']}")
    _require(report["weights"] == list(range(-d, d + 1, 2)), f"weights {report['weights']}")


CHECKS = {name[len("check_"):]: fn for name, fn in globals().items() if name.startswith("check_")}
