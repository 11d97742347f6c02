"""End-to-end analyses: singularity reports, toral reports, covariant series
reports, and the shared input-file format."""

from types import SimpleNamespace

from . import linalg
from .derivations import (jacobian_ideal, krull_dimension, monomialize,
                          quasi_homogeneous_weights, tangent_derivations)
from .errors import InconsistencyError, ParseError, PreconditionError
from .groebner import Ideal
from .hilbert import dimension_multiplicity, graded_pieces_series
from .liealg import fibre_lie_algebra, span_lie_algebra
from .poly import _Tokens, format_poly, parse_poly, wdeg
from .repmod import MatrixRep, covariant_dimensions, decompose_sl2, sym_kernel_dims
from .series import (RationalSeries, SeriesPrefix, quasi_polynomial_of,
                     reconstruct_rational)

# denominators of the covariant algebras of binary forms of low degree
COVARIANT_DENOMINATORS = {
    0: [(1, 1)],
    1: [(1, 1)],
    2: [(1, 1), (2, 1)],
    3: [(1, 2), (4, 1)],
}


class InputSpec:
    """Parsed input file: variable names, optional weights, ideal generators."""

    __slots__ = ("varnames", "weights", "gens")

    def __init__(self, varnames, weights, gens):
        self.varnames = varnames
        self.weights = weights
        self.gens = gens

    def ideal(self, weights=None):
        """The ideal, graded by `weights` when given.  Otherwise this is the
        one place that decides an input's weights: the `weights:` line, else
        the quasi-homogeneous weights of a single nonzero generator, else all
        ones.  Zero generators are dropped first, so they change nothing."""
        gens = [g for g in self.gens if not g.is_zero()]
        w = weights or self.weights
        if w is None and len(gens) == 1:
            found = quasi_homogeneous_weights(gens[0])
            w = found[0] if found else None
        return Ideal(len(self.varnames), gens, w)


def parse_input(text):
    """Parse the `vars:` / `weights:` / `ideal:` line format.  Each key occurs
    once; a `#` starts a comment that runs to the end of its line."""
    varnames = None
    weights = None
    ideal_text = None
    seen = set()
    for raw in text.splitlines():
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key in seen:
            raise ParseError(f"repeated {key!r} declaration")
        seen.add(key)
        if key == "vars":
            varnames = [v.strip() for v in value.split(",") if v.strip()]
            if not varnames:
                raise ParseError("empty vars declaration")
            for i, name in enumerate(varnames):
                # a name the polynomial grammar cannot read as one variable
                if _Tokens(name).toks != [("name", name)]:
                    raise ParseError(f"bad variable name {name!r}")
                if name in varnames[:i]:
                    raise ParseError(f"repeated variable {name!r}")
        elif key == "weights":
            try:
                weights = tuple(int(v.strip()) for v in value.split(","))
            except ValueError:
                raise ParseError("weights must be integers")
            if any(w <= 0 for w in weights):
                raise ParseError("weights must be positive")
        elif key == "ideal":
            ideal_text = value
        else:
            raise ParseError(f"unknown key {key!r}")
    if varnames is None:
        raise ParseError("missing vars declaration")
    if ideal_text is None:
        raise ParseError("missing ideal declaration")
    if weights is not None and len(weights) != len(varnames):
        raise ParseError("need one weight per variable")
    gens = []
    for part in ideal_text.split(";"):
        part = part.strip()
        if part:
            gens.append(parse_poly(part, varnames))
    if not gens:
        raise ParseError("ideal has no generators")
    return InputSpec(varnames, weights, gens)


class SingularityReport(SimpleNamespace):
    """The fields analyze_singularity computes; to_json writes the report."""

    def to_json(self):
        names = self.varnames
        out = {
            "ideal": [format_poly(g, names) for g in self.gens],
            "weights": list(self.weights),
            "quasi_homogeneous": self.quasi_homogeneous,
            "mode": self.mode,
            "tangent_generators": [d.format(names) for d in self.tangent_generators],
            "logarithmic_at_origin": self.logarithmic_at_origin,
            "jacobian_ideal": [format_poly(g, names) for g in self.jacobian_gens],
            "colength": self.colength,
            "isolated": self.isolated,
            "fibre_algebra": self.fibre.to_json() if self.fibre else None,
            "fingerprint": self.fingerprint,
            "solvable": self.solvable,
            "oracle_checks": self.oracle_checks,
        }
        if self.series is not None:
            out["series"] = self.series.to_json()
            out["dimension"] = self.dimension
            out["multiplicity"] = str(self.multiplicity)
        if self.series_note:
            out["series_note"] = self.series_note
        return out


def _min_degree(f):
    return min(map(wdeg, f.terms))


def _is_complete_intersection(ideal):
    """Whether the generators of a quasi-homogeneous ideal form a regular
    sequence.  The graded polynomial ring is Cohen-Macaulay, so forms are a
    regular sequence exactly when their number equals the height of the
    ideal they generate: a certified test, not a heuristic."""
    return len(ideal.gens) == ideal.nvars - krull_dimension(ideal)


def _levi_action(algebra, basis_derivations):
    """MatrixRep of the derived subalgebra of the fibre on V = m/m^2 when
    that subalgebra is a form of sl2 (3-dimensional, Killing rank 3), else
    None."""
    derived = algebra.derived_subalgebra_basis()
    if len(derived) != 3:
        return None
    sub = span_lie_algebra(derived, lambda a, b: algebra.bracket(derived[a], derived[b]))
    if linalg.rank(sub.killing_matrix()) != 3:
        return None
    parts = [delta.linear_part() for delta in basis_derivations]
    return MatrixRep(sub, [[linalg.combine(coeffs, cols) for cols in zip(*parts)]
                           for coeffs in derived])


def _sl2_covariant_path(algebra, basis_derivations, depth):
    """Length series via covariant dimensions when the derived subalgebra of
    the fibre acts as a form of sl2 on V = m/m^2: V = sum V_k over Q-bar
    (decompose_sl2), then dim ker e on S^n(V) by weight counting; returns
    (dims, series) or None."""
    rep = _levi_action(algebra, basis_derivations)
    if rep is None:
        return None
    dims = sym_kernel_dims(decompose_sl2(rep), depth)
    factors = COVARIANT_DENOMINATORS.get(rep.dim - 1)
    if factors is None:
        return dims, None
    series = reconstruct_rational(SeriesPrefix(dims), factors)
    return dims, series


def analyze_singularity(spec, mode="tangent", series_depth=8):
    """Full singularity analysis of the ideal in an InputSpec."""
    if mode not in ("tangent", "tjurina-algebroid"):
        raise ParseError(f"unknown mode {mode!r}")
    if series_depth < 0:
        raise PreconditionError(f"series depth must be >= 0, got {series_depth}")
    ideal = spec.ideal()
    quasi = ideal.is_quasi_homogeneous()
    jac = jacobian_ideal(ideal)
    # the reduced basis is unique, so it may start from the minimal generators
    jac_min = Ideal(jac.nvars, jac.minimal_generators(), jac.weights)
    colength = None if jac_min.is_unit() else jac_min.colength()
    isolated = colength is not None
    principal = len(ideal.gens) == 1

    target = ideal if mode == "tangent" else jac_min
    dm = tangent_derivations(target)
    logarithmic = dm.all_vanish_at_origin()

    fibre = None
    fingerprint = None
    solvable = None
    basis_derivations = None
    if quasi:
        fibre, basis_derivations = fibre_lie_algebra(dm, require_origin=logarithmic)
        fingerprint = fibre.fingerprint()
        solvable = fingerprint["solvable"]

    oracle_checks = {}
    if solvable is not None:
        if mode == "tangent":
            check, scope = "isolated_regular_sequence_solvable", "isolated regular-sequence"
            in_scope = (isolated
                        and all(_min_degree(g) >= 2 for g in ideal.gens)
                        and _is_complete_intersection(ideal)
                        and (not principal or _min_degree(ideal.gens[0]) >= 3))
        else:
            check, scope = "jacobian_algebroid_solvable", "Jacobian-algebroid"
            in_scope = principal and _min_degree(ideal.gens[0]) >= 3 and isolated
        if in_scope:
            oracle_checks[check] = solvable
            if not solvable:
                raise InconsistencyError(f"CONTRADICTS-PAPER: {scope} fibre not solvable")

    series = None
    series_note = None
    dimension = None
    multiplicity = None
    cov = None
    if fibre is not None and not solvable and logarithmic:
        # m-adic length series through the Levi of the fibre acting on m/m^2;
        # that action needs fields vanishing at the origin.  A field that
        # moves the origin makes a singular point non-isolated (below).
        cov = _sl2_covariant_path(fibre, basis_derivations, max(series_depth, 12))
    if solvable and isolated:
        graded = graded_pieces_series(jac_min, "ring", depth=series_depth,
                                      solvable_certificate=True)
        series = graded.series
        dimension = graded.dimension
        multiplicity = graded.multiplicity
    elif cov is not None:
        _dims, series = cov
        if series is not None:
            dimension, multiplicity = dimension_multiplicity(series)
        else:
            series_note = "length dims computed; no builtin denominator"
    elif isolated:
        series_note = "length not certified"
    else:
        series_note = "series out of scope (non-isolated)"

    return SingularityReport(
        varnames=spec.varnames, gens=spec.gens, weights=ideal.weights,
        quasi_homogeneous=quasi, mode=mode,
        tangent_generators=dm.generators, logarithmic_at_origin=logarithmic,
        jacobian_gens=jac_min.gens, colength=colength,
        isolated=isolated, fibre=fibre, fingerprint=fingerprint,
        solvable=solvable, oracle_checks=oracle_checks, series=series,
        series_note=series_note, dimension=dimension, multiplicity=multiplicity)


class ToralReport(SimpleNamespace):
    """The fields analyze_toral computes; to_json writes the report."""

    def to_json(self):
        names = self.varnames
        return {
            "monomial_generators": [format_poly(g, names) for g in self.monomial_gens],
            # x_i d_i is in T(I) for every monomial ideal (analyze_toral)
            "toral_fields_contained": True,
            "jm_generators": [names[i] for i in self.jm_variables],
            "v_dimension": self.v_dimension,
            "fibre_algebra": self.fibre.to_json(),
            "fingerprint": self.fingerprint,
            "series": self.series.to_json(),
            "dimension": self.dimension,
            "multiplicity": str(self.multiplicity),
            # each x_i d_i acts on every generator by a scalar (analyze_toral)
            "scalar_connection_check": True,
        }


def analyze_toral(spec):
    """Toral analysis of a monomial ideal I, generated by the x^a of its
    minimal exponents a: J_m, the fibre Lie algebra, and the series
    1/(1 - t)^r of V = span of the x_i, i in J_m.

    A monomial lies in I exactly when some generator divides it, so every
    fact is read off the exponents:
    - d_i x^a = a_i x^(a - 1_i).  When a_i > 0, x^(a - 1_i) is a proper
      divisor of the minimal generator x^a, so no generator divides it and
      d_i x^a is not in I.  J_m, the i with d_i not in T(I), is therefore
      the set of variables that occur in a generator.
    - x_i d_i x^a = a_i x^a: each toral field x_i d_i maps every generator
      into I, so it lies in T(I), and it acts on x^a by the scalar a_i.
    - 1/(1 - t)^r has a pole of order r at t = 1, and (1 - t)^r times it is
      1 there: (d, e) = (r, 1).
    """
    nvars = len(spec.varnames)
    ideal = spec.ideal()
    monos = monomialize(ideal)
    if monos is None:
        raise PreconditionError("not monomial with respect to coordinate torus")
    jm_vars = [i for i in range(nvars) if any(a[i] for g in monos for a in g.terms)]
    r = len(jm_vars)
    dm = tangent_derivations(Ideal(nvars, monos, ideal.weights))
    fibre, _basis = fibre_lie_algebra(dm, require_origin=False)
    return ToralReport(
        varnames=spec.varnames, monomial_gens=monos, jm_variables=jm_vars,
        v_dimension=r, fibre=fibre, fingerprint=fibre.fingerprint(),
        series=RationalSeries([1], [(1, 1)] * r), dimension=r, multiplicity=1)


class CovariantReport(SimpleNamespace):
    """The fields covariants_report computes; to_json writes the report."""

    def to_json(self):
        out = {"degree": self.degree, "depth": self.depth, "dims": self.dims,
               "series": self.series.to_json() if self.series is not None else None}
        if self.quasi is not None:
            out["quasi_polynomial"] = self.quasi.to_json()
        if self.dimension is not None:
            out["dimension"] = self.dimension
            out["multiplicity"] = str(self.multiplicity)
        return out


def covariants_report(d, depth):
    """Series of the covariant algebra of binary forms of degree d."""
    if not (0 <= d <= 6 and 0 <= depth <= 40):
        raise PreconditionError("outside desk scale (need 0 <= d <= 6, 0 <= N <= 40)")
    factors = COVARIANT_DENOMINATORS.get(d)
    fit_depth = depth
    if factors is not None:
        # the series depends on d alone: fit it on at least twice the
        # denominator's degree, enough to certify its numerator at any depth
        fit_depth = max(depth, 2 * sum(n * e for n, e in factors))
    dims = covariant_dimensions(d, fit_depth)
    series = None
    quasi = None
    dim = mult = None
    if factors is not None:
        series = reconstruct_rational(SeriesPrefix(dims), factors)
        quasi = quasi_polynomial_of(series)
        dim, mult = dimension_multiplicity(series, quasi)
    return CovariantReport(degree=d, depth=depth, dims=dims[:depth + 1], series=series,
                           quasi=quasi, dimension=dim, multiplicity=mult)
