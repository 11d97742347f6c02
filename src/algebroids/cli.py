"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 precondition failure,
4 internal inconsistency.
"""

import argparse
import functools
import json
import sys

from .errors import AlgebroidError, InconsistencyError, ParseError, PreconditionError
from .pipeline import (analyze_singularity, analyze_toral, covariants_report,
                       parse_input)


def _read_spec(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return parse_input(text)


def _emit(obj, as_json):
    if as_json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        _pretty(obj)


def _pretty(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _pretty(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _pretty(v, indent + 1)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{obj}")


def cmd_analyze(args):
    spec = _read_spec(args.file)
    report = analyze_singularity(spec, mode=args.mode, series_depth=args.series_depth)
    _emit(report.to_json(), args.json)


def cmd_toral(args):
    spec = _read_spec(args.file)
    report = analyze_toral(spec)
    _emit(report.to_json(), args.json)


def cmd_tangent(args):
    from .derivations import tangent_derivations
    spec = _read_spec(args.file)
    dm = tangent_derivations(spec.ideal())
    for delta in dm.generators:
        print(delta.format(spec.varnames))


def cmd_fibre(args):
    from .derivations import tangent_derivations
    from .liealg import fibre_lie_algebra
    spec = _read_spec(args.file)
    dm = tangent_derivations(spec.ideal(spec.inferred_weights()))
    algebra, _basis = fibre_lie_algebra(dm, require_origin=dm.all_vanish_at_origin())
    print(json.dumps(algebra.to_json(), indent=2, sort_keys=True))


def cmd_monomial(args):
    from .derivations import monomialize
    from .poly import format_poly
    spec = _read_spec(args.file)
    monos = monomialize(spec.ideal())
    if monos is None:
        raise PreconditionError("not monomial with respect to coordinate torus")
    for m in monos:
        print(format_poly(m, spec.varnames))


def cmd_hilbert(args):
    from .hilbert import hilbert_series_quotient
    spec = _read_spec(args.file)
    rs = hilbert_series_quotient(spec.ideal())
    print(json.dumps(rs.to_json(), indent=2, sort_keys=True))


def cmd_covariant(args):
    report = covariants_report(args.degree, args.depth)
    _emit(report.to_json(), args.json)


def cmd_quasipoly(args):
    from .series import RationalSeries, quasi_polynomial_of
    try:
        obj = json.loads(args.series)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad series JSON: {exc}")
    rs = RationalSeries.from_json(obj)
    qp = quasi_polynomial_of(rs)
    print(json.dumps(qp.to_json(), indent=2, sort_keys=True))


def cmd_sl2_check(args):
    from .repmod import sl2_algebroid_filtration
    result = sl2_algebroid_filtration(args.d)
    out = {
        "quotient_count": result["quotient_count"],
        "ranks": result["ranks"],
        "weights": result["weights"],
        "quotient_scalars": [str(c) for c in result["quotient_scalars"]],
        "half_factor_confirmed": result["half_factor_confirmed"],
    }
    print(json.dumps(out, indent=2, sort_keys=True))


@functools.cache
def build_parser():
    """The parser, built once per process and reused by every main call."""
    parser = argparse.ArgumentParser(prog="algebroids",
                                     description="Exact singularity and Lie algebroid analyses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full singularity report")
    p.add_argument("file")
    p.add_argument("--mode", choices=["tangent", "tjurina-algebroid"], default="tangent")
    p.add_argument("--series-depth", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("toral", help="toral/monomial report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_toral)

    p = sub.add_parser("tangent", help="print tangential derivation generators")
    p.add_argument("file")
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("fibre", help="fibre Lie algebra as JSON")
    p.add_argument("file")
    p.set_defaults(func=cmd_fibre)

    p = sub.add_parser("monomial", help="minimal monomial generators")
    p.add_argument("file")
    p.set_defaults(func=cmd_monomial)

    p = sub.add_parser("hilbert", help="Hilbert series of the quotient")
    p.add_argument("file")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("covariant", help="covariant algebra series of binary forms")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_covariant)

    p = sub.add_parser("quasipoly", help="quasi-polynomial of a rational series")
    p.add_argument("--series", required=True, help="series JSON")
    p.set_defaults(func=cmd_quasipoly)

    p = sub.add_parser("sl2-check", help="rank-one filtration over the sl2 algebroid")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_sl2_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 4
    except AlgebroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
