"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 precondition failure,
4 internal inconsistency.
"""

import argparse
import functools
import json
import sys

from .derivations import monomialize, tangent_derivations
from .errors import AlgebroidError, InconsistencyError, ParseError, PreconditionError
from .hilbert import hilbert_series_quotient
from .liealg import fibre_lie_algebra
from .pipeline import (analyze_singularity, analyze_toral, covariants_report,
                       parse_input)
from .poly import format_poly
from .repmod import sl2_algebroid_filtration
from .series import RationalSeries, quasi_polynomial_of


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
    else:
        for v in obj:
            if isinstance(v, (dict, list)):
                _pretty(v, indent + 1)
            else:
                print(f"{pad}- {v}")


def cmd_analyze(args):
    spec = _read_spec(args.file)
    report = analyze_singularity(spec, mode=args.mode, series_depth=args.series_depth)
    _emit(report.to_json(), args.json)


def cmd_toral(args):
    spec = _read_spec(args.file)
    report = analyze_toral(spec)
    _emit(report.to_json(), args.json)


def cmd_tangent(args):
    spec = _read_spec(args.file)
    dm = tangent_derivations(spec.ideal())
    for delta in dm.generators:
        print(delta.format(spec.varnames))


def cmd_fibre(args):
    spec = _read_spec(args.file)
    dm = tangent_derivations(spec.ideal())
    algebra, _basis = fibre_lie_algebra(dm, require_origin=dm.all_vanish_at_origin())
    _emit(algebra.to_json(), True)


def cmd_monomial(args):
    spec = _read_spec(args.file)
    monos = monomialize(spec.ideal())
    if monos is None:
        raise PreconditionError("not monomial with respect to coordinate torus")
    for m in monos:
        print(format_poly(m, spec.varnames))


def cmd_hilbert(args):
    spec = _read_spec(args.file)
    rs = hilbert_series_quotient(spec.ideal())
    _emit(rs.to_json(), True)


def cmd_covariant(args):
    report = covariants_report(args.degree, args.depth)
    _emit(report.to_json(), args.json)


def cmd_quasipoly(args):
    try:
        obj = json.loads(args.series)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad series JSON: {exc}")
    rs = RationalSeries.from_json(obj)
    qp = quasi_polynomial_of(rs)
    _emit(qp.to_json(), True)


def cmd_sl2_check(args):
    result = sl2_algebroid_filtration(args.d)
    out = {
        "quotient_count": result["quotient_count"],
        "ranks": result["ranks"],
        "weights": result["weights"],
        "quotient_scalars": [str(c) for c in result["quotient_scalars"]],
        "half_factor_confirmed": result["half_factor_confirmed"],
    }
    _emit(out, True)


FILE = ("file", {})
JSON = ("--json", {"action": "store_true"})

# name: (help, handler, arguments as (name or flag, keywords) of add_argument)
COMMANDS = {
    "analyze": ("full singularity report", cmd_analyze, [
        FILE,
        ("--mode", {"choices": ["tangent", "tjurina-algebroid"], "default": "tangent"}),
        ("--series-depth", {"type": int, "default": 8}),
        JSON]),
    "toral": ("toral/monomial report", cmd_toral, [FILE, JSON]),
    "tangent": ("print tangential derivation generators", cmd_tangent, [FILE]),
    "fibre": ("fibre Lie algebra as JSON", cmd_fibre, [FILE]),
    "monomial": ("minimal monomial generators", cmd_monomial, [FILE]),
    "hilbert": ("Hilbert series of the quotient", cmd_hilbert, [FILE]),
    "covariant": ("covariant algebra series of binary forms", cmd_covariant, [
        ("--degree", {"type": int, "required": True}),
        ("--depth", {"type": int, "default": 20}),
        JSON]),
    "quasipoly": ("quasi-polynomial of a rational series", cmd_quasipoly, [
        ("--series", {"required": True, "help": "series JSON"})]),
    "sl2-check": ("rank-one filtration over the sl2 algebroid", cmd_sl2_check, [
        ("--d", {"type": int, "required": True})]),
}


@functools.cache
def build_parser():
    """The parser of every command, built once per process."""
    parser = argparse.ArgumentParser(prog="algebroids",
                                     description="Exact singularity and Lie algebroid analyses")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
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
