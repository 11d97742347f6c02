"""The names the benchmark in bench/ patches and calls.  A deletion or a
signature change that would break a benchmark run fails here, in the
Tier-1 suite.  bench/ is read as text, never imported or written."""

import ast
import importlib
import inspect
import os

import pytest

from algebroids.derivations import quasi_homogeneous_weights
from algebroids.hilbert import graded_pieces_series
from algebroids.pipeline import InputSpec, covariants_report, parse_input

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def tracer_targets():
    """TARGETS of bench/tracer.py, a literal list of (module, path, span)."""
    with open(os.path.join(BENCH, "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _span in tracer_targets()])
def test_tracer_target_resolves(module, path):
    owner = importlib.import_module(f"algebroids.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"algebroids.{module}.{path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def test_bench_calls_bind():
    # bench/worker.py and bench/oracles.py call these positionally
    inspect.signature(graded_pieces_series).bind(None, "ring", depth=8)
    inspect.signature(covariants_report).bind(3, 12)
    inspect.signature(InputSpec.ideal).bind(None, (1, 2, 2))
    # the fibre job grades by the first entry of (weights, degree)
    spec = parse_input("vars: x, y, z\nideal: z^2 - x^2*y\n")
    weights, degree = quasi_homogeneous_weights(spec.gens[0])
    assert (weights, degree) == ((1, 2, 2), 4)
    assert spec.ideal(weights).weights == weights
