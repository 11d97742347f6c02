"""The names the benchmark in bench/ patches and calls.  A deletion or a
signature change that would break a benchmark run fails here, in the
Tier-1 suite.  bench/ is read as text, never imported or written."""

import ast
import importlib
import inspect
import os

import pytest

import algebroids
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


def _lib_path(node):
    """["repmod", "cayley_sylvester"] for the chain lib.repmod.cayley_sylvester,
    None when node is not an attribute chain rooted at the name lib."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return parts[::-1] if parts and isinstance(node, ast.Name) and node.id == "lib" else None


def oracle_lib_uses():
    """One pytest param per longest attribute chain rooted at the `lib`
    argument of a function of bench/oracles.py (the `algebroids` package the
    worker passes in): (path, (positional count, keyword names)) when the
    chain is called, (path, None) otherwise."""
    with open(os.path.join(BENCH, "oracles.py")) as fh:
        tree = ast.parse(fh.read())
    params = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or "lib" not in [a.arg for a in fn.args.args]:
            continue
        calls = {id(node.func): node for node in ast.walk(fn) if isinstance(node, ast.Call)}
        inner = {id(node.value) for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
        for node in ast.walk(fn):
            path = _lib_path(node) if id(node) not in inner else None
            if path is None:
                continue
            call = calls.get(id(node))
            if call is not None:
                assert not any(isinstance(a, ast.Starred) for a in call.args)
                assert all(k.arg is not None for k in call.keywords)
                call = (len(call.args), tuple(k.arg for k in call.keywords))
            params.append(pytest.param(".".join(path), call,
                                       id=f"{fn.name}:{'.'.join(path)}"))
    assert params, "bench/oracles.py uses no lib attribute"
    return params


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _span in tracer_targets()])
def test_tracer_target_resolves(module, path):
    owner = importlib.import_module(f"algebroids.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"algebroids.{module}.{path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("path, call", oracle_lib_uses())
def test_oracle_lib_use_resolves_and_binds(path, call):
    owner = algebroids
    for part in path.split("."):
        assert hasattr(owner, part), f"algebroids.{path} is gone"
        owner = getattr(owner, part)
    if call is not None:
        nargs, keywords = call
        inspect.signature(owner).bind(*[None] * nargs, **dict.fromkeys(keywords))


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
