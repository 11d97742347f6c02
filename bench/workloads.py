"""The benchmark's workloads: seeded input files and the jobs that read them.

A job is a dict with an `id`, a `kind` (how the worker runs it), its
arguments, and a `check` naming the oracle in `oracles.py` with the facts
the oracle is given.  Everything here is plain data, so the run's process can
rebuild the same job list from the workload name and the seed alone.

The seed picks, for each input, a permutation of its variables (the order of
the `vars:` line, which is the term order's variable order) and the order of
its generators, and it makes the random monomial ideals.  Seed 0 keeps the
order written here, which is the order the tests use.  An input's policy says
how its permutation is used:

- "seed": the input is written once, in the seed's order;
- "rotations": the input is run once in each cyclic rotation of the seed's
  order, so a pass covers three of the six orders and its cost hardly
  depends on the seed;
- "fixed": the written order on every seed: the quadrics and the Fermat
  cubic, which every permutation maps to themselves, and the discriminant,
  whose cost swings 10-56 s with the order (see README.md).
"""

import random

# name, vars, weights, generators, variable-order policy, oracle facts
FIBRE_INPUTS = [
    ("quadric3", ["x1", "x2", "x3"], None, ["x1^2 + x2^2 + x3^2"], "fixed",
     {"family": "quadric", "degree": 2}),
    ("quadric4", ["x1", "x2", "x3", "x4"], None, ["x1^2 + x2^2 + x3^2 + x4^2"],
     "fixed", {"family": "quadric", "degree": 2}),
    ("whitney", ["x", "y", "z"], [1, 2, 2], ["z^2 - x^2*y"], "rotations",
     {"family": "whitney"}),
    ("d4", ["x", "y", "z"], [3, 2, 2], ["x^2 + y^2*z + z^3"], "rotations",
     {"family": "isolated", "degree": 6}),
    ("e6", ["x", "y", "z"], [6, 4, 3], ["x^2 + y^3 + z^4"], "rotations",
     {"family": "isolated", "degree": 12}),
    ("e7", ["x", "y", "z"], [9, 6, 4], ["x^2 + y^3 + y*z^3"], "rotations",
     {"family": "isolated", "degree": 18}),
    ("e8", ["x", "y", "z"], [15, 10, 6], ["x^2 + y^3 + z^5"], "rotations",
     {"family": "isolated", "degree": 30}),
    ("fermat", ["x", "y", "z"], None, ["x^3 + y^3 + z^3"], "fixed",
     {"family": "isolated", "degree": 3}),
]

DISCRIMINANT = "y^2*z^2 - 4*x*z^3 - 4*y^3*w + 18*x*y*z*w - 27*x^2*w^2"

DECOMPOSITIONS = [(6, 3), (3, 6)]
COVARIANT_DEGREES = [2, 3, 4, 5, 6]

RANDOM_MONOMIAL_IDEALS = 12
MONOMIAL_VARS = ["a", "b", "c"]


def _rng(seed, *parts):
    return random.Random("/".join([str(seed)] + [str(p) for p in parts]))


def _orders(nvars, policy, rng, seed):
    """Variable orders (index permutations) to write an input in."""
    perm = list(range(nvars))
    if policy != "fixed" and seed != 0:
        rng.shuffle(perm)
    if policy == "rotations":
        return [perm[k:] + perm[:k] for k in range(nvars)]
    return [perm]


def _input_text(varnames, weights, gens, perm):
    names = [varnames[i] for i in perm]
    lines = [f"vars: {', '.join(names)}"]
    if weights is not None:
        lines.append(f"weights: {', '.join(str(weights[i]) for i in perm)}")
    lines.append(f"ideal: {'; '.join(gens)}")
    return "\n".join(lines) + "\n"


def _seeded_inputs(workload, seed, name, varnames, weights, gens, policy):
    """(file name, file text, variable names in file order) for each order
    the input is run in."""
    rng = _rng(seed, workload, name)
    gens = list(gens)
    if seed != 0 and len(gens) > 1:
        rng.shuffle(gens)
    out = []
    for k, perm in enumerate(_orders(len(varnames), policy, rng, seed)):
        fname = f"{name}-r{k}.txt" if policy == "rotations" else f"{name}.txt"
        out.append((fname, _input_text(varnames, weights, gens, perm),
                    [varnames[i] for i in perm]))
    return out


def _random_monomial_ideal(rng):
    """Three to six distinct nonconstant monomials in three variables."""
    count = rng.randrange(3, 7)
    gens = []
    while len(gens) < count:
        exp = tuple(rng.randrange(5) for _ in MONOMIAL_VARS)
        if any(exp) and exp not in gens:
            gens.append(exp)
    return gens


def _monomial_text(exp):
    factors = [f"{v}^{e}" if e > 1 else v for v, e in zip(MONOMIAL_VARS, exp) if e]
    return "*".join(factors)


def build(workload, seed):
    """(files, jobs): input file name -> text, and the ordered job list."""
    files = {}
    jobs = []

    def add_inputs(name, varnames, weights, gens, policy):
        made = _seeded_inputs(workload, seed, name, varnames, weights, gens, policy)
        files.update((fname, text) for fname, text, _order in made)
        return [(fname, order) for fname, _text, order in made]

    def add_input(name, varnames, weights, gens, policy):
        (made,) = add_inputs(name, varnames, weights, gens, policy)
        return made

    if workload == "fibre":
        for name, varnames, weights, gens, policy, facts in FIBRE_INPUTS:
            facts = dict(facts, nvars=len(varnames),
                         weights=dict(zip(varnames, weights or [1] * len(varnames))))
            for fname, _order in add_inputs(name, varnames, weights, gens, policy):
                jobs.append({"id": f"fibre/{fname[:-4]}", "kind": "fibre",
                             "file": fname, "check": "fibre", "facts": facts})
    elif workload == "sl2-length":
        fname, _order = add_input("disc", ["x", "y", "z", "w"], None, [DISCRIMINANT], "fixed")
        jobs.append({"id": "analyze/disc", "kind": "cli",
                     "argv": ["analyze", fname, "--series-depth", "12", "--json"],
                     "check": "discriminant", "facts": {}})
        for n, d in DECOMPOSITIONS:
            jobs.append({"id": f"decompose/S{n}V{d}", "kind": "decompose",
                         "n": n, "d": d, "check": "decompose", "facts": {"n": n, "d": d}})
        for d in COVARIANT_DEGREES:
            jobs.append({"id": f"covariant/d{d}", "kind": "cli",
                         "argv": ["covariant", "--degree", str(d), "--depth", "40", "--json"],
                         "check": "covariant", "facts": {"d": d, "depth": 40}})
    elif workload == "graded-series":
        for name, gens, weights in (("fermat", ["x^3 + y^3 + z^3"], {"x": 1, "y": 1, "z": 1}),
                                    ("e6", ["x^2 + y^3 + z^4"], {"x": 6, "y": 4, "z": 3})):
            policy = "fixed" if name == "fermat" else "seed"
            fname, order = add_input(name, ["x", "y", "z"], None, gens, policy)
            degree = 3 if name == "fermat" else 12
            jobs.append({"id": f"analyze/{name}", "kind": "cli",
                         "argv": ["analyze", fname, "--series-depth", "8", "--json"],
                         "check": "graded_analyze",
                         "facts": {"weights": weights, "degree": degree, "depth": 8,
                                   "vars": order}})
        for name, varnames, gens, facts in (
                ("smooth", ["x1", "x2", "x3", "x4"], ["x1", "x2"],
                 {"jm": ["x1", "x2"], "dim": 6, "radical_dim": 3}),
                ("xy", ["x", "y"], ["x^2*y^3"],
                 {"jm": ["x", "y"], "dim": 2, "radical_dim": 2})):
            fname, _order = add_input(name, varnames, None, gens, "seed")
            jobs.append({"id": f"toral/{name}", "kind": "cli",
                         "argv": ["toral", fname, "--json"],
                         "check": "toral", "facts": facts})
        for k in range(RANDOM_MONOMIAL_IDEALS):
            exps = _random_monomial_ideal(_rng(seed, workload, "monomial", k))
            gens = [_monomial_text(e) for e in exps]
            fname = f"monomial{k}.txt"
            files[fname] = f"vars: {', '.join(MONOMIAL_VARS)}\nideal: {'; '.join(gens)}\n"
            facts = {"vars": MONOMIAL_VARS, "exponents": [list(e) for e in exps]}
            jobs.append({"id": f"hilbert/monomial{k}", "kind": "cli",
                         "argv": ["hilbert", fname], "check": "hilbert", "facts": facts})
            jobs.append({"id": f"monomial/monomial{k}", "kind": "cli",
                         "argv": ["monomial", fname], "check": "monomial", "facts": facts})
        fname, _order = add_input("cusp", ["x", "y"], None, ["x^2", "y"], "seed")
        jobs.append({"id": "graded/cusp", "kind": "graded_pieces", "file": fname,
                     "depth": 8, "check": "cusp", "facts": {"colength": 2, "depth": 8}})
        jobs.append({"id": "sl2-check/d6", "kind": "cli", "argv": ["sl2-check", "--d", "6"],
                     "check": "sl2_check", "facts": {"d": 6}})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files, jobs

