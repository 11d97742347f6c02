"""Which functions of src/algebroids no report and no benchmark job reaches.

    python tests/reach.py

Runs every golden case of tests/golden/cases.json through `cli.main`, then
every seed-0 job of bench/workloads.py through bench/worker.py, each job
followed by its oracle, all under `sys.setprofile`.  Lists the functions and
methods defined in src/algebroids (dunder methods aside) that were never
called, and exits 0 when that list is exactly ALLOWED, 1 otherwise.  bench/
is imported read-only: no bytecode is written.  The profile hook makes the
golden corpus about three times slower, so this script is not collected by
pytest (its name does not match test_*.py).
"""

import ast
import glob
import json
import os
import sys
import tempfile

sys.dont_write_bytecode = True

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
# bench/worker.py's `import oracles` finds bench/oracles.py whatever the path
# order: the tests' own second routes are in tests/references.py
sys.path[:0] = [SRC, BENCH]

# never-called names that stay in src/, each with its reason
ALLOWED = {
    "poly.default_varnames": "formatting and repr without variable names",
    "groebner.lifts": "the tests' second route for bracket coordinates; ROADMAP item 7, stage 2",
    "groebner.GroebnerBasis.normal_form": "the remainder as a module element, which lifts reads "
                                          "and the tracer wraps; membership reads _reduce's "
                                          "fraction-free remainder",
}


def defined():
    """(source file, first line of the code object) -> `module.Qual.name` for
    every non-dunder function and method of the package, nested ones too.  A
    decorated function's code object starts at its first decorator."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, first)] = name
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(glob.glob(os.path.join(SRC, "algebroids", "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            visit(ast.parse(fh.read()), os.path.realpath(path), module + ".")
    return out


def run_golden_corpus():
    from golden.record import CASES, run
    for case in json.loads(CASES.read_text()):
        run(case["argv"])


def run_benchmark_jobs():
    """Every seed-0 job of every workload, with its oracle and report hash;
    returns the ids of the jobs that failed."""
    import run as bench_run
    import worker
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in sorted(bench_run.NOMINAL_PASS_S):
            workdir = os.path.join(tmp, workload)
            files, jobs = worker.setup(workload, 0, workdir)
            _wall, _cpu, results = worker.run_jobs(files, jobs, workdir, deadline=150.0)
            failed += [f"{r['id']}: {r['error']}" for r in results if not r["ok"]]
    return failed


def main():
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    try:
        run_golden_corpus()
        failed = run_benchmark_jobs()
    finally:
        sys.setprofile(None)
    reached = {(os.path.realpath(path), line) for path, line in called}
    never = sorted(name for key, name in defined().items() if key not in reached)
    for job in failed:
        print(f"benchmark job failed: {job}")
    print(f"{len(never)} functions of src/algebroids are never called:")
    for name in never:
        print(f"  {name}: {ALLOWED.get(name, 'NOT ALLOWED')}")
    for name in sorted(set(ALLOWED) - set(never)):
        print(f"  allowed but called: {name}")
    return 0 if not failed and never == sorted(ALLOWED) else 1


if __name__ == "__main__":
    sys.exit(main())
