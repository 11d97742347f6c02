"""Record the golden corpus of command-line reports.

Each case is one `algebroids` command, run in process through `cli.main`
with the input files of `inputs/`, and its expected exit code, stdout and
stderr (each a list of lines, so that a re-recorded case diffs by line).  `tests/test_golden.py` runs every case and compares.

    PYTHONPATH=src python tests/golden/record.py             # every case
    PYTHONPATH=src python tests/golden/record.py fibre e6.txt  # only these

With arguments, only the cases whose command line contains every argument
as a word are run again; every other case keeps its recorded output.  A
change that moves a report on purpose re-records only the cases it moves.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from algebroids.cli import main

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.json"

FILE_COMMANDS = [
    ["analyze"],
    ["analyze", "--json"],
    ["analyze", "--mode", "tjurina-algebroid", "--json"],
    ["tangent"],
    ["fibre"],
    ["toral", "--json"],
    ["hilbert"],
    ["monomial"],
]
QUASIPOLY_SERIES = [
    # the binary cubic's covariants, (1 - t + t^2)/((1 - t)^2 (1 - t^4))
    '{"numerator": [1, -1, 1], "denominator": [{"n": 1, "mult": 2}, {"n": 4, "mult": 1}]}',
    '{"numerator": [1], "denominator": [{"n": 2, "mult": 1}, {"n": 3, "mult": 1}]}',
    # a denominator of the wrong shape: a parse error
    '{"numerator": [1], "denominator": [[1, 3]]}',
]


def commands():
    """Every case's argv, input files named relative to inputs/."""
    out = []
    for path in sorted((HERE / "inputs").glob("*.txt")):
        for command in FILE_COMMANDS:
            out.append([command[0], path.name] + command[1:])
    for d in range(7):
        for depth in (0, 5, 12, 40):
            out.append(["covariant", "--degree", str(d), "--depth", str(depth), "--json"])
    out += [["quasipoly", "--series", s] for s in QUASIPOLY_SERIES]
    out += [["sl2-check", "--d", str(d)] for d in (0, 1, 2, 6, 10)]
    return out


def run(argv):
    """(exit code, stdout, stderr) of `algebroids argv`, run in inputs/."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE / "inputs")
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue(), stderr.getvalue()


def record(words=()):
    old = {}
    if words and CASES.exists():
        old = {tuple(c["argv"]): c for c in json.loads(CASES.read_text())}
    cases = []
    for argv in commands():
        case = old.get(tuple(argv))
        if case is None or all(w in argv for w in words):
            code, out, err = run(argv)
            case = {"argv": argv, "exit": code,
                    "stdout": out.split("\n"), "stderr": err.split("\n")}
        cases.append(case)
    CASES.write_text(json.dumps(cases, indent=1) + "\n")
    return len(cases)


if __name__ == "__main__":
    print(f"{record(sys.argv[1:])} cases written to {CASES}")
