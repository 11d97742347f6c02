"""Record the golden corpus of command-line reports.

Each case is one `algebroids` command, run in process through `cli.main`
with the input files of `inputs/`, and its expected exit code, stdout and
stderr (each a list of lines, so that a re-recorded case diffs by line).
`tests/test_golden.py` runs every case and compares.  argparse's own help
and usage errors change wording between Python releases, so each of those
cases also holds the release it was recorded with; on another release only
its exit code and the streams it writes to are compared.

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
from unittest import mock

from algebroids.cli import main

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.json"
PYTHON = "%d.%d" % sys.version_info[:2]

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
# inputs that are refused while they are read: one command each, as every
# other command would only repeat the refusal
REFUSED_INPUTS = {
    # (x + y + z + w)^40 is past the desk-scale bound on the term pairs of
    # one product: a precondition failure, exit 3, before it expands
    "power_sum_40.txt": [["monomial"]],
}
QUASIPOLY_SERIES = [
    # the binary cubic's covariants, (1 - t + t^2)/((1 - t)^2 (1 - t^4))
    '{"numerator": [1, -1, 1], "denominator": [{"n": 1, "mult": 2}, {"n": 4, "mult": 1}]}',
    '{"numerator": [1], "denominator": [{"n": 2, "mult": 1}, {"n": 3, "mult": 1}]}',
    # a denominator of the wrong shape: a parse error
    '{"numerator": [1], "denominator": [[1, 3]]}',
    # period 1000003 * 1000033, past the desk-scale bound: a precondition
    # failure, exit 3, before any coefficient is expanded
    '{"numerator": [1], "denominator": [{"n": 1000003, "mult": 1}, {"n": 1000033, "mult": 1}]}',
]

# argparse's own output: help, a missing or unknown command, a missing or
# malformed argument, and a stray word after a complete command
PARSER_COMMANDS = [
    [], ["--help"], ["bogus"],
    ["analyze"], ["analyze", "--help"],
    ["covariant", "--degree", "x"], ["sl2-check"],
    ["covariant", "--degree", "2", "--depth", "3", "extra"],
]


def commands():
    """Every case's argv, input files named relative to inputs/."""
    out = []
    for path in sorted((HERE / "inputs").glob("*.txt")):
        for command in REFUSED_INPUTS.get(path.name, FILE_COMMANDS):
            out.append([command[0], path.name] + command[1:])
    for d in range(7):
        for depth in (0, 5, 12, 40):
            out.append(["covariant", "--degree", str(d), "--depth", str(depth), "--json"])
    out += [["quasipoly", "--series", s] for s in QUASIPOLY_SERIES]
    # d = 401 is past the desk-scale bound: a precondition failure, exit 3
    out += [["sl2-check", "--d", str(d)] for d in (0, 1, 2, 6, 10, 401)]
    return out + PARSER_COMMANDS


def run(argv):
    """(exit code, stdout, stderr) of `algebroids argv`, run in inputs/.

    argparse exits through SystemExit, whose status is the exit code; help
    text is wrapped at 80 columns, as on a terminal of that width."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE / "inputs")
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
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
            if argv in PARSER_COMMANDS:
                case["python"] = PYTHON
        cases.append(case)
    CASES.write_text(json.dumps(cases, indent=1) + "\n")
    return len(cases)


if __name__ == "__main__":
    print(f"{record(sys.argv[1:])} cases written to {CASES}")
