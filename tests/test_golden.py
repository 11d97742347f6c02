"""The golden corpus: every recorded `algebroids` command, run in process,
gives the recorded stdout, stderr and exit code byte for byte.  The cases
and their inputs are in tests/golden/; tests/golden/record.py records
them."""

import json

import pytest

from algebroids.derivations import quasi_homogeneous_weights
from algebroids.pipeline import parse_input
from golden.record import CASES, FILE_COMMANDS, HERE, PYTHON, commands, run


def _reproduces(case, python=PYTHON):
    """Whether `case` runs as recorded on Python release `python`: byte for
    byte, except argparse's own text recorded on another release, whose exit
    code and written streams alone are compared."""
    got = run(case["argv"])
    want = (case["exit"], "\n".join(case["stdout"]), "\n".join(case["stderr"]))
    if case.get("python", python) != python:
        got, want = [(code, bool(out), bool(err)) for code, out, err in (got, want)]
    return got == want


def test_every_golden_case_reproduces():
    cases = json.loads(CASES.read_text())
    assert [case["argv"] for case in cases] == commands()
    moved = [" ".join(case["argv"]) for case in cases if not _reproduces(case)]
    assert not moved, f"{len(moved)} of {len(cases)} reports moved: {moved}"


def test_parser_cases_on_another_release_compare_exit_code_and_streams():
    cases = [case for case in json.loads(CASES.read_text()) if "python" in case]
    assert len(cases) == 8
    assert all(_reproduces(case, python="0.0") for case in cases)
    # help goes to stdout with exit 0, a usage error to stderr with exit 2
    help_case = next(case for case in cases if case["argv"] == ["--help"])
    assert not _reproduces(dict(help_case, exit=2), python="0.0")
    assert not _reproduces(dict(help_case, stdout=[""]), python="0.0")


@pytest.mark.parametrize("name", ["whitney.txt", "d4.txt", "e7.txt", "e8.txt",
                                  "readme_example.txt"])
def test_a_weights_line_equal_to_the_inferred_weights_changes_no_report(name, tmp_path):
    # every file subcommand grades its input the same way, so deleting a
    # weights: line that states the inferred weights moves no report
    text = (HERE / "inputs" / name).read_text()
    spec = parse_input(text)
    assert spec.weights == quasi_homogeneous_weights(spec.gens[0])[0]
    unweighted = tmp_path / name
    unweighted.write_text("".join(line for line in text.splitlines(keepends=True)
                                  if not line.startswith("weights:")))
    assert parse_input(unweighted.read_text()).weights is None
    cases = {tuple(case["argv"]): case for case in json.loads(CASES.read_text())}
    for command in FILE_COMMANDS:
        case = cases[(command[0], name, *command[1:])]
        got = run([command[0], str(unweighted)] + command[1:])
        assert got == (case["exit"], "\n".join(case["stdout"]), "\n".join(case["stderr"])), command
