"""The golden corpus: every recorded `algebroids` command, run in process,
gives the recorded stdout, stderr and exit code byte for byte.  The cases
and their inputs are in tests/golden/; tests/golden/record.py records
them."""

import json

from golden.record import CASES, PYTHON, commands, run


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
