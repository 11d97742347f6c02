"""The golden corpus: every recorded `algebroids` command, run in process,
gives the recorded stdout, stderr and exit code byte for byte.  The cases
and their inputs are in tests/golden/; tests/golden/record.py records
them."""

import json

from golden.record import CASES, commands, run


def test_every_golden_case_reproduces():
    cases = json.loads(CASES.read_text())
    assert [case["argv"] for case in cases] == commands()
    moved = [" ".join(case["argv"]) for case in cases
             if run(case["argv"]) != (case["exit"], "\n".join(case["stdout"]),
                                      "\n".join(case["stderr"]))]
    assert not moved, f"{len(moved)} of {len(cases)} reports moved: {moved}"
