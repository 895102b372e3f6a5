"""Print the lines of src/relfix/ that the tier-1 tests never run.

Runs pytest in this process, with criterion 8 deselected (it takes most of
tier-1's time and reaches no line the rest misses), under a sys.settrace hook
that records only frames of modules under src/relfix/.  Then, for each module,
prints the executable lines (from the code objects' co_lines) that never ran.
Tests that run relfix in a subprocess are not traced.  Stdlib and pytest only:

    PYTHONPATH=src python .github/uncovered.py [extra pytest arguments]

Exits with pytest's status.
"""
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "relfix"
ran: dict[str, set[int]] = {}


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(SRC)):
        return None
    lines = ran.setdefault(frame.f_code.co_filename, set())
    lines.add(frame.f_lineno)  # the call itself: a def line or a generator resuming

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local

    return local


def executable(code) -> set[int]:
    out = {line for _, _, line in code.co_lines() if line}  # line 0 is a module's RESUME
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= executable(const)
    return out


if __name__ == "__main__":
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect",
                              "tests/test_acceptance.py::test_criterion_8_cartesian_classification",
                              *sys.argv[1:]])
    finally:
        sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = sorted(executable(code) - ran.get(str(path), set()))
        print(f"{path.relative_to(SRC.parent.parent)}: {len(missed)} lines never run"
              + (f": {', '.join(map(str, missed))}" if missed else ""))
    sys.exit(int(status))
