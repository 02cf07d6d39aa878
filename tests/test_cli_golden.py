"""Byte-identical CLI output on the bundled fixtures.

tests/golden_cli.json holds the exit code and the exact stdout of every
command in CASES.  The test compares bytes, not values within a tolerance,
so a change that moves one printed digit fails it.  When an output change is
intended, regenerate the file and review its diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from quasilocal import cli
from quasilocal.fileio import fixture_path

GOLDEN = Path(__file__).with_name("golden_cli.json")
FIXTURES = tuple(sorted(path.name for path in fixture_path("").iterdir()
                        if path.suffix in (".box", ".measures")))
BOXES = tuple(name for name in FIXTURES if name.endswith(".box"))
FORMATS = ("text", "json")
#: (|00> + i|11>)/sqrt(2), whose x-z block has rank one (README).
I_BELL = "0.7071067811865476,0,0,0.7071067811865476j"


def _cases() -> dict[str, tuple[list[str], list[str] | None]]:
    """Case id -> (argv, argv whose stdout is the case's stdin, or None).
    A fixture name in argv stands for its bundled path."""
    cases = {}
    for command in ("validate", "chsh", "solve", "negativity", "forward"):
        for name in FIXTURES:
            for fmt in FORMATS:
                cases[f"{command} {name} {fmt}"] = ([command, name, "--format", fmt], None)
    for name in BOXES:
        for fmt in FORMATS:
            cases[f"solve {name} | forward {fmt}"] = (["forward", "-", "--format", fmt],
                                                      ["solve", name, "--format", fmt])
            cases[f"solve --free {name} {fmt}"] = (
                ["solve", name, "--free", "0.125", "0", "-0.25", "0", "0", "0.5", "-0.0625",
                 "--format", fmt], None)
            cases[f"solve --perfect-correlation {name} {fmt}"] = (
                ["solve", name, "--perfect-correlation", "0.25", "--format", fmt], None)
    for label, state in (("singlet", "singlet"), ("i-bell", I_BELL)):
        for fmt in FORMATS:
            cases[f"qm {label} --maximize {fmt}"] = (
                ["qm", "--state", state, "--maximize", "--format", fmt], None)
    return cases


CASES = _cases()


def _resolve(argv):
    return [str(fixture_path(a)) if a in FIXTURES else a for a in argv]


def run_case(argv, stdin_argv=None) -> tuple[int, str]:
    """(exit code, stdout) of `quasilocal <argv>`, run in-process; stderr is
    discarded."""
    stdin = "" if stdin_argv is None else run_case(stdin_argv)[1]
    out = io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(_resolve(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical_to_golden(golden, case):
    code, stdout = run_case(*CASES[case])
    assert code == golden[case]["exit"]
    assert stdout == golden[case]["stdout"]


if __name__ == "__main__":
    records = {}
    for case, (argv, stdin_argv) in CASES.items():
        code, stdout = run_case(argv, stdin_argv)
        records[case] = {"exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}")
