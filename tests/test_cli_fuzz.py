"""In-process fuzz of the command line, with every warning an error.

Hypothesis draws box and measure documents (text and JSON) with magnitudes
across the float range and malformed tokens, values of --eps, --free,
--perfect-correlation and qm's flags, and the removed solve flags --out and
--free-file.  The oracle: `cli.main` returns 0, 1 or 2, or argparse raises
SystemExit(2); nothing else is raised and nothing is warned; a usage or parse
failure writes nothing to stdout; JSON stdout parses without NaN or Infinity;
and a document on stdout reads back to the same floats.
`pytest --hypothesis-show-statistics` prints the share of each exit code per
command.
"""

import contextlib
import io
import json
import os
import sys
import warnings

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import quasilocal as ql
from quasilocal import cli
from quasilocal.fileio import (box_object, format_box, format_measures, measures_object,
                               parse_box, parse_measures)
from conftest import OVERFLOWING

#: Finite floats over the whole range, its edges half of the time.
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0, 5e-324, 1e-300, 1e300, 1.5e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False))

#: Tokens that are no finite number.  No 'h', so no token is argparse's -h.
MALFORMED = st.one_of(
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "0x1p3", "1_0", "−1", "--",
                     "1" * 400, "a1", "+-", "#"]),
    st.text(alphabet="-+.#,eEinfINFaAbBj0123456789− ", max_size=6))


@st.composite
def tokens(draw, n):
    """n numbers as flag values, one of them malformed one time in four."""
    values = [repr(draw(NUMBERS)) for _ in range(n)]
    if draw(st.integers(0, 3)) == 3:
        values[draw(st.integers(0, n - 1))] = draw(MALFORMED)
    return values


FORMATS = st.sampled_from(["text", "json"])

#: --eps values, or None for no flag.
EPS = st.one_of(st.none(), st.sampled_from(["0", "1e-9", "1e300", "1.7e308"]),
                NUMBERS.map(abs).map(repr), MALFORMED)

#: Values a JSON document may hold where a number belongs.
JSON_VALUES = st.one_of(
    st.sampled_from([float("nan"), -float("inf"), 10 ** 400, True, None, "0.25", [0.25]]),
    NUMBERS, st.integers())

#: PR box minus uniform box: every block sum, marginal and relation stays put
#: along it, so only the range check sees a box moved along it.
PR_DIRECTION = ql.pr_box() - ql.uniform_box()


@st.composite
def boxes(draw):
    """16 arbitrary floats, the PR box, which solve --perfect-correlation
    takes, or a random model's image moved along PR_DIRECTION by up to the
    float maximum."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return np.array(draw(st.lists(NUMBERS, min_size=16, max_size=16)))
    if kind == 1:
        return ql.pr_box()
    weights = np.array(draw(st.lists(st.floats(0, 1), min_size=16, max_size=16))) + 1e-3
    shift = draw(st.one_of(st.floats(-1, 1), NUMBERS))
    return ql.forward_map(weights / weights.sum()) + shift * PR_DIRECTION


@st.composite
def documents(draw, vector, to_text, to_object):
    """A text or JSON document of a drawn vector, perhaps with one entry
    spoiled, or arbitrary text."""
    fmt = draw(st.sampled_from(["text", "json"] * 3 + ["any"]))
    if fmt == "any":
        return draw(st.text(max_size=40))
    v = draw(vector)
    k = draw(st.integers(0, 15))
    spoil = draw(st.integers(0, 3)) == 3
    if fmt == "text":
        lines = to_text(v).splitlines()
        if spoil:
            fields = lines[k].split()
            fields[draw(st.integers(0, len(fields) - 1))] = draw(MALFORMED)
            lines[k] = " ".join(fields)
        return "\n".join(lines) + "\n"
    doc = to_object(v)
    table = next(iter(doc.values()))
    if spoil:
        key = list(table)[k]
        if draw(st.booleans()):
            table[key] = draw(JSON_VALUES)
        else:
            table[draw(st.text(max_size=7))] = table.pop(key)
    return json.dumps(doc)


BOX_DOCUMENTS = documents(boxes(), format_box, box_object)
MEASURE_DOCUMENTS = documents(st.lists(NUMBERS, min_size=16, max_size=16).map(np.array),
                              format_measures, measures_object)


def _reject(constant):
    raise ValueError(f"JSON stdout holds {constant}")


def check(argv, stdin, fmt):
    """Run `quasilocal <argv>` in-process and check the oracle."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse rejected the command line
                assert exc.code == 2
                assert err.getvalue().startswith("usage: ")
                code = exc.code
    finally:
        sys.stdin = saved
    out = out.getvalue()
    event(f"{argv[0]} exits {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    if out and fmt == "json":
        json.loads(out, parse_constant=_reject)
    if code == 0 and argv[0] in ("solve", "forward", "qm"):
        parse, render = ((parse_measures, format_measures) if argv[0] == "solve"
                         else (parse_box, format_box))
        document = render(parse(out))
        assert fmt == "json" or document in out
    return code


# two inputs that crashed once, which random draws reach rarely: a report
# holding inf, and a JSON integer too large for a float
@example(command="validate", box=json.dumps(box_object(OVERFLOWING)), fmt="json", eps="1e300")
@example(command="chsh", box='{"probabilities": {"a1+b1+": 1' + "0" * 400 + "}}", fmt="text",
         eps=None)
@settings(max_examples=150)
@given(command=st.sampled_from(["validate", "chsh", "negativity", "solve"]),
       box=BOX_DOCUMENTS, fmt=FORMATS, eps=EPS)
def test_box_commands_exit_0_1_or_2_without_a_warning(command, box, fmt, eps):
    argv = [command, "--format", fmt] + ([] if eps is None else [f"--eps={eps}"])
    check(argv, box, fmt)


#: solve's flags: --free, --perfect-correlation with its value, and the
#: combinations the parser rejects: --perfect-correlation without a value,
#: the removed --m16, and --free with --perfect-correlation.
SOLVE_FLAGS = st.one_of(
    tokens(7).map(lambda t: ["--free", *t]),
    tokens(1).map(lambda t: ["--perfect-correlation", *t]),
    st.sampled_from([[], ["--perfect-correlation"], ["--m16", "0"],
                     ["--perfect-correlation", "0", "--free", *"0000000"]]))


@settings(max_examples=150)
@given(box=BOX_DOCUMENTS, fmt=FORMATS, eps=EPS, flags=SOLVE_FLAGS,
       removed=st.sampled_from([None] * 4 + ["--out", "--free-file"]))
def test_solve_flags_exit_0_1_or_2_without_a_warning(box, fmt, eps, flags, removed):
    argv = ["solve", "--format", fmt, *flags] + ([] if eps is None else [f"--eps={eps}"])
    code = check(argv + ([] if removed is None else [removed, os.devnull]), box, fmt)
    assert code == 2 or removed is None


@given(measures=MEASURE_DOCUMENTS, fmt=FORMATS, eps=EPS)
def test_forward_exits_0_1_or_2_without_a_warning(measures, fmt, eps):
    argv = ["forward", "--format", fmt] + ([] if eps is None else [f"--eps={eps}"])
    check(argv, measures, fmt)


AMPLITUDES = st.one_of(NUMBERS.map(repr), st.complex_numbers(allow_nan=False,
                                                             allow_infinity=False).map(str))


@given(state=st.one_of(st.just("singlet"), MALFORMED,
                       st.lists(AMPLITUDES, min_size=4, max_size=4).map(",".join)),
       angles=st.one_of(st.none(), tokens(4)),
       fmt=FORMATS)
def test_qm_exits_0_1_or_2_without_a_warning(state, angles, fmt):
    mode = ["--maximize"] if angles is None else ["--angles", *angles]
    check(["qm", f"--state={state}", *mode, "--format", fmt], "", fmt)
