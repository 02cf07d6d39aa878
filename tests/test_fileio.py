"""Document format tests: grammar, round trips, fixtures."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quasilocal as ql
from quasilocal import fileio
from quasilocal.fileio import (
    ParseError,
    box_object,
    fixture_path,
    format_box,
    format_measures,
    measures_object,
    parse_box,
    parse_measures,
)
from conftest import extremal_measures


def reference_parse_box(text):
    """The token-by-token reading of a box text document: the reference for
    parse_box's label table."""
    values = {}
    count = 0
    for lineno, line in fileio._clean_lines(text):
        tokens = line.split()
        if len(tokens) != 5:
            raise ParseError(
                f"line {lineno}: expected 'a<j> <+/-> b<k> <+/-> <value>', got {line!r}")
        j = fileio._setting(tokens[0], "a", lineno)
        m = fileio._outcome(tokens[1], lineno)
        k = fileio._setting(tokens[2], "b", lineno)
        n = fileio._outcome(tokens[3], lineno)
        value = fileio._parse_number(tokens[4], lineno)
        idx = ql.prob_index(j, k, m, n)
        if idx in values:
            raise ParseError(f"line {lineno}: duplicate entry {ql.PROB_LABELS[idx]!r}")
        values[idx] = value
        count += 1
    if count != 16:
        raise ParseError(f"box document has {count} data lines, expected 16")
    return fileio._fill(values, "box", ql.PROB_LABELS)


def reference_format_measures(m, comments=()):
    """The line-by-line rendering of a measure text document: the reference
    for format_measures' template."""
    values = np.asarray(m, dtype=float).tolist()
    lines = [f"{pattern} {fileio.format_value(v)}"
             for pattern, v in zip(ql.STRATEGY_PATTERNS, values, strict=True)]
    lines.extend(f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


#: Finite floats, with signed zeros and magnitudes near 1e-300 and 1e300.
EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324,
                                         1.7976931348623157e308, 0.1, 1 / 3]),
                        st.floats(allow_nan=False, allow_infinity=False))
FIXTURE_BOXES = ("deterministic.box", "prbox.box", "tsirelson.box", "uniform.box",
                 "broken-normalization.box", "broken-signaling.box")


#: Tokens that are wrong in some or every label slot.
BAD_LABEL_TOKENS = ("a3", "b0", "c1", "A", "a1b", "b1", "a2", "+", "-", "−", "*", "+-", "x")


@st.composite
def box_documents(draw):
    """The 16 labels in any order, in random case and with either minus sign,
    with at times a bad label token, a dropped line or a duplicated one."""
    lines = []
    for i in draw(st.permutations(range(16))):
        label = ql.PROB_LABELS[i]
        tokens = [draw(st.sampled_from([label[0:2], label[0:2].upper()])),
                  label[2] if label[2] == "+" else draw(st.sampled_from("-−")),
                  draw(st.sampled_from([label[3:5], label[3:5].upper()])),
                  label[5] if label[5] == "+" else draw(st.sampled_from("-−")),
                  repr(draw(st.floats(0.0, 1.0)))]
        lines.append(tokens)
    if draw(st.booleans()):
        lines[draw(st.integers(0, 15))][draw(st.integers(0, 3))] = draw(
            st.sampled_from(BAD_LABEL_TOKENS))
    edit = draw(st.sampled_from(["none", "drop", "duplicate"]))
    if edit == "drop":
        del lines[draw(st.integers(0, 15))]
    elif edit == "duplicate":
        lines.insert(draw(st.integers(0, 16)), list(lines[draw(st.integers(0, 15))]))
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

def test_box_text_roundtrip_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.uniform(0.0, 1.0, 16)
        assert np.array_equal(parse_box(format_box(p)), p)


def test_measures_text_roundtrip_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.uniform(-2.0, 2.0, 16)
        assert np.array_equal(parse_measures(format_measures(m)), m)


def test_box_json_roundtrip():
    p = ql.tsirelson_box()
    doc = json.dumps(box_object(p))
    assert np.array_equal(parse_box(doc), p)


def test_measures_json_roundtrip():
    m = extremal_measures()
    doc = json.dumps(measures_object(m))
    assert np.array_equal(parse_measures(doc), m)


def test_json_with_extra_keys_is_accepted():
    obj = box_object(ql.uniform_box())
    obj["best_delta"] = 0.0
    assert np.array_equal(parse_box(json.dumps(obj)), ql.uniform_box())


def test_comments_and_case_are_tolerated():
    text = format_box(ql.pr_box(), comments=["a comment"])
    shuffled = "\n".join(line.upper() for line in text.splitlines())
    assert np.array_equal(parse_box("# leading comment\n\n" + shuffled), ql.pr_box())


def test_unicode_minus_accepted_on_read():
    text = format_measures(extremal_measures()).replace("-", "−", 4)
    # only pattern/sign characters were replaced in the first lines; values
    # there are positive so the substitution touches patterns only
    parsed = parse_measures(text)
    assert np.allclose(parsed, extremal_measures())
    # every value of the PR box is nonnegative, so only signs are replaced
    box_text = format_box(ql.pr_box()).replace("-", "−")
    assert np.array_equal(parse_box(box_text), ql.pr_box())


@given(box_documents())
def test_parse_box_matches_the_token_by_token_reference(text):
    try:
        expected = reference_parse_box(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_box(text)
        assert str(err.value) == str(exc)
    else:
        assert parse_box(text).tobytes() == expected.tobytes()


@given(st.lists(EDGE_FLOATS, min_size=16, max_size=16),
       st.lists(st.text("abc #+-", max_size=5), max_size=2))
def test_text_documents_match_the_line_by_line_references(values, comments):
    m = np.array(values)
    assert format_measures(m, comments) == reference_format_measures(m, comments)
    text = format_box(m, comments)
    assert parse_box(text).tobytes() == reference_parse_box(text).tobytes() == m.tobytes()


@pytest.mark.parametrize("name", FIXTURE_BOXES)
def test_fixtures_read_and_write_as_the_line_by_line_references(name):
    text = fixture_path(name).read_text()
    p = parse_box(text)
    assert p.tobytes() == reference_parse_box(text).tobytes()
    assert format_measures(p, [name]) == reference_format_measures(p, [name])
    if not any(ql.check_consistency(p).values()):
        witness = ql.min_negativity(p).witness
        assert format_measures(witness) == reference_format_measures(witness)


def test_line_order_is_free():
    lines = format_box(ql.tsirelson_box()).strip().splitlines()
    assert np.array_equal(parse_box("\n".join(reversed(lines))), ql.tsirelson_box())


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, fragment", [
    ("a1 + b1 0.25\n" * 16, "expected"),
    (format_box(ql.uniform_box()) + "a1 + b1 + 0.25\n", "duplicate"),
    ("\n".join(format_box(ql.uniform_box()).splitlines()[:-1]) + "\n", "15 data lines"),
    ("a1 + c1 + 0.25\n" * 16, "expected b1 or b2"),
    ("a1 + b1 + nope\n" * 16, "not a number"),
    ("a1 + b1 + inf\n" * 16, "not finite"),
    ('{"wrong": {}}', "probabilities"),
    ('{"probabilities": {"a1+b1+": "x"}}', "non-numeric"),
    ('{"probabilities": {"a1+b1+": true}}', "non-numeric"),
    ('{"probabilities": {"a1xb1+": 0.25}}', "bad probability label 'a1xb1\\+'"),
    ('{"probabilities": {"a1+b1+": 1' + "0" * 400 + '}}', "non-finite"),
    ('{"probabilities": {"a1+b1+": 1' + "0" * 5000 + '}}', "invalid JSON"),
    ('{not json', "invalid JSON"),
])
def test_box_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_box(text)


@pytest.mark.parametrize("text, fragment", [
    ("++++ 1 2\n" * 16, "expected"),
    ("+++ 0.5\n" * 16, "4 characters"),
    ("++*+ 0.5\n" * 16, "bad pattern"),
    (format_measures(np.full(16, 1 / 16)) + "++++ 0\n", "duplicate"),
    ('{"measures": {"++++": 1.0}}', "missing entries"),
    ('{"measures": {"++++": false}}', "non-numeric"),
])
def test_measures_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_measures(text)


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, builder", [
    ("uniform.box", ql.uniform_box),
    ("prbox.box", ql.pr_box),
    ("tsirelson.box", ql.tsirelson_box),
    ("deterministic.box", ql.deterministic_box),
])
def test_box_fixtures_match_builders(name, builder):
    p = parse_box(fixture_path(name).read_text())
    assert np.array_equal(p, builder())
    assert not any(ql.check_consistency(p).values())


def test_measures_fixture_matches_extremal_model():
    m = parse_measures(fixture_path("tsirelson.measures").read_text())
    assert np.array_equal(m, extremal_measures())
    assert format_measures(m) == reference_format_measures(m)
    assert np.allclose(ql.forward_map(m), ql.tsirelson_box(), atol=1e-15)


def test_failure_fixtures():
    bad_norm = parse_box(fixture_path("broken-normalization.box").read_text())
    assert ql.check_consistency(bad_norm)["normalization"]

    bad_signal = parse_box(fixture_path("broken-signaling.box").read_text())
    checks = ql.check_consistency(bad_signal)
    assert not checks["normalization"]
    assert checks["no_signaling"]

    with pytest.raises(ParseError):
        parse_box(fixture_path("broken-parse.box").read_text())
