"""Document format tests: grammar, round trips, fixtures."""

import json

import numpy as np
import pytest

import quasilocal as ql
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

RT2 = np.sqrt(2.0)


def extremal_measures():
    m = np.full(16, (1 + RT2) / 16)
    m[list(ql.SIGMA1_STRATEGIES)] = (1 - RT2) / 16
    return m


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
    assert ql.is_consistent(p)


def test_measures_fixture_matches_extremal_model():
    m = parse_measures(fixture_path("tsirelson.measures").read_text())
    assert np.array_equal(m, extremal_measures())
    assert np.allclose(ql.forward_map(m), ql.tsirelson_box(), atol=1e-15)


def test_failure_fixtures():
    bad_norm = parse_box(fixture_path("broken-normalization.box").read_text())
    assert ql.check_normalization(bad_norm)

    bad_signal = parse_box(fixture_path("broken-signaling.box").read_text())
    assert not ql.check_normalization(bad_signal)
    assert ql.check_no_signaling(bad_signal)

    with pytest.raises(ParseError):
        parse_box(fixture_path("broken-parse.box").read_text())
