"""Document format tests: grammar, round trips, messages, fixtures."""

import json
import math

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


def _sign(outcome):
    return "+" if outcome == ql.PLUS else "-"


#: Label tokens, lowercase and with the ASCII minus, -> canonical index, read
#: off the encoding tables rather than fileio's own.
REFERENCE_BOX_TABLE = {(f"a{j}", _sign(m), f"b{k}", _sign(n)): i
                       for i, (j, k, m, n) in enumerate(ql.PROB_EVENTS)}
REFERENCE_MEASURE_TABLE = {("".join(map(_sign, outcomes)),): i
                           for i, outcomes in enumerate(ql.STRATEGY_OUTCOMES)}


def reference_parse(text, table, kind, noun, syntax):
    """The token-by-token reading of a text document: each data line is a
    label's tokens, read lowercase and with U+2212 as '-', then a value."""
    labels = {i: "".join(tokens) for tokens, i in table.items()}
    width = len(next(iter(table))) + 1
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        data = line.split("#", 1)[0].strip()
        if not data:
            continue
        *label, token = tokens = data.split()
        if len(tokens) != width:
            raise ParseError(f"line {lineno}: expected {syntax!r}, got {data!r}")
        i = table.get(tuple(t.lower().replace("\u2212", "-") for t in label))
        if i is None:
            raise ParseError(f"line {lineno}: bad {noun} {' '.join(label)!r}")
        if i in values:
            raise ParseError(f"line {lineno}: duplicate {noun} {labels[i]!r}")
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"line {lineno}: {noun} {labels[i]!r} has non-numeric value "
                             f"{token!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: {noun} {labels[i]!r} has non-finite value {token!r}")
        values[i] = value
    missing = [labels[i] for i in range(16) if i not in values]
    if missing:
        raise ParseError(f"{kind} document is missing entries: {', '.join(missing)}")
    return np.array([values[i] for i in range(16)])


def reference_parse_box(text):
    """The reference for parse_box's label table and checks, on text."""
    return reference_parse(text, REFERENCE_BOX_TABLE, "box", "probability label",
                           "a<j> <+/-> b<k> <+/-> <value>")


def reference_parse_measures(text):
    """The reference for parse_measures' label table and checks, on text."""
    return reference_parse(text, REFERENCE_MEASURE_TABLE, "measure", "pattern",
                           "<pattern> <value>")


def reference_format_measures(m, comments=()):
    """The line-by-line rendering of a measure text document: the reference
    for format_measures' template."""
    values = np.asarray(m, dtype=float).tolist()
    lines = [f"{pattern} {fileio.format_value(v)}"
             for pattern, v in zip(ql.STRATEGY_PATTERNS, values, strict=True)]
    lines.extend(f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


def reference_format_box(p, comments=()):
    """The line-by-line rendering of a box text document: the reference for
    format_box's template."""
    values = np.asarray(p, dtype=float).tolist()
    lines = [f"# {c}" for c in comments]
    lines.extend(f"{spaced(label)} {fileio.format_value(v)}"
                 for label, v in zip(ql.PROB_LABELS, values, strict=True))
    return "\n".join(lines) + "\n"


def spaced(label):
    """A label's tokens on a text line: 'a1+b1+' is 'a1 + b1 +', a pattern one token."""
    return f"{label[0:2]} {label[2]} {label[3:5]} {label[5]}" if len(label) == 6 else label


#: Finite floats, with signed zeros and magnitudes near 1e-300 and 1e300.
EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324,
                                         1.7976931348623157e308, 0.1, 1 / 3]),
                        st.floats(allow_nan=False, allow_infinity=False))
FIXTURE_BOXES = ("deterministic.box", "prbox.box", "tsirelson.box", "uniform.box",
                 "broken-normalization.box", "broken-signaling.box")
KINDS = {"box": (ql.PROB_LABELS, parse_box, reference_parse_box),
         "measure": (ql.STRATEGY_PATTERNS, parse_measures, reference_parse_measures)}

#: Tokens that are wrong in some or every label slot.
BAD_LABEL_TOKENS = ("a3", "b0", "c1", "A", "a1b", "b1", "a2", "+", "-", "\u2212", "*", "+-", "x",
                    "+++", "++*+", "+++++", "a1+b1+", "\u2212\u2212\u2212\u2212")
#: Value tokens that are not finite numbers.
BAD_VALUE_TOKENS = ("nope", "inf", "-Infinity", "nan", "1e999", "0x1", "1,5", "--1", "true")


@st.composite
def documents(draw, labels):
    """Text documents of the 16 labels in any order, settings in random case
    and either minus sign, between comments and blank lines, with at times a
    bad label or value token, a token too many or too few, a dropped line or
    a repeated one."""
    lines = []
    for i in draw(st.permutations(range(16))):
        spelled = "".join(draw(st.sampled_from({"a": "aA", "b": "bB", "-": "-\u2212"}.get(c, c)))
                          for c in labels[i])
        lines.append([*spaced(spelled).split(), repr(draw(EDGE_FLOATS))])
    fault = draw(st.sampled_from(["none", "label", "value", "count", "drop", "repeat"]))
    row = lines[draw(st.integers(0, 15))]
    if fault == "label":
        row[draw(st.integers(0, len(row) - 2))] = draw(st.sampled_from(BAD_LABEL_TOKENS))
    elif fault == "value":
        row[-1] = draw(st.sampled_from(BAD_VALUE_TOKENS))
    elif fault == "count" and draw(st.booleans()):
        del row[draw(st.integers(0, len(row) - 1))]
    elif fault == "count":
        row.insert(draw(st.integers(0, len(row))), "0.5")
    elif fault == "drop":
        lines.remove(row)
    elif fault == "repeat":
        lines.insert(draw(st.integers(0, 16)), list(row))
    text = []
    for tokens in lines:
        text.extend(draw(st.lists(st.sampled_from(["", "# a comment", "  \t"]), max_size=1)))
        line = draw(st.sampled_from([" ", "  ", "\t"])).join(tokens)
        text.append(line + draw(st.sampled_from(["", " # note", "#"])))
    return "\n".join(text) + "\n"


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


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_parsers_match_the_token_by_token_references(kind, data):
    labels, parse, reference = KINDS[kind]
    text = data.draw(documents(labels))
    try:
        expected = reference(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == str(exc)
    else:
        assert parse(text).tobytes() == expected.tobytes()


@given(st.lists(EDGE_FLOATS, min_size=16, max_size=16),
       st.lists(st.text("abc #+-", max_size=5), max_size=2))
def test_text_documents_match_the_line_by_line_references(values, comments):
    m = np.array(values)
    assert format_measures(m, comments) == reference_format_measures(m, comments)
    assert parse_measures(format_measures(m)).tobytes() == m.tobytes()
    text = format_box(m, comments)
    assert text == reference_format_box(m, comments)
    assert parse_box(text).tobytes() == reference_parse_box(text).tobytes() == m.tobytes()


@pytest.mark.parametrize("name", FIXTURE_BOXES)
def test_fixtures_read_and_write_as_the_line_by_line_references(name):
    text = fixture_path(name).read_text()
    p = parse_box(text)
    assert p.tobytes() == reference_parse_box(text).tobytes()
    assert format_box(p, [name]) == reference_format_box(p, [name])
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

def json_error(text):
    """The message of a document json.loads rejects: it names json's own reason."""
    try:
        json.loads(text)
    except ValueError as exc:
        return f"invalid JSON document: {exc}"
    raise AssertionError(f"json.loads accepts {text!r}")


BOX_SYNTAX = "expected 'a<j> <+/-> b<k> <+/-> <value>'"
HUGE_INT = "1" + "0" * 400
TOO_LONG = '{"probabilities": {"a1+b1+": 1' + "0" * 5000 + '}}'


@pytest.mark.parametrize("text, message", [
    ("a1 + b1 0.25\n" * 16, f"line 1: {BOX_SYNTAX}, got 'a1 + b1 0.25'"),
    (format_box(ql.uniform_box()) + "a1 + b1 + 0.25\n", "line 17: duplicate probability label 'a1+b1+'"),
    ("\n".join(format_box(ql.uniform_box()).splitlines()[:-1]) + "\n",
     "box document is missing entries: a2-b2-"),
    ("a1 + c1 + 0.25\n" * 16, "line 1: bad probability label 'a1 + c1 +'"),
    ("a1 + b1 + nope\n" * 16, "line 1: probability label 'a1+b1+' has non-numeric value 'nope'"),
    ("a1 + b1 + inf\n" * 16, "line 1: probability label 'a1+b1+' has non-finite value 'inf'"),
    ('{"wrong": {}}', 'JSON box document needs a "probabilities" object'),
    ('{"probabilities": {"a1+b1+": "x"}}', "probability label 'a1+b1+' has non-numeric value 'x'"),
    ('{"probabilities": {"a1+b1+": true}}', "probability label 'a1+b1+' has non-numeric value True"),
    ('{"probabilities": {"a1xb1+": 0.25}}', "bad probability label 'a1xb1+'"),
    ('{"probabilities": {"a1+b1+": %s}}' % HUGE_INT,
     f"probability label 'a1+b1+' has non-finite value {HUGE_INT}"),
    (TOO_LONG, json_error(TOO_LONG)),
    ('{not json', json_error('{not json')),
], ids=["token-count", "duplicate", "missing", "bad-label", "non-numeric", "non-finite",
        "no-object", "json-string", "json-bool", "json-bad-label", "json-huge-int",
        "json-too-long", "invalid-json"])
def test_box_parse_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_box(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("++++ 1 2\n" * 16, "line 1: expected '<pattern> <value>', got '++++ 1 2'"),
    ("+++ 0.5\n" * 16, "line 1: bad pattern '+++'"),
    ("++*+ 0.5\n" * 16, "line 1: bad pattern '++*+'"),
    (format_measures(np.full(16, 1 / 16)) + "++++ 0\n", "line 17: duplicate pattern '++++'"),
    ('{"measures": {"++++": 1.0}}', "measure document is missing entries: "
     + ", ".join(ql.STRATEGY_PATTERNS[1:])),
    ('{"measures": {"++++": false}}', "pattern '++++' has non-numeric value False"),
], ids=["token-count", "short-pattern", "bad-pattern", "duplicate", "missing", "json-bool"])
def test_measures_parse_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_measures(text)
    assert str(err.value) == message


def document(kind, fmt, entries):
    """A text or JSON document of (label, value as written) entries."""
    if fmt == "text":
        return "".join(f"{spaced(label)} {value}\n" for label, value in entries)
    body = ", ".join(f"{json.dumps(label)}: {value}" for label, value in entries)
    return '{"%s": {%s}}' % ("probabilities" if kind == "box" else "measures", body)


def fault_cases():
    """(kind, format, fault, document, message): every fault of the message
    table in fileio's docstring, for both kinds and both formats."""
    for kind, (labels, _, _) in KINDS.items():
        noun = "probability label" if kind == "box" else "pattern"
        key = "probabilities" if kind == "box" else "measures"
        bad, respelled = ("a1+c1+", "A1+B1\u2212") if kind == "box" else ("++*+", "+++\u2212")
        entries = [(label, "0.25") for label in labels]
        first = labels[0]
        for fmt in ("text", "json"):
            line_1, line_17 = ("line 1: ", "line 17: ") if fmt == "text" else ("", "")
            written = spaced(bad) if fmt == "text" else bad
            text_or_json = {"text": ("nope", "inf", "'inf'"), "json": ('"nope"', "Infinity", "inf")}
            non_numeric, non_finite, shown = text_or_json[fmt]
            yield (kind, fmt, "unknown label", entries + [(bad, "0.25")],
                   f"{line_17}bad {noun} {written!r}")
            yield (kind, fmt, "repeated label", entries + [(respelled, "0.25")],
                   f"{line_17}duplicate {noun} {labels[1]!r}")
            # json.loads alone keeps the last of two identical keys
            yield (kind, fmt, "label repeated as written", entries + [(labels[1], "0.5")],
                   f"{line_17}duplicate {noun} {labels[1]!r}")
            yield (kind, fmt, "non-numeric value", [(first, non_numeric)] + entries[1:],
                   f"{line_1}{noun} {first!r} has non-numeric value 'nope'")
            yield (kind, fmt, "non-finite value", [(first, non_finite)] + entries[1:],
                   f"{line_1}{noun} {first!r} has non-finite value {shown}")
            yield (kind, fmt, "absent entries", entries[2:],
                   f"{kind} document is missing entries: {first}, {labels[1]}")
        syntax = "a<j> <+/-> b<k> <+/-> <value>" if kind == "box" else "<pattern> <value>"
        yield (kind, "text", "token count", [(first, "0.25 0.5")] + entries[1:],
               f"line 1: expected {syntax!r}, got '{spaced(first)} 0.25 0.5'")
        yield (kind, "json", "no entries object", '{"%s": [1]}' % key,
               f'JSON {kind} document needs a "{key}" object')
        yield kind, "json", "invalid JSON", "{" + key, json_error("{" + key)


FAULT_CASES = list(fault_cases())


@pytest.mark.parametrize("kind, fmt, fault, entries, message", FAULT_CASES,
                         ids=["-".join(case[:3]) for case in FAULT_CASES])
def test_each_fault_has_one_message_for_both_kinds_and_formats(kind, fmt, fault, entries,
                                                                 message):
    text = entries if isinstance(entries, str) else document(kind, fmt, entries)
    with pytest.raises(ParseError) as err:
        KINDS[kind][1](text)
    assert str(err.value) == message


@pytest.mark.parametrize("writer, name", [
    (format_box, "probability set"), (box_object, "probability set"),
    (format_measures, "measure vector"), (measures_object, "measure vector"),
])
@pytest.mark.parametrize("shape", [(15,), (17,), (4, 4), ()])
def test_writers_name_a_wrong_length(writer, name, shape):
    with pytest.raises(ValueError) as err:
        writer(np.zeros(shape))
    assert str(err.value) == f"{name} must have exactly 16 entries, got shape {shape}"


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
