"""Text and JSON formats for probability sets and measure vectors.

Box documents (probability sets) are 16 data lines of the form

    a1 + b1 + 0.42677669529663687

listing setting labels, outcomes, and the joint probability; '#' starts a
comment and blank lines are ignored.  Measure documents are 16 lines of

    +++- 0.0625

pairing a 4-character outcome pattern (slot order a1, b1, a2, b2) with a
weight, which may be negative.  Each combination must appear exactly once,
in any order.  Labels are case-insensitive on read and written lowercase;
the minus sign is ASCII '-' (U+2212 is accepted on input).  Values are
written with 17 significant digits so a write/read round trip is exact.

Both formats also have a JSON alternative: an object with key
"probabilities" (labels like "a1+b1+") or "measures" (patterns like "+++-")
mapping to numbers.  Extra top-level keys are ignored on read.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import (
    PROB_LABELS,
    STRATEGY_PATTERNS,
    char_outcome,
    prob_index,
    strategy_index,
)


class ParseError(ValueError):
    """A box or measure document is malformed."""


def format_value(value: float) -> str:
    return f"{value:.17g}"


def _clean_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_number(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {token!r} is not a number") from None
    if not np.isfinite(value):
        raise ParseError(f"line {lineno}: value {token!r} is not finite")
    return value


def _setting(token: str, party: str, lineno: int) -> int:
    label = token.lower()
    if label in (f"{party}1", f"{party}2"):
        return int(label[1])
    raise ParseError(f"line {lineno}: expected {party}1 or {party}2, got {token!r}")


def _outcome(token: str, lineno: int) -> int:
    try:
        return char_outcome(token)
    except ValueError:
        raise ParseError(f"line {lineno}: expected '+' or '-', got {token!r}") from None


def _maybe_json(text: str) -> dict | None:
    if not text.lstrip().startswith("{"):
        return None
    try:
        doc = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer literal over 4300 digits
        raise ParseError(f"invalid JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("JSON document must be an object")
    return doc


_FLOAT_MAX = float(np.finfo(float).max)


def _json_number(value, what: str) -> float:
    """A JSON value that must be a finite number: true and false are not,
    though bool is a subclass of int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} has non-numeric value {value!r}")
    # also rejects NaN, infinities and integers too large for a float
    if not abs(value) <= _FLOAT_MAX:
        raise ParseError(f"{what} has non-finite value {value!r}")
    return float(value)


def _fill(values: dict[int, float], kind: str, labels) -> np.ndarray:
    missing = [labels[i] for i in range(16) if i not in values]
    if missing:
        raise ParseError(f"{kind} document is missing entries: {', '.join(missing)}")
    out = np.empty(16)
    for i, v in values.items():
        out[i] = v
    return out


# ---------------------------------------------------------------------------
# Box documents
# ---------------------------------------------------------------------------

def _box_label_index(label: str) -> int:
    text = label.strip().lower().replace("−", "-")
    if len(text) != 6:
        raise ParseError(f"bad probability label {label!r}")
    try:
        j = _setting(text[0:2], "a", 0)
        m = char_outcome(text[2])
        k = _setting(text[3:5], "b", 0)
        n = char_outcome(text[5])
    except ParseError:
        raise ParseError(f"bad probability label {label!r}") from None
    return prob_index(j, k, m, n)


def parse_box(text: str) -> np.ndarray:
    """Parse a box document (text or JSON) into a canonical 16-entry array."""
    doc = _maybe_json(text)
    values: dict[int, float] = {}
    if doc is not None:
        table = doc.get("probabilities")
        if not isinstance(table, dict):
            raise ParseError('JSON box document needs a "probabilities" object')
        for label, value in table.items():
            idx = _box_label_index(str(label))
            if idx in values:
                raise ParseError(f"duplicate probability entry {PROB_LABELS[idx]!r}")
            values[idx] = _json_number(value, f"probability {label!r}")
        return _fill(values, "box", PROB_LABELS)

    count = 0
    for lineno, line in _clean_lines(text):
        tokens = line.split()
        if len(tokens) != 5:
            raise ParseError(
                f"line {lineno}: expected 'a<j> <+/-> b<k> <+/-> <value>', got {line!r}")
        j = _setting(tokens[0], "a", lineno)
        m = _outcome(tokens[1], lineno)
        k = _setting(tokens[2], "b", lineno)
        n = _outcome(tokens[3], lineno)
        value = _parse_number(tokens[4], lineno)
        idx = prob_index(j, k, m, n)
        if idx in values:
            raise ParseError(f"line {lineno}: duplicate entry {PROB_LABELS[idx]!r}")
        values[idx] = value
        count += 1
    if count != 16:
        raise ParseError(f"box document has {count} data lines, expected 16")
    return _fill(values, "box", PROB_LABELS)


def format_box(p, comments=()) -> str:
    """Render a probability set as a box text document."""
    p = np.asarray(p, dtype=float)
    lines = [f"# {c}" for c in comments]
    for i in range(16):
        label = PROB_LABELS[i]
        lines.append(f"{label[0:2]} {label[2]} {label[3:5]} {label[5]} {format_value(p[i])}")
    return "\n".join(lines) + "\n"


def box_object(p) -> dict:
    """JSON-ready form of a probability set."""
    p = np.asarray(p, dtype=float)
    return {"probabilities": {PROB_LABELS[i]: float(p[i]) for i in range(16)}}


# ---------------------------------------------------------------------------
# Measure documents
# ---------------------------------------------------------------------------

def _pattern_strategy(token: str, lineno: int = 0) -> int:
    pattern = token.strip().replace("−", "-")
    if len(pattern) != 4:
        raise ParseError(f"line {lineno}: pattern must have 4 characters, got {token!r}")
    try:
        return strategy_index(*(char_outcome(c) for c in pattern))
    except ValueError:
        raise ParseError(f"line {lineno}: bad pattern {token!r}") from None


def parse_measures(text: str) -> np.ndarray:
    """Parse a measure document (text or JSON) into a canonical 16-entry array."""
    doc = _maybe_json(text)
    values: dict[int, float] = {}
    if doc is not None:
        table = doc.get("measures")
        if not isinstance(table, dict):
            raise ParseError('JSON measure document needs a "measures" object')
        for pattern, value in table.items():
            idx = _pattern_strategy(str(pattern))
            if idx in values:
                raise ParseError(f"duplicate pattern {STRATEGY_PATTERNS[idx]!r}")
            values[idx] = _json_number(value, f"pattern {pattern!r}")
        return _fill(values, "measure", STRATEGY_PATTERNS)

    count = 0
    for lineno, line in _clean_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected '<pattern> <value>', got {line!r}")
        idx = _pattern_strategy(tokens[0], lineno)
        value = _parse_number(tokens[1], lineno)
        if idx in values:
            raise ParseError(f"line {lineno}: duplicate pattern {STRATEGY_PATTERNS[idx]!r}")
        values[idx] = value
        count += 1
    if count != 16:
        raise ParseError(f"measure document has {count} data lines, expected 16")
    return _fill(values, "measure", STRATEGY_PATTERNS)


def format_measures(m, comments=()) -> str:
    """Render a measure vector as a measure text document."""
    m = np.asarray(m, dtype=float)
    lines = [f"{STRATEGY_PATTERNS[i]} {format_value(m[i])}" for i in range(16)]
    lines.extend(f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


def measures_object(m) -> dict:
    """JSON-ready form of a measure vector."""
    m = np.asarray(m, dtype=float)
    return {"measures": {STRATEGY_PATTERNS[i]: float(m[i]) for i in range(16)}}


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------

def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture document (e.g. 'prbox.box')."""
    from importlib.resources import files

    path = files("quasilocal").joinpath("fixtures", name)
    return Path(str(path))
