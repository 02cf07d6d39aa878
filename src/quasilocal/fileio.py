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
import math
from pathlib import Path

import numpy as np

from .model import (
    PROB_LABELS,
    STRATEGY_PATTERNS,
    char_outcome,
    prob_index,
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
    if not math.isfinite(value):
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
    return doc      # text that starts with '{' loads as a dict or raises


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
    return np.array([values[i] for i in range(16)])


# ---------------------------------------------------------------------------
# Box documents
# ---------------------------------------------------------------------------

def _box_label_index(label: str) -> int:
    """Index of a JSON box label such as 'a1+b1+': its four parts, the tokens of a data line."""
    s = label.strip()
    index = _BOX_LINE_INDEX.get((s[0:2], s[2], s[3:5], s[5])) if len(s) == 6 else None
    if index is None:
        raise ParseError(f"bad probability label {label!r}")
    return index


#: (a-setting, sign, b-setting, sign) tokens of a box data line -> canonical
#: index: every spelling _setting and _outcome accept, settings in either case.
_BOX_LINE_INDEX = {(a, m, b, n): prob_index(j, k, char_outcome(m), char_outcome(n))
                   for j in (1, 2) for k in (1, 2) for a in (f"a{j}", f"A{j}")
                   for b in (f"b{k}", f"B{k}") for m in "+-−" for n in "+-−"}


def parse_box(text: str) -> np.ndarray:
    """Parse a box document (text or JSON) into a canonical 16-entry array."""
    doc = _maybe_json(text)
    if doc is not None:
        table = doc.get("probabilities")
        if not isinstance(table, dict):
            raise ParseError('JSON box document needs a "probabilities" object')
        entries: dict[int, float] = {}
        for label, value in table.items():
            idx = _box_label_index(str(label))
            if idx in entries:
                raise ParseError(f"duplicate probability entry {PROB_LABELS[idx]!r}")
            entries[idx] = _json_number(value, f"probability {label!r}")
        return _fill(entries, "box", PROB_LABELS)

    values: list[float | None] = [None] * 16
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 5:
            raise ParseError(f"line {lineno}: expected 'a<j> <+/-> b<k> <+/-> <value>', "
                             f"got {raw.split('#', 1)[0].strip()!r}")
        idx = _BOX_LINE_INDEX.get((tokens[0], tokens[1], tokens[2], tokens[3]))
        if idx is None:
            # a bad label token: reading token by token raises the ParseError naming it
            j, m = _setting(tokens[0], "a", lineno), _outcome(tokens[1], lineno)
            k, n = _setting(tokens[2], "b", lineno), _outcome(tokens[3], lineno)
            idx = prob_index(j, k, m, n)
        value = _parse_number(tokens[4], lineno)
        if values[idx] is not None:
            raise ParseError(f"line {lineno}: duplicate entry {PROB_LABELS[idx]!r}")
        values[idx] = value
    if None in values:      # a 17th line would be a duplicate
        raise ParseError(f"box document has {16 - values.count(None)} data lines, expected 16")
    return np.array(values)


def format_box(p, comments=()) -> str:
    """Render a probability set as a box text document."""
    values = np.asarray(p, dtype=float).tolist()
    lines = [f"# {c}" for c in comments]
    lines.extend(f"{label[0:2]} {label[2]} {label[3:5]} {label[5]} {format_value(v)}"
                 for label, v in zip(PROB_LABELS, values, strict=True))
    return "\n".join(lines) + "\n"


def box_object(p) -> dict:
    """JSON-ready form of a probability set."""
    values = np.asarray(p, dtype=float).tolist()
    return {"probabilities": dict(zip(PROB_LABELS, values, strict=True))}


# ---------------------------------------------------------------------------
# Measure documents
# ---------------------------------------------------------------------------

#: Inverse of STRATEGY_PATTERNS: canonical pattern -> strategy index.
_PATTERN_INDEX = {pattern: i for i, pattern in enumerate(STRATEGY_PATTERNS)}


def _pattern_strategy(token: str, where: str) -> int:
    """Strategy index of a pattern; where ('line N: ', or '' for a JSON key) prefixes an error."""
    pattern = token.strip().replace("−", "-")
    index = _PATTERN_INDEX.get(pattern)
    if index is None:
        if len(pattern) != 4:
            raise ParseError(f"{where}pattern must have 4 characters, got {token!r}")
        raise ParseError(f"{where}bad pattern {token!r}")
    return index


def parse_measures(text: str) -> np.ndarray:
    """Parse a measure document (text or JSON) into a canonical 16-entry array."""
    doc = _maybe_json(text)
    values: dict[int, float] = {}
    if doc is not None:
        table = doc.get("measures")
        if not isinstance(table, dict):
            raise ParseError('JSON measure document needs a "measures" object')
        for pattern, value in table.items():
            idx = _pattern_strategy(str(pattern), "")
            if idx in values:
                raise ParseError(f"duplicate pattern {STRATEGY_PATTERNS[idx]!r}")
            values[idx] = _json_number(value, f"pattern {pattern!r}")
        return _fill(values, "measure", STRATEGY_PATTERNS)

    for lineno, line in _clean_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected '<pattern> <value>', got {line!r}")
        idx = _pattern_strategy(tokens[0], f"line {lineno}: ")
        value = _parse_number(tokens[1], lineno)
        if idx in values:
            raise ParseError(f"line {lineno}: duplicate pattern {STRATEGY_PATTERNS[idx]!r}")
        values[idx] = value
    if len(values) != 16:
        raise ParseError(f"measure document has {len(values)} data lines, expected 16")
    return _fill(values, "measure", STRATEGY_PATTERNS)


#: A measure text document without comments, one %.17g slot per strategy.
_MEASURES_TEMPLATE = "".join(f"{pattern} %.17g\n" for pattern in STRATEGY_PATTERNS)


def format_measures(m, comments=()) -> str:
    """Render a measure vector as a measure text document."""
    values = np.asarray(m, dtype=float).tolist()
    return _MEASURES_TEMPLATE % tuple(values) + "".join(f"# {c}\n" for c in comments)


def measures_object(m) -> dict:
    """JSON-ready form of a measure vector."""
    values = np.asarray(m, dtype=float).tolist()
    return {"measures": dict(zip(STRATEGY_PATTERNS, values, strict=True))}


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------

def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture document (e.g. 'prbox.box')."""
    from importlib.resources import files

    path = files("quasilocal").joinpath("fixtures", name)
    return Path(str(path))
