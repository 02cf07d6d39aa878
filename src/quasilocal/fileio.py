"""Text and JSON documents for boxes and measure vectors: one grammar, two kinds.

A document has 16 entries, a label and a number each, every label exactly
once and in any order.  A box labels each joint probability p(a_j = m,
b_k = n) with its settings and outcomes; a measure document labels each
strategy's weight, which may be negative, with its outcome pattern (slot
order a1, b1, a2, b2).  In text an entry is one line, '#' starts a comment
and blank lines are ignored:

    a1 + b1 + 0.42677669529663687
    +++- 0.0625

In JSON the entries are the object under the key "probabilities" (labels
like "a1+b1+") or "measures" (patterns like "+++-"); other top-level keys
are ignored.  Labels are read with the settings in either case and the minus
sign as '-' or U+2212, and written lowercase with '-'.  A value must be a
finite number.  Values are written with 17 significant digits, so a
write/read round trip is exact.

A malformed document raises ParseError with one of these messages, where
<noun> is 'probability label' or 'pattern' and <kind> is 'box' or 'measure';
a message about a text line starts 'line N: ':

    expected '<syntax>', got '<line>'        (a text line with too few or too many tokens)
    bad <noun> '<label as written>'
    duplicate <noun> '<canonical label>'
    <noun> '<label>' has non-numeric value <repr>, or has non-finite value <repr>
    <kind> document is missing entries: <labels>
    invalid JSON document: <reason>
    JSON <kind> document needs a "<key>" object
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .model import PROB_LABELS, STRATEGY_PATTERNS, _shaped16


class ParseError(ValueError):
    """A box or measure document is malformed."""


#: How a value is written: 17 significant digits round-trip every float.
_VALUE = "%.17g"


def format_value(value: float) -> str:
    return _VALUE % value


def _cut(label: str, cuts: tuple) -> tuple:
    """The tokens of a label on a text line: the label split at cuts."""
    return tuple(label[i:j] for i, j in zip((0, *cuts), (*cuts, None)))


#: Every spelling accepted on read of a character of a canonical label.
_SPELLINGS = {"a": "aA", "b": "bB", "-": "-−"}


class _Kind(NamedTuple):
    name: str           # 'box' or 'measure'
    key: str            # the key of a JSON document's entries
    noun: str           # what messages call a label
    syntax: str         # a text line, for messages
    labels: tuple       # the canonical labels, in canonical order
    cuts: tuple         # token boundaries of a label on a text line
    lookup: dict        # label tokens, in every accepted spelling -> canonical index
    template: str       # a text document's 16 lines, one value slot each


def _kind(name, key, noun, syntax, labels, cuts) -> _Kind:
    lookup = {_cut("".join(spelling), cuts): i for i, label in enumerate(labels)
              for spelling in itertools.product(*(_SPELLINGS.get(c, c) for c in label))}
    template = "".join(" ".join((*_cut(label, cuts), _VALUE)) + "\n" for label in labels)
    return _Kind(name, key, noun, syntax, labels, cuts, lookup, template)


_BOX = _kind("box", "probabilities", "probability label", "a<j> <+/-> b<k> <+/-> <value>",
             PROB_LABELS, (2, 3, 5))
_MEASURE = _kind("measure", "measures", "pattern", "<pattern> <value>", STRATEGY_PATTERNS, ())


def _error(lineno: int, message: str) -> ParseError:
    """A ParseError; one about a text line names it (a JSON entry is line 0)."""
    return ParseError(f"line {lineno}: {message}" if lineno else message)


class _Object(dict):
    """A JSON object that also keeps its (key, value) pairs, a repeated key's too."""
    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _parse(text: str, kind: _Kind) -> np.ndarray:
    """The 16 values of a document of this kind, text or JSON, in canonical order."""
    if text.lstrip().startswith("{"):
        import json

        try:    # text that starts with '{' loads as a dict or raises
            table = json.loads(text, object_pairs_hook=_Object).get(kind.key)
        except ValueError as exc:       # JSONDecodeError, or an integer literal over 4300 digits
            raise ParseError(f"invalid JSON document: {exc}") from None
        if not isinstance(table, dict):
            raise ParseError(f'JSON {kind.name} document needs a "{kind.key}" object')
        rows = [(0, [*_cut(label.strip(), kind.cuts), value]) for label, value in table.pairs]
    else:
        rows = enumerate([line.split("#", 1)[0].split() for line in text.splitlines()], start=1)
    values: list[float | None] = [None] * 16
    width, lookup = len(kind.cuts) + 2, kind.lookup
    for lineno, tokens in rows:     # tokens: the label's, then the value
        if len(tokens) != width:
            if not tokens:          # a blank or comment line
                continue
            line = text.splitlines()[lineno - 1].split("#", 1)[0].strip()
            raise _error(lineno, f"expected {kind.syntax!r}, got {line!r}")
        raw = tokens.pop()
        index = lookup.get(tuple(tokens))
        if index is None:
            raise _error(lineno, f"bad {kind.noun} {(' ' if lineno else '').join(tokens)!r}")
        if values[index] is not None:
            raise _error(lineno, f"duplicate {kind.noun} {kind.labels[index]!r}")
        try:    # a text token must read as a number; a JSON value must be one, not a string or bool
            value = float(raw) if lineno or type(raw) in (int, float) else None
        except ValueError:
            value = None
        except OverflowError:       # a JSON integer beyond the float range
            value = math.inf
        if value is None or not math.isfinite(value):
            fault = "non-numeric" if value is None else "non-finite"
            raise _error(lineno, f"{kind.noun} {kind.labels[index]!r} has {fault} value {raw!r}")
        values[index] = value
    if None in values:
        missing = ", ".join(label for label, v in zip(kind.labels, values) if v is None)
        raise ParseError(f"{kind.name} document is missing entries: {missing}")
    return np.array(values)


def _object(values: np.ndarray, kind: _Kind) -> dict:
    return {kind.key: dict(zip(kind.labels, values.tolist()))}


def _text(values: np.ndarray, kind: _Kind) -> str:
    return kind.template % tuple(values.tolist())


def parse_box(text: str) -> np.ndarray:
    """Parse a box document (text or JSON) into a canonical 16-entry array."""
    return _parse(text, _BOX)


def format_box(p, comments=()) -> str:
    """Render a probability set as a box text document, comments first."""
    return "".join(f"# {c}\n" for c in comments) + _text(_shaped16(p, "probability set"), _BOX)


def box_object(p) -> dict:
    """JSON-ready form of a probability set."""
    return _object(_shaped16(p, "probability set"), _BOX)


def parse_measures(text: str) -> np.ndarray:
    """Parse a measure document (text or JSON) into a canonical 16-entry array."""
    return _parse(text, _MEASURE)


def format_measures(m, comments=()) -> str:
    """Render a measure vector as a measure text document, comments last."""
    return _text(_shaped16(m, "measure vector"), _MEASURE) + "".join(f"# {c}\n" for c in comments)


def measures_object(m) -> dict:
    """JSON-ready form of a measure vector."""
    return _object(_shaped16(m, "measure vector"), _MEASURE)


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture document (e.g. 'prbox.box')."""
    from importlib.resources import files

    path = files("quasilocal").joinpath("fixtures", name)
    return Path(str(path))
