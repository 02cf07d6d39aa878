"""Core model of a 2-party / 2-setting / 2-outcome correlation experiment.

Two parties each choose one of two measurement settings (a1/a2 for party A,
b1/b2 for party B) and record an outcome of +1 or -1.  A deterministic local
strategy fixes all four outcomes at once; there are 16 such strategies, and a
signed weight vector over them (a *measure vector*) induces the 16 joint
probabilities p(a_j = m, b_k = n) by summing the weights of the strategies
compatible with each event.

This module pins the canonical encodings (strategy order, probability order),
the linear forward map from measures to probabilities, the consistency checks
a probability set must satisfy (block normalization, no-signaling, and the
derived-entry relations equivalent to their conjunction), and the CHSH
machinery: correlation coefficients, the 8 CHSH sign variants, and the
paper's necessity argument for each of them (sigma_minus): a measure vector
whose box violates a variant carries negative weight.  A variant is its row v
of CHSH_MATRIX, an integer in 0..7; CHSH_VARIANTS[v] names it, and row 0 is
the canonical variant.

The encodings are stated once, as two tables: STRATEGY_OUTCOMES, the
outcomes (a1, b1, a2, b2) of each strategy, and PROB_EVENTS, the event
(j, k, m, n) of each probability.  Every index, label and permutation is
read off them, FORWARD_MATRIX too, and every other constant map is derived
from FORWARD_MATRIX at import: the relation table DEPENDENT_SIGNS (a least-squares
solution, rounded by _exact) and the strategies' CHSH values, whose
signs pick the strategies sigma_minus sums.  An index is read by indexing a
table: STRATEGY_OUTCOMES[i] and PROB_EVENTS[i], or their labels
STRATEGY_PATTERNS[i] ('+++-') and PROB_LABELS[i] ('a1+b1+');
STRATEGY_OUTCOMES.index((a1, b1, a2, b2)) and PROB_EVENTS.index((j, k, m, n))
go the other way.

Everything here is a pure function of immutable values.  The result records
(the four violation types and ChshReport) are typing.NamedTuples: immutable,
compared and hashed by field.  Measure vectors and probability sets are plain
length-16 float arrays in the canonical orders defined below; weights may be
negative and probabilities produced from negative weights may leave [0, 1].
No function clamps or normalizes its input silently.

Each public function coerces and validates its input once.  The gates
check_consistency, require_consistent, chsh and chsh_report coerce by shape
only and read one _Box per box, memoized by its float64 bytes and eps, 4 deep
(a pipeline gates p and its rebuilt box).  Making one checks finiteness and
eps, so a bad box or eps is never stored, and sums the blocks; the violation
scan and the 8 CHSH sums run when first asked for.  On 16 entries numpy's
fixed cost per call outweighs the arithmetic, so the checks compare Python
floats, and the block sums, the marginals (0.0 for -0.0 + -0.0) and the sums
of weights (_sum) add them in numpy's order, overflowing without a warning.
The relation product DEPENDENT_SIGNS @ p_ind and the CHSH product stay numpy,
in np.errstate only when they could overflow (_product, which forward_map and
box_from_independent use too), so every value is bit-identical to the
all-numpy reference in tests/test_checks_reference.py.
A difference is a violation unless |d| <= eps: a NaN difference fails.

Every function that takes a tolerance eps raises ValueError unless eps is
finite and nonnegative: a NaN eps would pass every check and an infinite one
would accept any box.  The helpers that compare against eps check it, so no
public function can skip the check.  An eps, or solver's m16, that is not a
real number ("x", None) raises Python's TypeError from math.isfinite.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import NamedTuple

import numpy as np

DEFAULT_EPS = 1e-9

PLUS = 1
MINUS = -1
OUTCOMES = (PLUS, MINUS)

SETTING_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


class ConsistencyError(ValueError):
    """A probability set or measure vector fails a required consistency check."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


# ---------------------------------------------------------------------------
# Outcome / strategy / probability encodings
# ---------------------------------------------------------------------------

def _frozen(x: np.ndarray) -> np.ndarray:
    """x made read-only: a module's table written in place would change every later result."""
    x.setflags(write=False)
    return x


def outcome_char(outcome: int) -> str:
    return "+" if outcome == PLUS else "-"


#: Outcomes (a1, b1, a2, b2) of each strategy, row-major: 0 is ++++, 15 is ----.
STRATEGY_OUTCOMES = tuple(itertools.product(OUTCOMES, repeat=4))

_OUTCOME_PAIRS = tuple(itertools.product(OUTCOMES, repeat=2))     # ++, +-, -+, --

#: Event (j, k, m, n) of each joint probability p(a_j = m, b_k = n): a block
#: of four per setting pair, in SETTING_PAIRS order, each in _OUTCOME_PAIRS order.
PROB_EVENTS = tuple((j, k, m, n) for j, k in SETTING_PAIRS for m, n in _OUTCOME_PAIRS)

STRATEGY_PATTERNS = tuple("".join(map(outcome_char, o)) for o in STRATEGY_OUTCOMES)
PROB_LABELS = tuple(f"a{j}{outcome_char(m)}b{k}{outcome_char(n)}" for j, k, m, n in PROB_EVENTS)

#: PROB_EVENTS.index((j, k, m, n)) on axes (j, k, m, n), outcomes in OUTCOMES
#: order: PROB_EVENTS is row-major on them.
_PROB_INDEX = _frozen(np.arange(16).reshape(2, 2, 2, 2))

#: 0/1 matrix mapping a measure vector to its 16 joint probabilities: entry
#: (i, s) is 1 when strategy s gives event i.  Each block of four rows
#: partitions the strategies, so every block sum of the image is the total weight.
FORWARD_MATRIX = _frozen(np.array([[float(s[0::2][j - 1] == m and s[1::2][k - 1] == n)
                                     for s in STRATEGY_OUTCOMES] for j, k, m, n in PROB_EVENTS]))


def _exact(x: np.ndarray) -> np.ndarray:
    """x rounded to the nearest 1/16, as every derived constant map is: the relations
    and solution families are half-integer, the witness multiples of 1/16.  + 0.0
    turns the -0.0 that rounding leaves into 0.0."""
    return np.round(16.0 * x) / 16.0 + 0.0


def _is_integer(i) -> bool:
    """Whether i is an int or a numpy integer; a bool is not."""
    return type(i) is int or isinstance(i, np.integer)


def _index(i, n: int, name: str):
    """i if it is an integer (_is_integer) in 0..n-1, else ValueError."""
    if _is_integer(i) and 0 <= i < n:
        return i
    raise ValueError(f"{name} must be an integer in 0..{n - 1}, got {i!r}")


def _shaped16(values, name: str = "probability set") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (16,):
        raise ValueError(f"{name} must have exactly 16 entries, got shape {arr.shape}")
    return arr


def _vector16(values, name: str) -> np.ndarray:
    arr = _shaped16(values, name)
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


# ---------------------------------------------------------------------------
# Forward map
# ---------------------------------------------------------------------------

def forward_map(m) -> np.ndarray:
    """Joint probabilities induced by a measure vector.

    Total function: the input need not be normalized and the output is not
    clamped, so entries may fall outside [0, 1] when weights are negative, and
    overflow to +-inf or NaN when their magnitudes sum past the float maximum.
    Each block of four outputs sums to the total weight exactly.
    """
    m = _vector16(m, "measure vector")
    return _product(FORWARD_MATRIX, m, sum(map(abs, m.tolist())))


# ---------------------------------------------------------------------------
# Consistency checks
# ---------------------------------------------------------------------------

class RangeViolation(NamedTuple):
    """Probability entry outside [0, 1]."""
    index: int          # 0-based canonical index
    value: float

    def describe(self) -> str:
        return f"p{self.index + 1} ({PROB_LABELS[self.index]}) = {self.value!r} outside [0, 1]"


class BlockViolation(NamedTuple):
    """Setting-pair block whose four probabilities do not sum to 1."""
    j: int
    k: int
    total: float

    def describe(self) -> str:
        return f"block (a{self.j},b{self.k}) sums to {self.total!r}, expected 1"


class MarginalViolation(NamedTuple):
    """One party's outcome marginal differs across the other party's settings."""
    party: str          # "A" or "B"
    setting: int        # the fixed party's setting index (1 or 2)
    outcome: int        # the fixed party's outcome (+1 or -1)
    marginal_1: float   # marginal with the remote setting at 1
    marginal_2: float   # marginal with the remote setting at 2

    def describe(self) -> str:
        label = f"{self.party.lower()}{self.setting}{outcome_char(self.outcome)}"
        remote = "b" if self.party == "A" else "a"
        return (f"marginal p({label}) depends on the {remote}-setting: "
                f"{self.marginal_1!r} vs {self.marginal_2!r}")


class RelationViolation(NamedTuple):
    """Dependent probability entry inconsistent with the 8 independent ones."""
    index: int          # 0-based canonical index of the dependent entry
    expected: float
    actual: float

    def describe(self) -> str:
        return (f"p{self.index + 1} ({PROB_LABELS[self.index]}) = {self.actual!r}, "
                f"but the independent entries imply {self.expected!r}")


#: 0-based indices of the 8 probabilities treated as independent
#: (p1, p4, p5, p8, p9, p12, p14, p15 in 1-based numbering) and of the 8
#: dependent ones (p2, p3, p6, p7, p10, p11, p13, p16).
INDEPENDENT_INDICES = (0, 3, 4, 7, 8, 11, 13, 14)
DEPENDENT_INDICES = (1, 2, 5, 6, 9, 10, 12, 15)

_INDEPENDENT = _frozen(np.array(INDEPENDENT_INDICES))
_DEPENDENT = _frozen(np.array(DEPENDENT_INDICES))

#: Maps (1, p_ind) to the full box: p = _BOX_EMBEDDING @ (sum(m), p_ind) for p = F @ m.
_BOX_EMBEDDING = _frozen(_exact(np.linalg.lstsq(
    np.vstack([np.ones(16), FORWARD_MATRIX[_INDEPENDENT]]).T, FORWARD_MATRIX.T, rcond=None)[0].T))

#: Sign table expressing each dependent entry as
#: p_dep = (1 + sum_i sign_i * p_ind_i) / 2.
#: Rows follow DEPENDENT_INDICES, columns follow INDEPENDENT_INDICES.
DEPENDENT_SIGNS = _frozen(2.0 * _BOX_EMBEDDING[_DEPENDENT, 1:])

#: The 8 marginal equalities, A's then B's: the MarginalViolation label
#: (party, setting, outcome), and the indices (i1, i2, j1, j2) of the two
#: entries summed under the other party's setting 1 and the two under its
#: setting 2.
_MARGINAL_LABELS = tuple((party, setting, outcome) for party in "AB"
                         for setting in (1, 2) for outcome in OUTCOMES)
_MARGINAL_TERMS = tuple(zip(_MARGINAL_LABELS, np.concatenate(
    [_PROB_INDEX.transpose(0, 2, 1, 3).reshape(4, 4),
     _PROB_INDEX.transpose(1, 3, 0, 2).reshape(4, 4)]).tolist()))


def _box_from_independent(ind: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The box from ind and sums = DEPENDENT_SIGNS @ ind in the relation check's own
    arithmetic: a box consistent at eps rebuilds to one within eps of it in its numbers."""
    box = np.empty(16)
    box[_INDEPENDENT] = ind
    box[_DEPENDENT] = 0.5 * (1.0 + sums)
    return box


def box_from_independent(independent) -> np.ndarray:
    """The 16-entry box whose entries at INDEPENDENT_INDICES are the given 8
    and whose dependent entries follow from them by the consistency relations.

    Only the shape and finiteness of the input are checked: whether the
    result is a valid box is decided by require_consistent at the caller's eps.
    An entry overflows to +-inf or NaN only when the input's magnitudes sum past the float maximum.
    """
    ind = np.asarray(independent, dtype=float)
    if ind.shape != (8,):
        raise ValueError(f"expected 8 independent probabilities, got shape {ind.shape}")
    if not np.isfinite(ind).all():
        raise ValueError("independent probabilities contain non-finite entries")
    return _box_from_independent(ind, _product(DEPENDENT_SIGNS, ind, sum(map(abs, ind.tolist()))))


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")


def _sum(values: list) -> float:
    """Sum of 8 or 16 floats in numpy's pairwise order, without its overflow warning."""
    r = values if len(values) == 8 else [a + b for a, b in zip(values[:8], values[8:])]
    return 0.0 + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


#: Every constant matrix multiplied here has entries below 2 in magnitude, so no partial
#: sum of its product with x overflows while sum |x| stays below this.
_UNGUARDED_SIZE = 0.5 * sys.float_info.max


def _product(matrix: np.ndarray, x: np.ndarray, size: float) -> np.ndarray:
    """matrix @ x for sum |x| <= size; np.errstate, which costs more than the
    product, is entered only when size reaches _UNGUARDED_SIZE."""
    if size < _UNGUARDED_SIZE:
        return matrix @ x
    with np.errstate(over="ignore", invalid="ignore"):
        return matrix @ x


class _Box:
    """A probability set at one eps as the gates see it (see the module docstring)."""

    def __init__(self, key: bytes, eps: float):
        self.p = np.frombuffer(key)
        self.values = v = self.p.tolist()
        self.size = sum(map(abs, v))
        if not math.isfinite(self.size):        # a non-finite entry, or an overflow
            _vector16(v, "probability set")
        _check_eps(eps)
        self.eps = eps
        totals = (0.0 + v[0] + v[1] + v[2] + v[3], 0.0 + v[4] + v[5] + v[6] + v[7],
                  0.0 + v[8] + v[9] + v[10] + v[11], 0.0 + v[12] + v[13] + v[14] + v[15])
        self.unnormalized = tuple([BlockViolation(j, k, total) for (j, k), total
                                   in zip(SETTING_PAIRS, totals) if not abs(total - 1.0) <= eps])
        self._violations = self._deltas = None

    def violations(self) -> tuple[tuple[str, tuple], ...]:
        """(check name, violations) of each check of check_consistency."""
        if self._violations is None:
            v, eps, high = self.values, self.eps, 1.0 + self.eps
            # p_ind and the relation product, kept: min_negativity rebuilds p_hat from them
            self.independent = self.p[_INDEPENDENT]
            self.sums = sums = _product(DEPENDENT_SIGNS, self.independent, self.size)
            self._violations = (
                ("range", tuple([RangeViolation(i, x) for i, x in enumerate(v)
                                 if not -eps <= x <= high])),
                ("normalization", self.unnormalized),
                ("no_signaling", tuple([
                    MarginalViolation(*label, m1, m2) for label, (a, b, c, d) in _MARGINAL_TERMS
                    if not abs((m1 := v[a] + v[b] + 0.0) - (m2 := v[c] + v[d] + 0.0)) <= eps])),
                ("derived_relations", tuple([
                    RelationViolation(i, e, v[i]) for i, s in zip(DEPENDENT_INDICES, sums.tolist())
                    if not abs(v[i] - (e := 0.5 * (1.0 + s))) <= eps])),
            )
        return self._violations

    def deltas(self) -> tuple[float, ...]:
        """The 8 CHSH sums, aligned with CHSH_VARIANTS; ConsistencyError
        unless every block is normalized within eps."""
        if self._deltas is None:
            if self.unnormalized:
                raise ConsistencyError(
                    "cannot evaluate CHSH on an unnormalized probability set", self.unnormalized)
            self._deltas = tuple(_product(CHSH_MATRIX, self.p, self.size).tolist())
        return self._deltas


#: The record of the box with float64 bytes key at eps, the last 4 kept.
_box = functools.lru_cache(maxsize=4)(_Box)


def check_consistency(p, eps: float = DEFAULT_EPS) -> dict[str, list]:
    """All consistency checks keyed by name; empty lists everywhere means
    consistent.  eps is checked before p.

    "range" lists the entries outside [0 - eps, 1 + eps]; "normalization"
    the setting-pair blocks whose probabilities do not sum to 1 within eps;
    "no_signaling" the 8 marginal equalities violated beyond eps (for each
    setting and outcome of one party, its marginal must not depend on the
    other party's setting); "derived_relations" the dependent entries
    inconsistent with the independent ones beyond eps.  "derived_relations"
    is empty exactly when "normalization" and "no_signaling" both are: its 8
    relations span the same affine constraints as those two conditions
    combined.  A violation's sums overflow only when p's magnitudes sum past the float maximum.
    """
    _check_eps(eps)
    return {name: list(vs) for name, vs in _box(_shaped16(p).tobytes(), eps).violations()}


def _consistent_box(p: np.ndarray, eps: float) -> _Box:
    """The record of p at eps, scanned, or ConsistencyError as require_consistent raises."""
    box = _box(p.tobytes(), eps)
    violations = [v for _, vs in box.violations() for v in vs]
    if violations:
        raise ConsistencyError(f"inconsistent probability set (eps = {eps:g}): "
                               + "; ".join(v.describe() for v in violations), violations)
    return box


def require_consistent(p, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Return p as an array, raising ConsistencyError that lists every
    violation if any check fails at eps."""
    p = _shaped16(p)
    _consistent_box(p, eps)
    return p


# ---------------------------------------------------------------------------
# CHSH quantities
# ---------------------------------------------------------------------------

#: The 8 CHSH sign variants, one per row of CHSH_MATRIX: (negated pair, overall
#: sign), the setting pair whose correlation enters with a minus sign and the
#: sign of the whole sum.  Row 0, ((2, 2), 1), is the canonical variant.
CHSH_VARIANTS = tuple((pair, sign) for sign in (1, -1)
                      for pair in ((2, 2), (1, 1), (1, 2), (2, 1)))

#: CHSH sums as one linear map: row v of CHSH_MATRIX @ p is the sum of
#: variant v for a normalized probability set p.  Each block of four columns
#: is one setting pair's correlation, the sum of m * n * p(m, n).
CHSH_MATRIX = _frozen(np.array([[(-sign if (j, k) == pair else sign) * m * n
                                  for j, k, m, n in PROB_EVENTS]
                                 for pair, sign in CHSH_VARIANTS], dtype=float))

#: Row v lists the strategies whose CHSH value (+-2) under variant v is -2.
_MINUS_STRATEGIES = tuple(np.flatnonzero(row < 0).tolist() for row in CHSH_MATRIX @ FORWARD_MATRIX)


def correlation(p, j: int, k: int, eps: float = DEFAULT_EPS) -> float:
    """Correlation coefficient of setting pair (a_j, b_k):
    p(+,+) + p(-,-) - p(+,-) - p(-,+).

    j and k are integers (_is_integer) equal to 1 or 2.  Requires the block
    to be normalized within eps.  The result overflows to +-inf only when the
    block's magnitudes sum past the float maximum.
    """
    p = _vector16(p, "probability set")
    _check_eps(eps)
    if not (_is_integer(j) and _is_integer(k) and (j, k) in SETTING_PAIRS):
        raise ValueError(f"setting indices must be 1 or 2, got j={j}, k={k}")
    pp, pm, mp, mm = p.reshape(4, 4)[SETTING_PAIRS.index((j, k))].tolist()
    total = 0.0 + pp + pm + mp + mm           # numpy's summation order, no warning
    if abs(total - 1.0) > eps:
        raise ConsistencyError(
            f"block (a{j},b{k}) is not normalized (sum = {total!r})",
            [BlockViolation(j, k, total)])
    return pp + mm - pm - mp


def chsh(p, v: int = 0, eps: float = DEFAULT_EPS) -> float:
    """CHSH sum of variant v, row v of CHSH_MATRIX @ p.

    Requires every block normalized within eps, and then v an integer in
    0..7 (ValueError).  For any probability set passing that check, the
    canonical variant 0 equals 2 * (p1 + p4 + p5 + p8 + p9 + p12 + p14 + p15 - 2).
    It overflows to +-inf or NaN only when p's magnitudes sum past the float maximum.
    """
    return _box(_shaped16(p).tobytes(), eps).deltas()[_index(v, 8, "variant")]


def _max_abs(values) -> float:
    """Largest |v|, or NaN when any v is NaN, as numpy's max gives."""
    magnitudes = [abs(v) for v in values]
    return math.nan if math.isnan(sum(magnitudes)) else max(magnitudes)


class ChshReport(NamedTuple):
    """All 8 CHSH sums for a probability set, with violation flags.

    deltas[v] is the sum of variant v, row v of CHSH_MATRIX @ p;
    max_abs_delta is the largest |CHSH sum| over all 8, or NaN when any sum
    is NaN.  violated(v) takes the same row, an integer in 0..7.
    """
    deltas: tuple[float, ...]
    max_abs_delta: float
    eps: float = DEFAULT_EPS

    def violated(self, v: int) -> bool:
        return abs(self.deltas[_index(v, 8, "variant")]) > 2.0 + self.eps

    @property
    def any_violation(self) -> bool:
        return self.max_abs_delta > 2.0 + self.eps


def chsh_report(p, eps: float = DEFAULT_EPS) -> ChshReport:
    """The 8 CHSH sums, as chsh gives them: +-inf or NaN only past the float maximum."""
    deltas = _box(_shaped16(p).tobytes(), eps).deltas()
    return ChshReport(deltas, _max_abs(deltas), eps)


# ---------------------------------------------------------------------------
# Negativity necessity
# ---------------------------------------------------------------------------

def sigma_minus(m) -> tuple[float, ...]:
    """The weight of m on the 8 strategies with CHSH value -2 under each
    variant, aligned with CHSH_VARIANTS.

    Total function, like forward_map, and like it finite unless m's magnitudes
    sum past the float maximum.  For any m, CHSH_MATRIX @ forward_map(m)
    is 2 * sum(m) - 4 * sigma_minus(m) row by row, so a normalized m whose box
    violates variant v (CHSH sum above 2) has sigma_minus(m)[v] < 0: some
    weight is negative.  The converse fails: m may carry negative weight and
    violate no variant.
    """
    v = _vector16(m, "measure vector").tolist()
    return tuple([_sum([v[i] for i in row]) for row in _MINUS_STRATEGIES])


def _total_negativity(m: np.ndarray) -> float:
    return _sum([-v if v < 0.0 else 0.0 for v in m.tolist()])


def total_negativity(m) -> float:
    """Sum of the magnitudes of the negative weights; +inf when they sum past the float maximum."""
    return _total_negativity(_vector16(m, "measure vector"))


# ---------------------------------------------------------------------------
# Canonical boxes
# ---------------------------------------------------------------------------

def uniform_box() -> np.ndarray:
    """All 16 joint probabilities equal to 1/4."""
    return np.full(16, 0.25)


def pr_box() -> np.ndarray:
    """The no-signaling box with canonical CHSH sum 4: perfectly correlated on
    three setting pairs, anticorrelated on (a2, b2)."""
    p = np.zeros(16)
    p[list(INDEPENDENT_INDICES)] = 0.5
    return p


def tsirelson_box() -> np.ndarray:
    """The quantum-extremal box with canonical CHSH sum 2*sqrt(2):
    (2+sqrt2)/8 on the independent entries, (2-sqrt2)/8 elsewhere."""
    r2 = np.sqrt(2.0)
    p = np.full(16, (2.0 - r2) / 8.0)
    p[list(INDEPENDENT_INDICES)] = (2.0 + r2) / 8.0
    return p


def deterministic_box(strategy: int = 0) -> np.ndarray:
    """The box produced by a single deterministic strategy (default ++++):
    strategy is its position in STRATEGY_OUTCOMES, an integer in 0..15."""
    return FORWARD_MATRIX[:, _index(strategy, 16, "strategy")].copy()
