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
machinery: correlation coefficients, the 8 CHSH sign variants, the
complementary strategy-subset sums sigma1/sigma2, and the necessity verdict
linking CHSH violation to negative weights.

The encodings are decided in strategy_index and prob_index alone.
FORWARD_MATRIX is built from them, and every other constant map is derived
from it at import: the relation table DEPENDENT_SIGNS (a least-squares
solution, rounded to the nearest half), the strategies' CHSH values and the
sigma1/sigma2 split.

Everything here is a pure function of immutable values.  Measure vectors and
probability sets are plain length-16 float arrays in the canonical orders
defined below; weights may be negative and probabilities produced from
negative weights may leave [0, 1].  No function clamps or normalizes its
input silently.

Each public function coerces and validates its input once, through
as_probability_set or as_measure_vector, and does its work on `_`-prefixed
helpers that take the validated float array and never coerce it again.
On 16 entries numpy's fixed cost per call outweighs the arithmetic, so the
checks that are exact in Python floats compare the floats of tolist(): the
finiteness check, the range check, the marginals (each a sum of two
entries, made 0.0 for -0.0 + -0.0 as numpy's sum is) with their
differences, the relation differences and the largest |CHSH sum|.  numpy is kept for the sums and products whose summation order
sets the last bit: the block sums, the relation product
DEPENDENT_SIGNS @ p_ind and the CHSH product, so every value stays
bit-identical to the all-numpy checks kept as the reference in
tests/test_checks_reference.py.  The two gates, the violation scan and the
block check with the CHSH product, are memoized by the box's float64 bytes
and eps, 4 boxes each (a pipeline gates two, p and its rebuilt box), so a
repeated gate of the same bytes is a lookup: equal bytes are equal values,
and a bad eps raises on the miss, so it is never stored.

Every function that takes a tolerance eps raises ValueError unless eps is
finite and nonnegative: a NaN eps would pass every check and an infinite one
would accept any box.  The helpers that compare against eps check it, so no
public function can skip the check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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

def outcome_bit(outcome: int) -> int:
    """Map outcome +1 -> bit 0, -1 -> bit 1."""
    if outcome == PLUS:
        return 0
    if outcome == MINUS:
        return 1
    raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")


def bit_outcome(bit: int) -> int:
    return PLUS if bit == 0 else MINUS


def outcome_char(outcome: int) -> str:
    return "+" if outcome == PLUS else "-"


def char_outcome(ch: str) -> int:
    """Parse '+' or '-' (ASCII hyphen or U+2212) into an outcome value."""
    if ch == "+":
        return PLUS
    if ch in ("-", "−"):
        return MINUS
    raise ValueError(f"outcome character must be '+' or '-', got {ch!r}")


def strategy_index(a1: int, b1: int, a2: int, b2: int) -> int:
    """Canonical 0-based index of the deterministic strategy with the given outcomes.

    Strategies are ordered by the (a1, b1, a2, b2) outcome quadruple with +
    sorting before -, i.e. index = 8*bit(a1) + 4*bit(b1) + 2*bit(a2) + bit(b2).
    Index 0 is ++++, index 15 is ----.
    """
    return (8 * outcome_bit(a1) + 4 * outcome_bit(b1)
            + 2 * outcome_bit(a2) + outcome_bit(b2))


def strategy_outcomes(index: int) -> tuple[int, int, int, int]:
    """Outcomes (a1, b1, a2, b2) of the strategy at the given 0-based index."""
    if not 0 <= index < 16:
        raise ValueError(f"strategy index must be in 0..15, got {index}")
    return tuple(bit_outcome((index >> shift) & 1) for shift in (3, 2, 1, 0))


def strategy_pattern(index: int) -> str:
    """Four-character +/- pattern of a strategy, slot order (a1, b1, a2, b2)."""
    return "".join(outcome_char(o) for o in strategy_outcomes(index))


STRATEGY_PATTERNS = tuple(strategy_pattern(i) for i in range(16))


def prob_index(j: int, k: int, m: int, n: int) -> int:
    """Canonical 0-based index of p(a_j = m, b_k = n).

    Entries are grouped in blocks of 4 per setting pair, pair order
    (a1,b1), (a1,b2), (a2,b1), (a2,b2); within a block the outcome pairs
    run (+,+), (+,-), (-,+), (-,-).
    """
    if j not in (1, 2) or k not in (1, 2):
        raise ValueError(f"setting indices must be 1 or 2, got j={j}, k={k}")
    block = 2 * (j - 1) + (k - 1)
    return 4 * block + 2 * outcome_bit(m) + outcome_bit(n)


def block_slice(j: int, k: int) -> slice:
    """Slice selecting the 4 entries of setting pair (a_j, b_k)."""
    start = prob_index(j, k, PLUS, PLUS)
    return slice(start, start + 4)


def prob_label(index: int) -> str:
    """Human-readable label of a probability entry, e.g. 'a1+b1+'."""
    block, offset = divmod(index, 4)
    j, k = block // 2 + 1, block % 2 + 1
    m = bit_outcome(offset >> 1)
    n = bit_outcome(offset & 1)
    return f"a{j}{outcome_char(m)}b{k}{outcome_char(n)}"


PROB_LABELS = tuple(prob_label(i) for i in range(16))


#: prob_index(j, k, m, n) on axes (j, k, bit(m), bit(n)).
_PROB_INDEX = np.array([[[[prob_index(j, k, m, n) for n in OUTCOMES] for m in OUTCOMES]
                         for k in (1, 2)] for j in (1, 2)])


def _build_forward_matrix() -> np.ndarray:
    # one-hot outcome bits on axes (strategy, slot a1/b1/a2/b2, bit); entry
    # p(a_j = m, b_k = n) counts a strategy when A's bit at a_j is bit(m) and
    # B's bit at b_k is bit(n)
    bits = [[outcome_bit(o) for o in strategy_outcomes(s)] for s in range(16)]
    one_hot = np.eye(2)[bits]
    F = np.empty((16, 16))
    F[_PROB_INDEX] = np.einsum("sjm,skn->jkmns", one_hot[:, 0::2], one_hot[:, 1::2])
    return F


#: 0/1 matrix mapping a measure vector to its 16 joint probabilities.
#: Row i has exactly four ones; each block of four rows partitions the
#: strategies, so every block sum of the image equals the total weight.
FORWARD_MATRIX = _build_forward_matrix()
FORWARD_MATRIX.setflags(write=False)


def _half_integer_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution x of a @ x = b, rounded to the nearest half
    (every relation of this system has half-integer coefficients); + 0.0
    turns the -0.0 that rounding leaves into 0.0."""
    return np.round(2.0 * np.linalg.lstsq(a, b, rcond=None)[0]) / 2.0 + 0.0


def _embedding(strategies, coordinates) -> np.ndarray:
    """E with p = E @ (sum(m), p[coordinates]) for every p = FORWARD_MATRIX @ m
    with m supported on strategies."""
    F = FORWARD_MATRIX[:, strategies]
    basis = np.vstack([np.ones(F.shape[1]), F[list(coordinates)]])
    return _half_integer_solve(basis.T, F.T).T


def _vector16(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (16,):
        raise ValueError(f"{name} must have exactly 16 entries, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_measure_vector(values) -> np.ndarray:
    """Coerce to a length-16 float array in canonical strategy order."""
    return _vector16(values, "measure vector")


def as_probability_set(values) -> np.ndarray:
    """Coerce to a length-16 float array in canonical probability order."""
    return _vector16(values, "probability set")


# ---------------------------------------------------------------------------
# Forward map
# ---------------------------------------------------------------------------

def forward_map(m) -> np.ndarray:
    """Joint probabilities induced by a measure vector.

    Total function: the input need not be normalized and the output is not
    clamped, so entries may fall outside [0, 1] when weights are negative.
    Each block of four outputs sums to the total weight exactly.
    """
    return FORWARD_MATRIX @ as_measure_vector(m)


# ---------------------------------------------------------------------------
# Consistency checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RangeViolation:
    """Probability entry outside [0, 1]."""
    index: int          # 0-based canonical index
    value: float

    def describe(self) -> str:
        return f"p{self.index + 1} ({prob_label(self.index)}) = {self.value!r} outside [0, 1]"


@dataclass(frozen=True)
class BlockViolation:
    """Setting-pair block whose four probabilities do not sum to 1."""
    j: int
    k: int
    total: float

    def describe(self) -> str:
        return f"block (a{self.j},b{self.k}) sums to {self.total!r}, expected 1"


@dataclass(frozen=True)
class MarginalViolation:
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


@dataclass(frozen=True)
class RelationViolation:
    """Dependent probability entry inconsistent with the 8 independent ones."""
    index: int          # 0-based canonical index of the dependent entry
    expected: float
    actual: float

    def describe(self) -> str:
        return (f"p{self.index + 1} ({prob_label(self.index)}) = {self.actual!r}, "
                f"but the independent entries imply {self.expected!r}")


#: 0-based indices of the 8 probabilities treated as independent
#: (p1, p4, p5, p8, p9, p12, p14, p15 in 1-based numbering) and of the 8
#: dependent ones (p2, p3, p6, p7, p10, p11, p13, p16).
INDEPENDENT_INDICES = (0, 3, 4, 7, 8, 11, 13, 14)
DEPENDENT_INDICES = (1, 2, 5, 6, 9, 10, 12, 15)

_INDEPENDENT = np.array(INDEPENDENT_INDICES)
_DEPENDENT = np.array(DEPENDENT_INDICES)

#: Maps (1, p_ind) to the full box, p_ind the entries at INDEPENDENT_INDICES.
_BOX_EMBEDDING = _embedding(range(16), INDEPENDENT_INDICES)
_BOX_EMBEDDING.setflags(write=False)

#: Sign table expressing each dependent entry as
#: p_dep = (1 + sum_i sign_i * p_ind_i) / 2.
#: Rows follow DEPENDENT_INDICES, columns follow INDEPENDENT_INDICES.
DEPENDENT_SIGNS = 2.0 * _BOX_EMBEDDING[_DEPENDENT, 1:]
DEPENDENT_SIGNS.setflags(write=False)

#: The 8 marginal equalities, A's then B's: the MarginalViolation label
#: (party, setting, outcome), and the indices (i1, i2, j1, j2) of the two
#: entries summed under the other party's setting 1 and the two under its
#: setting 2.
_MARGINAL_LABELS = tuple((party, setting, outcome) for party in "AB"
                         for setting in (1, 2) for outcome in OUTCOMES)
_MARGINAL_TERMS = tuple(zip(_MARGINAL_LABELS, np.concatenate(
    [_PROB_INDEX.transpose(0, 2, 1, 3).reshape(4, 4),
     _PROB_INDEX.transpose(1, 3, 0, 2).reshape(4, 4)]).tolist()))


def _box_from_independent(ind: np.ndarray) -> np.ndarray:
    return _BOX_EMBEDDING @ np.concatenate(([1.0], ind))


def box_from_independent(independent) -> np.ndarray:
    """The 16-entry box whose entries at INDEPENDENT_INDICES are the given 8
    and whose dependent entries follow from them by the consistency relations.

    Only the shape and finiteness of the input are checked: whether the
    result is a valid box is decided by require_consistent at the caller's eps.
    """
    ind = np.asarray(independent, dtype=float)
    if ind.shape != (8,):
        raise ValueError(f"expected 8 independent probabilities, got shape {ind.shape}")
    if not np.isfinite(ind).all():
        raise ValueError("independent probabilities contain non-finite entries")
    return _box_from_independent(ind)


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")


def _range_violations(p: np.ndarray, eps: float) -> list[RangeViolation]:
    _check_eps(eps)
    low, high = -eps, 1.0 + eps
    return [RangeViolation(i, value) for i, value in enumerate(p.tolist())
            if value < low or value > high]


def _block_violations(p: np.ndarray, eps: float) -> list[BlockViolation]:
    _check_eps(eps)
    totals = p.reshape(4, 4).sum(axis=1).tolist()
    return [BlockViolation(j, k, total) for (j, k), total in zip(SETTING_PAIRS, totals)
            if abs(total - 1.0) > eps]


def _marginal_violations(p: np.ndarray, eps: float) -> list[MarginalViolation]:
    _check_eps(eps)
    v = p.tolist()
    found = []
    for label, (i1, i2, j1, j2) in _MARGINAL_TERMS:
        # + 0.0 turns -0.0 + -0.0 into 0.0, as numpy's sum does
        marginal_1, marginal_2 = v[i1] + v[i2] + 0.0, v[j1] + v[j2] + 0.0
        if abs(marginal_1 - marginal_2) > eps:
            found.append(MarginalViolation(*label, marginal_1, marginal_2))
    return found


def _relation_violations(p: np.ndarray, eps: float) -> list[RelationViolation]:
    _check_eps(eps)
    v = p.tolist()
    found = []
    for i, signed_sum in zip(DEPENDENT_INDICES, (DEPENDENT_SIGNS @ p[_INDEPENDENT]).tolist()):
        expected = 0.5 * (1.0 + signed_sum)
        if abs(v[i] - expected) > eps:
            found.append(RelationViolation(i, expected, v[i]))
    return found


@functools.lru_cache(maxsize=4)
def _violations(key: bytes, eps: float) -> tuple[tuple[str, tuple], ...]:
    """(check name, violations) of the box whose float64 bytes are key."""
    p = np.frombuffer(key)
    return (
        ("range", tuple(_range_violations(p, eps))),
        ("normalization", tuple(_block_violations(p, eps))),
        ("no_signaling", tuple(_marginal_violations(p, eps))),
        ("derived_relations", tuple(_relation_violations(p, eps))),
    )


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
    combined.
    """
    _check_eps(eps)
    return {name: list(vs) for name, vs in _violations(as_probability_set(p).tobytes(), eps)}


def require_consistent(p, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Return p as an array, raising ConsistencyError that lists every
    violation if any check fails at eps."""
    p = as_probability_set(p)
    violations = [v for _, vs in _violations(p.tobytes(), eps) for v in vs]
    if violations:
        lines = "; ".join(v.describe() for v in violations)
        raise ConsistencyError(f"inconsistent probability set (eps = {eps:g}): {lines}",
                               violations)
    return p


# ---------------------------------------------------------------------------
# CHSH quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sigmas:
    """The two complementary 8-strategy weight sums.

    sigma1 sums the strategies whose deterministic CHSH value is -2,
    sigma2 the rest; for a normalized measure vector sigma2 = 1 - sigma1
    and the canonical CHSH sum is 2 * (1 - 2 * sigma1).
    """
    sigma1: float
    sigma2: float


def _sigmas(m: np.ndarray) -> Sigmas:
    s1 = float(m[list(SIGMA1_STRATEGIES)].sum())
    return Sigmas(s1, float(m.sum()) - s1)


def sigmas(m) -> Sigmas:
    return _sigmas(as_measure_vector(m))


@dataclass(frozen=True)
class ChshVariant:
    """One of the 8 sign choices of the CHSH sum.

    negated_pair names the setting pair whose correlation enters with a
    minus sign; overall_sign flips the whole sum.  The canonical variant
    negates (a2, b2) with overall sign +1.
    """
    negated_pair: tuple[int, int]
    overall_sign: int

    def __post_init__(self):
        if self.negated_pair not in SETTING_PAIRS:
            raise ValueError(f"negated_pair must be one of {SETTING_PAIRS}")
        if self.overall_sign not in (1, -1):
            raise ValueError("overall_sign must be +1 or -1")

    @property
    def label(self) -> str:
        j, k = self.negated_pair
        return f"a{j}b{k}{outcome_char(self.overall_sign)}"

    def pair_sign(self, j: int, k: int) -> int:
        return -1 if (j, k) == self.negated_pair else 1


CANONICAL_VARIANT = ChshVariant((2, 2), 1)

CHSH_VARIANTS = (
    CANONICAL_VARIANT,
    ChshVariant((1, 1), 1),
    ChshVariant((1, 2), 1),
    ChshVariant((2, 1), 1),
    ChshVariant((2, 2), -1),
    ChshVariant((1, 1), -1),
    ChshVariant((1, 2), -1),
    ChshVariant((2, 1), -1),
)


#: CHSH sums as one linear map: row v of CHSH_MATRIX @ p is the sum of
#: CHSH_VARIANTS[v] for a normalized probability set p.  Each block of four
#: columns is one setting pair's correlation, p(+,+) - p(+,-) - p(-,+) + p(-,-).
CHSH_MATRIX = (
    np.array([[v.overall_sign * v.pair_sign(j, k) for j, k in SETTING_PAIRS]
              for v in CHSH_VARIANTS], dtype=float)
    @ np.kron(np.eye(4), [1.0, -1.0, -1.0, 1.0])
)
CHSH_MATRIX.setflags(write=False)

#: Row v holds each strategy's CHSH value (+-2) under CHSH_VARIANTS[v].
_STRATEGY_CHSH = CHSH_MATRIX @ FORWARD_MATRIX
_STRATEGY_CHSH.setflags(write=False)

#: Strategies contributing to sigma1: those whose deterministic CHSH value
#: under CANONICAL_VARIANT (row 0) is -2.  The complementary 8 make up sigma2.
SIGMA1_STRATEGIES = tuple(np.flatnonzero(_STRATEGY_CHSH[0] < 0).tolist())
SIGMA2_STRATEGIES = tuple(np.flatnonzero(_STRATEGY_CHSH[0] > 0).tolist())

#: Row of each variant in CHSH_MATRIX and in ChshReport.deltas.
_VARIANT_ROWS = {variant: row for row, variant in enumerate(CHSH_VARIANTS)}


def _variant_row(variant) -> int:
    try:
        return _VARIANT_ROWS[variant]
    except (KeyError, TypeError):
        # not a variant: tuple.index raises its ValueError
        return CHSH_VARIANTS.index(variant)


def correlation(p, j: int, k: int, eps: float = DEFAULT_EPS) -> float:
    """Correlation coefficient of setting pair (a_j, b_k):
    p(+,+) + p(-,-) - p(+,-) - p(-,+).

    Requires the block to be normalized within eps.
    """
    p = as_probability_set(p)
    _check_eps(eps)
    block = p[block_slice(j, k)]
    total = float(block.sum())
    if abs(total - 1.0) > eps:
        raise ConsistencyError(
            f"block (a{j},b{k}) is not normalized (sum = {total!r})",
            [BlockViolation(j, k, total)])
    return float(block[0] + block[3] - block[1] - block[2])


@functools.lru_cache(maxsize=4)
def _chsh_deltas(key: bytes, eps: float) -> tuple[float, ...]:
    """The 8 CHSH sums of the box with float64 bytes key, aligned with CHSH_VARIANTS.

    Requires every block normalized within eps.
    """
    p = np.frombuffer(key)
    bad = _block_violations(p, eps)
    if bad:
        raise ConsistencyError(
            "cannot evaluate CHSH on an unnormalized probability set", bad)
    return tuple((CHSH_MATRIX @ p).tolist())


def chsh(p, variant: ChshVariant = CANONICAL_VARIANT, eps: float = DEFAULT_EPS) -> float:
    """CHSH sum of correlations for the given sign variant.

    Requires every block normalized within eps.  For any probability set
    passing that check, the canonical variant equals
    2 * (p1 + p4 + p5 + p8 + p9 + p12 + p14 + p15 - 2).
    """
    return _chsh_deltas(as_probability_set(p).tobytes(), eps)[_variant_row(variant)]


def _normalized_measure(m, eps: float) -> np.ndarray:
    """m as a measure vector, raising ConsistencyError unless it sums to 1
    within eps."""
    m = as_measure_vector(m)
    _check_eps(eps)
    total = float(m.sum())
    if abs(total - 1.0) > eps:
        raise ConsistencyError(f"measure vector is not normalized (sum = {total!r})")
    return m


def chsh_from_measures(m, eps: float = DEFAULT_EPS) -> float:
    """Canonical CHSH sum predicted by a normalized measure vector: 2*(1 - 2*sigma1)."""
    return 2.0 * (1.0 - 2.0 * _sigmas(_normalized_measure(m, eps)).sigma1)


def _max_abs(values) -> float:
    """Largest |v|, or NaN when any v is NaN, as numpy's max gives."""
    magnitudes = [abs(v) for v in values]
    return math.nan if math.isnan(sum(magnitudes)) else max(magnitudes)


@dataclass(frozen=True)
class ChshReport:
    """All 8 CHSH sums for a probability set, with violation flags.

    deltas is aligned with CHSH_VARIANTS; max_abs_delta is the largest
    |CHSH sum| over all 8, or NaN when any sum is NaN.
    """
    deltas: tuple[float, ...]
    max_abs_delta: float
    eps: float = DEFAULT_EPS

    def delta(self, variant: ChshVariant) -> float:
        return self.deltas[_variant_row(variant)]

    def violated(self, variant: ChshVariant) -> bool:
        return abs(self.delta(variant)) > 2.0 + self.eps

    @property
    def canonical_delta(self) -> float:
        return self.delta(CANONICAL_VARIANT)

    @property
    def any_violation(self) -> bool:
        return self.max_abs_delta > 2.0 + self.eps


def chsh_report(p, eps: float = DEFAULT_EPS) -> ChshReport:
    deltas = _chsh_deltas(as_probability_set(p).tobytes(), eps)
    return ChshReport(deltas, _max_abs(deltas), eps)


# ---------------------------------------------------------------------------
# Negativity necessity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NecessityVerdict:
    """Relates CHSH violation, the sigma1 range, and negative weights.

    violates_canonical_chsh is true exactly when sigma1 leaves [0, 1], which
    guarantees has_negative_entry; the converse fails (a measure vector can
    carry negative weight without violating CHSH).
    """
    violates_canonical_chsh: bool
    has_negative_entry: bool


def negativity_necessity_verdict(m, eps: float = DEFAULT_EPS) -> NecessityVerdict:
    m = _normalized_measure(m, eps)
    return NecessityVerdict(
        violates_canonical_chsh=not -eps <= _sigmas(m).sigma1 <= 1.0 + eps,
        has_negative_entry=bool(np.any(m < 0.0)),
    )


def _total_negativity(m: np.ndarray) -> float:
    return float(np.maximum(0.0, -m).sum())


def total_negativity(m) -> float:
    """Sum of the magnitudes of the negative weights."""
    return _total_negativity(as_measure_vector(m))


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
    """The box produced by a single deterministic strategy (default ++++)."""
    m = np.zeros(16)
    m[strategy] = 1.0
    return forward_map(m)
