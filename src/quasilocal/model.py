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

Everything here is a pure function of immutable values.  Measure vectors and
probability sets are plain length-16 float arrays in the canonical orders
defined below; weights may be negative and probabilities produced from
negative weights may leave [0, 1].  No function clamps or normalizes its
input silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-9

PLUS = 1
MINUS = -1
OUTCOMES = (PLUS, MINUS)

#: Slot order used for strategy patterns: outcomes for (a1, b1, a2, b2).
STRATEGY_SLOTS = ("a1", "b1", "a2", "b2")

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


def pattern_index(pattern: str) -> int:
    """Inverse of :func:`strategy_pattern`."""
    if len(pattern) != 4:
        raise ValueError(f"strategy pattern must have 4 characters, got {pattern!r}")
    return strategy_index(*(char_outcome(c) for c in pattern))


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


def _build_forward_matrix() -> np.ndarray:
    slot = {"a1": 3, "b1": 2, "a2": 1, "b2": 0}  # bit shift per setting
    F = np.zeros((16, 16))
    for j, k in SETTING_PAIRS:
        for m in OUTCOMES:
            for n in OUTCOMES:
                row = prob_index(j, k, m, n)
                for s in range(16):
                    a_bit = (s >> slot[f"a{j}"]) & 1
                    b_bit = (s >> slot[f"b{k}"]) & 1
                    if a_bit == outcome_bit(m) and b_bit == outcome_bit(n):
                        F[row, s] = 1.0
    return F


#: 0/1 matrix mapping a measure vector to its 16 joint probabilities.
#: Row i has exactly four ones; each block of four rows partitions the
#: strategies, so every block sum of the image equals the total weight.
FORWARD_MATRIX = _build_forward_matrix()
FORWARD_MATRIX.setflags(write=False)

#: Strategies contributing to sigma1: those whose deterministic CHSH value
#: (canonical sign choice) is -2.  The complementary 8 make up sigma2.
SIGMA1_STRATEGIES = (3, 4, 5, 7, 8, 10, 11, 12)
SIGMA2_STRATEGIES = (0, 1, 2, 6, 9, 13, 14, 15)


def _vector16(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (16,):
        raise ValueError(f"{name} must have exactly 16 entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
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

#: Sign table expressing each dependent entry as
#: p_dep = (1 + sum_i sign_i * p_ind_i) / 2.
#: Rows follow DEPENDENT_INDICES, columns follow INDEPENDENT_INDICES.
DEPENDENT_SIGNS = np.array([
    [-1, -1, +1, -1, -1, +1, +1, -1],
    [-1, -1, -1, +1, +1, -1, -1, +1],
    [+1, -1, -1, -1, -1, +1, +1, -1],
    [-1, +1, -1, -1, +1, -1, -1, +1],
    [-1, +1, +1, -1, -1, -1, +1, -1],
    [+1, -1, -1, +1, -1, -1, -1, +1],
    [-1, +1, +1, -1, +1, -1, -1, -1],
    [+1, -1, -1, +1, -1, +1, -1, -1],
], dtype=float)
DEPENDENT_SIGNS.setflags(write=False)


def dependent_from_independent(independent) -> np.ndarray:
    """The 8 dependent probabilities implied by the 8 independent ones."""
    ind = np.asarray(independent, dtype=float)
    if ind.shape != (8,):
        raise ValueError(f"expected 8 independent probabilities, got shape {ind.shape}")
    return 0.5 * (1.0 + DEPENDENT_SIGNS @ ind)


def check_range(p, eps: float = DEFAULT_EPS) -> list[RangeViolation]:
    """Entries that leave [0 - eps, 1 + eps]."""
    p = as_probability_set(p)
    return [RangeViolation(i, float(v)) for i, v in enumerate(p)
            if v < -eps or v > 1.0 + eps]


def check_normalization(p, eps: float = DEFAULT_EPS) -> list[BlockViolation]:
    """Setting-pair blocks whose probabilities do not sum to 1 within eps."""
    p = as_probability_set(p)
    out = []
    for j, k in SETTING_PAIRS:
        total = float(p[block_slice(j, k)].sum())
        if abs(total - 1.0) > eps:
            out.append(BlockViolation(j, k, total))
    return out


def check_no_signaling(p, eps: float = DEFAULT_EPS) -> list[MarginalViolation]:
    """Marginal equalities violated beyond eps.

    Checks all 8: for each A-setting and A-outcome, the A marginal must not
    depend on B's setting choice, and symmetrically for B.
    """
    p = as_probability_set(p)
    out = []
    for j in (1, 2):
        for m in OUTCOMES:
            lhs = float(p[prob_index(j, 1, m, PLUS)] + p[prob_index(j, 1, m, MINUS)])
            rhs = float(p[prob_index(j, 2, m, PLUS)] + p[prob_index(j, 2, m, MINUS)])
            if abs(lhs - rhs) > eps:
                out.append(MarginalViolation("A", j, m, lhs, rhs))
    for k in (1, 2):
        for n in OUTCOMES:
            lhs = float(p[prob_index(1, k, PLUS, n)] + p[prob_index(1, k, MINUS, n)])
            rhs = float(p[prob_index(2, k, PLUS, n)] + p[prob_index(2, k, MINUS, n)])
            if abs(lhs - rhs) > eps:
                out.append(MarginalViolation("B", k, n, lhs, rhs))
    return out


def check_derived_relations(p, eps: float = DEFAULT_EPS) -> list[RelationViolation]:
    """Dependent entries inconsistent with the independent ones beyond eps.

    An empty result is equivalent to passing both check_normalization and
    check_no_signaling: the 8 relations checked here span exactly the same
    affine constraints as those two conditions combined.
    """
    p = as_probability_set(p)
    expected = dependent_from_independent(p[list(INDEPENDENT_INDICES)])
    out = []
    for row, idx in enumerate(DEPENDENT_INDICES):
        if abs(p[idx] - expected[row]) > eps:
            out.append(RelationViolation(idx, float(expected[row]), float(p[idx])))
    return out


def check_consistency(p, eps: float = DEFAULT_EPS) -> dict[str, list]:
    """All consistency checks keyed by name; empty lists everywhere means consistent.

    eps must be finite and nonnegative: a NaN eps would pass every check and
    an infinite one would accept any box.
    """
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")
    return {
        "range": check_range(p, eps),
        "normalization": check_normalization(p, eps),
        "no_signaling": check_no_signaling(p, eps),
        "derived_relations": check_derived_relations(p, eps),
    }


def is_consistent(p, eps: float = DEFAULT_EPS) -> bool:
    return not any(check_consistency(p, eps).values())


def require_consistent(p, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Return p as an array, raising ConsistencyError if any check fails."""
    p = as_probability_set(p)
    checks = check_consistency(p, eps)
    violations = [v for vs in checks.values() for v in vs]
    if violations:
        lines = "; ".join(v.describe() for v in violations[:4])
        if len(violations) > 4:
            lines += f"; ... ({len(violations)} violations total)"
        raise ConsistencyError(f"inconsistent probability set: {lines}", violations)
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


def sigmas(m) -> Sigmas:
    m = as_measure_vector(m)
    s1 = float(m[list(SIGMA1_STRATEGIES)].sum())
    return Sigmas(s1, float(m.sum()) - s1)


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


def correlation(p, j: int, k: int, eps: float = DEFAULT_EPS) -> float:
    """Correlation coefficient of setting pair (a_j, b_k):
    p(+,+) + p(-,-) - p(+,-) - p(-,+).

    Requires the block to be normalized within eps.
    """
    p = as_probability_set(p)
    block = p[block_slice(j, k)]
    total = float(block.sum())
    if abs(total - 1.0) > eps:
        raise ConsistencyError(
            f"block (a{j},b{k}) is not normalized (sum = {total!r})",
            [BlockViolation(j, k, total)])
    return float(block[0] + block[3] - block[1] - block[2])


def chsh(p, variant: ChshVariant = CANONICAL_VARIANT, eps: float = DEFAULT_EPS) -> float:
    """CHSH sum of correlations for the given sign variant.

    Requires every block normalized within eps.  For any probability set
    passing that check, the canonical variant equals
    2 * (p1 + p4 + p5 + p8 + p9 + p12 + p14 + p15 - 2).
    """
    p = as_probability_set(p)
    bad = check_normalization(p, eps)
    if bad:
        raise ConsistencyError(
            "cannot evaluate CHSH on an unnormalized probability set", bad)
    total = 0.0
    for j, k in SETTING_PAIRS:
        total += variant.pair_sign(j, k) * correlation(p, j, k, eps)
    return variant.overall_sign * total


def chsh_from_measures(m, eps: float = DEFAULT_EPS) -> float:
    """Canonical CHSH sum predicted by a normalized measure vector: 2*(1 - 2*sigma1)."""
    m = as_measure_vector(m)
    total = float(m.sum())
    if abs(total - 1.0) > eps:
        raise ConsistencyError(f"measure vector is not normalized (sum = {total!r})")
    return 2.0 * (1.0 - 2.0 * sigmas(m).sigma1)


def max_abs_chsh(p, eps: float = DEFAULT_EPS) -> float:
    """Largest |CHSH sum| over all 8 variants."""
    return max(abs(chsh(p, v, eps)) for v in CHSH_VARIANTS)


@dataclass(frozen=True)
class ChshReport:
    """All 8 CHSH sums for a probability set, with violation flags.

    deltas is aligned with CHSH_VARIANTS.  sigmas is populated only when the
    report was computed from a measure vector.
    """
    deltas: tuple[float, ...]
    max_abs_delta: float
    sigmas: Sigmas | None = None
    eps: float = DEFAULT_EPS

    def delta(self, variant: ChshVariant) -> float:
        return self.deltas[CHSH_VARIANTS.index(variant)]

    def violated(self, variant: ChshVariant) -> bool:
        return abs(self.delta(variant)) > 2.0 + self.eps

    @property
    def canonical_delta(self) -> float:
        return self.delta(CANONICAL_VARIANT)

    @property
    def any_violation(self) -> bool:
        return self.max_abs_delta > 2.0 + self.eps


def chsh_report(p, eps: float = DEFAULT_EPS) -> ChshReport:
    deltas = tuple(chsh(p, v, eps) for v in CHSH_VARIANTS)
    return ChshReport(deltas, max(abs(d) for d in deltas), None, eps)


def chsh_report_from_measures(m, eps: float = DEFAULT_EPS) -> ChshReport:
    """CHSH report of forward_map(m), carrying the sigma sums of m."""
    m = as_measure_vector(m)
    total = float(m.sum())
    if abs(total - 1.0) > eps:
        raise ConsistencyError(f"measure vector is not normalized (sum = {total!r})")
    p = forward_map(m)
    deltas = tuple(chsh(p, v, eps) for v in CHSH_VARIANTS)
    return ChshReport(deltas, max(abs(d) for d in deltas), sigmas(m), eps)


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
    sigma_in_unit_interval: bool
    has_negative_entry: bool


def negativity_necessity_verdict(m, eps: float = DEFAULT_EPS) -> NecessityVerdict:
    m = as_measure_vector(m)
    total = float(m.sum())
    if abs(total - 1.0) > eps:
        raise ConsistencyError(f"measure vector is not normalized (sum = {total!r})")
    s1 = sigmas(m).sigma1
    in_interval = -eps <= s1 <= 1.0 + eps
    return NecessityVerdict(
        violates_canonical_chsh=not in_interval,
        sigma_in_unit_interval=in_interval,
        has_negative_entry=bool(np.any(m < 0.0)),
    )


def total_negativity(m) -> float:
    """Sum of the magnitudes of the negative weights."""
    m = as_measure_vector(m)
    return float(np.maximum(0.0, -m).sum())


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
