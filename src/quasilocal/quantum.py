"""Two-qubit Born-rule generator for reference probability sets.

A pure two-qubit state plus four spin-measurement directions (two per party)
defines a 2x2x2 experiment; the Born rule gives its 16 joint probabilities,
which always form a consistent box.  These serve as quantum fixtures: the
singlet state with well-chosen coplanar directions reaches |CHSH| = 2*sqrt(2),
product states stay at 2, and no pure state exceeds the quantum ceiling.

A state enters every Born-rule value through one real 4x4 matrix, its
correlation tensor R[mu, nu] = <psi| sigma_mu (x) sigma_nu |psi> over the
Paulis (I, x, y, z) (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340
(1995)).  The projector onto outcome m along a is (I + m a.sigma)/2, so
p(m, n | a, b) = (1, m a) R (1, n b)^T / 4, and the x-z correlations that
maximize_chsh searches are the block R[(x, z), (x, z)].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import OUTCOMES, _PROB_INDEX

_UNIT_EPS = 1e-12

#: The Pauli basis (I, sigma_x, sigma_y, sigma_z), shape (4, 2, 2).
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _squared_norm(values) -> float:
    """Sum of |v|^2 over finite values; inf where a value is too large to
    square, which raises OverflowError in Python float arithmetic."""
    try:
        return sum(abs(v) ** 2 for v in values)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class TwoQubitState:
    """Pure two-qubit state, amplitudes in basis order |++>, |+->, |-+>, |-->
    (z-basis product states, first slot party A).  Must have unit norm."""
    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError(f"expected 4 amplitudes, got {len(amps)}")
        if not all(cmath.isfinite(a) for a in amps):
            raise ValueError("amplitudes contain non-finite values")
        norm_sq = _squared_norm(amps)
        if abs(norm_sq - 1.0) > _UNIT_EPS:
            raise ValueError(f"state is not normalized: |amplitudes|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class MeasurementDirection:
    """Unit Bloch vector along which a spin component is measured."""
    x: float
    y: float
    z: float

    def __post_init__(self):
        components = (self.x, self.y, self.z)
        if not all(math.isfinite(c) for c in components):
            raise ValueError("direction contains non-finite components")
        norm_sq = _squared_norm(components)
        if abs(norm_sq - 1.0) > _UNIT_EPS:
            raise ValueError(f"direction is not a unit vector: |n|^2 = {norm_sq!r}")

    @classmethod
    def from_xz_angle(cls, degrees: float) -> "MeasurementDirection":
        """Direction in the x-z plane at the given angle from +z."""
        rad = math.radians(degrees)
        return cls(math.sin(rad), 0.0, math.cos(rad))


@dataclass(frozen=True)
class QubitScenario:
    """A state and the four measurement directions of a 2x2x2 experiment."""
    state: TwoQubitState
    a1: MeasurementDirection
    a2: MeasurementDirection
    b1: MeasurementDirection
    b2: MeasurementDirection


def singlet() -> TwoQubitState:
    """The spin-zero state (|+-> - |-+>) / sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return TwoQubitState((0.0, r, -r, 0.0))


def _correlation_tensor(state: TwoQubitState) -> np.ndarray:
    """R[mu, nu] = <psi| sigma_mu (x) sigma_nu |psi> for mu, nu over (I, x, y, z)."""
    psi = np.array(state.amplitudes).reshape(2, 2)   # [A's z bit, B's z bit]
    value = np.einsum("ab,mac,nbd,cd->mn", psi.conj(), _PAULIS, _PAULIS, psi)
    residue = np.abs(value.imag).max()
    if residue > _UNIT_EPS:
        raise ValueError(f"correlation tensor has imaginary residue {residue!r}")
    return value.real


def _outcome_vectors(directions) -> np.ndarray:
    """(1, m d) for each direction d and outcome m, shape (len, 2, 4), with
    outcomes in OUTCOMES order."""
    bloch = np.array([(d.x, d.y, d.z) for d in directions])
    vectors = np.ones((len(bloch), len(OUTCOMES), 4))
    vectors[..., 1:] = bloch[:, None, :] * np.array(OUTCOMES)[:, None]
    return vectors


def _born_table(state: TwoQubitState, directions_a, directions_b) -> np.ndarray:
    """p[j, k, m, n] = (1, m a_j) R (1, n b_k)^T / 4, outcomes in OUTCOMES order."""
    return np.einsum("jmu,uv,knv->jkmn", _outcome_vectors(directions_a),
                     _correlation_tensor(state), _outcome_vectors(directions_b)) / 4.0


def born_probability(state: TwoQubitState,
                     direction_a: MeasurementDirection, outcome_a: int,
                     direction_b: MeasurementDirection, outcome_b: int) -> float:
    """Joint probability of (outcome_a, outcome_b) when party A measures spin
    along direction_a and party B along direction_b.  Not clamped: rounding
    can leave a zero probability a few 1e-17 below 0."""
    if outcome_a not in OUTCOMES or outcome_b not in OUTCOMES:
        raise ValueError(f"outcomes must be +1 or -1, got {outcome_a!r}, {outcome_b!r}")
    table = _born_table(state, [direction_a], [direction_b])
    return float(table[0, 0, OUTCOMES.index(outcome_a), OUTCOMES.index(outcome_b)])


def generate_probability_set(scenario: QubitScenario) -> np.ndarray:
    """The 16 Born-rule joint probabilities of a scenario, in canonical order.

    The output always passes normalization, no-signaling, and the derived
    relations to floating-point accuracy.
    """
    p = np.empty(16)
    p[_PROB_INDEX] = _born_table(scenario.state, (scenario.a1, scenario.a2),
                                 (scenario.b1, scenario.b2))
    return p


def flip_outcomes(p, party: str) -> np.ndarray:
    """Relabel one party's outcomes (+ <-> -) in a probability set.

    Maps consistent boxes to consistent boxes; turns the singlet's perfect
    anticorrelation at equal settings (p1 = p4 = 0) into perfect correlation
    (p2 = p3 = 0), the form the perfect-correlation solver expects.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (16,):
        raise ValueError(f"probability set must have 16 entries, got shape {p.shape}")
    # bit 1 of a probability index is A's outcome bit, bit 0 is B's (prob_index)
    bit = {"A": 2, "B": 1}.get(party)
    if bit is None:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return p[np.arange(16) ^ bit]


@dataclass(frozen=True)
class ChshSearchResult:
    """Best |CHSH| found by the coplanar grid search.

    directions holds (a1, a2, b1, b2); angles_deg the matching x-z plane
    angles.  best_delta is the largest |CHSH sum| over all 8 sign variants
    that these directions reach.
    """
    best_delta: float
    directions: tuple[MeasurementDirection, ...]
    angles_deg: tuple[float, float, float, float]


#: Grid values this close to the maximum count as ties in maximize_chsh.
TIE_TOL = 1e-12

#: Grid steps accepted by maximize_chsh, in degrees: at most 3,600 angles.
RESOLUTION_RANGE_DEG = (0.1, 45.0)

# Slack on the pair bound, far above the rounding error of U and pair_best.
_BOUND_MARGIN = 1e-9
# Elements per block of the exact re-check of the near-best pairs.
_CHUNK = 1 << 20


def _pair_bound(w: np.ndarray) -> np.ndarray:
    """U[i1, i2] = |w[i1] + w[i2]| + |w[i1] - w[i2]| for the rows of an n x 2
    array, with at most three n x n tables alive at once."""
    x, z = w.T
    sx, sz = np.add.outer(x, x), np.add.outer(z, z)
    bound = np.hypot(sx, sz)
    np.subtract.outer(x, x, out=sx)
    np.subtract.outer(z, z, out=sz)
    bound += np.hypot(sx, sz, out=sx)
    return bound


def _pair_best(corr: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """max|u + v| + max|u - v| for the table rows u = corr[first] and
    v = corr[second], reduced down columns of corr.T in blocks of about
    _CHUNK elements."""
    columns = corr.T
    pair_best = np.empty(len(first))
    per_chunk = max(1, _CHUNK // len(columns))
    for start in range(0, len(first), per_chunk):
        part = slice(start, start + per_chunk)
        u, v = columns[:, first[part]], columns[:, second[part]]
        pair_best[part] = np.abs(u + v).max(axis=0) + np.abs(u - v).max(axis=0)
    return pair_best


def maximize_chsh(state: TwoQubitState, resolution_deg: float = 5.0) -> ChshSearchResult:
    """Grid search for the x-z plane directions maximizing |CHSH| over all variants.

    All four directions range over the x-z plane, angles 0 <= theta < 360 in
    steps of resolution_deg, which must lie in [0.1, 45] (at most 3,600 grid
    angles).  The plane is a real limitation: states whose optimal directions
    leave it fall short of the quantum maximum.  For example
    (|00> + i|11>)/sqrt(2) reports 2 (up to rounding), not 2*sqrt(2); the full
    3-D closed form is ROADMAP item 2.  Grid values within TIE_TOL of the
    maximum are ties, and ties keep the lexicographically smallest
    (a1, a2, b1, b2) angle tuple.

    The correlation is bilinear in the two Bloch vectors, E(a, b) = a^T T b
    with T = R[1:, 1:] the spin part of the correlation tensor, so the grid's
    correlation table reads only the x-z block R[(x, z), (x, z)]: the row of
    a1 is w1 . g over the grid directions g, with w1 = a1 . block.  For fixed
    (a1, a2) with table rows u and v the best |CHSH| over (b1, b2) and all
    variants is pair_best = max|u + v| + max|u - v|.  Every direction lies
    within half a step h of a grid direction, so U = |w1 + w2| + |w1 - w2|
    bounds it: cos(h/2) U <= pair_best <= U.  Only pairs with U near
    cos(h/2) max U can reach the maximum or tie with it, and pair_best is
    computed exactly for those alone; where max U < TIE_TOL / 2 (an x-z block
    that vanishes) all pairs tie and the first wins.  The result is bit for
    bit that of the exhaustive search over all pairs, in O(n^2) time and
    memory for n grid angles.
    """
    low, high = RESOLUTION_RANGE_DEG
    if not low <= resolution_deg <= high:
        raise ValueError(
            f"resolution must be in [{low:g}, {high:g}] degrees, got {resolution_deg!r}")
    step = float(resolution_deg)
    angles = np.arange(0.0, 360.0, step)
    radians = np.radians(angles)
    grid = np.stack([np.sin(radians), np.cos(radians)], axis=1)   # (x, z) per angle
    w = grid @ _correlation_tensor(state)[np.ix_((1, 3), (1, 3))]

    bound = _pair_bound(w)
    top = bound.max()
    if top < TIE_TOL / 2.0:
        # every pair_best is below TIE_TOL, so all pairs tie and the first wins
        first = second = np.zeros(1, dtype=np.intp)
    else:
        # Swapping a1 and a2 only flips the sign of u - v, so pair_best is
        # symmetric and the pairs with i1 <= i2 suffice; nonzero lists them
        # in row-major order, the order that breaks ties.
        cut = math.cos(math.radians(step) / 2.0) * top - TIE_TOL - _BOUND_MARGIN
        first, second = np.nonzero(bound >= cut)
        upper = first <= second
        first, second = first[upper], second[upper]
    del bound

    corr = w @ grid.T
    pair_best = _pair_best(corr, first, second)
    threshold = pair_best.max() - TIE_TOL
    k = np.flatnonzero(pair_best >= threshold)[0]
    i1, i2 = first[k], second[k]

    # With s = u + v and d = u - v, the variants negating an (a, b2) term are
    # s_b1 +- d_b2 and those negating an (a, b1) term are s_b2 +- d_b1; the
    # larger absolute value of each pair is |s| + |d|, also after rounding.
    # Row b1 of max(s_b1 + d_b2, d_b1 + s_b2) peaks at
    # max(s_b1 + max d, d_b1 + max s), exactly, as rounding is monotone; so
    # the first row reaching the threshold, then its first entry, is the
    # row-major first hit of the whole n x n table.
    s, d = np.abs(corr[i1] + corr[i2]), np.abs(corr[i1] - corr[i2])
    ib1 = np.flatnonzero(np.maximum(s + d.max(), d + s.max()) >= threshold)[0]
    row = np.maximum(s[ib1] + d, d[ib1] + s)
    ib2 = np.flatnonzero(row >= threshold)[0]

    chosen = tuple(float(angles[i]) for i in (i1, i2, ib1, ib2))
    return ChshSearchResult(
        best_delta=float(row[ib2]),
        directions=tuple(MeasurementDirection.from_xz_angle(t) for t in chosen),
        angles_deg=chosen,
    )
