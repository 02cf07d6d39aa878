"""Two-qubit Born-rule generator for reference probability sets.

A pure two-qubit state plus four spin-measurement directions (two per party)
defines a 2x2x2 experiment; the Born rule gives its 16 joint probabilities,
which always form a consistent box.  These serve as quantum fixtures: the
singlet state with well-chosen coplanar directions reaches |CHSH| = 2*sqrt(2),
product states stay at 2, and no pure state exceeds the quantum ceiling.

Probabilities are computed by applying the 2x2 projectors (I +/- n.sigma)/2
directly to amplitude index pairs; no 4x4 operator is ever materialized and
no linear-algebra library is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    MINUS,
    OUTCOMES,
    PLUS,
    prob_index,
)

_UNIT_EPS = 1e-12


@dataclass(frozen=True)
class TwoQubitState:
    """Pure two-qubit state, amplitudes in basis order |++>, |+->, |-+>, |-->
    (z-basis product states, first slot party A).  Must have unit norm."""
    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError(f"expected 4 amplitudes, got {len(amps)}")
        norm_sq = sum(abs(a) ** 2 for a in amps)
        if not math.isfinite(norm_sq):
            raise ValueError("amplitudes contain non-finite values")
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
        norm_sq = self.x ** 2 + self.y ** 2 + self.z ** 2
        if not math.isfinite(norm_sq):
            raise ValueError("direction contains non-finite components")
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

    def direction(self, party: str, index: int) -> MeasurementDirection:
        return {("a", 1): self.a1, ("a", 2): self.a2,
                ("b", 1): self.b1, ("b", 2): self.b2}[(party, index)]


def singlet() -> TwoQubitState:
    """The spin-zero state (|+-> - |-+>) / sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return TwoQubitState((0.0, r, -r, 0.0))


def _projector(direction: MeasurementDirection, outcome: int):
    """2x2 projector onto the +/-1 eigenspace of n.sigma, as 4 complex entries."""
    s = float(outcome)
    return (0.5 * (1.0 + s * direction.z),
            0.5 * s * (direction.x - 1j * direction.y),
            0.5 * s * (direction.x + 1j * direction.y),
            0.5 * (1.0 - s * direction.z))


def _apply_first(proj, amps):
    p00, p01, p10, p11 = proj
    a0, a1, a2, a3 = amps
    return (p00 * a0 + p01 * a2, p00 * a1 + p01 * a3,
            p10 * a0 + p11 * a2, p10 * a1 + p11 * a3)


def _apply_second(proj, amps):
    p00, p01, p10, p11 = proj
    a0, a1, a2, a3 = amps
    return (p00 * a0 + p01 * a1, p10 * a0 + p11 * a1,
            p00 * a2 + p01 * a3, p10 * a2 + p11 * a3)


def born_probability(state: TwoQubitState,
                     direction_a: MeasurementDirection, outcome_a: int,
                     direction_b: MeasurementDirection, outcome_b: int) -> float:
    """Joint probability of (outcome_a, outcome_b) when party A measures spin
    along direction_a and party B along direction_b."""
    if outcome_a not in OUTCOMES or outcome_b not in OUTCOMES:
        raise ValueError(f"outcomes must be +1 or -1, got {outcome_a!r}, {outcome_b!r}")
    projected = _apply_second(_projector(direction_b, outcome_b),
                              _apply_first(_projector(direction_a, outcome_a),
                                           state.amplitudes))
    value = sum(a.conjugate() * q for a, q in zip(state.amplitudes, projected))
    if abs(value.imag) > _UNIT_EPS:
        raise ValueError(f"probability has imaginary residue {value.imag!r}")
    return min(1.0, max(0.0, value.real))


def generate_probability_set(scenario: QubitScenario) -> np.ndarray:
    """The 16 Born-rule joint probabilities of a scenario, in canonical order.

    The output always passes normalization, no-signaling, and the derived
    relations to floating-point accuracy.
    """
    p = np.empty(16)
    for j in (1, 2):
        for k in (1, 2):
            da = scenario.direction("a", j)
            db = scenario.direction("b", k)
            for m in OUTCOMES:
                for n in OUTCOMES:
                    p[prob_index(j, k, m, n)] = born_probability(
                        scenario.state, da, m, db, n)
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
    out = np.empty(16)
    for j in (1, 2):
        for k in (1, 2):
            for m in OUTCOMES:
                for n in OUTCOMES:
                    if party == "A":
                        src = prob_index(j, k, -m, n)
                    elif party == "B":
                        src = prob_index(j, k, m, -n)
                    else:
                        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
                    out[prob_index(j, k, m, n)] = p[src]
    return out


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


def _pair_correlation(state: TwoQubitState,
                      da: MeasurementDirection, db: MeasurementDirection) -> float:
    pp = born_probability(state, da, PLUS, db, PLUS)
    pm = born_probability(state, da, PLUS, db, MINUS)
    mp = born_probability(state, da, MINUS, db, PLUS)
    mm = born_probability(state, da, MINUS, db, MINUS)
    return pp + mm - pm - mp


def maximize_chsh(state: TwoQubitState, resolution_deg: float = 5.0) -> ChshSearchResult:
    """Grid search for the x-z plane directions maximizing |CHSH| over all variants.

    All four directions range over the x-z plane, angles 0 <= theta < 360 in
    steps of resolution_deg (which must lie in (0, 45]).  The plane is a real
    limitation: states whose optimal directions leave it fall short of the
    quantum maximum.  For example (|00> + i|11>)/sqrt(2) reports 2 (up to
    rounding), not 2*sqrt(2); the full 3-D closed form is ROADMAP item 1.
    Grid values within TIE_TOL of the maximum are ties, and ties keep the
    lexicographically smallest (a1, a2, b1, b2) angle tuple.

    The correlation is bilinear in the two Bloch vectors, E(a, b) = a^T T b
    with T the correlation tensor (Horodecki, Horodecki & Horodecki, Phys.
    Lett. A 200, 340 (1995)), so the grid's correlation table needs only the
    x-z block of T.  For fixed (a1, a2) with table rows u and v the best
    |CHSH| over (b1, b2) and all variants is max|u + v| + max|u - v|, which
    makes the search O(n^3) in time and O(n^2) in memory for n grid angles.
    """
    if not 0.0 < resolution_deg <= 45.0:
        raise ValueError(f"resolution must be in (0, 45] degrees, got {resolution_deg!r}")
    angles = np.arange(0.0, 360.0, float(resolution_deg))
    radians = np.radians(angles)
    grid = np.stack([np.sin(radians), np.cos(radians)], axis=1)   # (x, z) per angle
    axes = (MeasurementDirection(1.0, 0.0, 0.0), MeasurementDirection(0.0, 0.0, 1.0))
    block = np.array([[_pair_correlation(state, da, db) for db in axes] for da in axes])
    corr = grid @ block @ grid.T

    # pair_best[i1, i2]: best |CHSH| with a1 = i1, a2 = i2, one a1 row at a
    # time.  Swapping a1 and a2 only flips the sign of u - v, so the table is
    # symmetric and each row needs only i2 >= i1.
    pair_best = np.zeros_like(corr)
    for i1, u in enumerate(corr):
        rest = corr[i1:]
        pair_best[i1, i1:] = np.abs(u + rest).max(axis=1) + np.abs(u - rest).max(axis=1)
    pair_best = np.maximum(pair_best, pair_best.T)
    threshold = pair_best.max() - TIE_TOL
    i1, i2 = np.argwhere(pair_best >= threshold)[0]

    # With s = u + v and d = u - v, the variants negating an (a, b2) term are
    # s_b1 +- d_b2 and those negating an (a, b1) term are s_b2 +- d_b1; the
    # larger absolute value of each pair is |s| + |d|, also after rounding.
    s, d = np.abs(corr[i1] + corr[i2]), np.abs(corr[i1] - corr[i2])
    candidates = np.maximum(np.add.outer(s, d), np.add.outer(d, s))
    ib1, ib2 = np.argwhere(candidates >= threshold)[0]

    chosen = tuple(float(angles[i]) for i in (i1, i2, ib1, ib2))
    return ChshSearchResult(
        best_delta=float(candidates[ib1, ib2]),
        directions=tuple(MeasurementDirection.from_xz_angle(t) for t in chosen),
        angles_deg=chosen,
    )
