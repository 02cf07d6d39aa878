"""Two-qubit Born-rule generator for reference probability sets.

A pure two-qubit state plus four spin-measurement directions (two per party)
defines a 2x2x2 experiment; the Born rule gives its 16 joint probabilities,
which always form a consistent box.  These serve as quantum fixtures: the
singlet state with well-chosen coplanar directions reaches |CHSH| = 2*sqrt(2),
product states stay at 2, and no pure state exceeds the quantum ceiling.

A state enters every Born-rule value through one real 4x4 matrix, its
correlation tensor R[mu, nu] = <psi| sigma_mu (x) sigma_nu |psi> over the
Paulis (I, x, y, z) (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340
(1995)): one product of psi and conj(psi) with the constant Pauli products,
cached on the state.  The projector onto outcome m along a is (I + m a.sigma)/2,
so a box is one product A R B^T / 4 with each party's outcome matrix, rows
(1, m d_j), and maximize_chsh maximizes the x-z block R[(x, z), (x, z)].

The records are typing.NamedTuples, immutable and compared by field.
TwoQubitState and MeasurementDirection subclass one to validate in __new__;
the cached R is a state's only attribute outside its fields.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import OUTCOMES, _frozen, _vector16

_UNIT_EPS = 1e-12

#: The Pauli basis (I, sigma_x, sigma_y, sigma_z), shape (4, 2, 2).
_PAULIS = _frozen(np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                             [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]))
#: sigma_mu (x) sigma_nu at row 4 mu + nu, as 4x4 matrices on the basis |ab> at 2a + b.
_PAULI_PRODUCTS = _frozen(np.einsum("mac,nbd->mnabcd", _PAULIS, _PAULIS).reshape(16, 4, 4))

#: Signs of (1, m d) on the outcome matrices' rows (a1, m), (a2, m), (b1, m), (b2, m).
_OUTCOME_SIGNS = _frozen(np.array([(1.0, m, m, m) for _ in range(4) for m in OUTCOMES]))
#: Position in A @ R @ B^T, rows (j, m) and columns (k, n), of each canonical entry (j, k, m, n).
_CANONICAL = _frozen(np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16))


class TwoQubitState(NamedTuple("TwoQubitState", [("amplitudes", tuple)])):
    """Pure two-qubit state, amplitudes in basis order |++>, |+->, |-+>, |-->
    (z-basis product states, first slot party A).  Must have unit norm."""

    def __new__(cls, amplitudes):
        amps = tuple(complex(a) for a in amplitudes)
        if len(amps) != 4:
            raise ValueError(f"expected 4 amplitudes, got {len(amps)}")
        if not all(cmath.isfinite(a) for a in amps):
            raise ValueError("amplitudes contain non-finite values")
        try:
            norm_sq = sum(abs(a) ** 2 for a in amps)
        except OverflowError:           # a finite amplitude too large to square
            norm_sq = math.inf
        if abs(norm_sq - 1.0) > _UNIT_EPS:
            raise ValueError(f"state is not normalized: |amplitudes|^2 = {norm_sq!r}")
        return super().__new__(cls, amps)
    _make = classmethod(lambda cls, fields: cls(*fields))     # so _replace validates too

    def __setattr__(self, name, value=None):    # the cached R alone enters __dict__
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    @cached_property
    def correlation_tensor(self) -> np.ndarray:
        """Read-only R[mu, nu] = <psi| sigma_mu (x) sigma_nu |psi>, mu, nu over (I, x, y, z)."""
        psi = np.array(self.amplitudes)
        value = ((_PAULI_PRODUCTS @ psi) @ psi.conj()).reshape(4, 4)
        residue = np.abs(value.imag).max()
        if residue > _UNIT_EPS:
            raise ValueError(f"correlation tensor has imaginary residue {residue!r}")
        tensor = value.real
        tensor.setflags(write=False)
        return tensor


class MeasurementDirection(NamedTuple("MeasurementDirection",
                                      [("x", float), ("y", float), ("z", float)])):
    """Unit Bloch vector along which a spin component is measured."""
    __slots__ = ()

    def __new__(cls, x, y, z):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("direction contains non-finite components")
        # Python floats square to inf without the warning of a numpy scalar
        fx, fy, fz = float(x), float(y), float(z)
        norm_sq = fx * fx + fy * fy + fz * fz
        if abs(norm_sq - 1.0) > _UNIT_EPS:
            raise ValueError(f"direction is not a unit vector: |n|^2 = {norm_sq!r}")
        return super().__new__(cls, x, y, z)
    _make = classmethod(lambda cls, fields: cls(*fields))     # so _replace validates too

    @classmethod
    def from_xz_angle(cls, degrees: float) -> "MeasurementDirection":
        """Direction in the x-z plane at the given angle from +z."""
        rad = math.radians(degrees)
        return cls(math.sin(rad), 0.0, math.cos(rad))


class QubitScenario(NamedTuple):
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


def generate_probability_set(scenario: QubitScenario) -> np.ndarray:
    """The 16 Born-rule joint probabilities of a scenario, in canonical order:
    p[j, k, m, n] = (1, m a_j) R (1, n b_k)^T / 4, outcomes in OUTCOMES order.

    The output always passes normalization, no-signaling, and the derived
    relations to floating-point accuracy.  Not clamped: rounding can leave a
    zero probability a few 1e-17 below 0.
    """
    a1, a2, b1, b2 = scenario.a1, scenario.a2, scenario.b1, scenario.b2
    outcome = _OUTCOME_SIGNS * [(1.0, d.x, d.y, d.z) for d in (a1, a1, a2, a2, b1, b1, b2, b2)]
    box = outcome[:4] @ (scenario.state.correlation_tensor @ outcome[4:].T) / 4.0
    return box.reshape(16)[_CANONICAL]


def flip_outcomes(p, party: str) -> np.ndarray:
    """Relabel one party's outcomes (+ <-> -) in a probability set.

    Maps consistent boxes to consistent boxes; turns the singlet's perfect
    anticorrelation at equal settings (p1 = p4 = 0) into perfect correlation
    (p2 = p3 = 0), the form the perfect-correlation solver expects.
    """
    p = _vector16(p, "probability set")
    # the canonical order is row-major on axes (j, k, m, n) (model.PROB_EVENTS)
    axis = {"A": 2, "B": 3}.get(party)
    if axis is None:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return np.flip(p.reshape(2, 2, 2, 2), axis).flatten()


class ChshSearchResult(NamedTuple):
    """Largest |CHSH| over measurement directions in the x-z plane.

    directions holds (a1, a2, b1, b2); angles_deg the matching x-z plane
    angles, atan2(x, z) in degrees in [0, 360), from which from_xz_angle
    rebuilds directions exactly.  best_delta is 2 ||B||_F for the x-z block B
    of the correlation tensor, the largest |CHSH sum| over all 8 variants in
    that plane; these directions reach it under the canonical variant, to
    rounding.
    """
    best_delta: float
    directions: tuple[MeasurementDirection, ...]
    angles_deg: tuple[float, float, float, float]


def _xz_angle(vector) -> float:
    """Angle of an (x, z) vector from +z toward +x, in degrees in [0, 360)."""
    angle = math.degrees(math.atan2(vector[0], vector[1])) % 360.0
    return angle if angle < 360.0 else 0.0   # a tiny negative angle rounds up to 360


def maximize_chsh(state: TwoQubitState, resolution_deg: float = 5.0) -> ChshSearchResult:
    """The x-z plane directions maximizing |CHSH| over all variants, in closed form.

    The correlation is bilinear in the two Bloch vectors, E(a, b) = a^T B b
    for a, b in the x-z plane, with B = R[(x, z), (x, z)] the x-z block of
    the correlation tensor.  With B = U S V^T (s1 >= s2 >= 0) take
    b1,2 = cos t v1 +- sin t v2 at t = atan2(s2, s1); then B(b1 + b2) and
    B(b1 - b2) are 2 cos t s1 u1 and 2 sin t s2 u2, so a1, a2 = u1, u2 point
    along them and the canonical variant reads 2 (s1 cos t + s2 sin t) =
    2 hypot(s1, s2) = 2 ||B||_F, the Horodecki argument (Phys. Lett. A 200,
    340 (1995)) in two dimensions.  No direction pair does better for any
    variant.  Where B vanishes every choice reaches 0.

    The plane is a real limitation: states whose optimal directions leave it
    fall short of the quantum maximum.  For example (|00> + i|11>)/sqrt(2)
    reports 2 (up to rounding), not 2*sqrt(2); the full 3-D closed form is
    ROADMAP item 2a.

    resolution_deg is accepted and ignored: it was the step of the grid
    search this closed form replaced, and callers still pass it by position.
    Anything but a TwoQubitState raises TypeError.
    """
    if not isinstance(state, TwoQubitState):
        raise TypeError(f"maximize_chsh needs a TwoQubitState, got {type(state).__name__}")
    u, s, vt = np.linalg.svd(state.correlation_tensor[1::2, 1::2])
    s1, s2 = s.tolist()
    u1, u2 = u.T.tolist()
    v1, v2 = vt.tolist()
    t = math.atan2(s2, s1)
    cos_t, sin_t = math.cos(t), math.sin(t)
    b_sum = [cos_t * e + sin_t * o for e, o in zip(v1, v2)]
    b_diff = [cos_t * e - sin_t * o for e, o in zip(v1, v2)]
    chosen = tuple(map(_xz_angle, (u1, u2, b_sum, b_diff)))
    return ChshSearchResult(
        best_delta=2.0 * math.hypot(s1, s2),
        directions=tuple(MeasurementDirection.from_xz_angle(a) for a in chosen),
        angles_deg=chosen,
    )
