"""Inversion of the forward map: measure vectors reproducing a given box.

A consistent probability set leaves only 8 of its 16 entries independent, so
the 16 measure weights are underdetermined: fixing the 7 weights
(m2, m3, m7, m10, m14, m15, m16) determines the remaining 9 uniquely.  The
resulting family, the paper's general solution, is affine in the free
weights, always sums to 1, and always reproduces the input box; its weight
on the strategies with CHSH value -2 under each variant (model.sigma_minus)
is pinned by the box alone.  solve is its one entry point.

The family is the preimage of the box under FORWARD_MATRIX, derived from it
at import: the 9 solved columns of F have rank 9, so solving them against the
box embedding (1, p_ind) -> p (model.box_from_independent) and the free
columns gives one constant matrix from (1, p_ind, free) to the solved
weights, rounded to the nearest half.

When one setting pair is perfectly correlated (p2 = p3 = 0) the 8 strategies
that would produce a disagreeing outcome there can be dropped, leaving a
one-parameter family in m16, derived the same way in the face's own
coordinates (p4, p8, p9, p12, p14, p15), where its coefficients are unique.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    DEFAULT_EPS,
    FORWARD_MATRIX,
    ConsistencyError,
    _BOX_EMBEDDING,
    _INDEPENDENT,
    _embedding,
    _half_integer_solve,
    _product,
    require_consistent,
)

#: 0-based strategy indices of the free weights (m2, m3, m7, m10, m14, m15, m16),
#: in the order solve takes them.
FREE_INDICES = (1, 2, 6, 9, 13, 14, 15)
#: 0-based strategy indices of the dependent weights (m1, m4, m5, m6, m8, m9, m11, m12, m13).
SOLVED_INDICES = (0, 3, 4, 5, 7, 8, 10, 11, 12)

_FREE = np.array(FREE_INDICES)
_SOLVED = np.array(SOLVED_INDICES)

#: Solved weights = _FAMILY @ (1, p_ind, free).
_FAMILY = _half_integer_solve(FORWARD_MATRIX[:, _SOLVED],
                              np.hstack([_BOX_EMBEDDING, -FORWARD_MATRIX[:, _FREE]]))
#: Takes (solved weights, free weights) to strategy order.
_STRATEGY_ORDER = np.array([(SOLVED_INDICES + FREE_INDICES).index(s) for s in range(16)])
_NO_FREE = np.zeros(7)

#: The strategies that agree on (a1, b1), the only ones p2 = p3 = 0 allows.
#: m16 is the free weight of that face and (p4, p8, p9, p12, p14, p15) are
#: its coordinates: the other face weights = _FACE_FAMILY @ (1, coordinates, m16).
_AGREE = np.flatnonzero(FORWARD_MATRIX[[1, 2]].sum(axis=0) == 0)
_M16 = FREE_INDICES[-1]
_FACE_SOLVED = _AGREE[_AGREE != _M16]
_FACE_COORDINATES = np.array([3, 7, 8, 11, 13, 14])
_FACE_FAMILY = _half_integer_solve(FORWARD_MATRIX[:, _FACE_SOLVED], np.column_stack(
    [_embedding(_AGREE, _FACE_COORDINATES), -FORWARD_MATRIX[:, _M16]]))


def solve(p, free=None, eps: float = DEFAULT_EPS) -> np.ndarray:
    """The paper's general solution: the measure vector reproducing the
    consistent probability set p at the given point of the 7-parameter
    family.  free holds the 7 free weights in FREE_INDICES order, so
    solve(p, free)[FREE_INDICES] == free; None means all zero.

    Affine in the free weights, which may take any finite real values: the
    result always sums to 1 and its forward map always reproduces p's
    independent entries and the dependent ones they imply.  Its
    sigma_minus is (2 - delta_v) / 4 in each variant v, delta_v the box's
    CHSH sum, whatever the free weights.  Raises ValueError unless free has
    7 finite entries and the result is finite, and ConsistencyError if p
    fails a check at eps.
    """
    free = _NO_FREE if free is None else np.asarray(free, dtype=float)
    if free.shape != (7,):
        raise ValueError(f"expected 7 free weights, got shape {free.shape}")
    if not all(map(math.isfinite, free.tolist())):
        raise ValueError("free weights contain non-finite entries")
    x = np.concatenate(([1.0], require_consistent(p, eps)[_INDEPENDENT], free))
    solved = _product(_FAMILY, x, sum(map(abs, x.tolist())))
    if not all(map(math.isfinite, solved.tolist())):
        raise ValueError("the solution at these free weights is not finite")
    return np.concatenate((solved, free))[_STRATEGY_ORDER]


def perfect_correlation_solution(p, m16: float = 0.0,
                                 eps: float = DEFAULT_EPS) -> np.ndarray:
    """One-parameter solution family for boxes with p2 = p3 = 0.

    The 8 strategies predicting disagreeing (a1, b1) outcomes are given zero
    weight (m5 .. m12 = 0) and the remaining 7 weights follow from the box and
    the chosen m16.  Requires p consistent and p2, p3 both zero within eps.

    The pair sum m4 + m13 always equals 1 - p8 - p9 - p15, so whenever
    p8 + p9 + p15 > 1 (canonical CHSH above 2) one of the two is negative.
    """
    p = require_consistent(p, eps)
    p2, p3 = p[1:3].tolist()
    if abs(p2) > eps or abs(p3) > eps:
        raise ConsistencyError(
            f"perfect correlation requires p2 = p3 = 0, got p2 = {p2!r}, p3 = {p3!r}")
    if not math.isfinite(m16):
        raise ValueError(f"m16 must be finite, got {m16!r}")
    m = np.zeros(16)
    m[_FACE_SOLVED] = _FACE_FAMILY @ np.concatenate(([1.0], p[_FACE_COORDINATES], [m16]))
    m[_M16] = m16
    return m
