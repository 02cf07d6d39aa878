"""Inversion of the forward map: measure vectors reproducing a given box.

A consistent probability set leaves only 8 of its 16 entries independent, so
the 16 measure weights are underdetermined: fixing the 7 weights
(m2, m3, m7, m10, m14, m15, m16) determines the remaining 9 uniquely.  The
resulting family, the paper's general solution, is affine in the free
weights, always sums to 1, and always reproduces the input box; its weight
on the strategies with CHSH value -2 under each variant (model.sigma_minus)
is pinned by the box alone.  solve is its one entry point.

Each family is one constant matrix, derived from FORWARD_MATRIX at import:
the weight sum, the 8 independent entries and 7 constraints, here the free
weights, are 16 linear functions that fix m, so the inverse of their rows
(_family) takes (1, p_ind, free) to all 16 weights.  When one setting pair
is perfectly correlated (p2 = p3 = 0) the 8 strategies that would produce a
disagreeing outcome there can be dropped: pinned at zero with m16, they
leave a one-parameter family in m16, derived the same way in the face's own
coordinates (p4, p8, p9, p12, p14, p15).
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    DEFAULT_EPS,
    FORWARD_MATRIX,
    INDEPENDENT_INDICES,
    ConsistencyError,
    _INDEPENDENT,
    _exact,
    _frozen,
    _product,
    require_consistent,
)

#: 0-based strategy indices of the free weights (m2, m3, m7, m10, m14, m15, m16),
#: in the order solve takes them.
FREE_INDICES = (1, 2, 6, 9, 13, 14, 15)


def _family(coordinates, constraints: np.ndarray) -> np.ndarray:
    """The inverse of the 16 rows (ones, F[coordinates], constraints), rounded by _exact:
    m = _family(...) @ (sum(m), p[coordinates], constraints @ m) for p = F @ m.  A stack
    of constraint blocks, shape (..., k, 16), gives a stack of inverses."""
    head = np.vstack([np.ones(16), FORWARD_MATRIX[list(coordinates)]])
    head = np.broadcast_to(head, (*constraints.shape[:-2], *head.shape))
    return _exact(np.linalg.inv(np.concatenate([head, constraints], axis=-2)))


#: All 16 weights = _SOLUTION @ (1, p_ind, free).
_SOLUTION = _frozen(_family(INDEPENDENT_INDICES, np.eye(16)[list(FREE_INDICES)]))
#: All 16 weights on the face = _FACE_SOLUTION @ (1, coordinates, m16), exact zeros off it.
_FACE_COORDINATES = _frozen(np.array([3, 7, 8, 11, 13, 14]))
_FACE_SOLUTION = _frozen(_family(_FACE_COORDINATES, np.eye(16)[
    [15, *np.flatnonzero(FORWARD_MATRIX[[1, 2]].sum(axis=0))]])[:, :8])


def _solution(family: np.ndarray, x: np.ndarray) -> np.ndarray:
    """family @ x, or ValueError unless every weight is finite."""
    m = _product(family, x, sum(map(abs, x.tolist())))
    if not all(map(math.isfinite, m.tolist())):
        raise ValueError("the solution at these free weights is not finite")
    return m


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
    free = np.zeros(7) if free is None else np.asarray(free, dtype=float)
    if free.shape != (7,):
        raise ValueError(f"expected 7 free weights, got shape {free.shape}")
    if not all(map(math.isfinite, free.tolist())):
        raise ValueError("free weights contain non-finite entries")
    x = np.concatenate(([1.0], require_consistent(p, eps)[_INDEPENDENT], free))
    return _solution(_SOLUTION, x)


def perfect_correlation_solution(p, m16: float = 0.0,
                                 eps: float = DEFAULT_EPS) -> np.ndarray:
    """One-parameter solution family for boxes with p2 = p3 = 0.

    The 8 strategies predicting disagreeing (a1, b1) outcomes are given zero
    weight (m5 .. m12 = 0) and the remaining 7 weights follow from the box and
    the chosen m16.  Requires p consistent and p2, p3 both zero within eps;
    raises ValueError unless m16 and the result are finite.

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
    return _solution(_FACE_SOLUTION, np.concatenate(([1.0], p[_FACE_COORDINATES], [m16])))
