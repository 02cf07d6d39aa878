"""Minimum negativity of a box, in closed form, with a witness model.

Theorem: a no-signalling box p has a signed local model of total negativity
max(0, (|delta| - 2) / 4), where |delta| is its largest CHSH sum, and no
model of p does better.  The bound holds for every model: a variant sum of
delta forces one of its two complementary 8-strategy sums below zero by
(|delta| - 2) / 4, and the negative weights must cover that deficit.

The witness attaining it is built in two steps.  First, let v be the variant
with the largest signed sum delta_v and mu = max(0, (delta_v - 2) / 2).  Then
p = mu * PR_v + (1 - mu) * L, where PR_v is the PR box of variant v and L is
a local box on the facet CHSH_v = 2 (Barrett et al., Phys. Rev. A 71, 022101
(2005)).  PR_v has the model (1 + C_v) / 16, where C_v(s) = +-2 is the
variant's value on strategy s: it puts -1/16 on the 8 strategies with
C_v = -2, so its negativity is exactly 1/2.  Second, L has a nonnegative
model glued from two three-variable marginals (Fine, Phys. Rev. Lett. 48,
291 (1982)); since L lies on the facet, that model puts no weight on the
strategies with C_v = -2.  The mixture of the two models therefore carries
negativity mu / 2, the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CHSH_VARIANTS,
    DEFAULT_EPS,
    FORWARD_MATRIX,
    _INDEPENDENT,
    _STRATEGY_CHSH,
    _box_from_independent,
    _max_abs,
    _total_negativity,
    chsh,
    chsh_report,
    require_consistent,
)

#: Minimum-norm inverse of the forward map on no-signalling boxes.
_FORWARD_PINV = np.linalg.pinv(FORWARD_MATRIX)

#: Row v: the model (1 + C_v) / 16 of variant v's PR box, and that box.
#: Every entry of both is a multiple of 1/16, so both are exact.
_PR_MODELS = (1.0 + _STRATEGY_CHSH) / 16.0
_PR_BOXES = _PR_MODELS @ FORWARD_MATRIX.T
_PR_MODELS.setflags(write=False)
_PR_BOXES.setflags(write=False)


def _bound(max_abs_delta: float) -> float:
    return max((max_abs_delta - 2.0) / 4.0, 0.0)    # NaN first: max(nan, 0.0) is nan


def chsh_lower_bound(p, eps: float = DEFAULT_EPS) -> float:
    """Largest closed-form negativity bound over the 8 CHSH variants:
    max(0, (|delta_v| - 2) / 4), or NaN when a CHSH sum is NaN, as
    ChshReport.max_abs_delta is."""
    return _bound(chsh_report(p, eps).max_abs_delta)


#: (a1, a2, the (b1, b2) column in q's order) of each strategy, in strategy
#: order: m = T_1[a1][b1, b2] * P(A2 = a2 | b1, b2).
_FINE_TERMS = tuple((a1, a2, b) for a1 in (0, 1) for b1 in (0, 2) for a2 in (0, 1)
                    for b in (b1, b1 + 1))


def _fine_model(box: np.ndarray) -> np.ndarray:
    """Fine's nonnegative model of a local box.

    The joint law of (B1, B2) is q(b1, b2), and each A_j is glued to it
    through a three-variable table T_j(a_j, b1, b2) with the box's (A_j, B1)
    and (A_j, B2) marginals; then m = T_1 * T_2 / q.  The one free entry of
    q and of each T_j sits at the midpoint of its feasible interval; the
    intervals are non-empty exactly when every CHSH sum of the box is at
    most 2, and then T_2 / q = P(A2 | B1, B2) lies in [0, 1].  It is clipped
    there (and set to 0 where q = 0), because rounding in q near 0 would
    otherwise turn into weights of order 1.
    """
    p = box.tolist()
    b1, b2 = p[0] + p[2], p[4] + p[6]                   # P(B1+), P(B2+)
    # (P(A_j+, B1+), P(A_j+, B2+), P(A_j+)) for j = 1, 2
    (u1, w1, a1), (u2, w2, a2) = uwa = ((p[0], p[4], p[0] + p[1]), (p[8], p[12], p[8] + p[9]))
    x = 0.5 * (max(0.0, b1 + b2 - 1.0, u1 + w1 - a1, u2 + w2 - a2,
                   a1 + b1 + b2 - 1.0 - u1 - w1, a2 + b1 + b2 - 1.0 - u2 - w2)
               + min(b1, b2, b1 + w1 - u1, b1 + w2 - u2, b2 + u1 - w1, b2 + u2 - w2))
    q = (x, b1 - x, b2 - x, 1.0 - b1 - b2 + x)         # (b1, b2) = ++, +-, -+, --
    plus = []                                           # T_j(+, b1, b2), q's order
    for u, w, a in uwa:
        t = 0.5 * (max(0.0, u + w - a, u - b1 + x, w - b2 + x)
                   + min(u, w, x, q[3] - a + u + w))
        plus.append((t, u - t, w - t, a - u - w + t))
    t1 = (plus[0], [qk - tk for qk, tk in zip(q, plus[0])])          # T_1[a1][b1, b2]
    a2_plus = [min(1.0, max(0.0, tk / qk)) if qk != 0.0 else 0.0
               for qk, tk in zip(q, plus[1])]
    cond = (a2_plus, [1.0 - c for c in a2_plus])                    # P(A2 = a2 | b1, b2)
    return np.array([t1[i][b] * cond[j][b] for i, j, b in _FINE_TERMS])


@dataclass(frozen=True)
class NegativityResult:
    """Least total negativity of any signed local model of one box.

    min_negativity is the total negativity of witness, a measure vector that
    reproduces the box: the PR/local mixture of the module docstring, equal
    to max(0, (|delta| - 2) / 4) up to rounding.  It lies in the solution
    family: the witness is also solve(p, witness[FREE_INDICES]).
    lower_bound is the same closed form, and feasible records whether a
    nonnegative model exists: max |delta| <= 2 + eps, the test
    ChshReport.any_violation applies.
    """
    min_negativity: float
    witness: np.ndarray
    lower_bound: float
    feasible: bool


def min_negativity(p, eps: float = DEFAULT_EPS) -> NegativityResult:
    """Minimize total negativity over all measure vectors reproducing p.

    Requires p consistent within eps: the construction holds only on the
    no-signalling polytope, so ConsistencyError is raised otherwise.  The
    witness reproduces p_hat, the box rebuilt from p's 8 independent
    entries, so it is off p by at most eps: the residual p_hat - F @ w of
    the construction (rounding, or an entry of p_hat below 0) is removed by
    its minimum-norm preimage.  The returned minimum is recomputed from the
    witness, so the witness and the reported value always agree.
    """
    p = require_consistent(p, eps)
    p_hat = _box_from_independent(p[_INDEPENDENT])
    # row v of CHSH_MATRIX @ p_hat, one chsh call per variant: the first computes
    # all 8 and the other 7 hit model's cache.  The benchmark's tracer test
    # (perfbench/tests) counts the 8 calls, so one product waits on re-pinning it.
    deltas = [chsh(p_hat, variant, eps) for variant in CHSH_VARIANTS]
    v = deltas.index(max(deltas))
    mu = max(0.0, (deltas[v] - 2.0) / 2.0)
    if mu >= 1.0:
        witness = _PR_MODELS[v]
    else:
        local = (p_hat - mu * _PR_BOXES[v]) / (1.0 - mu)
        witness = mu * _PR_MODELS[v] + (1.0 - mu) * _fine_model(local)
    witness = witness + _FORWARD_PINV @ (p_hat - FORWARD_MATRIX @ witness)
    max_abs_delta = _max_abs(deltas)
    return NegativityResult(
        min_negativity=_total_negativity(witness),
        witness=witness,
        lower_bound=_bound(max_abs_delta),
        feasible=max_abs_delta <= 2.0 + eps,
    )
