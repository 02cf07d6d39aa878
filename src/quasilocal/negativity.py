"""Minimum negativity of a box, in closed form, with a witness model.

Theorem: a no-signalling box p has a signed local model of total negativity
max(0, (|delta| - 2) / 4), where |delta| is its largest CHSH sum, and no
model of p does better.  The bound holds for every model: a variant sum of
delta forces one of its two complementary 8-strategy sums below zero by
(|delta| - 2) / 4, and the negative weights must cover that deficit.

The witness attaining it is a member of solve's family, one constant matrix
per variant.  Let v be the variant with the largest signed sum delta_v, and
N_v the 8 strategies s whose value C_v(s) under it is -2, not +2.  Every
model of p puts sigma_minus = (2 - delta_v) / 4 on N_v (model.sigma_minus);
the witness spreads it evenly, so its weights on N_v carry exactly the bound
when delta_v > 2.  It is solver._family with "equal weight on N_v" as its 7
constraints, applied to x = (1, p_ind): _WITNESS[v] @ x.  Being affine in the
box, it is nonnegative on the other 8 strategies wherever delta_v >= 2: that
cap is a simplex (Barrett et al., Phys. Rev. A 71, 022101 (2005)), and at its
9 vertices the witness is the model (1 + C_v) / 16 of variant v's PR box and
the 8 deterministic strategies with C_v = +2.  A local box (delta_v <= 2)
gets a nonnegative model glued from two three-variable marginals (Fine,
Phys. Rev. Lett. 48, 291 (1982)).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import (
    DEFAULT_EPS,
    FORWARD_MATRIX,
    INDEPENDENT_INDICES,
    OUTCOMES,
    STRATEGY_OUTCOMES,
    ConsistencyError,
    _MINUS_STRATEGIES,
    _OUTCOME_PAIRS,
    _box_from_independent,
    _consistent_box,
    _max_abs,
    _product,
    _shaped16,
    _total_negativity,
    chsh,
)
from .solver import _family

#: Minimum-norm inverse of the forward map on no-signalling boxes.
_FORWARD_PINV = np.linalg.pinv(FORWARD_MATRIX)

#: _WITNESS[v] @ (1, p_ind) is the family member with equal weight on N_v, the
#: strategies with C_v = -2: its constraints are m[N_v[k]] - m[N_v[0]] = 0.
_MINUS = np.eye(16)[list(_MINUS_STRATEGIES)]
_WITNESS = _family(INDEPENDENT_INDICES, _MINUS[:, 1:] - _MINUS[:, :1])[..., :9]
_WITNESS.setflags(write=False)


#: (a1, a2, the (b1, b2) column in q's order, _OUTCOME_PAIRS) of each strategy, in
#: strategy order, a1 and a2 as positions in OUTCOMES: m = T_1[a1][b1, b2] * P(A2 = a2 | b1, b2).
_FINE_TERMS = tuple((OUTCOMES.index(a1), OUTCOMES.index(a2), _OUTCOME_PAIRS.index((b1, b2)))
                    for a1, b1, a2, b2 in STRATEGY_OUTCOMES)


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


class NegativityResult(NamedTuple):
    """Least total negativity of any signed local model of one box.

    min_negativity is the total negativity of witness, a measure vector that
    reproduces the box: the family member of the module docstring, equal
    to max(0, (|delta| - 2) / 4) up to rounding.  It lies in the solution
    family: the witness is also solve(p, witness[FREE_INDICES]).  lower_bound
    is that closed form and feasible is max |delta| <= 2 + eps, both taken on
    p_hat (see min_negativity), so they may differ in the last bits from the
    same quantities taken on p by chsh_report(p).  witness and min_negativity
    are finite: min_negativity refuses a box whose witness overflows.
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
    entries, so it is off p by at most eps; for a local box the residual
    p_hat - F @ w of Fine's gluing (rounding, or an entry of p_hat below 0) is
    removed by its minimum-norm preimage.  The returned minimum is recomputed
    from the witness, so the witness and the reported value always agree.
    A witness or minimum that overflows, on a box near the float maximum at
    a huge eps, raises ConsistencyError.
    """
    # p_hat from p's record, whose scan has formed p_ind and DEPENDENT_SIGNS @ p_ind
    box = _consistent_box(_shaped16(p), eps)
    p_hat = _box_from_independent(box.independent, box.sums)
    # row v of CHSH_MATRIX @ p_hat, one chsh call per variant: the first computes
    # all 8 and the other 7 hit model's cache.  The benchmark's tracer test
    # (perfbench/tests) counts the 8 calls, so one product waits on re-pinning it.
    deltas = [chsh(p_hat, v, eps) for v in range(8)]
    v = deltas.index(max(deltas))
    if deltas[v] > 2.0:     # x = (1, p_ind), so sum |x| <= 1 + sum |p|
        witness = _product(_WITNESS[v], np.concatenate(([1.0], box.independent)), 1.0 + box.size)
    else:
        witness = _fine_model(p_hat)
        if box.size < 1e300:    # Fine's terms stay within 1e3 * size: no np.errstate
            witness = witness + _FORWARD_PINV @ (p_hat - FORWARD_MATRIX @ witness)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
                witness = witness + _FORWARD_PINV @ (p_hat - FORWARD_MATRIX @ witness)
    negativity = _total_negativity(witness)
    if not (math.isfinite(negativity) and all(map(math.isfinite, witness.tolist()))):
        raise ConsistencyError(f"the witness model of this box is not finite (eps = {eps:g})")
    max_abs_delta = _max_abs(deltas)
    return NegativityResult(
        min_negativity=negativity,
        witness=witness,
        lower_bound=max((max_abs_delta - 2.0) / 4.0, 0.0),     # NaN first: max(nan, 0.0) is nan
        feasible=max_abs_delta <= 2.0 + eps,
    )
