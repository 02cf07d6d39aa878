"""Minimum negativity of a box, in closed form, with a witness model.

Theorem: a no-signalling box p has a signed local model of total negativity
max(0, (|delta| - 2) / 4), where |delta| is its largest CHSH sum, and no
model of p does better.  The bound holds for every model: a variant sum of
delta forces one of its two complementary 8-strategy sums below zero by
(|delta| - 2) / 4, and the negative weights must cover that deficit.

The witness attaining it is a member of solve's family, solver._family with
7 constraints on the weights: a constant matrix, picked by the box, applied
to x = (1, p_ind).  Let v be the variant with the largest signed sum delta_v,
and N_v the 8 strategies s whose value C_v(s) under it is -2, not +2.  Every
model of p puts sigma_minus = (2 - delta_v) / 4 on N_v (model.sigma_minus).
When delta_v > 2 the witness _WITNESS[v] spreads it evenly (equal weight on
N_v), so its weights on N_v carry exactly the bound.  Affine in the box, it
is nonnegative on the other 8 wherever delta_v >= 2: that cap is a simplex
(Barrett et al., Phys. Rev. A 71, 022101 (2005)), and at its 9 vertices the
witness is the model (1 + C_v) / 16 of variant v's PR box and the 8
deterministic strategies with C_v = +2.

A local box (delta_v <= 2) lies in the local polytope, the hull of the 16
deterministic boxes, which the regular triangulation that lifts strategy s
to height 2^s cuts into 64 simplices, _CELL_MASKS (De Loera, Rambau & Santos,
Triangulations, Springer 2010).  A box in cell k is a convex mixture of its 9
deterministic boxes, so _MODELS[k], the member with the other 7 weights at 0,
is nonnegative there.  The lifted heights span a convex function of the box,
the largest of the cells' planes _LOCATOR[k] = heights @ _MODELS[k], so the
cell that holds x is the argmax of _LOCATOR @ x.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import (
    DEFAULT_EPS,
    INDEPENDENT_INDICES,
    ConsistencyError,
    _MINUS_STRATEGIES,
    _box_from_independent,
    _consistent_box,
    _frozen,
    _max_abs,
    _product,
    _shaped16,
    _total_negativity,
    chsh,
)
from .solver import _family

#: _WITNESS[v] @ (1, p_ind) is the family member with equal weight on N_v, the
#: strategies with C_v = -2: its constraints are m[N_v[k]] - m[N_v[0]] = 0.
_MINUS = _frozen(np.eye(16)[list(_MINUS_STRATEGIES)])
_WITNESS = _frozen(_family(INDEPENDENT_INDICES, _MINUS[:, 1:] - _MINUS[:, :1])[..., :9])

#: The 64 cells of the local polytope by heights 2^s, bit s set for each of a cell's 9 strategies.
_CELL_MASKS = (
    0x135F, 0x137E, 0x13DB, 0x13FA, 0x176E, 0x177C, 0x17EA, 0x17F8, 0x1B5D, 0x1BD9, 0x1E7C,
    0x1EF8, 0x1F5C, 0x1FB8, 0x1FD8, 0x325F, 0x327E, 0x32DB, 0x32FA, 0x366E, 0x36EA, 0x3A5D,
    0x3A7C, 0x3AD9, 0x3AF8, 0x3E6C, 0x3E74, 0x3EE8, 0x534F, 0x53CB, 0x574E, 0x57CA, 0x57E2,
    0x5B4D, 0x5BC9, 0x5F4C, 0x5FC8, 0x724F, 0x72CB, 0x746E, 0x74EA, 0x764E, 0x76CA, 0x76E2,
    0x7A4D, 0x7AC9, 0x7E4C, 0x7EC8, 0x9BD1, 0xB85D, 0xB8D9, 0xBAD1, 0xD38B, 0xDB89, 0xDBC1,
    0xE24F, 0xE2CB, 0xEA4D, 0xEAC9, 0xF28B, 0xF84D, 0xF8C9, 0xFA89, 0xFAC1)
#: _MODELS[k] @ x is the family member with the 7 strategies off cell k at 0, and _LOCATOR[k]
#: @ x cell k's plane at heights 2^s scaled by 2^-20: finite for every finite x = (1, p_ind).
_MODELS = _frozen(_family(INDEPENDENT_INDICES, np.eye(16)[
    [[s for s in range(16) if not mask >> s & 1] for mask in _CELL_MASKS]])[..., :9])
_LOCATOR = _frozen(2.0 ** (np.arange(16) - 20) @ _MODELS)


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

    Requires p consistent within eps (ConsistencyError otherwise): the
    construction holds only on the no-signalling polytope.  The witness
    reproduces p_hat, the box rebuilt from p's 8 independent entries, so it
    is off p by at most eps; where p_hat leaves the local polytope by
    rounding or by an entry below 0 within eps, a local box's witness has
    weights below 0 by as much.  The minimum is recomputed from the witness.
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
    x = np.concatenate(([1.0], box.independent))    # sum |x| <= 1 + sum |p|
    model = _WITNESS[v] if deltas[v] > 2.0 else _MODELS[int(np.argmax(_LOCATOR @ x))]
    witness = _product(model, x, 1.0 + box.size)
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
