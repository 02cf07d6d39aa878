"""The consistency checks against their numpy-mask reference.

model's input check and its per-box record compare Python floats taken from
tolist().  The reference versions below compare numpy arrays through
boolean masks.  Both must give the same violations, with the same types and
indices and floats equal bit for bit, and the same exception messages, also
on entries at -eps and 1 + eps, -0.0, sums that overflow, NaN and +-inf,
whatever order the gates are called in.  A difference counts as a violation
unless |d| <= eps, so a NaN difference is one.  The block sums and the sums
of weights, in Python floats, must also raise no overflow warning where
numpy's reduce does.
"""

import math
import struct
import warnings
from dataclasses import astuple

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import quasilocal as ql

from quasilocal import model
from quasilocal.model import (
    DEPENDENT_INDICES,
    DEPENDENT_SIGNS,
    OUTCOMES,
    SETTING_PAIRS,
    BlockViolation,
    ConsistencyError,
    MarginalViolation,
    RangeViolation,
    RelationViolation,
    _check_eps,
)
from conftest import minus_strategies

# ---------------------------------------------------------------------------
# Reference: numpy masks over the whole vector
# ---------------------------------------------------------------------------

_REF_INDEPENDENT = np.array(model.INDEPENDENT_INDICES)
_REF_DEPENDENT = np.array(DEPENDENT_INDICES)
_REF_MARGINAL_LABELS = tuple((party, setting, outcome) for party in "AB"
                             for setting in (1, 2) for outcome in OUTCOMES)
_REF_MARGINAL_TERMS = np.concatenate(
    [model._PROB_INDEX.transpose(0, 2, 1, 3).reshape(4, 2, 2),
     model._PROB_INDEX.transpose(1, 3, 0, 2).reshape(4, 2, 2)])


def ref_vector16(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (16,):
        raise ValueError(f"{name} must have exactly 16 entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def ref_range_violations(p, eps):
    _check_eps(eps)
    bad = ((p < -eps) | (p > 1.0 + eps)).nonzero()[0]
    return [RangeViolation(int(i), float(p[i])) for i in bad]


def ref_block_violations(p, eps):
    _check_eps(eps)
    totals = p.reshape(4, 4).sum(axis=1).tolist()
    return [BlockViolation(j, k, total) for (j, k), total in zip(SETTING_PAIRS, totals)
            if not abs(total - 1.0) <= eps]


def ref_marginal_violations(p, eps):
    _check_eps(eps)
    marginals = p[_REF_MARGINAL_TERMS].sum(axis=2)
    bad = (~(np.abs(marginals[:, 0] - marginals[:, 1]) <= eps)).nonzero()[0]
    return [MarginalViolation(*_REF_MARGINAL_LABELS[r], *marginals[r].tolist()) for r in bad]


def ref_relation_violations(p, eps):
    _check_eps(eps)
    expected = 0.5 * (1.0 + DEPENDENT_SIGNS @ p[_REF_INDEPENDENT])
    actual = p[_REF_DEPENDENT]
    bad = (~(np.abs(actual - expected) <= eps)).nonzero()[0]
    return [RelationViolation(DEPENDENT_INDICES[r], float(expected[r]), float(actual[r]))
            for r in bad]


REF_CHECKS = {"range": ref_range_violations, "normalization": ref_block_violations,
              "no_signaling": ref_marginal_violations, "derived_relations": ref_relation_violations}


def ref_check_consistency(values, eps=model.DEFAULT_EPS):
    _check_eps(eps)
    p = ref_vector16(values, "probability set")
    return {name: check(p, eps) for name, check in REF_CHECKS.items()}


def ref_require_consistent(values, eps):
    p = ref_vector16(values, "probability set")
    violations = [v for check in REF_CHECKS.values() for v in check(p, eps)]
    if violations:
        lines = "; ".join(v.describe() for v in violations)
        raise ConsistencyError(f"inconsistent probability set (eps = {eps:g}): {lines}",
                               violations)
    return p


def ref_chsh_report(values, eps):
    p = ref_vector16(values, "probability set")
    bad = ref_block_violations(p, eps)
    if bad:
        raise ConsistencyError("cannot evaluate CHSH on an unnormalized probability set", bad)
    deltas = model.CHSH_MATRIX @ p
    return model.ChshReport(tuple(deltas.tolist()), float(np.abs(deltas).max()), eps)


def ref_correlation(p, j, k, eps):
    p = ref_vector16(p, "probability set")
    _check_eps(eps)
    block = p.reshape(4, 4)[SETTING_PAIRS.index((j, k))]
    total = float(block.sum())
    if abs(total - 1.0) > eps:
        raise ConsistencyError(f"block (a{j},b{k}) is not normalized (sum = {total!r})",
                               [BlockViolation(j, k, total)])
    return float(block[0] + block[3] - block[1] - block[2])


def ref_chsh(values, variant, eps):
    return ref_chsh_report(values, eps).delta(variant)


def ref_sum(values):
    return float(np.array(values).sum())


def uncached(gate):
    """gate, called with the per-box record cache cleared: a fresh record."""
    def call(*args):
        model._box.cache_clear()
        return gate(*args)
    return call

# ---------------------------------------------------------------------------
# Bit-exact comparison
# ---------------------------------------------------------------------------


def key(value):
    """A comparable form that tells -0.0 from 0.0, matches NaN with NaN and
    records Python types, so a numpy scalar never equals a float."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return (type(value), struct.pack("<d", value))
    if isinstance(value, (list, tuple)):
        return (type(value), tuple(key(v) for v in value))
    if isinstance(value, dict):
        return (dict, tuple((k, key(v)) for k, v in value.items()))
    if hasattr(value, "__dataclass_fields__"):
        return (type(value), key(astuple(value)))
    return (type(value), value)


def warning_outcome(fn, *args):
    """key of fn's result, or of the ValueError it raises; a numpy warning,
    raised as an error by the caller's filter, propagates."""
    try:
        return ("returned", key(fn(*args)))
    except ValueError as exc:
        return ("raised", type(exc), str(exc), key(getattr(exc, "violations", ())))


def outcome(fn, *args):
    """warning_outcome with numpy's warnings off."""
    with np.errstate(all="ignore"):
        return warning_outcome(fn, *args)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

EPS = st.one_of(st.sampled_from([0.0, 1e-9, 1e-3]), st.floats(0.0, 2.0),
                st.sampled_from([math.nan, math.inf, -1e-9]))


@st.composite
def boxes(draw):
    """(entries, eps): a consistent box with up to five entries replaced by
    edge values or arbitrary floats, sometimes one entry short or long."""
    eps = draw(EPS)
    bound = eps if math.isfinite(eps) and eps >= 0.0 else 0.0
    edge = st.sampled_from([
        0.0, -0.0, -bound, 1.0 + bound,
        math.nextafter(-bound, -math.inf), math.nextafter(1.0 + bound, math.inf),
        1e308, -1e308, math.nan, math.inf, -math.inf,
    ])
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16)
                   .filter(lambda w: sum(w) > 0))
    values = (model.FORWARD_MATRIX @ np.array(weights) / sum(weights)).tolist()
    for i, x in draw(st.dictionaries(st.integers(0, 15), st.one_of(edge, st.floats()),
                                     max_size=5)).items():
        values[i] = x
    length = draw(st.sampled_from([16] * 18 + [15, 17]))
    return (values + [0.25])[:length], eps


EXAMPLES = [
    ([0.25] * 16, 0.0),                                           # eps = 0, consistent
    ([-0.0] * 16, 0.0),
    ([-0.0, -0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0,                   # -0.0 + -0.0 marginal
      0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], 0.0),
    ([-1e-3, 1.0 + 1e-3] + [0.25] * 14, 1e-3),                    # exactly at -eps, 1 + eps
    ([math.nextafter(-1e-3, -1.0), math.nextafter(1.0 + 1e-3, 2.0)] + [0.25] * 14, 1e-3),
    ([0.0, 1.0] + [0.25] * 14, 0.0),
    ([1e308] * 16, 1e-9),                                         # every sum overflows
    ([1e308, -1e308, 1e308, 1e308] + [0.25] * 12, 1e-9),
    ([1.5e308] * 16, 1e300),                                      # inf blocks at a huge eps
    ([1.7e308, -0.0, 1.7e308, -1.7e308, -0.0, -0.0, -0.0, -0.0,   # overflow, then back
      -1e308, -1e308, 1e308, 1.0, 0.25, 0.25, 0.25, 0.25], 1e300),
    ([math.nan] + [0.25] * 15, 1e-9),
    ([math.inf, -math.inf] + [0.25] * 14, 0.0),
    ([0.25] * 15, 1e-9),                                          # wrong shape
    ([0.25] * 16, math.nan),                                      # bad eps
    ([0.25] * 16, -1e-9),
]


def _with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@given(boxes())
@_with_examples
def test_checks_match_the_numpy_reference(case):
    values, eps = case
    assert (outcome(model._vector16, values, "probability set")
            == outcome(ref_vector16, values, "probability set"))
    assert outcome(uncached(model.check_consistency), values, eps) == outcome(
        ref_check_consistency, values, eps)
    assert outcome(uncached(model.require_consistent), values, eps) == outcome(
        ref_require_consistent, values, eps)


#: Normalized within eps = 1e300, with CHSH sums +-inf and NaN, NaN not first.
OVERFLOWING = [-1.7e308, 0.0, 0.0, 1.7e308, 1.7e308, -1.7e308, 0.0, 0.25,
               0.25, 0.0, -1.7e308, 1.7e308, 0.0, 0.25, 0.0, 0.25]


@given(boxes())
@example((OVERFLOWING, 1e300))
@_with_examples
def test_chsh_report_matches_the_numpy_reference(case):
    values, eps = case
    assert outcome(uncached(model.chsh_report), values, eps) == outcome(
        ref_chsh_report, values, eps)


#: Each gate with its reference, called as (values, eps).
GATES = {
    "check": (model.check_consistency, ref_check_consistency),
    "require": (model.require_consistent, ref_require_consistent),
    "chsh": (lambda v, e: model.chsh(v, model.CHSH_VARIANTS[5], e),
             lambda v, e: ref_chsh(v, model.CHSH_VARIANTS[5], e)),
    "chsh_report": (model.chsh_report, ref_chsh_report),
}


@given(boxes(), st.sampled_from([0.0, 1e-9, 1e-3, 1e300]),
       st.lists(st.tuples(st.sampled_from(sorted(GATES)), st.booleans()),
                min_size=2, max_size=6))
@example(([0.25] * 16, 1e-9), 1e-3, [("check", False), ("chsh", False)])
@example(([0.25] * 16, 1e-9), 1e-3, [("chsh", False), ("check", False)])
@example(([0.25] * 16, 1e-9), 1e-3, [("require", False), ("chsh_report", False)])
@example(([0.5] + [0.25] * 15, 1e-9), 1e-3, [("chsh", True), ("check", False),
                                             ("require", True), ("chsh_report", False)])
@example(([math.nan] + [0.25] * 15, math.nan), 0.0, [("require", False), ("check", False)])
@example(([math.inf] + [0.25] * 15, -1e-9), 0.0, [("chsh", False), ("chsh_report", True)])
@example(([0.25] * 15, math.inf), 0.0, [("chsh_report", False), ("require", False)])
@example((OVERFLOWING, 1e300), 1e-9, [("chsh_report", False), ("check", False)])
def test_gates_agree_with_the_references_in_any_call_order(case, other_eps, calls):
    # the record is shared: a gate must see what it would see on a fresh one,
    # at either eps, and shape, NaN and inf errors come before eps errors
    values, eps = case
    model._box.cache_clear()
    for name, at_other_eps in calls:
        gate, ref = GATES[name]
        e = other_eps if at_other_eps else eps
        assert outcome(gate, values, e) == outcome(ref, values, e), (name, e)


def test_overflowing_box_has_a_nan_chsh_maximum():
    with np.errstate(over="ignore", invalid="ignore"):
        report = model.chsh_report(OVERFLOWING, 1e300)
        maximum = model.chsh_report(OVERFLOWING, 1e300).max_abs_delta
    assert not math.isnan(report.deltas[0]) and any(math.isnan(d) for d in report.deltas)
    assert math.isnan(report.max_abs_delta) and math.isnan(maximum)


#: Block entries whose sums overflow, cancel or keep a signed zero.
BLOCK_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.25, 1e308, -1e308, 1.7e308,
                                         -1.7e308, 5e-324, -5e-324]),
                        st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(BLOCK_ENTRY, min_size=16, max_size=16),
       st.sampled_from([0.0, 1e-9, 1e300, 1.7e308]))
@example([1.5e308] * 16, 1e300)
@example([-0.0] * 16, 0.0)
def test_block_sums_match_numpy_bit_for_bit_without_a_warning(values, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = [warning_outcome(uncached(model.check_consistency), values, eps)]
        got += [warning_outcome(model.correlation, values, j, k, eps) for j, k in SETTING_PAIRS]
    want = [outcome(ref_check_consistency, values, eps)]
    want += [outcome(ref_correlation, values, j, k, eps) for j, k in SETTING_PAIRS]
    assert got == want


def ref_sigma_minus(m):
    return tuple(ref_sum(np.array(m)[minus_strategies(v)]) for v in range(8))


@given(st.lists(BLOCK_ENTRY, min_size=16, max_size=16))
@example([-1e308] * 2 + [0.0] * 14)
@example([1.7e308] * 8 + [-1.7e308] * 8)
@example([-0.0] * 16)
@example([1e16, 1.0, -1e16, 1.0] + [0.0] * 12)     # 0.0 in numpy's order, 2.0 in others
def test_weight_sums_match_numpy_bit_for_bit_without_a_warning(weights):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = (ql.total_negativity(weights), ql.sigma_minus(weights))
    with np.errstate(over="ignore", invalid="ignore"):
        want = (ref_sum(np.maximum(0.0, -np.array(weights))), ref_sigma_minus(weights))
    assert key(got) == key(want)
