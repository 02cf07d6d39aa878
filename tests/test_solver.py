"""Solution-family tests: box embedding, reconstruction, inversion, perfect correlation."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quasilocal as ql
from quasilocal import model, solver
from conftest import (HUGE_LOCAL, OVERFLOWING_FACE, OVERFLOWING_LOCAL, OVERFLOWING_NAN_CHSH,
                      extremal_measures, minus_strategies, random_consistent_box,
                      random_nonnegative_measures)

RT2 = np.sqrt(2.0)
IND = list(ql.INDEPENDENT_INDICES)


# PR-box member of the one-parameter perfect-correlation family at m16 = 0,
# derived by hand from the closed-form solution and cross-checked against the
# forward map below.
PR_WITNESS = np.array([0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -0.5, 0.5, 0.5, 0])


# The solution family and its perfect-correlation line as they were typed
# out by hand: the references for the maps derived from FORWARD_MATRIX.

def reference_general_solution(ind, free):
    p1, p4, p5, p8, p9, p12, p14, p15 = ind
    f2, f3, f7, f10, f14, f15, f16 = free
    m1 = 0.5 * (-1.0 - 2.0 * (f2 + f3 + f7 + f10 + f14 + f15 + f16)
                + p1 + p4 + p5 + p8 + p9 + p12 + p14 + p15)
    m4 = 0.5 * (1.0 + 2.0 * (f7 + f10 + f14 + f15 + f16)
                + p1 - p4 - p5 - p8 - p9 - p12 - p14 - p15)
    m5 = 0.5 * (1.0 + 2.0 * (f2 + f10 + f14 + f15 + f16)
                - p1 - p4 + p5 - p8 - p9 - p12 - p14 - p15)
    m6 = -f2 - f10 - f14 + p14
    m8 = -f7 - f15 - f16 + p12
    m9 = 0.5 * (1.0 + 2.0 * (f3 + f7 + f14 + f15 + f16)
                - p1 - p4 - p5 - p8 + p9 - p12 - p14 - p15)
    m11 = -f3 - f7 - f15 + p15
    m12 = -f10 - f14 - f16 + p8
    m13 = -f14 - f15 - f16 + p4
    return np.array([m1, f2, f3, m4, m5, m6, f7, m8,
                     m9, f10, m11, m12, m13, f14, f15, f16])


def reference_perfect_correlation_solution(p, m16):
    p4, p8, p9, p12, p14, p15 = (float(p[i]) for i in (3, 7, 8, 11, 13, 14))
    m = np.zeros(16)
    m[0] = -m16 + p8 + p9 - p14
    m[1] = m16 - p8 + p14
    m[2] = m16 - p12 + p15
    m[3] = 1.0 - m16 - p4 - p9 + p12 - p15
    m[12] = m16 + p4 - p8 - p12
    m[13] = -m16 + p8
    m[14] = -m16 + p12
    m[15] = m16
    return m


def family_bound(*parts):
    """8 eps (1 + the summed magnitudes of the inputs): the agreement bound
    of two evaluations of one affine map in different summation orders."""
    return 8 * np.finfo(float).eps * (1.0 + sum(np.abs(x).sum() for x in parts))


def consistent_boxes():
    """Hypothesis strategy: the images of normalized nonnegative weights."""
    weights = st.lists(st.floats(0, 1), min_size=16, max_size=16).filter(lambda w: sum(w) > 0)
    return weights.map(lambda w: ql.forward_map(np.array(w) / sum(w)))


# the family is affine and consistent boxes span the same affine space as
# the old free draws of the 8 independent entries
@given(consistent_boxes(), st.lists(st.floats(-1000, 1000), min_size=7, max_size=7))
def test_general_solution_matches_the_hand_formulas(p, free):
    ind = p[IND]
    m = ql.solve(p, free)
    assert np.abs(m - reference_general_solution(ind, free)).max() <= family_bound(ind, free)
    assert np.array_equal(m[list(ql.FREE_INDICES)], free)


@given(st.integers(0, 2 ** 32 - 1), st.floats(-1000, 1000))
def test_perfect_correlation_solution_matches_the_hand_formulas(seed, m16):
    p = perfect_correlation_box(np.random.default_rng(seed))
    m = ql.perfect_correlation_solution(p, m16)
    assert (np.abs(m - reference_perfect_correlation_solution(p, m16)).max()
            <= family_bound(p, m16))


def test_family_matrices_are_exact_half_integer_preimages():
    # each family is the inverse of the 16 rows (sum, coordinates, pinned
    # weights); checked here against the preimage of the box embedding under
    # the solved columns of F, a second derivation
    F = ql.FORWARD_MATRIX
    free = list(ql.FREE_INDICES)
    solved = [s for s in range(16) if s not in free]
    pinv = np.linalg.pinv(F[:, solved])
    assert np.linalg.matrix_rank(F[:, solved]) == 9
    assert np.abs(pinv @ model._BOX_EMBEDDING - solver._SOLUTION[solved, :9]).max() < 1e-12
    assert np.abs(-pinv @ F[:, free] - solver._SOLUTION[solved, 9:]).max() < 1e-12
    assert np.array_equal(solver._SOLUTION[free], np.eye(16)[9:])
    agree, face = [0, 1, 2, 3, 12, 13, 14, 15], [0, 1, 2, 3, 12, 13, 14]
    coordinates = np.vstack([np.ones(8), F[np.ix_([3, 7, 8, 11, 13, 14], agree)]])
    embedding = (np.linalg.pinv(coordinates.T) @ F[:, agree].T).T
    face_pinv = np.linalg.pinv(F[:, face])
    assert np.abs(face_pinv @ embedding - solver._FACE_SOLUTION[face, :7]).max() < 1e-12
    assert np.abs(-face_pinv @ F[:, 15] - solver._FACE_SOLUTION[face, 7]).max() < 1e-12
    assert np.array_equal(solver._FACE_SOLUTION[15], np.eye(8)[7])
    assert np.array_equal(solver._FACE_SOLUTION[4:12], np.zeros((8, 8)))    # off the face


# ---------------------------------------------------------------------------
# Independent entries and box_from_independent
# ---------------------------------------------------------------------------

def test_independent_probs_values():
    for box, value in [(ql.uniform_box, 0.25), (ql.tsirelson_box, (2 + RT2) / 8),
                       (ql.pr_box, 0.5)]:
        p = ql.require_consistent(box())
        assert np.allclose(p[IND], value)
        assert np.allclose(ql.box_from_independent(p[IND]), p, atol=1e-15)


def test_independent_probs_rejects_inconsistent():
    p = ql.uniform_box()
    p[1] = 0.3
    with pytest.raises(ql.ConsistencyError) as err:
        ql.require_consistent(p)
    assert err.value.violations
    with pytest.raises(ql.ConsistencyError):
        ql.solve(p)


def test_independent_probabilities_validation():
    with pytest.raises(ValueError, match="non-finite"):
        ql.box_from_independent([np.nan, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="expected 8 independent probabilities"):
        ql.box_from_independent([0.25] * 7)
    # no range check of its own: require_consistent judges the box at its eps
    p = ql.box_from_independent([1.5, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ql.ConsistencyError) as err:
        ql.require_consistent(p)
    assert ql.RangeViolation(0, 1.5) in err.value.violations


def test_reconstruct_uniform_and_tsirelson():
    assert np.allclose(ql.box_from_independent([0.25] * 8), ql.uniform_box(), atol=1e-15)
    rebuilt = ql.box_from_independent([(2 + RT2) / 8] * 8)
    assert np.allclose(rebuilt, ql.tsirelson_box(), atol=1e-15)
    assert rebuilt[1] == pytest.approx((2 - RT2) / 8, abs=1e-15)


def test_reconstruct_rejects_infeasible():
    # all independent entries at 1 force every dependent entry to -1/2
    p = ql.box_from_independent([1.0] * 8)
    with pytest.raises(ql.ConsistencyError) as err:
        ql.require_consistent(p)
    assert ql.RangeViolation(1, -0.5) in err.value.violations
    assert "p2 (a1+b1-) = -0.5 outside [0, 1]" in str(err.value)


def test_reconstruct_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = random_consistent_box(rng)
        rebuilt = ql.box_from_independent(ql.require_consistent(p)[IND])
        assert np.allclose(rebuilt, p, atol=1e-12)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_general_solution_uniform():
    f = [1 / 16] * 7
    assert np.allclose(ql.solve(ql.box_from_independent([0.25] * 8), f), 1 / 16, atol=1e-15)


def test_general_solution_extremal():
    p = ql.box_from_independent([(2 + RT2) / 8] * 8)
    f = [(1 + RT2) / 16] * 7
    assert np.allclose(ql.solve(p, f), extremal_measures(), atol=1e-15)


def test_general_solution_pr_box_with_chosen_free_weights():
    p = ql.box_from_independent([0.5] * 8)
    m = ql.solve(p, [0, 0, 0, 0, 0.5, 0.5, 0])
    assert np.allclose(m, PR_WITNESS, atol=1e-15)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(ql.forward_map(m), ql.pr_box(), atol=1e-12)
    assert ql.sigma_minus(m)[0] == pytest.approx(-0.5, abs=1e-12)


def test_solve_examples():
    assert np.allclose(
        ql.solve(ql.uniform_box(), [1 / 16] * 7), 1 / 16, atol=1e-15)
    assert np.allclose(
        ql.solve(ql.tsirelson_box(), [(1 + RT2) / 16] * 7),
        extremal_measures(), atol=1e-14)
    # default free weights: still a valid normalized model
    rng = np.random.default_rng(9)
    p = random_consistent_box(rng)
    m = ql.solve(p)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(ql.forward_map(m), p, atol=1e-12)


def box_outside_the_range_at_the_default_eps():
    """F m with m(++++) = 1 + 5e-7 and m(----) = -5e-7: consistent at eps
    1e-5, with p1 = 1 + 5e-7 out of range at the default eps."""
    m = np.zeros(16)
    m[0], m[15] = 1.0 + 5e-7, -5e-7
    return ql.forward_map(m)


def test_solve_range_checks_at_the_callers_eps():
    p = box_outside_the_range_at_the_default_eps()
    assert not any(ql.check_consistency(p, 1e-5).values())
    m = ql.solve(p, eps=1e-5)
    assert np.abs(ql.forward_map(m) - p).max() <= 1e-5
    with pytest.raises(ql.ConsistencyError):
        ql.solve(p)


def test_box_from_independent_round_trips_at_the_callers_eps():
    p = box_outside_the_range_at_the_default_eps()
    rebuilt = ql.require_consistent(ql.box_from_independent(p[IND]), 1e-5)
    assert np.abs(rebuilt - p).max() <= 1e-5
    m = ql.solve(rebuilt, eps=1e-5)
    assert np.abs(ql.forward_map(m) - p).max() <= 1e-5
    with pytest.raises(ql.ConsistencyError, match=r"p1 \(a1\+b1\+\) = 1.0000005"):
        ql.require_consistent(rebuilt)


FREE = [0.5, -0.25, 1e-3, 0.0, 3.0, -7.5, 0.125]
NOT_FINITE = "free weights contain non-finite entries"


@pytest.mark.parametrize("free, error", [
    (FREE, None),
    (tuple(FREE), None),
    (np.array(FREE), None),
    (FREE[:6], "expected 7 free weights, got shape (6,)"),
    (FREE + [0.0], "expected 7 free weights, got shape (8,)"),
    (FREE[:6] + [np.nan], NOT_FINITE),
    (FREE[:6] + [np.inf], NOT_FINITE),
    ([-np.inf] + FREE[1:], NOT_FINITE),
    ([1.7e308, 1.7e308] + FREE[2:], "the solution at these free weights is not finite"),
], ids=["list", "tuple", "ndarray", "6", "8", "nan", "inf", "-inf", "overflow"])
def test_solve_takes_seven_finite_free_weights(free, error):
    p = ql.tsirelson_box()
    if error is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            ql.solve(p, free)
        return
    m = ql.solve(p, free)
    assert np.array_equal(m, ql.solve(p, FREE))
    assert np.array_equal(m[list(ql.FREE_INDICES)], FREE)


@given(st.lists(st.floats(-1000, 1000), min_size=7, max_size=7),
       st.integers(0, 2 ** 32 - 1))
def test_universal_roundtrip(free_values, seed):
    p = random_consistent_box(np.random.default_rng(seed))
    m = ql.solve(p, free_values)
    assert abs(m.sum() - 1.0) < 1e-9
    assert np.allclose(ql.forward_map(m), p, atol=1e-9)


def test_solve_is_affine_in_free_weights():
    rng = np.random.default_rng(13)
    p = random_consistent_box(rng)
    f0, f1, f2 = (rng.uniform(-3, 3, 7) for _ in range(3))
    lhs = ql.solve(p, f1) + ql.solve(p, f2) - ql.solve(p, f0)
    rhs = ql.solve(p, f1 + f2 - f0)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_sigma_minus_depends_only_on_the_box():
    rng = np.random.default_rng(19)
    for _ in range(20):
        p = random_consistent_box(rng)
        expected = [(2.0 - delta) / 4.0 for delta in ql.chsh_report(p).deltas]
        for _ in range(10):
            f = rng.uniform(-10, 10, 7)
            assert np.allclose(ql.sigma_minus(ql.solve(p, f)), expected, rtol=0, atol=1e-9)


def test_the_family_reproduces_the_box_and_pins_sigma_minus_exactly():
    # The family as one 16x16 matrix: the weights in strategy order are
    # family @ (1, p_ind, free).  Every entry is a multiple of 1/2, so the
    # products are exact: each identity holds for every member of every box.
    family = solver._SOLUTION
    assert np.array_equal(ql.FORWARD_MATRIX @ family,
                          np.hstack([model._BOX_EMBEDDING, np.zeros((16, 7))]))
    # sigma_v- = (2 - delta_v) / 4 in every variant, with no free weight in it
    for v in range(8):
        pinned = (2.0 * np.eye(9)[0] - ql.CHSH_MATRIX[v] @ model._BOX_EMBEDDING) / 4.0
        assert np.array_equal(family[minus_strategies(v)].sum(axis=0),
                              np.concatenate([pinned, np.zeros(7)]))


# ---------------------------------------------------------------------------
# Perfect correlation
# ---------------------------------------------------------------------------

def perfect_correlation_box(rng):
    """Random consistent box with p2 = p3 = 0: image of a model supported on
    the strategies that agree on (a1, b1)."""
    m = np.zeros(16)
    agree = [0, 1, 2, 3, 12, 13, 14, 15]
    m[agree] = rng.uniform(0.0, 1.0, 8)
    m[agree] /= m[agree].sum()
    return ql.forward_map(m)


def test_perfect_correlation_deterministic():
    m = ql.perfect_correlation_solution(ql.deterministic_box(0), m16=0.0)
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.array_equal(m, expected)


def test_perfect_correlation_pr_box():
    p = ql.pr_box()
    m = ql.perfect_correlation_solution(p, m16=0.0)
    assert np.allclose(m, PR_WITNESS, atol=1e-15)
    assert m[3] + m[12] == pytest.approx(1.0 - p[7] - p[8] - p[14], abs=1e-12)
    assert ql.sigma_minus(m)[0] == pytest.approx(-0.5, abs=1e-12)     # delta = 4
    assert np.allclose(ql.forward_map(m), p, atol=1e-12)


def test_perfect_correlation_requires_zero_p2_p3():
    with pytest.raises(ql.ConsistencyError):
        ql.perfect_correlation_solution(ql.uniform_box())


def test_perfect_correlation_rejects_p3_alone():
    # p2 = 0 but p3 = 1: a check of p2 alone returned a model missing the box by 1
    p = ql.deterministic_box(ql.STRATEGY_OUTCOMES.index((-1, 1, 1, 1)))
    assert (p[1], p[2]) == (0.0, 1.0)
    with pytest.raises(ql.ConsistencyError) as err:
        ql.perfect_correlation_solution(p)
    assert str(err.value) == "perfect correlation requires p2 = p3 = 0, got p2 = 0.0, p3 = 1.0"


def test_perfect_correlation_needs_a_finite_m16():
    with pytest.raises(ValueError, match=r"^m16 must be finite, got nan$"):
        ql.perfect_correlation_solution(ql.pr_box(), math.nan)


def test_perfect_correlation_family_is_a_line():
    rng = np.random.default_rng(27)
    for _ in range(10):
        p = perfect_correlation_box(rng)
        pair_sum = 1.0 - p[7] - p[8] - p[14]
        members = []
        for m16 in np.linspace(-2.0, 2.0, 9):
            m = ql.perfect_correlation_solution(p, m16)
            assert np.all(m[4:12] == 0.0)
            assert m.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(ql.forward_map(m), p, atol=1e-12)
            assert m[3] + m[12] == pytest.approx(pair_sum, abs=1e-12)
            members.append(m)
        # equally spaced m16 values trace equally spaced points on one line
        steps = np.diff(np.stack(members), axis=0)
        assert np.allclose(steps, steps[0], atol=1e-12)


def test_perfect_correlation_violation_forces_negative_pair():
    rng = np.random.default_rng(33)
    for _ in range(20):
        lam = rng.uniform(0.55, 1.0)
        p = lam * ql.pr_box() + (1 - lam) * perfect_correlation_box(rng)
        if p[7] + p[8] + p[14] > 1.0:
            m = ql.perfect_correlation_solution(p, rng.uniform(-1, 1))
            assert min(m[3], m[12]) < 0.0


def test_perfect_correlation_matches_general_solution():
    rng = np.random.default_rng(37)
    for _ in range(10):
        p = perfect_correlation_box(rng)
        m16 = rng.uniform(-1.0, 1.0)
        special = ql.perfect_correlation_solution(p, m16)
        implied = [special[1], special[2], 0.0, 0.0, special[13], special[14], special[15]]
        assert np.allclose(special, ql.solve(p, implied), atol=1e-12)


# ---------------------------------------------------------------------------
# Boxes near the float maximum
# ---------------------------------------------------------------------------

AGREE = [0, 1, 2, 3, 12, 13, 14, 15]      # the strategies of the face p2 = p3 = 0


def signed_powers(top):
    """0 or +-10^e, e in [0, top], and in [top - 0.5, top] half the time."""
    return st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0, 0.0]),
                     st.one_of(st.floats(0.0, top), st.floats(top - 0.5, top)))


@st.composite
def huge_boxes(draw):
    """F @ m for m = e_s + sum_i s_i (e_a - e_b), two terms with |s_i| up to
    10^307.9, so m stays finite; on the face p2 = p3 = 0 half the time."""
    strategies = st.sampled_from(AGREE if draw(st.booleans()) else range(16))
    m = [0.0] * 16
    m[draw(strategies)] = 1.0
    for _ in range(2):
        s, a, b = draw(signed_powers(307.9)), draw(strategies), draw(strategies)
        m[a] += s
        m[b] -= s
    return ql.forward_map(m)


@given(huge_boxes(), st.sampled_from([1e300, 1e307, 1.7e308]),
       st.lists(signed_powers(308.0), min_size=7, max_size=7), signed_powers(308.23))
@example(np.array(OVERFLOWING_FACE), 1.7e308, [0.0] * 7, 1.7e308)
@example(np.array(HUGE_LOCAL), 1.7e308, [0.0] * 7, 0.0)
@example(np.array(OVERFLOWING_LOCAL), 1.7e308, [0.0] * 7, 0.0)
@example(np.array(OVERFLOWING_NAN_CHSH), 1.7e308, [0.0] * 7, 0.0)
def test_models_of_huge_boxes_are_finite_or_refused(p, eps, free, m16):
    # the face family's product and Fine's repair product of a local witness
    # overflowed with a numpy warning, and returned inf and NaN weights
    def witness_and_negativity():
        result = ql.min_negativity(p, eps)
        return np.append(result.witness, result.min_negativity)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model_of in (lambda: ql.solve(p, free, eps),
                         lambda: ql.perfect_correlation_solution(p, m16, eps),
                         witness_and_negativity):
            try:
                m = model_of()
            except ValueError:          # ConsistencyError too
                continue
            assert np.isfinite(m).all()
