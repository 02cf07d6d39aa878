"""Core model tests: encodings, forward map, consistency checks, CHSH."""

import inspect
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quasilocal as ql
from quasilocal import model
from conftest import (OVERFLOWING, SPECIAL_PARTS, extremal_measures, minus_strategies, random_consistent_box,
                      random_nonnegative_measures, random_signed_measures)
from test_checks_reference import ref_check_consistency

RT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Encodings.  The frozen tables below are the independent oracle: the
# strategy rows in canonical order and, for each joint probability, the
# 1-based indices of the four strategies that contribute to it.
# ---------------------------------------------------------------------------

STRATEGY_TABLE = (
    "++++", "+++-", "++-+", "++--", "+-++", "+-+-", "+--+", "+---",
    "-+++", "-++-", "-+-+", "-+--", "--++", "--+-", "---+", "----",
)

JOINT_TERMS = (
    (1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12), (13, 14, 15, 16),
    (1, 3, 5, 7), (2, 4, 6, 8), (9, 11, 13, 15), (10, 12, 14, 16),
    (1, 2, 9, 10), (5, 6, 13, 14), (3, 4, 11, 12), (7, 8, 15, 16),
    (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15), (4, 8, 12, 16),
)


#: Event (j, k, m, n) of p(a_j = m, b_k = n) and label of p1 .. p16.
PROB_TABLE = (
    ((1, 1, +1, +1), "a1+b1+"), ((1, 1, +1, -1), "a1+b1-"),
    ((1, 1, -1, +1), "a1-b1+"), ((1, 1, -1, -1), "a1-b1-"),
    ((1, 2, +1, +1), "a1+b2+"), ((1, 2, +1, -1), "a1+b2-"),
    ((1, 2, -1, +1), "a1-b2+"), ((1, 2, -1, -1), "a1-b2-"),
    ((2, 1, +1, +1), "a2+b1+"), ((2, 1, +1, -1), "a2+b1-"),
    ((2, 1, -1, +1), "a2-b1+"), ((2, 1, -1, -1), "a2-b1-"),
    ((2, 2, +1, +1), "a2+b2+"), ((2, 2, +1, -1), "a2+b2-"),
    ((2, 2, -1, +1), "a2-b2+"), ((2, 2, -1, -1), "a2-b2-"),
)


def test_strategy_patterns_match_table():
    assert ql.STRATEGY_PATTERNS == STRATEGY_TABLE
    assert tuple("".join("+" if o == 1 else "-" for o in outcomes)
                 for outcomes in model.STRATEGY_OUTCOMES) == STRATEGY_TABLE


def test_probability_layout_matches_table():
    assert model.PROB_EVENTS == tuple(event for event, _ in PROB_TABLE)
    assert ql.PROB_LABELS == tuple(label for _, label in PROB_TABLE)
    for i, (event, label) in enumerate(PROB_TABLE):
        assert ql.PROB_EVENTS.index(event) == i
        j, k, m, n = event
        position = (j - 1, k - 1, model.OUTCOMES.index(m), model.OUTCOMES.index(n))
        assert model._PROB_INDEX[position] == i
        assert ql.PROB_LABELS[i] == label


def test_pattern_index_roundtrip():
    for i, pattern in enumerate(STRATEGY_TABLE):
        assert ql.STRATEGY_OUTCOMES.index(tuple(ql.PLUS if c == "+" else ql.MINUS
                                                 for c in pattern)) == i
        assert ql.STRATEGY_PATTERNS[i] == pattern


def test_strategy_index_formula():
    # index = 8*bit(a1) + 4*bit(b1) + 2*bit(a2) + bit(b2), with + -> 0
    assert ql.STRATEGY_OUTCOMES.index((+1, +1, +1, +1)) == 0
    assert ql.STRATEGY_OUTCOMES.index((+1, +1, +1, -1)) == 1
    assert ql.STRATEGY_OUTCOMES.index((+1, -1, +1, +1)) == 4
    assert ql.STRATEGY_OUTCOMES.index((-1, +1, +1, +1)) == 8
    assert ql.STRATEGY_OUTCOMES.index((-1, -1, -1, -1)) == 15


def test_prob_index_layout():
    assert ql.PROB_EVENTS.index((1, 1, +1, +1)) == 0   # p1
    assert ql.PROB_EVENTS.index((1, 2, +1, +1)) == 4   # p5
    assert ql.PROB_EVENTS.index((2, 1, +1, +1)) == 8   # p9
    assert ql.PROB_EVENTS.index((2, 2, +1, +1)) == 12  # p13
    assert ql.PROB_EVENTS.index((1, 1, -1, +1)) == 2   # p3
    assert ql.PROB_LABELS[0] == "a1+b1+"
    assert ql.PROB_LABELS[15] == "a2-b2-"


def test_forward_matrix_matches_joint_terms():
    for row, terms in enumerate(JOINT_TERMS):
        expected = np.zeros(16)
        expected[[t - 1 for t in terms]] = 1.0
        assert np.array_equal(ql.FORWARD_MATRIX[row], expected)


def test_invalid_encoding_inputs():
    with pytest.raises(ValueError, match=r"^line 1: bad pattern '\+\+\+'$"):
        ql.parse_measures("+++ 1\n")


# ---------------------------------------------------------------------------
# Forward map
# ---------------------------------------------------------------------------

def test_forward_uniform():
    assert np.allclose(ql.forward_map(np.full(16, 1 / 16)), 0.25, atol=1e-15)


def test_forward_one_hot_all_plus():
    m = np.zeros(16)
    m[0] = 1.0
    p = ql.forward_map(m)
    expected = np.zeros(16)
    expected[[0, 4, 8, 12]] = 1.0  # p1, p5, p9, p13
    assert np.array_equal(p, expected)


def test_forward_extremal_measures():
    p = ql.forward_map(extremal_measures())
    expected = np.full(16, (2 - RT2) / 8)
    expected[list(ql.INDEPENDENT_INDICES)] = (2 + RT2) / 8
    assert np.allclose(p, expected, atol=1e-15)


@given(st.lists(st.floats(-2, 2), min_size=16, max_size=16))
def test_forward_block_sums_equal_total(weights):
    m = np.array(weights)
    p = ql.forward_map(m)
    total = m.sum()
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        start = ql.PROB_EVENTS.index((j, k, 1, 1))
        assert abs(p[start:start + 4].sum() - total) < 1e-12 * max(1.0, abs(total))


def test_forward_rejects_bad_shape():
    with pytest.raises(ValueError):
        ql.forward_map(np.zeros(15))
    with pytest.raises(ValueError):
        ql.forward_map(np.full(16, np.nan))


# ---------------------------------------------------------------------------
# Consistency checks
# ---------------------------------------------------------------------------

def test_normalization_uniform_ok():
    assert ql.check_consistency(ql.uniform_box())["normalization"] == []


def test_normalization_reports_bad_block():
    p = ql.uniform_box()
    p[0] = 0.5  # block (a1,b1) now sums to 1.25
    bad = ql.check_consistency(p)["normalization"]
    assert len(bad) == 1
    assert (bad[0].j, bad[0].k) == (1, 1)
    assert bad[0].total == pytest.approx(1.25)


def test_normalization_tsirelson_ok():
    # each block holds two large and two small entries: 2*(2+r2)/8 + 2*(2-r2)/8 = 1
    assert ql.check_consistency(ql.tsirelson_box())["normalization"] == []


def test_no_signaling_of_any_model_image(rng=np.random.default_rng(11)):
    for m in random_signed_measures(rng, count=50):
        assert ql.check_consistency(ql.forward_map(m))["no_signaling"] == []


def test_no_signaling_pr_box():
    # independent hand check first: every single-party marginal equals 1/2
    p = ql.pr_box()
    index = ql.PROB_EVENTS.index
    for j in (1, 2):
        for m in (1, -1):
            for k in (1, 2):
                marginal = p[index((j, k, m, 1))] + p[index((j, k, m, -1))]
                assert marginal == pytest.approx(0.5)
    assert ql.check_consistency(p)["no_signaling"] == []


def test_no_signaling_detects_signaling_box():
    p = np.zeros(16)
    p[ql.PROB_EVENTS.index((1, 1, 1, 1))] = 1.0         # block (a1,b1) = (1,0,0,0)
    p[ql.PROB_EVENTS.index((1, 2, 1, 1))] = 0.5         # block (a1,b2) = (.5,.5,0,0)
    p[ql.PROB_EVENTS.index((1, 2, 1, -1))] = 0.5
    p[ql.PROB_EVENTS.index((2, 1, 1, 1))] = 1.0         # block (a2,b1) = (1,0,0,0)
    p[ql.PROB_EVENTS.index((2, 2, -1, 1))] = 0.5        # block (a2,b2) = (0,0,.5,.5)
    p[ql.PROB_EVENTS.index((2, 2, -1, -1))] = 0.5
    bad = ql.check_consistency(p)["no_signaling"]
    assert bad, "constructed signaling box must be flagged"
    # the A marginal for a2 = +1 is 1 under b1 but 0 under b2
    flagged = {(v.party, v.setting, v.outcome) for v in bad}
    assert ("A", 2, 1) in flagged


def test_derived_relations_uniform_and_tsirelson():
    assert ql.check_consistency(ql.uniform_box())["derived_relations"] == []
    assert ql.check_consistency(ql.tsirelson_box())["derived_relations"] == []


def test_derived_relations_flags_perturbed_entry():
    p = ql.tsirelson_box()
    p[1] = 0.3  # p2
    bad = ql.check_consistency(p)["derived_relations"]
    assert any(v.index == 1 for v in bad)


@given(st.lists(st.floats(-2, 2), min_size=16, max_size=16))
def test_model_images_satisfy_derived_relations(weights):
    m = np.array(weights)
    m += (1.0 - m.sum()) / 16.0
    p = ql.forward_map(m)
    assert ql.check_consistency(p, 1e-9)["derived_relations"] == []


def test_derived_equivalent_to_normalization_plus_no_signaling():
    rng = np.random.default_rng(5)
    candidates = []
    for _ in range(40):
        candidates.append(rng.uniform(0.0, 1.0, 16))       # generic: everything fails
        candidates.append(random_consistent_box(rng))       # everything passes
        candidates.append(2.0 * random_consistent_box(rng))  # no-signaling holds, blocks sum to 2
        q = random_consistent_box(rng)                       # normalized but signaling
        q[[0, 1]] = q[[1, 0]]
        candidates.append(q)
    eps = 1e-9
    for p in candidates:
        checks = ql.check_consistency(p, eps)
        derived_ok = not checks["derived_relations"]
        direct_ok = not checks["normalization"] and not checks["no_signaling"]
        assert derived_ok == direct_ok


def test_require_consistent_raises_with_violations():
    p = ql.uniform_box()
    p[0] = 0.6
    with pytest.raises(ql.ConsistencyError) as err:
        ql.require_consistent(p)
    assert err.value.violations


def test_require_consistent_lists_every_violation():
    p = np.linspace(-0.5, 1.5, 16)
    violations = [v for vs in ql.check_consistency(p).values() for v in vs]
    assert len(violations) > 4
    with pytest.raises(ql.ConsistencyError) as err:
        ql.require_consistent(p)
    assert err.value.violations == tuple(violations)
    assert all(v.describe() in str(err.value) for v in violations)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -1e-9, "x", None])
def test_check_consistency_rejects_bad_eps(eps):
    # a NaN eps passed every check and an infinite one accepted signalling
    # boxes; blocks summing to 2 and weights summing to 8 got CHSH values
    signalling = ql.uniform_box()
    signalling[[0, 1]] = [0.4, 0.1]
    unnormalized = np.full(16, 0.5)
    calls = {
        "check_consistency": lambda e: ql.check_consistency(signalling, e),
        "require_consistent": lambda e: ql.require_consistent(signalling, e),
        "correlation": lambda e: ql.correlation(unnormalized, 1, 1, e),
        "chsh": lambda e: ql.chsh(unnormalized, eps=e),
        "chsh_report": lambda e: ql.chsh_report(unnormalized, e),
        "solve": lambda e: ql.solve(signalling, eps=e),
        "perfect_correlation_solution":
            lambda e: ql.perfect_correlation_solution(ql.pr_box(), 0.0, e),
        "min_negativity": lambda e: ql.min_negativity(signalling, e),
    }
    # every public function that takes eps is in the table
    assert set(calls) == {name for name, f in vars(ql).items()
                          if inspect.isfunction(f) and "eps" in inspect.signature(f).parameters}
    if isinstance(eps, float):
        error, message = ValueError, re.escape(f"eps must be finite and nonnegative, got {eps!r}")
        message = f"^{message}$"
    else:   # not a number: Python's TypeError, as math.isfinite raises it
        error, message = TypeError, "^must be real number, not "
        # m16 too: numpy's np.isfinite raised "ufunc 'isfinite' not supported"
        with pytest.raises(error, match=message):
            ql.perfect_correlation_solution(ql.pr_box(), eps)
    for name, call in calls.items():
        with pytest.raises(error, match=message):
            call(eps)
    # check_consistency tests eps before the box, require_consistent after it
    with pytest.raises(error, match=message):
        ql.check_consistency(np.zeros(15), eps)
    with pytest.raises(ValueError, match="must have exactly 16 entries"):
        ql.require_consistent(np.zeros(15), eps)


def test_check_range():
    p = ql.uniform_box()
    assert ql.check_consistency(p)["range"] == []
    p[3] = 1.2
    assert [v.index for v in ql.check_consistency(p)["range"]] == [3]


# The relation table and the loop checks as they were typed out by hand: the
# references for the versions derived from FORWARD_MATRIX.
REFERENCE_DEPENDENT_SIGNS = np.array([
    [-1, -1, +1, -1, -1, +1, +1, -1],
    [-1, -1, -1, +1, +1, -1, -1, +1],
    [+1, -1, -1, -1, -1, +1, +1, -1],
    [-1, +1, -1, -1, +1, -1, -1, +1],
    [-1, +1, +1, -1, -1, -1, +1, -1],
    [+1, -1, -1, +1, -1, -1, -1, +1],
    [-1, +1, +1, -1, +1, -1, -1, -1],
    [+1, -1, -1, +1, -1, +1, -1, -1],
], dtype=float)


def reference_check_range(p, eps):
    return [ql.RangeViolation(i, float(v)) for i, v in enumerate(p)
            if v < -eps or v > 1.0 + eps]


def reference_check_no_signaling(p, eps):
    out = []
    index = ql.PROB_EVENTS.index
    for j in (1, 2):
        for m in (1, -1):
            lhs = float(p[index((j, 1, m, 1))] + p[index((j, 1, m, -1))])
            rhs = float(p[index((j, 2, m, 1))] + p[index((j, 2, m, -1))])
            if abs(lhs - rhs) > eps:
                out.append(ql.MarginalViolation("A", j, m, lhs, rhs))
    for k in (1, 2):
        for n in (1, -1):
            lhs = float(p[index((1, k, 1, n))] + p[index((1, k, -1, n))])
            rhs = float(p[index((2, k, 1, n))] + p[index((2, k, -1, n))])
            if abs(lhs - rhs) > eps:
                out.append(ql.MarginalViolation("B", k, n, lhs, rhs))
    return out


def reference_check_derived_relations(p, eps):
    expected = 0.5 * (1.0 + REFERENCE_DEPENDENT_SIGNS @ p[list(ql.INDEPENDENT_INDICES)])
    out = []
    for row, idx in enumerate(ql.DEPENDENT_INDICES):
        if abs(p[idx] - expected[row]) > eps:
            out.append(ql.RelationViolation(idx, float(expected[row]), float(p[idx])))
    return out


def test_derived_constants_match_the_hand_tables():
    assert np.array_equal(model.DEPENDENT_SIGNS, REFERENCE_DEPENDENT_SIGNS)
    # the canonical variant's C = -2 strategies, and the negated variant's
    assert model._MINUS_STRATEGIES[0] == [3, 4, 5, 7, 8, 10, 11, 12]
    assert model._MINUS_STRATEGIES[4] == [0, 1, 2, 6, 9, 13, 14, 15]
    assert all(type(s) is int for row in model._MINUS_STRATEGIES for s in row)


def test_box_embedding_is_an_exact_half_integer_least_squares_solution():
    F = ql.FORWARD_MATRIX
    basis = np.vstack([np.ones(16), F[list(ql.INDEPENDENT_INDICES)]])
    unrounded = (np.linalg.pinv(basis.T) @ F.T).T
    assert np.abs(unrounded - model._BOX_EMBEDDING).max() < 1e-12
    assert np.array_equal(model._BOX_EMBEDDING[list(ql.DEPENDENT_INDICES), 0], np.full(8, 0.5))
    assert np.array_equal(model._BOX_EMBEDDING @ basis, F)


@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-12, 1e-3), st.sampled_from([0.0, 1e-9, 1e-6]))
def test_checks_give_the_reference_violation_lists(seed, size, eps):
    # perturbed boxes break the relations entry by entry; signalling boxes
    # swap two entries of one block
    rng = np.random.default_rng(seed)
    perturbed = random_consistent_box(rng) + rng.normal(0.0, size, 16)
    signalling = random_consistent_box(rng)
    i, j = rng.choice(4, 2, replace=False) + 4 * rng.integers(4)
    signalling[[i, j]] = signalling[[j, i]]
    for p in (perturbed, signalling, 1.5 * perturbed - 0.1):
        checks = ql.check_consistency(p, eps)
        assert checks["range"] == reference_check_range(p, eps)
        assert checks["no_signaling"] == reference_check_no_signaling(p, eps)
        assert checks["derived_relations"] == reference_check_derived_relations(p, eps)


# ---------------------------------------------------------------------------
# Correlation and CHSH
# ---------------------------------------------------------------------------

def test_correlation_values():
    perfect = np.zeros(16)
    perfect[ql.PROB_EVENTS.index((1, 1, 1, 1))] = 1.0
    perfect[[4, 8, 12]] = [1.0, 1.0, 1.0]  # keep the other blocks normalized too
    assert ql.correlation(perfect, 1, 1) == pytest.approx(1.0)
    assert ql.correlation(ql.uniform_box(), 1, 1) == pytest.approx(0.0)
    # hand evaluation on the extremal box: ((2+r2) + (2+r2) - (2-r2) - (2-r2)) / 8
    assert ql.correlation(ql.tsirelson_box(), 1, 1) == pytest.approx(RT2 / 2, abs=1e-12)
    # numpy integers are settings too
    assert (ql.correlation(ql.tsirelson_box(), np.int64(2), np.int8(2))
            == ql.correlation(ql.tsirelson_box(), 2, 2))


# a bool or a float is not a setting, though True == 1 and 1.0 == 1
@pytest.mark.parametrize("j, k", [(0, 1), (1, 3), (3, 1), (True, 1), (1, True), (1.0, 2)])
def test_correlation_rejects_a_setting_pair_outside_the_layout(j, k):
    with pytest.raises(ValueError, match=f"^setting indices must be 1 or 2, got j={j}, k={k}$"):
        ql.correlation(ql.uniform_box(), j, k)


def test_correlation_rejects_unnormalized_block():
    p = ql.uniform_box()
    p[0] = 0.5
    with pytest.raises(ql.ConsistencyError):
        ql.correlation(p, 1, 1)


def test_chsh_canonical_values():
    assert ql.chsh(ql.tsirelson_box()) == pytest.approx(2 * RT2, abs=1e-12)
    for v in range(8):
        assert ql.chsh(ql.uniform_box(), v) == pytest.approx(0.0, abs=1e-12)
    # reduced-form evaluation: 2 * (8 * 1/2 - 2) = 4
    assert ql.chsh(ql.pr_box()) == pytest.approx(4.0, abs=1e-12)


def test_chsh_rejects_unnormalized():
    p = ql.uniform_box()
    p[0] = 0.5
    with pytest.raises(ql.ConsistencyError):
        ql.chsh(p)


def test_chsh_sum_form_agrees_with_correlation_form():
    # holds for any block-normalized set, signaling or not
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = rng.uniform(0.0, 1.0, 16)
        for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
            s = ql.PROB_EVENTS.index((j, k, 1, 1))
            p[s:s + 4] /= p[s:s + 4].sum()
        reduced = 2.0 * (p[list(ql.INDEPENDENT_INDICES)].sum() - 2.0)
        assert ql.chsh(p) == pytest.approx(reduced, abs=1e-9)


def test_every_deterministic_strategy_saturates_every_variant():
    # |delta| = 2 exactly, the bound itself: no variant is violated, even at eps 0
    for s in range(16):
        p = ql.deterministic_box(s)
        assert [abs(ql.chsh(p, v)) for v in range(8)] == [2.0] * 8
        report = ql.chsh_report(p, 0.0)
        assert not report.any_violation
        assert not any(report.violated(v) for v in range(8))


def test_a_variant_is_a_row_of_the_chsh_matrix():
    assert len(ql.CHSH_VARIANTS) == 8
    assert set(ql.CHSH_VARIANTS) == {(pair, sign) for pair in model.SETTING_PAIRS
                                      for sign in (1, -1)}
    assert ql.CHSH_VARIANTS[0] == ((2, 2), 1)            # the canonical variant
    p = ql.tsirelson_box()
    report = ql.chsh_report(p)
    for v in range(8):
        assert ql.chsh(p, np.int64(v)) == ql.chsh(p, v) == report.deltas[v]
        assert report.violated(np.uint8(v)) == report.violated(v)
    for bad in (True, False, -1, 8, 3.0, np.float64(1), "x", None):
        message = f"variant must be an integer in 0..7, got {bad!r}"
        for evaluate in (lambda v: ql.chsh(p, v), report.violated):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                evaluate(bad)


def test_chsh_report():
    report = ql.chsh_report(ql.tsirelson_box())
    assert report.deltas[0] == pytest.approx(2 * RT2, abs=1e-12)
    assert report.max_abs_delta == pytest.approx(2 * RT2, abs=1e-12)
    assert report.violated(0)
    assert report.any_violation
    quiet = ql.chsh_report(ql.uniform_box())
    assert not quiet.any_violation


def loop_chsh(p, v):
    """Variant v's CHSH sum from the four correlations and its CHSH_VARIANTS
    entry: the reference for CHSH_MATRIX."""
    negated, sign = ql.CHSH_VARIANTS[v]
    return sign * sum((-1 if (j, k) == negated else 1) * ql.correlation(p, j, k)
                      for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)))


@given(st.lists(st.floats(1e-3, 1.0), min_size=16, max_size=16))
def test_chsh_matrix_matches_the_per_variant_loop(values):
    blocks = np.array(values).reshape(4, 4)
    p = (blocks / blocks.sum(axis=1, keepdims=True)).reshape(16)
    loop = np.array([loop_chsh(p, v) for v in range(8)])
    # two sums of 16 terms in different orders
    tol = 16 * np.finfo(float).eps * np.abs(p).sum()
    assert np.abs(np.array(ql.chsh_report(p).deltas) - loop).max() <= tol
    assert np.abs(np.array([ql.chsh(p, v) for v in range(8)]) - loop).max() <= tol
    assert abs(ql.chsh_report(p).max_abs_delta - np.abs(loop).max()) <= tol


def test_each_variant_negates_its_own_pair():
    # read from the CHSH_VARIANTS entries alone; four distinct correlations
    # tell the pairs apart
    corr = {(1, 1): 0.1, (1, 2): 0.2, (2, 1): 0.3, (2, 2): 0.4}
    p = np.array([(1 + m * n * corr[j, k]) / 4 for j, k, m, n in ql.PROB_EVENTS])
    for v, (negated, sign) in enumerate(ql.CHSH_VARIANTS):
        expected = sign * (sum(corr.values()) - 2 * corr[negated])
        assert ql.chsh(p, v) == pytest.approx(expected, abs=1e-12)


UNNORMALIZED = ql.uniform_box()
UNNORMALIZED[0] = 0.5
NON_FINITE = ql.uniform_box()
NON_FINITE[3] = np.nan
NOT_16 = np.zeros(15)
CHSH_UNNORMALIZED = (ql.ConsistencyError,
                     "cannot evaluate CHSH on an unnormalized probability set")
NON_FINITE_ERROR = (ValueError, "probability set contains non-finite entries")
NOT_16_ERROR = (ValueError, "probability set must have exactly 16 entries, got shape (15,)")
REQUIRE_UNNORMALIZED = (
    ql.ConsistencyError,
    "inconsistent probability set (eps = 1e-09): block (a1,b1) sums to 1.25, expected 1; "
    "marginal p(a1+) depends on the b-setting: 0.75 vs 0.5; "
    "marginal p(b1+) depends on the a-setting: 0.75 vs 0.5; "
    "p2 (a1+b1-) = 0.25, but the independent entries imply 0.125; "
    "p3 (a1-b1+) = 0.25, but the independent entries imply 0.125; "
    "p6 (a1+b2-) = 0.25, but the independent entries imply 0.375; "
    "p7 (a1-b2+) = 0.25, but the independent entries imply 0.125; "
    "p10 (a2+b1-) = 0.25, but the independent entries imply 0.125; "
    "p11 (a2-b1+) = 0.25, but the independent entries imply 0.375; "
    "p13 (a2+b2+) = 0.25, but the independent entries imply 0.125; "
    "p16 (a2-b2-) = 0.25, but the independent entries imply 0.375")


@pytest.mark.parametrize("evaluate, p, error", [
    pytest.param(ql.chsh, UNNORMALIZED, CHSH_UNNORMALIZED, id="chsh"),
    pytest.param(ql.chsh_report, UNNORMALIZED, CHSH_UNNORMALIZED, id="chsh_report"),
    pytest.param(lambda p: ql.chsh_report(p).max_abs_delta, UNNORMALIZED, CHSH_UNNORMALIZED,
                 id="max_abs_chsh"),
    pytest.param(ql.require_consistent, UNNORMALIZED, REQUIRE_UNNORMALIZED,
                 id="require_consistent"),
    *(pytest.param(evaluate, p, error, id=f"{evaluate.__name__}-{kind}")
      for evaluate in (ql.chsh, ql.chsh_report, ql.check_consistency, ql.require_consistent)
      for p, error, kind in ((NON_FINITE, NON_FINITE_ERROR, "non-finite"),
                             (NOT_16, NOT_16_ERROR, "not-16"))),
    # the box is checked before the variant
    pytest.param(lambda p: ql.chsh(p, "canonical"), NOT_16, NOT_16_ERROR, id="chsh-order"),
    pytest.param(lambda p: ql.chsh(p, "canonical"), ql.uniform_box(),
                 (ValueError, "variant must be an integer in 0..7, got 'canonical'"),
                 id="chsh-not-a-variant"),
    pytest.param(lambda p: ql.chsh_report(p).violated("x"), ql.uniform_box(),
                 (ValueError, "variant must be an integer in 0..7, got 'x'"),
                 id="violated-not-a-variant"),
])
def test_chsh_functions_reject_unnormalized_boxes(evaluate, p, error):
    """Each bad input raises exactly this error type and message."""
    kind, message = error
    with pytest.raises(kind) as err:
        evaluate(p)
    assert type(err.value) is kind
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# The weight on the C_v = -2 strategies and the necessity of negative weights
# ---------------------------------------------------------------------------

#: Weights that numpy sums to NaN (inf - inf) and whose box is finite, each
#: block summing to 0 exactly: the gate reads the box's block sums.
NAN_SUM = np.zeros(16)
NAN_SUM[[0, 10]], NAN_SUM[[4, 14]] = 1e308, -1e308


def test_sigma_minus_values():
    assert ql.sigma_minus(np.full(16, 1 / 16)) == (0.5,) * 8
    assert ql.sigma_minus(np.full(16, 0.25)) == (2.0,) * 8      # sums to 4: the total counts
    s = ql.sigma_minus(extremal_measures())
    assert s[0] == pytest.approx((1 - RT2) / 2, abs=1e-12)
    assert s[4] == pytest.approx((1 + RT2) / 2, abs=1e-12)     # the canonical variant negated
    m = np.zeros(16)
    m[3], m[0] = -1 / 16, 17 / 16
    assert ql.sigma_minus(m)[0] == -1 / 16


def test_sigma_minus_rows_are_the_chsh_minus_2_strategies():
    for s in range(16):
        one_hot = np.zeros(16)
        one_hot[s] = 1.0
        box = ql.deterministic_box(s)
        assert ql.sigma_minus(one_hot) == tuple(
            1.0 if ql.chsh(box, v) == -2.0 else 0.0 for v in range(8))


def test_chsh_is_2_sum_minus_4_sigma_minus():
    rng = np.random.default_rng(17)
    for m in random_signed_measures(rng, count=1000):
        deltas = ql.chsh_report(ql.forward_map(m)).deltas
        assert np.allclose(deltas, 2.0 - 4.0 * np.array(ql.sigma_minus(m)), rtol=0, atol=1e-9)
    # unnormalized too, through the CHSH matrix: chsh_report would refuse it
    for m in rng.uniform(-3.0, 3.0, size=(200, 16)):
        deltas = ql.CHSH_MATRIX @ ql.forward_map(m)
        assert np.allclose(deltas, 2.0 * m.sum() - 4.0 * np.array(ql.sigma_minus(m)),
                           rtol=0, atol=1e-12)
    assert ql.chsh_report(ql.forward_map(extremal_measures())).deltas[0] == pytest.approx(
        2 * RT2, abs=1e-12)


def test_chsh_of_an_unnormalized_measure_vector_raises():
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(NAN_SUM.sum())
    for m in (np.full(16, 0.25), NAN_SUM):
        with pytest.raises(ql.ConsistencyError,
                           match=r"^cannot evaluate CHSH on an unnormalized probability set$"):
            ql.chsh_report(ql.forward_map(m))


def test_sigma_minus_in_the_unit_interval_iff_chsh_bounded():
    rng = np.random.default_rng(29)
    eps = 1e-9
    for m in random_signed_measures(rng, count=300):
        for s, delta in zip(ql.sigma_minus(m), ql.chsh_report(ql.forward_map(m)).deltas):
            assert (-eps <= s <= 1 + eps) == (abs(delta) <= 2 + 4 * eps)


def necessity(m, eps=ql.DEFAULT_EPS):
    """The variants whose sigma_minus is below -eps, and whether m has a negative weight."""
    return [v for v, s in enumerate(ql.sigma_minus(m)) if s < -eps], bool((m < 0).any())


def test_necessity_examples():
    assert necessity(extremal_measures()) == ([0], True)
    assert necessity(np.full(16, 1 / 16)) == ([], False)
    # negative weight without violation: ++++ and ---- share their CHSH values
    m = np.full(16, 1 / 16)
    m[0], m[15] = -1 / 16, 3 / 16
    assert ql.sigma_minus(m) == (0.5,) * 8
    assert necessity(m) == ([], True)


def test_a_violated_variant_forces_a_negative_weight():
    rng = np.random.default_rng(31)
    measures = list(random_signed_measures(rng, count=500))
    # adversarial: the largest violation of each variant with weights in [-1/4, 3/8]
    for v in range(8):
        worst = np.full(16, 3 / 8)
        worst[minus_strategies(v)] = -1 / 4
        measures.append(worst)
    violated = set()
    for m in measures:
        deltas = ql.chsh_report(ql.forward_map(m)).deltas
        for v in np.flatnonzero(np.array(deltas) > 2 + 4 * ql.DEFAULT_EPS):
            forced, negative = necessity(m)
            assert v in forced and negative
            violated.add(v)
    assert violated == set(range(8))


def test_total_negativity():
    assert ql.total_negativity(np.full(16, 1 / 16)) == 0.0
    m = np.zeros(16)
    m[3] = -0.25
    m[7] = -0.5
    assert ql.total_negativity(m) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Canonical boxes
# ---------------------------------------------------------------------------

def test_canonical_boxes_are_consistent():
    for p in (ql.uniform_box(), ql.pr_box(), ql.tsirelson_box(), ql.deterministic_box(0)):
        assert not any(ql.check_consistency(p).values())


def test_box_values():
    assert np.allclose(ql.uniform_box(), 0.25)
    assert ql.pr_box()[0] == 0.5 and ql.pr_box()[1] == 0.0
    t = ql.tsirelson_box()
    assert t[0] == pytest.approx((2 + RT2) / 8)
    assert t[1] == pytest.approx((2 - RT2) / 8)
    d = ql.deterministic_box(0)
    assert d[[0, 4, 8, 12]].sum() == pytest.approx(4.0)


def test_deterministic_box_is_the_image_of_one_strategy():
    for s in (*range(16), np.int64(5)):
        one_hot = np.zeros(16)
        one_hot[s] = 1.0
        assert np.array_equal(ql.deterministic_box(s), ql.forward_map(one_hot))


@pytest.mark.parametrize("strategy", [-1, 16, True, False, 2.0, np.float64(3), "0", None])
def test_deterministic_box_rejects_anything_but_a_strategy_index(strategy):
    # -1 gave strategy 15's box, True a box of 4.0s, 16 and 2.0 an IndexError
    message = f"strategy must be an integer in 0..15, got {strategy!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ql.deterministic_box(strategy)


# ---------------------------------------------------------------------------
# Memoized gates: one record per box, looked up by its float64 bytes and eps,
# holds the violation scan and the CHSH sums
# ---------------------------------------------------------------------------

def test_mutating_a_box_in_place_changes_the_next_verdict():
    p = ql.uniform_box()
    assert not any(ql.check_consistency(p).values())
    assert ql.require_consistent(p) is p
    assert ql.chsh(p) == 0.0
    p[0] = 0.5                                  # block (a1, b1) now sums to 1.25
    assert ql.check_consistency(p) == ref_check_consistency(p)
    assert ql.check_consistency(p)["normalization"] == [model.BlockViolation(1, 1, 1.25)]
    with pytest.raises(ql.ConsistencyError):
        ql.require_consistent(p)
    with pytest.raises(ql.ConsistencyError, match="unnormalized"):
        ql.chsh(p)


def test_mutating_the_returned_lists_changes_no_later_verdict():
    p = np.linspace(-0.5, 1.5, 16)
    expected = ref_check_consistency(p)
    first = ql.check_consistency(p)
    assert first == expected and expected["no_signaling"]
    first["range"].append(model.RangeViolation(0, 9.0))
    first["no_signaling"].clear()
    assert ql.check_consistency(p) == expected
    with pytest.raises(ql.ConsistencyError) as err:
        ql.require_consistent(p)
    assert err.value.violations == tuple(v for vs in expected.values() for v in vs)
    report = ql.chsh_report(ql.tsirelson_box())
    assert ql.chsh_report(ql.tsirelson_box()) == report


def test_one_box_at_two_eps_values_gets_each_its_own_verdict():
    p = ql.uniform_box()
    p[1] += 1e-6                                # block (a1, b1) sums to 1 + 1e-6
    for _ in range(2):
        assert not any(ql.check_consistency(p, 1e-3).values())
        assert ql.check_consistency(p, 1e-9) == ref_check_consistency(p, 1e-9)
        assert ql.check_consistency(p, 1e-9)["normalization"]
        assert ql.require_consistent(p, 1e-3) is p
        with pytest.raises(ql.ConsistencyError):
            ql.require_consistent(p, 1e-9)
        assert ql.chsh(p, eps=1e-3) == pytest.approx(0.0, abs=1e-5)
        with pytest.raises(ql.ConsistencyError):
            ql.chsh(p, eps=1e-9)


def test_signed_zeros_are_different_boxes():
    # 0.0 == -0.0 and both hash alike, so a key of floats would mix them up;
    # a relation violation carries the entry's own zero
    for zero in (0.0, -0.0, 0.0):
        p = np.full(16, zero)
        assert repr(ql.check_consistency(p, 0.0)) == repr(ref_check_consistency(p, 0.0))
        assert repr(ql.check_consistency(p, 0.0)["derived_relations"][0].actual) == repr(zero)
        with pytest.raises(ql.ConsistencyError, match=f" = {zero!r}, but"):
            ql.require_consistent(p, 0.0)
    for zero in (0.0, -0.0, 0.0):
        p = np.where(ql.pr_box() == 0.0, zero, ql.pr_box())
        assert repr(ql.chsh_report(p).deltas) == repr(tuple((model.CHSH_MATRIX @ p).tolist()))


def test_gates_on_an_overflowing_box_warn_nothing_and_match_the_helpers():
    p = np.array(OVERFLOWING)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = ref_check_consistency(p, 1e300)
        deltas = tuple((model.CHSH_MATRIX @ p).tolist())
    assert "inf" in repr(expected["derived_relations"]) and "nan" in repr(deltas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model._box.cache_clear()
        checks = ql.check_consistency(p, 1e300)
        model._box.cache_clear()
        with pytest.raises(ql.ConsistencyError) as err:
            ql.require_consistent(p, 1e300)
        model._box.cache_clear()
        report = ql.chsh_report(p, 1e300)
    assert repr(checks) == repr(expected)
    assert repr(err.value.violations) == repr(tuple(v for vs in expected.values() for v in vs))
    assert repr(report.deltas) == repr(deltas)


def test_products_outside_np_errstate_cannot_overflow():
    # _product skips the guard while sum |x| < _UNGUARDED_SIZE, which bounds every
    # partial sum only for matrices with entries of at most 1 in magnitude
    from quasilocal import negativity, solver

    for matrix in (model.DEPENDENT_SIGNS, model.CHSH_MATRIX, model.FORWARD_MATRIX,
                   solver._SOLUTION, solver._FACE_SOLUTION, negativity._WITNESS):
        assert np.abs(matrix).max() <= 1.0
    below = np.full(16, np.nextafter(model._UNGUARDED_SIZE / 16, 0.0))
    size = float(below.sum())
    assert size < model._UNGUARDED_SIZE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(model._product(model.CHSH_MATRIX, below, size)).all()
        aligned = 4 * below * model.CHSH_MATRIX[0]          # row 0's sum overflows
        assert np.isinf(model._product(model.CHSH_MATRIX, aligned, 4 * size)[0])


def test_public_products_of_huge_finite_inputs_overflow_without_a_warning():
    # both warned "overflow encountered in matmul" outside np.errstate
    ind, m = np.full(8, 1.7e308), np.full(16, 1.7e308)
    with np.errstate(over="ignore", invalid="ignore"):
        dependent = 0.5 * (1.0 + model.DEPENDENT_SIGNS @ ind)
        image = model.FORWARD_MATRIX @ m
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        box = ql.box_from_independent(ind)
        assert np.array_equal(ql.forward_map(m), image)
    assert np.array_equal(box[model._INDEPENDENT], ind)
    assert np.array_equal(box[model._DEPENDENT], dependent, equal_nan=True)


def test_a_pipeline_makes_two_records_scans_once_and_forms_one_chsh_product_per_box(
        monkeypatch):
    p = ql.tsirelson_box()
    p[1] += 1e-12                               # so the rebuilt box p_hat differs from p
    p_hat = model._box_from_independent(p[model._INDEPENDENT],
                                        model.DEPENDENT_SIGNS @ p[model._INDEPENDENT])
    assert p_hat.tobytes() != p.tobytes()
    products = []
    product = model._product
    monkeypatch.setattr(model, "_product",
                        lambda matrix, *args: products.append(matrix) or product(matrix, *args))
    model._box.cache_clear()
    ql.check_consistency(p)
    ql.chsh_report(p)
    ql.solve(p)
    ql.min_negativity(p)
    records = model._box.cache_info()
    # misses: p, then p_hat; hits: chsh_report, solve, min_negativity, p_hat 7 times
    assert (records.misses, records.hits, records.maxsize) == (2, 10, 4)
    # p's relation product (its violation scan), then one CHSH product per box
    assert [m is model.DEPENDENT_SIGNS for m in products] == [True, False, False]
    assert all(m is model.CHSH_MATRIX for m in products[1:])
    assert model._box(p_hat.tobytes(), ql.DEFAULT_EPS)._violations is None


# ---------------------------------------------------------------------------
# The gates and the total maps at the edges of the float range
# ---------------------------------------------------------------------------

#: What the docstring of a function that may return a non-finite value says.
OVERFLOW_NOTE = "past the float maximum"


@st.composite
def edge_vectors(draw, bases):
    """One of bases with up to three entries replaced by SPECIAL_PARTS values."""
    vector = list(draw(st.sampled_from(bases)))
    for i in draw(st.lists(st.integers(0, len(vector) - 1), max_size=3)):
        vector[i] = draw(SPECIAL_PARTS)
    return vector


def floats_in(value) -> list:
    """Every float a result holds, through arrays, dicts, lists, tuples and records."""
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in floats_in(v)]
    return [value] if isinstance(value, float) else []


def magnitudes_overflow(values) -> bool:
    """Whether the magnitudes of values sum past the float maximum (each is
    divided by 16 first, exactly, so that the sum itself cannot overflow)."""
    return sum(abs(v) / 16.0 for v in values) > sys.float_info.max / 16.0


BOX_BASES = [ql.uniform_box().tolist(), ql.pr_box().tolist(), ql.tsirelson_box().tolist(),
             ql.deterministic_box(5).tolist(), OVERFLOWING]
MEASURE_BASES = [extremal_measures().tolist(), [1.0 / 16] * 16, [1.0] + [0.0] * 15]


@given(edge_vectors(BOX_BASES), edge_vectors(MEASURE_BASES),
       st.sampled_from([0, 1e-9, 1e300, 1.7e308, math.nan, math.inf, -0.0, None, "1e-9"]),
       st.integers(-1, 8), st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (0, 1), (2, 3)]))
def test_gates_and_total_maps_at_the_float_edges_are_finite_or_refused(p, m, eps, v, jk):
    # each returns finite values, except where its docstring says otherwise,
    # or raises ValueError (ConsistencyError too), or TypeError for an eps
    # that is not a number; nothing warns
    ind = [p[i] for i in ql.INDEPENDENT_INDICES]
    calls = [(ql.check_consistency, (p, eps), p), (ql.require_consistent, (p, eps), p),
             (ql.chsh, (p, v, eps), p), (ql.chsh_report, (p, eps), p),
             (ql.correlation, (p, *jk, eps), p), (ql.forward_map, (m,), m),
             (ql.box_from_independent, (ind,), ind), (ql.total_negativity, (m,), m),
             (ql.sigma_minus, (m,), m)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for function, args, values in calls:
            try:
                result = function(*args)
            except TypeError:
                assert not isinstance(eps, (int, float)), function.__name__
                continue
            except ValueError:
                continue
            if not all(map(math.isfinite, floats_in(result))):
                assert magnitudes_overflow(values), (function.__name__, values)
                assert OVERFLOW_NOTE in " ".join(function.__doc__.split()), function.__name__
