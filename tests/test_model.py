"""Core model tests: encodings, forward map, consistency checks, CHSH."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quasilocal as ql
from conftest import random_consistent_box, random_nonnegative_measures, random_signed_measures

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


def test_strategy_patterns_match_table():
    assert ql.STRATEGY_PATTERNS == STRATEGY_TABLE


def test_pattern_index_roundtrip():
    for i, pattern in enumerate(STRATEGY_TABLE):
        assert ql.pattern_index(pattern) == i
        assert ql.strategy_pattern(i) == pattern
        assert ql.strategy_index(*ql.strategy_outcomes(i)) == i


def test_strategy_index_formula():
    # index = 8*bit(a1) + 4*bit(b1) + 2*bit(a2) + bit(b2), with + -> 0
    assert ql.strategy_index(+1, +1, +1, +1) == 0
    assert ql.strategy_index(+1, +1, +1, -1) == 1
    assert ql.strategy_index(+1, -1, +1, +1) == 4
    assert ql.strategy_index(-1, +1, +1, +1) == 8
    assert ql.strategy_index(-1, -1, -1, -1) == 15


def test_prob_index_layout():
    assert ql.prob_index(1, 1, +1, +1) == 0   # p1
    assert ql.prob_index(1, 2, +1, +1) == 4   # p5
    assert ql.prob_index(2, 1, +1, +1) == 8   # p9
    assert ql.prob_index(2, 2, +1, +1) == 12  # p13
    assert ql.prob_index(1, 1, -1, +1) == 2   # p3
    assert ql.PROB_LABELS[0] == "a1+b1+"
    assert ql.PROB_LABELS[15] == "a2-b2-"


def test_forward_matrix_matches_joint_terms():
    for row, terms in enumerate(JOINT_TERMS):
        expected = np.zeros(16)
        expected[[t - 1 for t in terms]] = 1.0
        assert np.array_equal(ql.FORWARD_MATRIX[row], expected)


def test_invalid_encoding_inputs():
    with pytest.raises(ValueError):
        ql.strategy_index(0, 1, 1, 1)
    with pytest.raises(ValueError):
        ql.prob_index(3, 1, 1, 1)
    with pytest.raises(ValueError):
        ql.pattern_index("+++")
    with pytest.raises(ValueError):
        ql.strategy_outcomes(16)


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
    m = np.full(16, (1 + RT2) / 16)
    m[list(ql.SIGMA1_STRATEGIES)] = (1 - RT2) / 16
    p = ql.forward_map(m)
    expected = np.full(16, (2 - RT2) / 8)
    expected[list(ql.INDEPENDENT_INDICES)] = (2 + RT2) / 8
    assert np.allclose(p, expected, atol=1e-15)


@given(st.lists(st.floats(-2, 2), min_size=16, max_size=16))
def test_forward_block_sums_equal_total(weights):
    m = np.array(weights)
    p = ql.forward_map(m)
    total = m.sum()
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        start = ql.prob_index(j, k, 1, 1)
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
    assert ql.check_normalization(ql.uniform_box()) == []


def test_normalization_reports_bad_block():
    p = ql.uniform_box()
    p[0] = 0.5  # block (a1,b1) now sums to 1.25
    bad = ql.check_normalization(p)
    assert len(bad) == 1
    assert (bad[0].j, bad[0].k) == (1, 1)
    assert bad[0].total == pytest.approx(1.25)


def test_normalization_tsirelson_ok():
    # each block holds two large and two small entries: 2*(2+r2)/8 + 2*(2-r2)/8 = 1
    assert ql.check_normalization(ql.tsirelson_box()) == []


def test_no_signaling_of_any_model_image(rng=np.random.default_rng(11)):
    for m in random_signed_measures(rng, count=50):
        assert ql.check_no_signaling(ql.forward_map(m)) == []


def test_no_signaling_pr_box():
    # independent hand check first: every single-party marginal equals 1/2
    p = ql.pr_box()
    for j in (1, 2):
        for m in (1, -1):
            for k in (1, 2):
                marginal = p[ql.prob_index(j, k, m, 1)] + p[ql.prob_index(j, k, m, -1)]
                assert marginal == pytest.approx(0.5)
    assert ql.check_no_signaling(p) == []


def test_no_signaling_detects_signaling_box():
    p = np.zeros(16)
    p[ql.prob_index(1, 1, 1, 1)] = 1.0                     # block (a1,b1) = (1,0,0,0)
    p[ql.prob_index(1, 2, 1, 1)] = 0.5                     # block (a1,b2) = (.5,.5,0,0)
    p[ql.prob_index(1, 2, 1, -1)] = 0.5
    p[ql.prob_index(2, 1, 1, 1)] = 1.0                     # block (a2,b1) = (1,0,0,0)
    p[ql.prob_index(2, 2, -1, 1)] = 0.5                    # block (a2,b2) = (0,0,.5,.5)
    p[ql.prob_index(2, 2, -1, -1)] = 0.5
    bad = ql.check_no_signaling(p)
    assert bad, "constructed signaling box must be flagged"
    # the A marginal for a2 = +1 is 1 under b1 but 0 under b2
    flagged = {(v.party, v.setting, v.outcome) for v in bad}
    assert ("A", 2, 1) in flagged


def test_derived_relations_uniform_and_tsirelson():
    assert ql.check_derived_relations(ql.uniform_box()) == []
    assert ql.check_derived_relations(ql.tsirelson_box()) == []


def test_derived_relations_flags_perturbed_entry():
    p = ql.tsirelson_box()
    p[1] = 0.3  # p2
    bad = ql.check_derived_relations(p)
    assert any(v.index == 1 for v in bad)


@given(st.lists(st.floats(-2, 2), min_size=16, max_size=16))
def test_model_images_satisfy_derived_relations(weights):
    m = np.array(weights)
    m += (1.0 - m.sum()) / 16.0
    p = ql.forward_map(m)
    assert ql.check_derived_relations(p, 1e-9) == []


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
        derived_ok = not ql.check_derived_relations(p, eps)
        direct_ok = (not ql.check_normalization(p, eps)
                     and not ql.check_no_signaling(p, eps))
        assert derived_ok == direct_ok


def test_require_consistent_raises_with_violations():
    p = ql.uniform_box()
    p[0] = 0.6
    with pytest.raises(ql.ConsistencyError) as err:
        ql.require_consistent(p)
    assert err.value.violations


@pytest.mark.parametrize("eps", [np.nan, np.inf, -1e-9])
def test_check_consistency_rejects_bad_eps(eps):
    # a NaN eps passed every check and an infinite one accepted signalling boxes
    signalling = ql.uniform_box()
    signalling[[0, 1]] = [0.4, 0.1]
    with pytest.raises(ValueError, match="eps"):
        ql.check_consistency(signalling, eps)
    with pytest.raises(ValueError, match="eps"):
        ql.is_consistent(signalling, eps)


def test_check_range():
    p = ql.uniform_box()
    assert ql.check_range(p) == []
    p[3] = 1.2
    assert [v.index for v in ql.check_range(p)] == [3]


# ---------------------------------------------------------------------------
# Correlation and CHSH
# ---------------------------------------------------------------------------

def test_correlation_values():
    perfect = np.zeros(16)
    perfect[ql.prob_index(1, 1, 1, 1)] = 1.0
    perfect[[4, 8, 12]] = [1.0, 1.0, 1.0]  # keep the other blocks normalized too
    assert ql.correlation(perfect, 1, 1) == pytest.approx(1.0)
    assert ql.correlation(ql.uniform_box(), 1, 1) == pytest.approx(0.0)
    # hand evaluation on the extremal box: ((2+r2) + (2+r2) - (2-r2) - (2-r2)) / 8
    assert ql.correlation(ql.tsirelson_box(), 1, 1) == pytest.approx(RT2 / 2, abs=1e-12)


def test_correlation_rejects_unnormalized_block():
    p = ql.uniform_box()
    p[0] = 0.5
    with pytest.raises(ql.ConsistencyError):
        ql.correlation(p, 1, 1)


def test_chsh_canonical_values():
    assert ql.chsh(ql.tsirelson_box()) == pytest.approx(2 * RT2, abs=1e-12)
    for variant in ql.CHSH_VARIANTS:
        assert ql.chsh(ql.uniform_box(), variant) == pytest.approx(0.0, abs=1e-12)
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
            s = ql.prob_index(j, k, 1, 1)
            p[s:s + 4] /= p[s:s + 4].sum()
        reduced = 2.0 * (p[list(ql.INDEPENDENT_INDICES)].sum() - 2.0)
        assert ql.chsh(p) == pytest.approx(reduced, abs=1e-9)


def test_every_deterministic_strategy_saturates_every_variant():
    for s in range(16):
        p = ql.deterministic_box(s)
        for variant in ql.CHSH_VARIANTS:
            assert abs(ql.chsh(p, variant)) == pytest.approx(2.0, abs=1e-12)


def test_variant_set_is_complete():
    assert len(set(ql.CHSH_VARIANTS)) == 8
    assert ql.CANONICAL_VARIANT.negated_pair == (2, 2)
    assert ql.CANONICAL_VARIANT.overall_sign == 1
    with pytest.raises(ValueError):
        ql.ChshVariant((3, 1), 1)
    with pytest.raises(ValueError):
        ql.ChshVariant((1, 1), 0)


def test_chsh_report():
    report = ql.chsh_report(ql.tsirelson_box())
    assert report.canonical_delta == pytest.approx(2 * RT2, abs=1e-12)
    assert report.max_abs_delta == pytest.approx(2 * RT2, abs=1e-12)
    assert report.violated(ql.CANONICAL_VARIANT)
    assert report.any_violation
    assert report.sigmas is None
    quiet = ql.chsh_report(ql.uniform_box())
    assert not quiet.any_violation


# ---------------------------------------------------------------------------
# Sigma sums and the necessity of negative weights
# ---------------------------------------------------------------------------

def test_sigmas_values():
    assert ql.sigmas(np.full(16, 1 / 16)) == ql.Sigmas(0.5, 0.5)
    m = np.zeros(16)
    m[0] = 1.0
    assert ql.sigmas(m) == ql.Sigmas(0.0, 1.0)
    extremal = np.full(16, (1 + RT2) / 16)
    extremal[list(ql.SIGMA1_STRATEGIES)] = (1 - RT2) / 16
    s = ql.sigmas(extremal)
    assert s.sigma1 == pytest.approx((1 - RT2) / 2, abs=1e-12)
    assert s.sigma2 == pytest.approx((1 + RT2) / 2, abs=1e-12)


def test_sigmas_unnormalized_uses_total():
    m = np.full(16, 0.25)  # sums to 4
    s = ql.sigmas(m)
    assert s.sigma1 == pytest.approx(2.0)
    assert s.sigma2 == pytest.approx(2.0)


def test_sigma_strategy_split_matches_deterministic_chsh():
    # sigma1 collects exactly the strategies with canonical CHSH value -2
    for s in range(16):
        delta = ql.chsh(ql.deterministic_box(s))
        if s in ql.SIGMA1_STRATEGIES:
            assert delta == pytest.approx(-2.0)
        else:
            assert s in ql.SIGMA2_STRATEGIES
            assert delta == pytest.approx(2.0)


def test_chsh_from_measures_values():
    assert ql.chsh_from_measures(np.full(16, 1 / 16)) == pytest.approx(0.0, abs=1e-12)
    extremal = np.full(16, (1 + RT2) / 16)
    extremal[list(ql.SIGMA1_STRATEGIES)] = (1 - RT2) / 16
    assert ql.chsh_from_measures(extremal) == pytest.approx(2 * RT2, abs=1e-12)
    one_hot = np.zeros(16)
    one_hot[0] = 1.0
    assert ql.chsh_from_measures(one_hot) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ql.ConsistencyError):
        ql.chsh_from_measures(np.full(16, 0.25))


def test_chsh_from_measures_agrees_with_probability_route():
    rng = np.random.default_rng(17)
    for m in random_signed_measures(rng, count=1000):
        assert abs(ql.chsh_from_measures(m) - ql.chsh(ql.forward_map(m))) < 1e-9


def test_sigma_interval_iff_chsh_bounded():
    rng = np.random.default_rng(29)
    eps = 1e-9
    for m in random_signed_measures(rng, count=300):
        s1 = ql.sigmas(m).sigma1
        delta = ql.chsh_from_measures(m)
        assert (-eps <= s1 <= 1 + eps) == (abs(delta) <= 2 + 4 * eps)


def test_necessity_verdict_examples():
    extremal = np.full(16, (1 + RT2) / 16)
    extremal[list(ql.SIGMA1_STRATEGIES)] = (1 - RT2) / 16
    v = ql.negativity_necessity_verdict(extremal)
    assert (v.violates_canonical_chsh, v.sigma_in_unit_interval, v.has_negative_entry) \
        == (True, False, True)

    v = ql.negativity_necessity_verdict(np.full(16, 1 / 16))
    assert (v.violates_canonical_chsh, v.sigma_in_unit_interval, v.has_negative_entry) \
        == (False, True, False)

    # negative weight without violation: sigma1 = 0 stays inside [0, 1]
    m = np.zeros(16)
    m[0] = 17 / 16
    m[1] = -1 / 16
    v = ql.negativity_necessity_verdict(m)
    assert (v.violates_canonical_chsh, v.sigma_in_unit_interval, v.has_negative_entry) \
        == (False, True, True)


def test_violation_implies_negative_entry():
    rng = np.random.default_rng(31)
    measures = list(random_signed_measures(rng, count=500))
    # adversarial: maximal violation puts all weight of sigma1 at -2 each
    worst = np.full(16, 0.0)
    worst[list(ql.SIGMA2_STRATEGIES)] = 3 / 8
    worst[list(ql.SIGMA1_STRATEGIES)] = -1 / 4
    measures.append(worst)
    for m in measures:
        verdict = ql.negativity_necessity_verdict(m)
        if verdict.violates_canonical_chsh:
            assert verdict.has_negative_entry


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
        assert ql.is_consistent(p)


def test_box_values():
    assert np.allclose(ql.uniform_box(), 0.25)
    assert ql.pr_box()[0] == 0.5 and ql.pr_box()[1] == 0.0
    t = ql.tsirelson_box()
    assert t[0] == pytest.approx((2 + RT2) / 8)
    assert t[1] == pytest.approx((2 - RT2) / 8)
    d = ql.deterministic_box(0)
    assert d[[0, 4, 8, 12]].sum() == pytest.approx(4.0)
