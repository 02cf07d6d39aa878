"""Minimum-negativity tests.

The closed form max(0, (|delta| - 2) / 4) and its witness are checked against
two independent oracles, both scipy linprog: one over the 16 weights
directly, and one over the 7 free weights of the solution family, whose
affine expansion is read off solve.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

import quasilocal as ql
from conftest import random_consistent_box, random_mixture_box

RT2 = np.sqrt(2.0)


def family_min_negativity(p):
    """min sum(t) over (f, t) subject to t >= -(base + C f), t >= 0.

    base + C f is the solution family at free weights f.  Its affine
    expansion is recovered by probing solve, so the oracle shares no code
    path with the closed form.
    """
    base = ql.solve(p)
    coeffs = np.column_stack(
        [ql.solve(p, np.eye(7)[j]) - base for j in range(7)])
    result = linprog(
        c=np.concatenate([np.zeros(7), np.ones(16)]),
        A_ub=np.hstack([-coeffs, -np.eye(16)]), b_ub=base,
        bounds=[(None, None)] * 7 + [(0, None)] * 16, method="highs")
    assert result.status == 0, result.message
    return result.fun


F = ql.FORWARD_MATRIX
#: Each strategy's CHSH value (+-2) per variant, and the PR boxes' models.
STRATEGY_CHSH = ql.CHSH_MATRIX @ F
PR_MODELS = (1.0 + STRATEGY_CHSH) / 16.0
#: The 24 vertices of the no-signalling polytope: 16 deterministic boxes and
#: the 8 PR boxes.
VERTICES = np.vstack([F.T, PR_MODELS @ F.T])


def closed_form(p):
    return max(0.0, (np.abs(ql.CHSH_MATRIX @ p).max() - 2.0) / 4.0)


def linprog_min_negativity(p):
    """min sum(t) over (m, t) subject to F m = p, t >= -m, t >= 0."""
    eye = np.eye(16)
    result = linprog(
        c=np.concatenate([np.zeros(16), np.ones(16)]),
        A_ub=np.hstack([-eye, -eye]), b_ub=np.zeros(16),
        A_eq=np.hstack([F, np.zeros((16, 16))]), b_eq=p,
        bounds=[(None, None)] * 16 + [(0, None)] * 16, method="highs")
    assert result.status == 0, result.message
    return result.fun


def assert_closed_form(p, result):
    """The witness reproduces p, sums to 1 and carries exactly the closed
    form, which lower_bound and feasible follow too."""
    assert np.abs(F @ result.witness - p).max() <= 1e-12
    assert abs(result.witness.sum() - 1.0) <= 1e-12
    assert abs(result.min_negativity - closed_form(p)) <= 1e-12
    assert abs(result.lower_bound - closed_form(p)) <= 1e-12
    assert result.feasible == (np.abs(ql.CHSH_MATRIX @ p).max() <= 2.0 + ql.DEFAULT_EPS)


def vertex_mixture(rng):
    """Random convex mixture of 1 to 5 of the 24 no-signalling vertices."""
    k = rng.integers(1, 6)
    return rng.dirichlet(np.ones(k)) @ VERTICES[rng.choice(24, k, replace=False)]


# ---------------------------------------------------------------------------
# The closed form and its witness
# ---------------------------------------------------------------------------

def test_min_negativity_matches_scipy_and_the_closed_form_on_vertex_mixtures():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        p = vertex_mixture(rng)
        result = ql.min_negativity(p)
        assert_closed_form(p, result)
        assert result.min_negativity == pytest.approx(linprog_min_negativity(p), abs=1e-9)


def test_every_no_signalling_vertex():
    # deterministic boxes take the local branch (mu = 0), PR boxes mu >= 1
    for i, p in enumerate(VERTICES):
        result = ql.min_negativity(p)
        assert_closed_form(p, result)
        assert result.min_negativity == (0.0 if i < 16 else 0.5)


def test_pr_witness_has_minus_one_sixteenth_on_eight_strategies():
    for v in range(8):
        witness = ql.min_negativity(F @ PR_MODELS[v]).witness
        assert np.array_equal(witness, PR_MODELS[v])
        assert np.count_nonzero(witness == -1 / 16) == 8
        assert np.array_equal(witness < 0, STRATEGY_CHSH[v] == -2)


def test_min_negativity_is_deterministic():
    p = random_mixture_box(np.random.default_rng(7))
    first, second = ql.min_negativity(p), ql.min_negativity(p)
    assert np.array_equal(first.witness, second.witness)
    assert first.min_negativity == second.min_negativity


def test_box_consistent_only_to_half_eps_is_reproduced_within_eps():
    # noise on every entry leaves p_hat, the box rebuilt from p's independent
    # entries, below 0 in places, where Fine's gluing is clipped
    eps = 1e-9
    rng = np.random.default_rng(67)
    for _ in range(400):
        p = vertex_mixture(rng) + rng.uniform(-0.1, 0.1, 16) * eps
        assert not any(ql.check_consistency(p, 0.5 * eps).values())
        result = ql.min_negativity(p, eps)
        p_hat = F @ ql.solve(p, eps=eps)
        assert np.abs(F @ result.witness - p_hat).max() <= 1e-15
        assert np.abs(F @ result.witness - p).max() <= eps
        assert abs(result.witness.sum() - 1.0) <= 1e-12


def test_facet_box_whose_delta_rounds_above_two():
    # delta_v comes out about 2 + 1e-15, so mu is about 4e-16 and q has entries near
    # 0: unclipped, Fine's T_2 / q turned rounding into weights of -0.25
    p = np.array([0.8451938089115351, 0.15480619108846508]) @ VERTICES[[6, 14]]
    assert_closed_form(p, ql.min_negativity(p))


def test_out_of_range_box_that_satisfies_the_relations_is_rejected():
    p = 1.5 * ql.pr_box() - 0.5 * ql.uniform_box()   # entries 0.625 and -0.125
    assert ql.check_consistency(p)["derived_relations"] == []
    with pytest.raises(ql.ConsistencyError):
        ql.min_negativity(p)


@pytest.mark.parametrize("excess, violated", [(1e-7, True), (0.5e-9, False)])
def test_feasible_agrees_with_the_chsh_report(excess, violated):
    lam = (2.0 + excess) / 4.0
    p = lam * ql.pr_box() + (1.0 - lam) * ql.uniform_box()
    assert ql.chsh_report(p).any_violation is violated
    assert ql.min_negativity(p).feasible is not violated


# ---------------------------------------------------------------------------
# min_negativity and the CHSH bound
# ---------------------------------------------------------------------------

def test_chsh_lower_bound_values():
    assert ql.chsh_lower_bound(ql.uniform_box()) == 0.0
    assert ql.chsh_lower_bound(ql.tsirelson_box()) == pytest.approx((RT2 - 1) / 2, abs=1e-12)
    assert ql.chsh_lower_bound(ql.pr_box()) == pytest.approx(0.5, abs=1e-12)


def test_chsh_lower_bound_is_nan_when_the_chsh_maximum_is():
    # normalized within 1e300, with CHSH sums +-inf and NaN, NaN not first;
    # max(0.0, nan) is 0.0, a bound claiming no negativity is needed
    p = [-1.7e308, 0.0, 0.0, 1.7e308, 1.7e308, -1.7e308, 0.0, 0.25,
         0.25, 0.0, -1.7e308, 1.7e308, 0.0, 0.25, 0.0, 0.25]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(ql.chsh_report(p, 1e300).max_abs_delta)
        assert np.isnan(ql.chsh_lower_bound(p, 1e300))


def test_min_negativity_uniform():
    result = ql.min_negativity(ql.uniform_box())
    assert_closed_form(ql.uniform_box(), result)
    assert result.min_negativity == pytest.approx(0.0, abs=1e-9)
    assert result.feasible
    assert result.lower_bound == 0.0
    assert np.allclose(ql.forward_map(result.witness), ql.uniform_box(), atol=1e-9)


def test_min_negativity_pr_box():
    result = ql.min_negativity(ql.pr_box())
    assert_closed_form(ql.pr_box(), result)
    assert result.min_negativity == pytest.approx(0.5, abs=1e-9)
    assert not result.feasible
    assert result.lower_bound == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(ql.forward_map(result.witness), ql.pr_box(), atol=1e-9)


def test_min_negativity_tsirelson():
    result = ql.min_negativity(ql.tsirelson_box())
    assert_closed_form(ql.tsirelson_box(), result)
    assert result.min_negativity >= (RT2 - 1) / 2 - 1e-9
    assert result.min_negativity == pytest.approx((RT2 - 1) / 2, abs=1e-8)
    assert not result.feasible
    assert np.allclose(ql.forward_map(result.witness), ql.tsirelson_box(), atol=1e-9)


def test_min_negativity_rejects_inconsistent():
    p = ql.uniform_box()
    p[0] = 0.3
    with pytest.raises(ql.ConsistencyError):
        ql.min_negativity(p)


def test_witness_is_from_the_family():
    rng = np.random.default_rng(47)
    for _ in range(20):
        p = random_mixture_box(rng)
        result = ql.min_negativity(p)
        assert_closed_form(p, result)
        assert result.witness.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(ql.forward_map(result.witness), p, atol=1e-6)
        rebuilt = ql.solve(p, result.witness[list(ql.FREE_INDICES)])
        assert np.abs(rebuilt - result.witness).max() <= 1e-15
        assert result.min_negativity == pytest.approx(
            ql.total_negativity(result.witness), abs=1e-15)


def test_sandwich_bound_over_random_boxes():
    rng = np.random.default_rng(53)
    for i in range(500):
        p = random_consistent_box(rng) if i % 2 == 0 else random_mixture_box(rng)
        result = ql.min_negativity(p)
        assert_closed_form(p, result)
        assert result.lower_bound <= result.min_negativity + 1e-6


def test_zero_negativity_iff_no_variant_violation():
    # provable direction asserted: a (near-)nonnegative model bounds every
    # variant by 2.  The converse is checked empirically and only reported,
    # with any counterexample logged verbatim.
    rng = np.random.default_rng(59)
    counterexamples = []
    for i in range(200):
        p = random_consistent_box(rng) if i % 2 == 0 else random_mixture_box(rng)
        result = ql.min_negativity(p)
        all_bounded = max(abs(ql.chsh(p, v)) for v in ql.CHSH_VARIANTS) <= 2 + 1e-6
        if result.min_negativity <= 1e-6:
            assert all_bounded
        elif all_bounded:
            counterexamples.append((p.tolist(), result.min_negativity))
    for p, value in counterexamples:
        print(f"local box with positive minimum negativity {value!r}: {p!r}")
    assert True  # equality of the two sides is reported, not asserted


def test_monotone_mixing_of_pr_box():
    values = []
    for lam in np.linspace(0.0, 1.0, 11):
        p = lam * ql.pr_box() + (1.0 - lam) * ql.uniform_box()
        values.append(ql.min_negativity(p).min_negativity)
        if lam <= 0.5:
            assert values[-1] <= 1e-9
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_min_negativity_matches_linprog_over_the_free_weights():
    rng = np.random.default_rng(61)
    for i in range(50):
        p = random_consistent_box(rng) if i % 2 == 0 else random_mixture_box(rng)
        value = ql.min_negativity(p).min_negativity
        oracle = family_min_negativity(p)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value <= oracle + 1e-10  # the closed form is the true minimum


def singlet_face_box(rng):
    """A singlet box at random directions with a1 = b1 and A's outcomes
    flipped, so that p2 = p3 = 0."""
    a1, a2, b2 = (ql.MeasurementDirection(*(v / np.linalg.norm(v)))
                  for v in rng.normal(size=(3, 3)))
    p = ql.generate_probability_set(ql.QubitScenario(ql.singlet(), a1, a2, a1, b2))
    return ql.flip_outcomes(p, "A")


def test_han_face_holds_an_optimal_model():
    # Han, Hwang & Koh, Phys. Lett. A 221, 283 (1996): on these boxes the
    # perfect-correlation face reaches the least negativity of any model.  The
    # face is w(m16) = w0 + m16 d, so its total negativity is piecewise linear
    # and convex in m16 and least at one of the breakpoints -w0_i / d_i.
    rng = np.random.default_rng(61)
    for _ in range(200):
        p = singlet_face_box(rng)
        w0 = ql.perfect_correlation_solution(p, 0.0)
        d = ql.perfect_correlation_solution(p, 1.0) - w0
        breakpoints = -w0[d != 0.0] / d[d != 0.0]
        face_min = min(ql.total_negativity(ql.perfect_correlation_solution(p, t))
                       for t in breakpoints)
        assert face_min == pytest.approx(ql.min_negativity(p).min_negativity, abs=1e-12)
