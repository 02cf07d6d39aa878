"""The nonlocal witness against the PR/local construction.

min_negativity gives a box that violates CHSH variant v the witness
_WITNESS[v] @ (1, p_ind).  The reference below builds it step by step:
split p_hat into mu * PR_v + (1 - mu) * L (Barrett et al., Phys. Rev. A 71,
022101 (2005)), glue a model of L by Fine's intervals, mix the two models
and remove the residual by the forward map's pseudo-inverse.  Both must
agree to 1e-15, carry the closed-form negativity, and meet the sign test:
an optimal model is >= 0 on the 8 strategies with C_v = +2 and <= 0 on the
8 with C_v = -2.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quasilocal as ql
from quasilocal import negativity
from quasilocal.fileio import fixture_path, parse_box

F = ql.FORWARD_MATRIX
STRATEGY_CHSH = ql.CHSH_MATRIX @ F
PR_MODELS = (1.0 + STRATEGY_CHSH) / 16.0
PR_BOXES = PR_MODELS @ F.T
FORWARD_PINV = np.linalg.pinv(F)
CONSISTENT_FIXTURES = ("deterministic.box", "prbox.box", "tsirelson.box", "uniform.box")


def reference_witness(p, eps=ql.DEFAULT_EPS):
    """The PR/local mixture with Fine's model of the local part, repaired."""
    p = ql.require_consistent(p, eps)
    p_hat = ql.box_from_independent(p[list(ql.INDEPENDENT_INDICES)])
    deltas = ql.CHSH_MATRIX @ p_hat
    v = int(np.argmax(deltas))
    mu = max(0.0, (deltas[v] - 2.0) / 2.0)
    if mu >= 1.0:
        witness = PR_MODELS[v]
    else:
        local = (p_hat - mu * PR_BOXES[v]) / (1.0 - mu)
        witness = mu * PR_MODELS[v] + (1.0 - mu) * negativity._fine_model(local)
    return witness + FORWARD_PINV @ (p_hat - F @ witness)


def assert_matches_reference(p):
    """Within 1e-15 of the reference, with the closed-form negativity, and
    signed as an optimal model must be up to the same rounding: the signs
    are exact but for boxes whose CHSH sum rounds just above 2."""
    result = ql.min_negativity(p)
    p_hat = ql.box_from_independent(p[list(ql.INDEPENDENT_INDICES)])
    v = int(np.argmax(ql.CHSH_MATRIX @ p_hat))
    assert np.abs(result.witness - reference_witness(p)).max() <= 1e-15
    assert abs(result.min_negativity - result.lower_bound) <= 1e-15
    if result.lower_bound > 0.0:
        assert result.witness[STRATEGY_CHSH[v] > 0].min() >= -1e-15
        assert result.witness[STRATEGY_CHSH[v] < 0].max() <= 1e-15
    else:
        assert result.witness.min() >= -1e-15


@st.composite
def nonlocal_boxes(draw):
    """lam * PR_v + (1 - lam) * a local box with some weights zero, kept when
    its largest CHSH sum exceeds 2; lam reaches down to 1e-15."""
    v = draw(st.integers(0, 7))
    lam = draw(st.one_of(st.floats(1e-15, 1.0), st.sampled_from([1e-15, 0.5, 1.0])))
    weights = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                     min_size=16, max_size=16).filter(lambda w: sum(w) > 0)))
    p = lam * PR_BOXES[v] + (1.0 - lam) * (F @ (weights / weights.sum()))
    return p


def test_witness_matrices_are_multiples_of_one_sixty_fourth():
    scaled = 64.0 * negativity._WITNESS
    assert negativity._WITNESS.shape == (8, 16, 9)
    assert np.array_equal(scaled, np.round(scaled))


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_witness_matches_the_reference_on_every_fixture(name):
    assert_matches_reference(parse_box(fixture_path(name).read_text()))


def test_tsirelson_witness_is_exactly_symmetric():
    witness = ql.min_negativity(ql.tsirelson_box()).witness
    plus = STRATEGY_CHSH[0] > 0
    assert set(witness[plus].tolist()) == {0.15088834764831838}
    assert set(witness[~plus].tolist()) == {-0.02588834764831844}


@given(nonlocal_boxes())
def test_nonlocal_witness_matches_the_reference(p):
    if np.max(ql.CHSH_MATRIX @ p) > 2.0:
        assert_matches_reference(p)


@given(st.floats(0.0, 360.0), st.floats(0.0, 360.0), st.floats(0.0, 360.0),
       st.floats(0.0, 360.0))
def test_singlet_witness_matches_the_reference(a1, a2, b1, b2):
    dirs = (ql.MeasurementDirection.from_xz_angle(t) for t in (a1, a2, b1, b2))
    assert_matches_reference(ql.generate_probability_set(ql.QubitScenario(ql.singlet(), *dirs)))
