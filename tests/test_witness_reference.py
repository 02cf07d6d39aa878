"""The witness against constructions built step by step.

min_negativity gives a box that violates CHSH variant v the witness
_WITNESS[v] @ (1, p_ind).  The reference below builds it another way: split
p_hat into mu * PR_v + (1 - mu) * L (Barrett et al., Phys. Rev. A 71, 022101
(2005)), glue a model of the local box L by Fine's intervals, mix the two
models and remove the residual by the forward map's pseudo-inverse.  Both
must agree to 1e-15, carry the closed-form negativity, and meet the sign
test: an optimal model is >= 0 on the 8 strategies with C_v = +2 and <= 0 on
the 8 with C_v = -2.  A local box's witness, the model on the cell of the
local polytope that holds it, is checked by what it must be: a model of
p_hat with no weight below 0 beyond rounding.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quasilocal as ql
from quasilocal import negativity
from quasilocal.fileio import fixture_path, parse_box
from quasilocal.model import OUTCOMES, STRATEGY_OUTCOMES, _OUTCOME_PAIRS

F = ql.FORWARD_MATRIX
STRATEGY_CHSH = ql.CHSH_MATRIX @ F
PR_MODELS = (1.0 + STRATEGY_CHSH) / 16.0
PR_BOXES = PR_MODELS @ F.T
FORWARD_PINV = np.linalg.pinv(F)
CONSISTENT_FIXTURES = ("deterministic.box", "prbox.box", "tsirelson.box", "uniform.box")

#: (a1, a2, the (b1, b2) column in q's order, _OUTCOME_PAIRS) of each strategy, in
#: strategy order, a1 and a2 as positions in OUTCOMES: m = T_1[a1][b1, b2] * P(A2 = a2 | b1, b2).
FINE_TERMS = tuple((OUTCOMES.index(a1), OUTCOMES.index(a2), _OUTCOME_PAIRS.index((b1, b2)))
                   for a1, b1, a2, b2 in STRATEGY_OUTCOMES)


def fine_model(box):
    """Fine's nonnegative model of a local box (Phys. Rev. Lett. 48, 291 (1982)).

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
    return np.array([t1[i][b] * cond[j][b] for i, j, b in FINE_TERMS])


def reference_witness(p_hat, v, mu):
    """The PR/local mixture with Fine's model of the local part, repaired."""
    if mu >= 1.0:
        witness = PR_MODELS[v]
    else:
        local = (p_hat - mu * PR_BOXES[v]) / (1.0 - mu)
        witness = mu * PR_MODELS[v] + (1.0 - mu) * fine_model(local)
    return witness + FORWARD_PINV @ (p_hat - F @ witness)


def assert_matches_reference(p):
    """A nonlocal box's witness is within 1e-15 of the reference, with the
    closed-form negativity, and signed as an optimal model must be up to the
    same rounding: the signs are exact but for boxes whose CHSH sum rounds
    just above 2.  A local box's witness reproduces p_hat to 1e-12 relative
    to the box's size, and has no weight below -1e-15."""
    result = ql.min_negativity(p)
    p_hat = ql.box_from_independent(p[list(ql.INDEPENDENT_INDICES)])
    deltas = ql.CHSH_MATRIX @ p_hat
    v = int(np.argmax(deltas))
    assert abs(result.min_negativity - result.lower_bound) <= 1e-15
    if deltas[v] > 2.0:
        mu = (deltas[v] - 2.0) / 2.0
        assert np.abs(result.witness - reference_witness(p_hat, v, mu)).max() <= 1e-15
    if result.lower_bound > 0.0:
        assert result.witness[STRATEGY_CHSH[v] > 0].min() >= -1e-15
        assert result.witness[STRATEGY_CHSH[v] < 0].max() <= 1e-15
    else:
        assert result.witness.min() >= -1e-15
        assert np.abs(F @ result.witness - p_hat).max() <= 1e-12 * (1.0 + np.abs(p).sum())


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


@given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=16, max_size=16)
       .filter(lambda w: sum(w) > 0.0))
def test_local_witness_is_a_nonnegative_model(weights):
    # a mixture of deterministic boxes, some weights zero, so on the faces of cells too
    assert_matches_reference(F @ (np.array(weights) / sum(weights)))
