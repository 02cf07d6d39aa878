"""Born-rule generator tests.

The independent oracle materializes the full 4x4 projector with numpy kron
and evaluates <psi| P_A (x) P_B |psi> directly, which the production path
never does.
"""

import math

import numpy as np
import pytest

import quasilocal as ql

RT2 = np.sqrt(2.0)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_born(state, da, oa, db, ob):
    def projector(d, o):
        return (np.eye(2) + o * (d.x * _SX + d.y * _SY + d.z * _SZ)) / 2.0

    psi = np.array(state.amplitudes)
    operator = np.kron(projector(da, oa), projector(db, ob))
    return float(np.real(psi.conj() @ operator @ psi))


def random_direction(rng):
    v = rng.normal(size=3)
    while np.linalg.norm(v) < 1e-6:
        v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return ql.MeasurementDirection(*v)


def random_state(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return ql.TwoQubitState(tuple(amps))


def random_scenario(rng):
    return ql.QubitScenario(random_state(rng), *(random_direction(rng) for _ in range(4)))


Z = ql.MeasurementDirection(0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

def test_state_validation():
    with pytest.raises(ValueError):
        ql.TwoQubitState((1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ql.TwoQubitState((np.nan, 0.0, 0.0, 0.0))
    ql.TwoQubitState((1.0, 0.0, 0.0, 0.0))  # fine


def test_direction_validation():
    with pytest.raises(ValueError):
        ql.MeasurementDirection(1.0, 1.0, 0.0)
    d = ql.MeasurementDirection.from_xz_angle(90.0)
    assert d.x == pytest.approx(1.0) and d.z == pytest.approx(0.0, abs=1e-15)
    assert ql.MeasurementDirection.from_xz_angle(0.0).z == 1.0


def test_singlet_is_normalized():
    s = ql.singlet()
    assert s.amplitudes[0] == 0.0
    assert abs(s.amplitudes[1]) == pytest.approx(1 / RT2)


# ---------------------------------------------------------------------------
# born_probability
# ---------------------------------------------------------------------------

def test_born_product_state_eigenvalue():
    plus_plus = ql.TwoQubitState((1.0, 0.0, 0.0, 0.0))
    assert ql.born_probability(plus_plus, Z, 1, Z, 1) == pytest.approx(1.0)
    assert ql.born_probability(plus_plus, Z, 1, Z, -1) == pytest.approx(0.0)


def test_born_singlet_anticorrelation():
    s = ql.singlet()
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = random_direction(rng)
        assert ql.born_probability(s, d, 1, d, 1) == pytest.approx(0.0, abs=1e-12)
        assert ql.born_probability(s, d, -1, d, -1) == pytest.approx(0.0, abs=1e-12)
    assert ql.born_probability(s, Z, 1, Z, -1) == pytest.approx(0.5, abs=1e-12)


def test_born_matches_kron_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        state = random_state(rng)
        da, db = random_direction(rng), random_direction(rng)
        oa = 1 if rng.random() < 0.5 else -1
        ob = 1 if rng.random() < 0.5 else -1
        assert ql.born_probability(state, da, oa, db, ob) == pytest.approx(
            kron_born(state, da, oa, db, ob), abs=1e-12)


def test_born_rejects_bad_outcome():
    with pytest.raises(ValueError):
        ql.born_probability(ql.singlet(), Z, 0, Z, 1)


# ---------------------------------------------------------------------------
# generate_probability_set
# ---------------------------------------------------------------------------

def test_generate_deterministic_box():
    plus_plus = ql.TwoQubitState((1.0, 0.0, 0.0, 0.0))
    scenario = ql.QubitScenario(plus_plus, Z, Z, Z, Z)
    assert np.allclose(ql.generate_probability_set(scenario), ql.deterministic_box(0),
                       atol=1e-15)


def test_generate_singlet_equal_settings_block():
    s = ql.singlet()
    scenario = ql.QubitScenario(s, Z, Z, Z, Z)
    p = ql.generate_probability_set(scenario)
    assert np.allclose(p[0:4], [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_generate_singlet_extremal_angles():
    # canonical CHSH reaches +2*sqrt(2) at these x-z angles (cross-checked
    # against the kron oracle via the correlation law below)
    angles = (0.0, 90.0, 225.0, 135.0)
    dirs = [ql.MeasurementDirection.from_xz_angle(t) for t in angles]
    p = ql.generate_probability_set(ql.QubitScenario(ql.singlet(), *dirs))
    assert np.allclose(p, ql.tsirelson_box(), atol=1e-12)
    assert ql.chsh(p) == pytest.approx(2 * RT2, abs=1e-12)


def test_generated_sets_are_consistent():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = ql.generate_probability_set(random_scenario(rng))
        checks = ql.check_consistency(p, 1e-9)
        assert not any(checks.values())


def test_singlet_correlation_law():
    rng = np.random.default_rng(13)
    s = ql.singlet()
    for _ in range(20):
        dirs = [random_direction(rng) for _ in range(4)]
        p = ql.generate_probability_set(ql.QubitScenario(s, *dirs))
        pairs = {(1, 1): (dirs[0], dirs[2]), (1, 2): (dirs[0], dirs[3]),
                 (2, 1): (dirs[1], dirs[2]), (2, 2): (dirs[1], dirs[3])}
        for (j, k), (da, db) in pairs.items():
            cos_angle = da.x * db.x + da.y * db.y + da.z * db.z
            assert ql.correlation(p, j, k) == pytest.approx(-cos_angle, abs=1e-9)


# ---------------------------------------------------------------------------
# flip_outcomes
# ---------------------------------------------------------------------------

def test_flip_maps_anticorrelation_to_perfect_correlation():
    s = ql.singlet()
    a1 = ql.MeasurementDirection.from_xz_angle(20.0)
    a2 = ql.MeasurementDirection.from_xz_angle(110.0)
    b2 = ql.MeasurementDirection.from_xz_angle(65.0)
    p = ql.generate_probability_set(ql.QubitScenario(s, a1, a2, a1, b2))
    assert p[0] == pytest.approx(0.0, abs=1e-12)  # p1: equal settings never agree
    assert p[3] == pytest.approx(0.0, abs=1e-12)  # p4
    flipped = ql.flip_outcomes(p, "B")
    assert flipped[1] == pytest.approx(0.0, abs=1e-12)
    assert flipped[2] == pytest.approx(0.0, abs=1e-12)
    assert ql.is_consistent(flipped)
    m = ql.perfect_correlation_solution(flipped, 0.25)
    assert np.allclose(ql.forward_map(m), flipped, atol=1e-9)


def test_flip_is_an_involution_and_preserves_consistency():
    rng = np.random.default_rng(17)
    for party in ("A", "B"):
        p = ql.generate_probability_set(random_scenario(rng))
        flipped = ql.flip_outcomes(p, party)
        assert ql.is_consistent(flipped)
        assert np.allclose(ql.flip_outcomes(flipped, party), p, atol=1e-15)
    with pytest.raises(ValueError):
        ql.flip_outcomes(p, "C")


# ---------------------------------------------------------------------------
# maximize_chsh
# ---------------------------------------------------------------------------

def reference_maximize(state, resolution_deg):
    """The O(n^4) grid search over x-z plane directions, Born rule per pair;
    returns the best |CHSH| and its (a1, a2, b1, b2) angle indices."""
    angles = np.arange(0.0, 360.0, float(resolution_deg))
    dirs = [ql.MeasurementDirection.from_xz_angle(t) for t in angles]
    n = len(angles)

    corr = np.empty((n, n))
    for ia in range(n):
        for ib in range(n):
            corr[ia, ib] = sum(
                oa * ob * ql.born_probability(state, dirs[ia], oa, dirs[ib], ob)
                for oa in (1, -1) for ob in (1, -1))

    best = -np.inf
    best_idx = (0, 0, 0, 0)
    for i1 in range(n):
        u = corr[i1]
        for i2 in range(n):
            v = corr[i2]
            s, d = u + v, u - v
            # |CHSH| over (b1, b2) for each choice of the negated setting pair;
            # the overall sign cannot change the absolute value.
            candidates = np.abs(np.add.outer(s, d))       # minus on (a2, b2)
            np.maximum(candidates, np.abs(np.add.outer(d, s)), out=candidates)
            np.maximum(candidates, np.abs(np.add.outer(s, -d)), out=candidates)
            np.maximum(candidates, np.abs(np.add.outer(-d, s)), out=candidates)
            local_best = float(candidates.max())
            if local_best > best:
                ib1, ib2 = np.unravel_index(int(np.argmax(candidates)), candidates.shape)
                best = local_best
                best_idx = (i1, i2, int(ib1), int(ib2))
    return best, best_idx


def random_real_state(rng):
    amps = rng.normal(size=4)
    return ql.TwoQubitState(tuple(amps / np.linalg.norm(amps)))


@pytest.mark.parametrize("resolution", [15.0, 20.0, 45.0])
@pytest.mark.parametrize("make_state", [random_real_state, random_state])
def test_maximize_matches_reference_grid(resolution, make_state):
    rng = np.random.default_rng(23)
    for _ in range(3):
        state = make_state(rng)
        result = ql.maximize_chsh(state, resolution)
        best, _ = reference_maximize(state, resolution)
        assert result.best_delta == pytest.approx(best, abs=1e-12)
        p = ql.generate_probability_set(ql.QubitScenario(state, *result.directions))
        assert ql.max_abs_chsh(p) == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("amplitudes, resolution, angles", [
    # (0, 90, 45, 135) reaches 2*sqrt(2) and no smaller tuple does
    ((0.0, 1 / RT2, -1 / RT2, 0.0), 5.0, (0.0, 90.0, 45.0, 135.0)),
    # (0, 88, 136, 226) is the exact floating-point maximum, 4e-16 above
    # (0, 88, 46, 136): round-off must not break the tie
    ((0.0, 1 / RT2, 1 / RT2, 0.0), 2.0, (0.0, 88.0, 46.0, 136.0)),
])
def test_maximize_ties_keep_the_smallest_angles(amplitudes, resolution, angles):
    state = ql.TwoQubitState(amplitudes)
    result = ql.maximize_chsh(state, resolution)
    assert result.angles_deg == angles
    p = ql.generate_probability_set(ql.QubitScenario(state, *result.directions))
    assert ql.max_abs_chsh(p) == pytest.approx(result.best_delta, abs=1e-9)


def test_maximize_is_confined_to_the_xz_plane():
    # the optimum of this maximally entangled state needs y components
    state = ql.TwoQubitState((1 / RT2, 0.0, 0.0, 1j / RT2))
    assert ql.maximize_chsh(state, 5.0).best_delta == pytest.approx(2.0, abs=1e-12)


def test_maximize_singlet_reaches_quantum_ceiling():
    result = ql.maximize_chsh(ql.singlet(), 5.0)
    assert result.best_delta >= 2 * RT2 - 0.05
    assert result.best_delta <= 2 * RT2 + 1e-6
    # the reported directions reproduce the reported value
    p = ql.generate_probability_set(ql.QubitScenario(ql.singlet(), *result.directions))
    assert ql.max_abs_chsh(p) == pytest.approx(result.best_delta, abs=1e-9)


def test_maximize_product_state_stays_local():
    result = ql.maximize_chsh(ql.TwoQubitState((1.0, 0.0, 0.0, 0.0)), 15.0)
    assert result.best_delta == pytest.approx(2.0, abs=1e-6)


def test_maximize_is_deterministic():
    first = ql.maximize_chsh(ql.singlet(), 15.0)
    second = ql.maximize_chsh(ql.singlet(), 15.0)
    assert first.best_delta == second.best_delta
    assert first.angles_deg == second.angles_deg


def test_maximize_rejects_bad_resolution():
    with pytest.raises(ValueError):
        ql.maximize_chsh(ql.singlet(), 0.0)
    with pytest.raises(ValueError):
        ql.maximize_chsh(ql.singlet(), 50.0)


# ---------------------------------------------------------------------------
# Pipeline integration
# ---------------------------------------------------------------------------

def test_generated_sets_feed_the_solver_and_optimizer():
    rng = np.random.default_rng(19)
    scenarios = [random_scenario(rng) for _ in range(10)]
    best = ql.maximize_chsh(ql.singlet(), 15.0)
    scenarios.append(ql.QubitScenario(ql.singlet(), *best.directions))
    for scenario in scenarios:
        p = ql.generate_probability_set(scenario)
        m = ql.solve(p)
        assert np.allclose(ql.forward_map(m), p, atol=1e-9)
        if ql.max_abs_chsh(p) > 2.0 + 1e-9:
            assert ql.min_negativity(p).min_negativity > 0.0
