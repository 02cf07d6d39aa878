"""Born-rule generator tests.

The independent oracle materializes the full 4x4 operators with numpy kron
and evaluates <psi| P_A (x) P_B |psi> and <psi| sigma_mu (x) sigma_nu |psi>
directly, which the production path never does.
"""

import cmath
import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quasilocal as ql
from quasilocal import quantum
from quasilocal.fileio import format_value
from quasilocal.quantum import _xz_angle

RT2 = np.sqrt(2.0)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (np.eye(2), _SX, _SY, _SZ)


@functools.lru_cache(maxsize=None)
def projector(d, o):
    """(I + o d.sigma) / 2; cached, as the grid references reuse each direction."""
    return (np.eye(2) + o * (d.x * _SX + d.y * _SY + d.z * _SZ)) / 2.0


def kron_born(state, da, oa, db, ob):
    psi = np.array(state.amplitudes)
    operator = np.kron(projector(da, oa), projector(db, ob))
    return float(np.real(psi.conj() @ operator @ psi))


def kron_correlation_tensor(state):
    psi = np.array(state.amplitudes)
    return np.array([[np.real(psi.conj() @ np.kron(sa, sb) @ psi) for sb in _PAULIS]
                     for sa in _PAULIS])


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


def unit_vectors(n):
    """A unit vector in R^n: a draw from [-1, 1]^n of norm at least 1/2, normalized."""
    return (st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
            .filter(lambda v: math.hypot(*v) >= 0.5)
            .map(lambda v: np.array(v) / math.hypot(*v)))


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


@pytest.mark.parametrize("amplitudes, message", [
    ((np.nan, 0.0, 0.0, 0.0), "amplitudes contain non-finite values"),
    ((np.inf, 0.0, 0.0, 0.0), "amplitudes contain non-finite values"),
    ((1e200, 1e200, 0.0, 0.0), r"state is not normalized: \|amplitudes\|\^2 = inf"),
    ((1e308 + 1e308j, 0.0, 0.0, 0.0), r"state is not normalized: \|amplitudes\|\^2 = inf"),
])
def test_state_validation_messages(amplitudes, message):
    # a finite amplitude too large to square is not normalized, not non-finite
    with pytest.raises(ValueError, match=f"^{message}$"):
        ql.TwoQubitState(amplitudes)


def test_a_state_needs_4_amplitudes():
    with pytest.raises(ValueError, match=r"^expected 4 amplitudes, got 3$"):
        ql.TwoQubitState((1, 0, 0))


@pytest.mark.parametrize("components, message", [
    ((np.nan, 0.0, 0.0), "direction contains non-finite components"),
    ((0.0, -np.inf, 0.0), "direction contains non-finite components"),
    ((1e200, 0.0, 0.0), r"direction is not a unit vector: \|n\|\^2 = inf"),
    ((0.0, 0.0, -1e200), r"direction is not a unit vector: \|n\|\^2 = inf"),
    # a numpy scalar warned "overflow encountered in scalar multiply" as it squared
    ((np.float64(1e200), 0.0, 0.0), r"direction is not a unit vector: \|n\|\^2 = inf"),
])
def test_direction_validation_messages(components, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ql.MeasurementDirection(*components)


def test_direction_validation():
    with pytest.raises(ValueError):
        ql.MeasurementDirection(1.0, 1.0, 0.0)
    d = ql.MeasurementDirection.from_xz_angle(90.0)
    assert d.x == pytest.approx(1.0) and d.z == pytest.approx(0.0, abs=1e-15)
    assert ql.MeasurementDirection.from_xz_angle(0.0).z == 1.0


#: Real and imaginary parts at the edges of the float range, each with either sign.
SPECIAL_PARTS = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                          st.sampled_from([0.0, 5e-324, 1e-200, 1e154, 1e308, 1.7e308,
                                           math.nan, math.inf]))


@st.composite
def unit_or_special(draw, n):
    """n floats: a unit vector with up to two entries replaced by SPECIAL_PARTS values."""
    vector = draw(unit_vectors(n)).tolist()
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        vector[i] = draw(SPECIAL_PARTS)
    return vector


STATE_MESSAGE = (r"^(amplitudes contain non-finite values"
                 r"|state is not normalized: \|amplitudes\|\^2 = \S+)$")
DIRECTION_MESSAGE = (r"^(direction contains non-finite components"
                     r"|direction is not a unit vector: \|n\|\^2 = \S+)$")


def assert_finite_chain(state, directions=None):
    """maximize_chsh, generate_probability_set and min_negativity return finite values."""
    best = ql.maximize_chsh(state)
    assert math.isfinite(best.best_delta) and all(map(math.isfinite, best.angles_deg))
    p = ql.generate_probability_set(ql.QubitScenario(state, *(directions or best.directions)))
    result = ql.min_negativity(p)
    assert np.isfinite(p).all() and np.isfinite(result.witness).all()
    assert math.isfinite(result.min_negativity) and math.isfinite(result.lower_bound)


@given(unit_or_special(8), unit_or_special(3), st.sampled_from([float, np.float64]))
@example([1.7e308, -1.7e308] + [0.0] * 6, [1e154, 0.0, 0.0], np.float64)
@example([1.0, 5e-324, -0.0, 1e-200] + [0.0] * 4, [-0.0, 5e-324, 1.0], np.float64)
def test_states_and_directions_at_the_float_edges_are_finite_or_refused(parts, components,
                                                                       kind):
    # both validating constructors refuse with one of their own messages, a
    # record they accept carries the qm path to finite numbers, and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            state = ql.TwoQubitState([complex(parts[i], parts[i + 1]) for i in range(0, 8, 2)])
        except ValueError as exc:
            assert re.match(STATE_MESSAGE, str(exc)), exc
            state = ql.singlet()
        assert_finite_chain(state)
        try:
            direction = ql.MeasurementDirection(*map(kind, components))
        except ValueError as exc:
            assert re.match(DIRECTION_MESSAGE, str(exc)), exc
        else:
            assert_finite_chain(state, [direction, Z, direction, Z])


def test_singlet_is_normalized():
    s = ql.singlet()
    assert s.amplitudes[0] == 0.0
    assert abs(s.amplitudes[1]) == pytest.approx(1 / RT2)


# ---------------------------------------------------------------------------
# Correlation tensor
# ---------------------------------------------------------------------------

def test_correlation_tensor_matches_kron_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        state = random_state(rng)
        assert np.allclose(state.correlation_tensor, kron_correlation_tensor(state),
                           rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("amplitudes, expected", [
    ((0.0, 1 / RT2, -1 / RT2, 0.0), np.diag([1.0, -1.0, -1.0, -1.0])),
    ((1.0, 0.0, 0.0, 0.0), np.outer((1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0))),
], ids=["singlet", "plus-plus"])
def test_correlation_tensor_closed_forms(amplitudes, expected):
    tensor = ql.TwoQubitState(amplitudes).correlation_tensor
    assert np.allclose(tensor, expected, rtol=0.0, atol=1e-15)


def test_correlation_tensor_is_cached_and_read_only():
    state = ql.singlet()
    tensor = state.correlation_tensor
    assert state.correlation_tensor is tensor
    with pytest.raises(ValueError, match="read-only"):
        tensor[0, 0] = 0.0
    # the cache is not a field: equal states stay equal
    assert state == ql.singlet() and hash(state) == hash(ql.singlet())


def test_one_correlation_tensor_per_state(monkeypatch):
    # R is the contraction of the state with the Pauli-product tensor; a
    # maximize_chsh plus generate_probability_set pipeline contracts it once per state
    contractions = []

    class CountingProducts(np.ndarray):
        def __matmul__(self, other):
            contractions.append(other)
            return np.asarray(self) @ other

    monkeypatch.setattr(quantum, "_PAULI_PRODUCTS", quantum._PAULI_PRODUCTS.view(CountingProducts))
    for count, state in enumerate([ql.singlet(), ql.TwoQubitState((0.6, 0.0, 0.0, 0.8))], 1):
        for _ in range(2):
            result = ql.maximize_chsh(state)
            ql.generate_probability_set(ql.QubitScenario(state, *result.directions))
        assert len(contractions) == count


# ---------------------------------------------------------------------------
# generate_probability_set
# ---------------------------------------------------------------------------

def born_entry(scenario, m, n):
    """The Born probability p(a1 = m, b1 = n) of a scenario."""
    return ql.generate_probability_set(scenario)[ql.PROB_EVENTS.index((1, 1, m, n))]


def test_born_product_state_eigenvalue():
    plus_plus = ql.QubitScenario(ql.TwoQubitState((1.0, 0.0, 0.0, 0.0)), Z, Z, Z, Z)
    assert born_entry(plus_plus, 1, 1) == pytest.approx(1.0)
    assert born_entry(plus_plus, 1, -1) == pytest.approx(0.0)


def test_born_singlet_anticorrelation():
    s = ql.singlet()
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = random_direction(rng)
        scenario = ql.QubitScenario(s, d, d, d, d)
        assert born_entry(scenario, 1, 1) == pytest.approx(0.0, abs=1e-12)
        assert born_entry(scenario, -1, -1) == pytest.approx(0.0, abs=1e-12)
    assert born_entry(ql.QubitScenario(s, Z, Z, Z, Z), 1, -1) == pytest.approx(0.5, abs=1e-12)


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


def test_generate_matches_kron_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        scenario = random_scenario(rng)
        p = ql.generate_probability_set(scenario)
        expected = np.empty(16)
        for j, da in ((1, scenario.a1), (2, scenario.a2)):
            for k, db in ((1, scenario.b1), (2, scenario.b2)):
                for m in (1, -1):
                    for n in (1, -1):
                        expected[ql.PROB_EVENTS.index((j, k, m, n))] = kron_born(
                            scenario.state, da, m, db, n)
        assert np.allclose(p, expected, rtol=0.0, atol=1e-15)


def test_generated_sets_are_consistent():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = ql.generate_probability_set(random_scenario(rng))
        checks = ql.check_consistency(p, 1e-9)
        assert not any(checks.values())


def test_unclamped_born_boxes_are_consistent():
    # zero probabilities can come out a few 1e-17 below 0; generate_probability_set
    # returns them as computed and the boxes still pass every check at 1e-12
    rng = np.random.default_rng(23)
    d = ql.MeasurementDirection.from_xz_angle
    scenarios = [random_scenario(rng) for _ in range(300)]
    scenarios += [ql.QubitScenario(ql.singlet(), d(a), d(b), d(a), d(b))
                  for a in range(0, 360, 15) for b in range(0, 360, 15)]
    boxes = np.array([ql.generate_probability_set(s) for s in scenarios])
    assert boxes.min() >= -1e-15
    assert (boxes < 0.0).any()
    assert all(not any(ql.check_consistency(p, 1e-12).values()) for p in boxes)


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


def su2(q):
    """The SU(2) matrix w I - i (x sigma_x + y sigma_y + z sigma_z) of a unit quaternion."""
    w, x, y, z = q
    return w * np.eye(2) - 1j * (x * _SX + y * _SY + z * _SZ)


def rotation(u):
    """O with u (a.sigma) u^dagger = (O a).sigma: O_ij = Tr(sigma_i u sigma_j u^dagger) / 2."""
    return np.array([[np.trace(si @ u @ sj @ u.conj().T).real / 2.0 for sj in _PAULIS[1:]]
                     for si in _PAULIS[1:]])


def born_box(amplitudes, directions):
    state = ql.TwoQubitState(tuple(amplitudes))
    return ql.generate_probability_set(
        ql.QubitScenario(state, *(ql.MeasurementDirection(*d) for d in directions)))


@given(unit_vectors(8), unit_vectors(4), unit_vectors(4),
       st.lists(unit_vectors(3), min_size=4, max_size=4))
def test_local_unitaries_rotate_the_measurement_directions(psi, qu, qv, directions):
    # (U (x) V) psi measured along O_U a_j and O_V b_k gives psi's box along a_j and b_k
    psi = psi[:4] + 1j * psi[4:]
    u, v = su2(qu), su2(qv)
    a1, a2, b1, b2 = directions
    o_u, o_v = rotation(u), rotation(v)
    moved = born_box(np.kron(u, v) @ psi, (o_u @ a1, o_u @ a2, o_v @ b1, o_v @ b2))
    assert np.abs(moved - born_box(psi, directions)).max() <= 2e-15


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
    assert not any(ql.check_consistency(flipped).values())
    m = ql.perfect_correlation_solution(flipped, 0.25)
    assert np.allclose(ql.forward_map(m), flipped, atol=1e-9)


def reference_flip_outcomes(p, party):
    out = np.empty(16)
    for j in (1, 2):
        for k in (1, 2):
            for m in (1, -1):
                for n in (1, -1):
                    src = (ql.PROB_EVENTS.index((j, k, -m, n)) if party == "A"
                           else ql.PROB_EVENTS.index((j, k, m, -n)))
                    out[ql.PROB_EVENTS.index((j, k, m, n))] = p[src]
    return out


def test_flip_matches_the_index_loop():
    p = np.random.default_rng(29).uniform(size=16)
    for party in ("A", "B"):
        assert np.array_equal(ql.flip_outcomes(p, party), reference_flip_outcomes(p, party))
    with pytest.raises(ValueError, match="16 entries"):
        ql.flip_outcomes(np.zeros(15), "A")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_flip_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="^probability set contains non-finite entries$"):
        ql.flip_outcomes([bad] + [0.0] * 15, "A")


def test_flip_is_an_involution_and_preserves_consistency():
    rng = np.random.default_rng(17)
    for party in ("A", "B"):
        p = ql.generate_probability_set(random_scenario(rng))
        flipped = ql.flip_outcomes(p, party)
        assert not any(ql.check_consistency(flipped).values())
        assert np.allclose(ql.flip_outcomes(flipped, party), p, atol=1e-15)
    with pytest.raises(ValueError):
        ql.flip_outcomes(p, "C")


# ---------------------------------------------------------------------------
# maximize_chsh
# ---------------------------------------------------------------------------

#: Grid values this close to the maximum count as ties in the grid references.
TIE_TOL = 1e-12


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
                oa * ob * kron_born(state, dirs[ia], oa, dirs[ib], ob)
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


def born_xz_block(state):
    """E(a, b) for a, b in (x, z), as sums of four Born probabilities."""
    axes = (ql.MeasurementDirection(1.0, 0.0, 0.0), ql.MeasurementDirection(0.0, 0.0, 1.0))

    def correlation(da, db):
        pp, pm, mp, mm = (kron_born(state, da, oa, db, ob)
                          for oa, ob in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
        return pp + mm - pm - mp

    return np.array([[correlation(da, db) for db in axes] for da in axes])


def grid_pair_best(state, resolution_deg):
    """Best |CHSH| over the grid's (b1, b2) for every (a1, a2) pair, one a1
    row at a time.  Returns the grid angles, the (n, 2) array w with
    correlation table corr = w @ grid.T, corr itself and the pair_best table."""
    angles = np.arange(0.0, 360.0, float(resolution_deg))
    radians = np.radians(angles)
    grid = np.stack([np.sin(radians), np.cos(radians)], axis=1)
    w = grid @ state.correlation_tensor[np.ix_((1, 3), (1, 3))]
    corr = w @ grid.T

    pair_best = np.zeros_like(corr)
    for i1, u in enumerate(corr):
        rest = corr[i1:]
        pair_best[i1, i1:] = np.abs(u + rest).max(axis=1) + np.abs(u - rest).max(axis=1)
    return angles, w, corr, np.maximum(pair_best, pair_best.T)


def cubic_maximize(state, resolution_deg):
    """The O(n^3) x-z grid search: grid_pair_best, then the n x n (b1, b2)
    table of the first best pair; ties keep the smallest angle tuple.
    Returns the best |CHSH| and its angle tuple."""
    angles, _, corr, pair_best = grid_pair_best(state, resolution_deg)
    threshold = pair_best.max() - TIE_TOL
    i1, i2 = np.argwhere(pair_best >= threshold)[0]

    s, d = np.abs(corr[i1] + corr[i2]), np.abs(corr[i1] - corr[i2])
    candidates = np.maximum(np.add.outer(s, d), np.add.outer(d, s))
    ib1, ib2 = np.argwhere(candidates >= threshold)[0]
    chosen = tuple(float(angles[i]) for i in (i1, i2, ib1, ib2))
    return float(candidates[ib1, ib2]), chosen


def grid_allowance(resolution_deg):
    """Largest shortfall of a grid with this step against the x-z maximum:
    2 h^2 for the step h in radians (the Taylor bound of perfbench's
    reference.xz_grid_allowance)."""
    return 2.0 * math.radians(resolution_deg) ** 2


def random_real_state(rng):
    amps = rng.normal(size=4)
    return ql.TwoQubitState(tuple(amps / np.linalg.norm(amps)))


def seeded_states(seed, count):
    rng = np.random.default_rng(seed)
    return [make_state(rng) for make_state in (random_real_state, random_state) * (count // 2)]


@pytest.mark.parametrize("resolution", [15.0, 20.0, 45.0])
@pytest.mark.parametrize("make_state", [random_real_state, random_state])
def test_maximize_matches_reference_grid(resolution, make_state):
    # the closed form is never below the exhaustive Born-rule grid, and
    # above it by at most what the grid's step can miss
    rng = np.random.default_rng(23)
    for _ in range(3):
        state = make_state(rng)
        result = ql.maximize_chsh(state, resolution)
        best, _ = reference_maximize(state, resolution)
        assert best - 1e-12 <= result.best_delta <= best + grid_allowance(resolution)
        p = ql.generate_probability_set(ql.QubitScenario(state, *result.directions))
        assert ql.chsh_report(p).max_abs_delta == pytest.approx(result.best_delta, abs=1e-12)


_NEAR_Y = cmath.exp(1j * (math.pi / 2 - 1e-3))

#: States with structure: equal singular values, product states and a
#: plane-confined optimum; then |+y>|+y>, whose x-z correlation block
#: vanishes, and |n>|n> with n a milliradian off +y, whose block is about 1e-6.
SPECIAL_STATES = [
    (0.0, 1 / RT2, -1 / RT2, 0.0),
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 1 / RT2, 1 / RT2, 0.0),
    (1 / RT2, 0.0, 0.0, 1j / RT2),
    (0.5, 0.5, 0.5, 0.5),
    (0.5, 0.5j, 0.5j, -0.5),
    (0.5, 0.5 * _NEAR_Y, 0.5 * _NEAR_Y, 0.5 * _NEAR_Y ** 2),
]
CUBIC_RESOLUTIONS = [45.0, 40.0, 30.0, 20.0, 15.0, 7.0, 5.0, 3.3, 2.0]


def test_xz_block_is_the_born_correlation_sum():
    rng = np.random.default_rng(43)
    states = [ql.TwoQubitState(a) for a in SPECIAL_STATES]
    states += [make_state(rng) for make_state in (random_real_state, random_state) * 50]
    for state in states:
        block = state.correlation_tensor[np.ix_((1, 3), (1, 3))]
        assert np.allclose(block, born_xz_block(state), rtol=0.0, atol=1e-15)


def assert_xz_closed_form(state):
    # 2 ||T_xz||_F from the kron oracle, reached by the returned directions
    result = ql.maximize_chsh(state)
    block = kron_correlation_tensor(state)[np.ix_((1, 3), (1, 3))]
    assert result.best_delta == pytest.approx(2.0 * np.linalg.norm(block), abs=1e-12)
    assert all(0.0 <= t < 360.0 for t in result.angles_deg)
    assert result.directions == tuple(ql.MeasurementDirection.from_xz_angle(t)
                                      for t in result.angles_deg)
    p = ql.generate_probability_set(ql.QubitScenario(state, *result.directions))
    assert ql.chsh_report(p).max_abs_delta == pytest.approx(result.best_delta, abs=1e-12)


def test_maximize_is_the_xz_closed_form_on_special_states():
    for amplitudes in SPECIAL_STATES:
        assert_xz_closed_form(ql.TwoQubitState(amplitudes))


def test_maximize_is_the_xz_closed_form_on_seeded_states():
    for state in seeded_states(47, 400):
        assert_xz_closed_form(state)


def assert_bounds_the_cubic_search(state, resolution):
    best, _ = cubic_maximize(state, resolution)
    delta = ql.maximize_chsh(state).best_delta
    assert best - 1e-12 <= delta <= best + grid_allowance(resolution)


@pytest.mark.parametrize("resolution", CUBIC_RESOLUTIONS)
def test_maximize_bounds_the_cubic_search_on_special_states(resolution):
    for amplitudes in SPECIAL_STATES:
        assert_bounds_the_cubic_search(ql.TwoQubitState(amplitudes), resolution)


@pytest.mark.parametrize("resolution", CUBIC_RESOLUTIONS)
def test_maximize_bounds_the_cubic_search_on_random_states(resolution):
    for state in seeded_states(31, 200):
        assert_bounds_the_cubic_search(state, resolution)


@given(amplitudes=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=4, max_size=4)
       .filter(lambda a: np.linalg.norm(a) > 0.1),
       resolution=st.sampled_from(CUBIC_RESOLUTIONS))
def test_maximize_bounds_the_cubic_search_on_generated_states(amplitudes, resolution):
    amps = np.array(amplitudes) / np.linalg.norm(amplitudes)
    assert_bounds_the_cubic_search(ql.TwoQubitState(tuple(amps)), resolution)


@given(amplitudes=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=4, max_size=4)
       .filter(lambda a: np.linalg.norm(a) > 0.1))
def test_maximized_angles_replay_into_the_same_box(amplitudes):
    # `qm --maximize` prints angles_deg with format_value, and `qm --angles`
    # rebuilds the directions from them: the same box, bit for bit, for any state
    state = ql.TwoQubitState(tuple(np.array(amplitudes) / np.linalg.norm(amplitudes)))
    result = ql.maximize_chsh(state)
    printed = [float(format_value(angle)) for angle in result.angles_deg]
    replayed = [ql.MeasurementDirection.from_xz_angle(angle) for angle in printed]
    box = ql.generate_probability_set(ql.QubitScenario(state, *result.directions))
    assert ql.generate_probability_set(ql.QubitScenario(state, *replayed)).tobytes() == box.tobytes()


@pytest.mark.parametrize("resolution", [45.0, 7.0, 5.0])
def test_pair_best_lies_within_the_closed_form_bound(resolution):
    # cos(h/2) U <= pair_best <= U with U = |w1 + w2| + |w1 - w2|, and U never
    # exceeds the x-z maximum 2 ||T_xz||_F that maximize_chsh returns
    rng = np.random.default_rng(37)
    states = [ql.singlet(), ql.TwoQubitState((0.6, 0.0, 0.0, 0.8)),
              random_real_state(rng), random_state(rng), random_state(rng)]
    for state in states:
        _, w, _, pair_best = grid_pair_best(state, resolution)
        bound = (np.linalg.norm(w[:, None] + w[None], axis=2)
                 + np.linalg.norm(w[:, None] - w[None], axis=2))
        assert np.all(math.cos(math.radians(resolution) / 2) * bound - 1e-12 <= pair_best)
        assert np.all(pair_best <= bound + 1e-12)
        assert bound.max() <= ql.maximize_chsh(state).best_delta + 1e-12


@pytest.mark.parametrize("amplitudes, best", [
    ((0.5, 0.5j, 0.5j, -0.5), 0.0),       # |+y>|+y>: the x-z block vanishes
    ((1.0, 0.0, 0.0, 0.0), 2.0),          # |00>: s2 = 0, so B(b1 - b2) = 0
], ids=["zero-block", "rank-one-block"])
def test_maximize_degenerate_blocks(amplitudes, best):
    state = ql.TwoQubitState(amplitudes)
    result = ql.maximize_chsh(state)
    assert result.best_delta == best
    p = ql.generate_probability_set(ql.QubitScenario(state, *result.directions))
    assert ql.chsh_report(p).max_abs_delta == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("vector, angle", [
    ((0.0, 1.0), 0.0), ((1.0, 0.0), 90.0), ((-1.0, 0.0), 270.0),
    ((-1e-17, 1.0), 0.0),                 # -5.7e-16 degrees, which % 360 rounds to 360
], ids=["+z", "+x", "-x", "just-below-+z"])
def test_xz_angles_lie_in_0_to_360(vector, angle):
    assert _xz_angle(vector) == angle


def test_maximize_is_confined_to_the_xz_plane():
    # the optimum of this maximally entangled state needs y components
    state = ql.TwoQubitState((1 / RT2, 0.0, 0.0, 1j / RT2))
    assert ql.maximize_chsh(state, 5.0).best_delta == pytest.approx(2.0, abs=1e-12)


def test_maximize_singlet_reaches_quantum_ceiling():
    result = ql.maximize_chsh(ql.singlet(), 5.0)
    assert result.best_delta == pytest.approx(2 * RT2, abs=1e-12)
    # the reported directions reproduce the reported value
    p = ql.generate_probability_set(ql.QubitScenario(ql.singlet(), *result.directions))
    assert ql.chsh_report(p).max_abs_delta == pytest.approx(result.best_delta, abs=1e-12)


@pytest.mark.parametrize("state, name", [
    ("x", "str"),
    (None, "NoneType"),
    ((1.0, 0.0, 0.0, 0.0), "tuple"),
    (np.eye(4), "ndarray"),
])
def test_maximize_rejects_anything_but_a_state(state, name):
    # "x" raised AttributeError from reading state.correlation_tensor
    with pytest.raises(TypeError, match=f"^maximize_chsh needs a TwoQubitState, got {name}$"):
        ql.maximize_chsh(state)


def test_maximize_product_state_stays_local():
    result = ql.maximize_chsh(ql.TwoQubitState((1.0, 0.0, 0.0, 0.0)), 15.0)
    assert result.best_delta == pytest.approx(2.0, abs=1e-6)


def test_maximize_is_deterministic():
    first = ql.maximize_chsh(ql.singlet(), 15.0)
    second = ql.maximize_chsh(ql.singlet(), 15.0)
    assert first.best_delta == second.best_delta
    assert first.angles_deg == second.angles_deg


def test_maximize_ignores_the_resolution():
    # the argument of the former grid search is accepted and unused
    state = ql.TwoQubitState((0.6, 0.0, 0.0, 0.8))
    for resolution in (0.0, 0.001, 15.0, 50.0, math.nan):
        assert ql.maximize_chsh(state, resolution) == ql.maximize_chsh(state)


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
        if ql.chsh_report(p).max_abs_delta > 2.0 + 1e-9:
            assert ql.min_negativity(p).min_negativity > 0.0
