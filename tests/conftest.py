import functools
import math

import numpy as np
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st

settings.register_profile(
    "default",
    deadline=None,
    derandomize=True,       # a verdict must not depend on a random draw
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
#: tests/mutants.py's profile: a failing example is reported as found, not
#: shrunk and explained first.  Both phases run only after a test has
#: failed, so no verdict changes.
settings.register_profile(
    "mutants",
    settings.get_profile("default"),
    phases=[phase for phase in settings.get_profile("default").phases
            if phase not in (Phase.shrink, Phase.explain)],
)

#: Parts at the edges of the float range, each with either sign.
SPECIAL_PARTS = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                          st.sampled_from([0.0, 5e-324, 1e-200, 1e154, 1e308, 1.7e308,
                                           math.nan, math.inf]))

#: A box with entries near the float maximum, normalized within eps = 1e300: its
#: relation product DEPENDENT_SIGNS @ p_ind and its CHSH product overflow to +-inf
#: and NaN, the CHSH sums with NaN not first.
OVERFLOWING = [-1.7e308, 0.0, 0.0, 1.7e308, 1.7e308, -1.7e308, 0.0, 0.25,
               0.25, 0.0, -1.7e308, 1.7e308, 0.0, 0.25, 0.0, 0.25]

#: F @ m for m1 = 1e307, m13 = 1 and m16 = -1e307: consistent at eps = 1.7e308 and
#: on the face p2 = p3 = 0, where the face family's product overflows at m16 = 1.7e308.
OVERFLOWING_FACE = [1e307, 0.0, 0.0, -1e307, 1e307, 0.0, 1.0, -1e307,
                    1e307, 1.0, 0.0, -1e307, 1e307, 0.0, 0.0, -1e307]

#: Consistent at eps = 1.7e308, every CHSH sum 0, its magnitudes summing past the
#: float maximum: its witness is finite all the same.
HUGE_LOCAL = [7e307, 1.0, 0.0, -7e307, 7e307, 0.0, 0.0, -7e307,
              0.0, -7e307, 7e307, 1.0, 0.0, -7e307, 7e307, 0.0]

#: F @ m for m1 = 5e307, m13 = 1 and m16 = -5e307: consistent at eps = 1.7e308, every
#: CHSH sum 0.  Its witness is finite, but its negative weights sum past the float maximum.
OVERFLOWING_LOCAL = [5e307, 0.0, 0.0, -5e307, 5e307, 0.0, 1.0, -5e307,
                     5e307, 1.0, 0.0, -5e307, 5e307, 0.0, 0.0, -5e307]

#: Consistent at eps = 1.7e308, its CHSH sums NaN: the negative weights of its
#: witness sum past the float maximum.
OVERFLOWING_NAN_CHSH = [0.0, -7e307, 7e307, 0.0] * 2 + [1.0, -7e307, 7e307, 0.0] * 2


def minus_strategies(variant=0):
    """The strategies whose CHSH value under CHSH_VARIANTS[variant] is -2,
    read off CHSH_MATRIX @ FORWARD_MATRIX (variant 0 is the canonical one)."""
    from quasilocal import CHSH_MATRIX, FORWARD_MATRIX

    return np.flatnonzero((CHSH_MATRIX @ FORWARD_MATRIX)[variant] < 0)


def extremal_measures():
    """The paper's signed model of the Tsirelson box: (1 - sqrt2)/16 on the
    strategies with canonical CHSH value -2, (1 + sqrt2)/16 on the rest."""
    m = np.full(16, (1 + np.sqrt(2.0)) / 16)
    m[minus_strategies()] = (1 - np.sqrt(2.0)) / 16
    return m


def random_nonnegative_measures(rng, count=1):
    """Random nonnegative normalized weight vectors, shape (count, 16)."""
    w = rng.uniform(0.0, 1.0, size=(count, 16))
    return w / w.sum(axis=1, keepdims=True)


def random_signed_measures(rng, count=1, span=2.0):
    """Random normalized weight vectors with entries in [-span, span].

    Entries are sampled uniformly and shifted to sum 1; rows pushed outside
    the span by the shift are resampled.
    """
    rows = []
    while len(rows) < count:
        need = count - len(rows)
        w = rng.uniform(-span, span, size=(max(need, 8), 16))
        w += (1.0 - w.sum(axis=1, keepdims=True)) / 16.0
        ok = np.all(np.abs(w) <= span, axis=1)
        rows.extend(w[ok][:need])
    return np.asarray(rows)


def random_consistent_box(rng):
    """A consistent probability set: the image of a random nonnegative model."""
    from quasilocal import forward_map

    return forward_map(random_nonnegative_measures(rng)[0])


@functools.lru_cache(maxsize=1)
def boxes_consistent_at_eps_0():
    """The boxes F @ m, m from Dirichlet(1) with seed 0 (20,000 draws), that
    pass every check at eps 0: their block sums and relations hold exactly
    in floats.  5 boxes on x86-64 with OpenBLAS."""
    from quasilocal import check_consistency, forward_map

    rng = np.random.default_rng(0)
    boxes = np.array([forward_map(m) for m in rng.dirichlet(np.ones(16), 20000)])
    exact_blocks = boxes[(boxes.reshape(-1, 4, 4).sum(axis=2) == 1.0).all(axis=1)]
    return tuple(p for p in exact_blocks if not any(check_consistency(p, 0.0).values()))


def random_mixture_box(rng):
    """Random convex mixture of the PR box and a random local box."""
    from quasilocal import forward_map, pr_box

    lam = rng.uniform(0.0, 1.0)
    return lam * pr_box() + (1.0 - lam) * forward_map(random_nonnegative_measures(rng)[0])
