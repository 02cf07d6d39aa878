"""Independent reference implementation of the 2x2x2 conventions.

Nothing here imports `quasilocal`.  The benchmark builds its inputs and
checks the program's outputs with this module, so a change to the program
can change neither the inputs nor the oracles.

Conventions (the ones `quasilocal` documents):

* a probability set is 16 entries p(a_j = m, b_k = n), index
  4 * block + 2 * bit(m) + bit(n) with block = 2 * (j - 1) + (k - 1) and
  bit(+1) = 0, bit(-1) = 1;
* a deterministic strategy fixes the outcomes (a1, b1, a2, b2), index
  8 * bit(a1) + 4 * bit(b1) + 2 * bit(a2) + bit(b2);
* two-qubit amplitudes are in the basis |++>, |+->, |-+>, |--> with party A
  in the first slot and '+' the z-up state.
"""

from __future__ import annotations

import numpy as np

PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


def bit(outcome: int) -> int:
    return 0 if outcome == 1 else 1


def prob_idx(j: int, k: int, m: int, n: int) -> int:
    return 4 * (2 * (j - 1) + (k - 1)) + 2 * bit(m) + bit(n)


def label(i: int) -> tuple[str, str, str, str]:
    """Setting and outcome tokens of probability entry i: ('a1', '+', 'b2', '-')."""
    block, offset = divmod(i, 4)
    sign = "+-"
    return (f"a{block // 2 + 1}", sign[offset >> 1], f"b{block % 2 + 1}", sign[offset & 1])


def pattern(s: int) -> str:
    """Outcome pattern of strategy s, slot order (a1, b1, a2, b2)."""
    return "".join("+-"[(s >> shift) & 1] for shift in (3, 2, 1, 0))


PATTERN_INDEX = {pattern(s): s for s in range(16)}


def _forward_matrix() -> np.ndarray:
    F = np.zeros((16, 16))
    for s in range(16):
        a = {1: (s >> 3) & 1, 2: (s >> 1) & 1}
        b = {1: (s >> 2) & 1, 2: s & 1}
        for j, k in PAIRS:
            F[4 * (2 * (j - 1) + (k - 1)) + 2 * a[j] + b[k], s] = 1.0
    return F


#: Maps a measure vector over the 16 strategies to its 16 probabilities.
F = _forward_matrix()
F.setflags(write=False)


def correlations(p) -> np.ndarray:
    """E_jk = p(+,+) + p(-,-) - p(+,-) - p(-,+), in PAIRS order."""
    blocks = np.asarray(p, dtype=float).reshape(4, 4)
    return blocks[:, 0] + blocks[:, 3] - blocks[:, 1] - blocks[:, 2]


def chsh_values(p) -> np.ndarray:
    """The 8 CHSH sums: each setting pair negated once, times overall sign +-1."""
    e = correlations(p)
    sums = np.array([e.sum() - 2.0 * e[i] for i in range(4)])
    return np.concatenate([sums, -sums])


def max_abs_chsh(p) -> float:
    return float(np.abs(chsh_values(p)).max())


def min_negativity_closed_form(p) -> float:
    """Minimum total negativity of a no-signalling box, max(0, (max|delta| - 2) / 4).

    Every no-signalling 2x2x2 box is a PR box mixed with a local box
    (Barrett et al., PRA 71, 022101, 2005), which gives this value.
    """
    return max(0.0, (max_abs_chsh(p) - 2.0) / 4.0)


def deterministic_box(s: int) -> np.ndarray:
    return F[:, s].copy()


def pr_box(variant: int) -> np.ndarray:
    """PR box reaching |CHSH| = 4 on chsh_values()[variant].

    Variant v negates setting pair v % 4 with overall sign +1 for v < 4 and
    -1 otherwise; the box is perfectly (anti)correlated on every pair.
    """
    sign = 1.0 if variant < 4 else -1.0
    p = np.zeros(16)
    for pair in range(4):
        corr = sign * (-1.0 if pair == variant % 4 else 1.0)
        cells = (0, 3) if corr > 0 else (1, 2)
        for c in cells:
            p[4 * pair + c] = 0.5
    return p


def total_negativity(m) -> float:
    return float(np.maximum(0.0, -np.asarray(m, dtype=float)).sum())


# ---------------------------------------------------------------------------
# Two-qubit Born rule
# ---------------------------------------------------------------------------

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_I2 = np.eye(2, dtype=complex)


def projector(direction, outcome: int) -> np.ndarray:
    """(I + outcome * n.sigma) / 2 for a unit Bloch vector n."""
    n_sigma = sum(c * s for c, s in zip(direction, PAULI))
    return 0.5 * (_I2 + outcome * n_sigma)


def born_box(amplitudes, a1, a2, b1, b2) -> np.ndarray:
    """The 16 joint probabilities of a pure state measured along Bloch vectors."""
    psi = np.asarray(amplitudes, dtype=complex)
    dirs_a = {1: a1, 2: a2}
    dirs_b = {1: b1, 2: b2}
    p = np.empty(16)
    for j, k in PAIRS:
        for m in (1, -1):
            for n in (1, -1):
                op = np.kron(projector(dirs_a[j], m), projector(dirs_b[k], n))
                p[prob_idx(j, k, m, n)] = float(np.real(np.vdot(psi, op @ psi)))
    return p


def xz_direction(degrees: float) -> np.ndarray:
    rad = np.radians(degrees)
    return np.array([np.sin(rad), 0.0, np.cos(rad)])


def correlation_tensor(amplitudes) -> np.ndarray:
    """T_ij = <psi| sigma_i (x) sigma_j |psi> for i, j in x, y, z."""
    psi = np.asarray(amplitudes, dtype=complex)
    return np.array([[np.real(np.vdot(psi, np.kron(si, sj) @ psi)) for sj in PAULI]
                     for si in PAULI])


def max_chsh_closed_form(amplitudes) -> float:
    """Largest |CHSH| over all measurement directions, 2 * sqrt(s1^2 + s2^2)
    with s1 >= s2 the top singular values of T (Horodecki, Phys. Lett. A 200,
    340, 1995)."""
    s = np.linalg.svd(correlation_tensor(amplitudes), compute_uv=False)
    return float(2.0 * np.sqrt(s[0] ** 2 + s[1] ** 2))


def max_chsh_xz_closed_form(amplitudes) -> float:
    """Largest |CHSH| over measurement directions in the x-z plane.

    The Horodecki argument restricted to the plane: with B's directions
    written as b + b' = 2 cos(t) c, b - b' = 2 sin(t) c' for orthonormal c, c'
    of the plane, the best |CHSH| is 2 sqrt(|T c|^2 + |T c'|^2), where T is the
    2x2 x-z block of the correlation tensor.  In two dimensions c, c' span
    the plane, so that is 2 times the Frobenius norm of the block.
    """
    block = correlation_tensor(amplitudes)[np.ix_((0, 2), (0, 2))]
    return float(2.0 * np.linalg.norm(block))


def xz_grid_allowance(step_deg: float) -> float:
    """Largest shortfall of an x-z angle grid with the given step against the
    best |CHSH| over the x-z plane (`max_chsh_xz_closed_form`).

    Each CHSH term is E(alpha, beta) = a(alpha)^T T b(beta) with unit vectors
    a, b in the x-z plane.  Its second derivatives in (alpha, beta) are
    -E, -E and a'(alpha)^T T b'(beta), all bounded by the largest singular
    value of T, which is at most 1 for a quantum state.  So the quadratic
    form of one term on a step (da, db) is at most (|da| + |db|)^2.  The
    nearest grid point lies within h/2 of the optimum in each of the four
    angles (h the step in radians), and the gradient vanishes at the
    optimum, so Taylor's theorem with the Lagrange remainder bounds the loss
    by 1/2 * 4 terms * (h/2 + h/2)^2 = 2 h^2.  At 5 degrees that is 0.0152.
    """
    h = np.radians(step_deg)
    return float(2.0 * h * h)
