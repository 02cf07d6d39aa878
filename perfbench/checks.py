"""Oracles for the program's outputs.

Each check returns a list of problems; an empty list means the output passed.
The checks use only `reference`, never the program's own functions, and run
outside the timed region.
"""

from __future__ import annotations

import numpy as np

from . import reference as ref

#: Tolerances from the benchmark's definition.
MODEL_TOL = 1e-9        # ||F w - p||, |sum w - 1|, negativity against the closed form
EXACT_TOL = 1e-12       # values both sides compute by the same arithmetic
LINPROG_TOL = 1e-7      # scipy's HiGHS solves to about 1e-9 on these LPs

#: Grid step of maximize_chsh at its default resolution, and the shortfall
#: it may show against the best |CHSH| over the x-z plane.
DEFAULT_RESOLUTION_DEG = 5.0
GRID_ALLOWANCE = ref.xz_grid_allowance(DEFAULT_RESOLUTION_DEG)


def model_problems(what: str, m, p) -> list[str]:
    """A measure vector must reproduce p and sum to 1."""
    m = np.asarray(m, dtype=float)
    out = []
    residual = float(np.abs(ref.F @ m - p).max())
    if not residual <= MODEL_TOL:
        out.append(f"{what}: ||F.m - p|| = {residual:.3g}")
    total = float(m.sum())
    if not abs(total - 1.0) <= MODEL_TOL:
        out.append(f"{what}: sum(m) - 1 = {total - 1.0:.3g}")
    return out


def negativity_problems(reported: float, witness, p) -> list[str]:
    out = model_problems("witness", witness, p)
    expected = ref.min_negativity_closed_form(p)
    if not abs(reported - expected) <= MODEL_TOL:
        out.append(f"min negativity {reported!r}, closed form {expected!r}")
    carried = ref.total_negativity(witness)
    if not abs(carried - reported) <= MODEL_TOL:
        out.append(f"witness carries negativity {carried!r}, reported {reported!r}")
    return out


def chsh_problems(deltas, p) -> list[str]:
    """The 8 CHSH sums, compared as a multiset with the reference's."""
    got = np.sort(np.asarray(deltas, dtype=float))
    want = np.sort(ref.chsh_values(p))
    if got.shape != want.shape or not np.abs(got - want).max() <= EXACT_TOL:
        return [f"CHSH sums {got.tolist()} differ from {want.tolist()}"]
    return []


def same_vector(what: str, got, want, tol: float = EXACT_TOL) -> list[str]:
    got = np.asarray(got, dtype=float)
    if got.shape != (16,):
        return [f"{what}: shape {got.shape}"]
    diff = float(np.abs(got - want).max())
    return [] if diff <= tol else [f"{what}: differs by {diff:.3g}"]


def rejection_problems(kind: str, verdict: dict) -> list[str]:
    """An inconsistent box must be rejected, for the reason it was built with."""
    if not any(verdict.values()):
        return [f"{kind} box accepted"]
    if kind == "unnormalized" and not verdict.get("normalization"):
        return ["unnormalized box passed the normalization check"]
    if kind == "signalling" and (verdict.get("normalization") or not verdict.get("no_signaling")):
        return ["signalling box not flagged as signalling only"]
    return []


def qm_problems(amplitudes, best_delta: float, directions, p, report_max: float,
                neg_value: float, witness) -> tuple[list[str], float]:
    """Checks on one maximize_chsh pipeline; returns (problems, shortfall).

    maximize_chsh is documented as a grid search over the x-z plane, so its
    best |delta| is checked against the x-z-plane closed form.  The returned
    shortfall is against the closed form over all directions: it measures
    how much the x-z restriction loses (ROADMAP item 1) and is reported,
    not counted as a failure.
    """
    out = []
    closed = ref.max_chsh_closed_form(amplitudes)
    closed_xz = ref.max_chsh_xz_closed_form(amplitudes)
    if closed_xz - best_delta > GRID_ALLOWANCE:
        out.append(f"best |delta| {best_delta:.6f} short of x-z closed form {closed_xz:.6f} "
                   f"by {closed_xz - best_delta:.4f} (allowance {GRID_ALLOWANCE:.4f})")
    if best_delta > closed_xz + MODEL_TOL:
        out.append(f"best |delta| {best_delta!r} exceeds x-z closed form {closed_xz!r}")
    born = ref.born_box(amplitudes, *directions)
    out += same_vector("Born probabilities", p, born)
    achieved = ref.max_abs_chsh(born)
    if not abs(achieved - best_delta) <= MODEL_TOL:
        out.append(f"directions reach |delta| {achieved!r}, reported {best_delta!r}")
    if not abs(report_max - achieved) <= MODEL_TOL:
        out.append(f"chsh_report max {report_max!r}, reference {achieved!r}")
    out += negativity_problems(neg_value, witness, born)
    return out, closed - best_delta


# ---------------------------------------------------------------------------
# Reading the program's documents
# ---------------------------------------------------------------------------

def read_measures(text: str) -> np.ndarray:
    """Measure vector from '<pattern> <value>' lines; '#' comments ignored."""
    m = np.full(16, np.nan)
    for line in text.splitlines():
        line = line.split("#", 1)[0].split()
        if len(line) == 2 and line[0] in ref.PATTERN_INDEX:
            m[ref.PATTERN_INDEX[line[0]]] = float(line[1])
    return m


def read_box(text: str) -> np.ndarray:
    """Probability set from 'a1 + b1 + <value>' lines; '#' comments ignored."""
    p = np.full(16, np.nan)
    for line in text.splitlines():
        t = line.split("#", 1)[0].split()
        if len(t) == 5:
            p[ref.prob_idx(int(t[0][1]), int(t[2][1]),
                           1 if t[1] == "+" else -1, 1 if t[3] == "+" else -1)] = float(t[4])
    return p


def read_field(text: str, prefix: str) -> float:
    """Number after `prefix` on the first line that starts with it."""
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return float("nan")


# ---------------------------------------------------------------------------
# scipy oracle
# ---------------------------------------------------------------------------

def linprog_min_negativity(p) -> float:
    """Minimum total negativity by scipy: min sum(t) s.t. F m = p, t >= -m, t >= 0."""
    from scipy.optimize import linprog

    eye = np.eye(16)
    result = linprog(
        c=np.concatenate([np.zeros(16), np.ones(16)]),
        A_ub=np.hstack([-eye, -eye]), b_ub=np.zeros(16),
        A_eq=np.hstack([ref.F, np.zeros((16, 16))]), b_eq=p,
        bounds=[(None, None)] * 16 + [(0, None)] * 16, method="highs")
    if result.status != 0:
        raise RuntimeError(f"linprog: {result.message}")
    return float(result.fun)
