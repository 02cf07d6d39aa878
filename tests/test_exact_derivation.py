"""Every constant map, derived exactly in rational arithmetic.

The package derives its maps in floats and rounds them to the nearest 1/16
(model._exact).  Here each one is derived again from the two encoding tables,
STRATEGY_OUTCOMES and PROB_EVENTS, and the conventions that name coordinates
(INDEPENDENT_INDICES, FREE_INDICES, the face's coordinates, CHSH_VARIANTS), by
Gauss-Jordan elimination in fractions.Fraction.  No numpy linear algebra and
no package matrix enters, so the rounding is checked against an exact result,
not only against its own output.
"""

from fractions import Fraction

import numpy as np

import quasilocal as ql
from quasilocal import model, negativity, solver

ONE, ZERO = Fraction(1), Fraction(0)
IDENTITY = [[ONE if i == j else ZERO for j in range(16)] for i in range(16)]


def solve_exact(a, b):
    """x with a @ x = b for a of full column rank, by Gauss-Jordan elimination;
    every row of the system beyond the pivots must reduce to zero."""
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    n = len(a[0])
    for col in range(n):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    assert all(x == 0 for row in rows[n:] for x in row)     # b lies in a's range
    return [row[n:] for row in rows[:n]]


def transpose(a):
    return [list(column) for column in zip(*a)]


#: F[i][s] = 1 when strategy s = (a1, b1, a2, b2) gives event i = (j, k, m, n).
FORWARD = [[ONE if s[0::2][j - 1] == m and s[1::2][k - 1] == n else ZERO
            for s in ql.STRATEGY_OUTCOMES] for j, k, m, n in ql.PROB_EVENTS]


def family(coordinates, constraints):
    """The exact inverse of the rows (ones, F[coordinates], constraints)."""
    return solve_exact([[ONE] * 16, *(FORWARD[i] for i in coordinates), *constraints], IDENTITY)


def embedding():
    """E with E @ (ones, F[INDEPENDENT_INDICES]) = F: p = E @ (sum(m), p_ind)."""
    basis = [[ONE] * 16, *(FORWARD[i] for i in ql.INDEPENDENT_INDICES)]
    return transpose(solve_exact(transpose(basis), transpose(FORWARD)))


def minus_strategies(v):
    """N_v: the strategies whose CHSH value under variant v is -2."""
    negated, sign = ql.CHSH_VARIANTS[v]

    def value(s):       # a = (a1, a2), b = (b1, b2)
        a, b = s[0::2], s[1::2]
        return sum((-sign if (j, k) == negated else sign) * a[j - 1] * b[k - 1]
                   for j, k in model.SETTING_PAIRS)
    return [i for i, s in enumerate(ql.STRATEGY_OUTCOMES) if value(s) == -2]


def as_array(exact):
    """The float array of an exact matrix whose entries are multiples of 1/16."""
    assert all(16 % x.denominator == 0 for x in np.ravel(exact))
    return np.array(exact, dtype=float)


def assert_exactly(constant, exact):
    """Equal by np.array_equal, and no zero of the constant is -0.0."""
    assert np.array_equal(constant, as_array(exact))
    assert not np.signbit(constant[constant == 0.0]).any()


def test_forward_map_and_box_embedding_are_exact():
    assert_exactly(model.FORWARD_MATRIX, FORWARD)
    e = embedding()
    assert_exactly(model._BOX_EMBEDDING, e)
    signs = [[2 * x for x in e[i][1:]] for i in ql.DEPENDENT_INDICES]
    assert_exactly(model.DEPENDENT_SIGNS, signs)
    # the relations and families are half-integer
    assert all(x.denominator <= 2 for row in e for x in row)


def test_solution_families_are_exact_inverses():
    general = family(ql.INDEPENDENT_INDICES, [IDENTITY[s] for s in ql.FREE_INDICES])
    assert_exactly(solver._SOLUTION, general)
    disagree = [i for i, s in enumerate(ql.STRATEGY_OUTCOMES) if s[0] != s[1]]   # a1 != b1
    face = family(solver._FACE_COORDINATES.tolist(), [IDENTITY[s] for s in [15, *disagree]])
    assert_exactly(solver._FACE_SOLUTION, [row[:8] for row in face])
    assert all(x.denominator <= 2 for m in (general, face) for row in m for x in row)


def test_witness_is_the_exact_equal_weight_member():
    exact = []
    for v in range(8):
        first, *rest = minus_strategies(v)
        equal = [[a - b for a, b in zip(IDENTITY[s], IDENTITY[first])] for s in rest]
        exact.append([row[:9] for row in family(ql.INDEPENDENT_INDICES, equal)])
    assert_exactly(negativity._WITNESS, exact)
    assert any(x.denominator == 16 for m in exact for row in m for x in row)
