"""The 64 cells of the local witness, derived again in exact arithmetic.

negativity._CELL_MASKS lists the cells of the regular triangulation of the
local polytope L, the hull of the 16 deterministic boxes, that lifts strategy
s to height 2^s.  Here they are found again in fractions.Fraction by gift
wrapping the lower hull of the lifted strategies: across the facet of a cell
opposite one of its strategies, the cell's plane turns about that facet until
it meets another lifted strategy, which with the facet spans the neighbour.
The walk starts from the first 9 strategies, in order, that span a simplex,
which the first test checks to be a lower facet, and reaches every cell,
since the cells of a triangulation of a convex polytope are connected
through their facets.  No numpy linear algebra and no package matrix enters.
"""

from fractions import Fraction

import numpy as np
import pytest

import quasilocal as ql
from quasilocal import negativity

#: Column s is strategy s in the coordinates x = (1, p_ind) that the models take.
POINTS = [[Fraction(1)] * 16] + [
    [Fraction(int(s[0::2][j - 1] == m and s[1::2][k - 1] == n)) for s in ql.STRATEGY_OUTCOMES]
    for j, k, m, n in (ql.PROB_EVENTS[i] for i in ql.INDEPENDENT_INDICES)]
HEIGHTS = [Fraction(2) ** s for s in range(16)]


def inverse_and_determinant(a):
    """a^-1 and det a for a nonsingular square matrix, by Gauss-Jordan elimination."""
    n = len(a)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    det = Fraction(1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y if y else x for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows], det


def at(a, point):
    """a @ point for a strategy's point, whose entries are 0 and 1."""
    return sum(x for x, on in zip(a, point) if on)


#: Strategy s as a point, x = (1, p_ind).
COLUMNS = list(zip(*POINTS))


class Cell:
    """The simplex on 9 strategies: its barycentric rows, one per strategy
    (row j @ x is the weight of strategies[j] in the model of x), its
    determinant, its plane through the lifted strategies, and how far each
    other lifted strategy lies above that plane."""

    def __init__(self, strategies):
        self.strategies = strategies
        self.rows, self.det = inverse_and_determinant(
            [[row[s] for s in strategies] for row in POINTS])
        self.plane = [sum(HEIGHTS[s] * r[i] for s, r in zip(strategies, self.rows))
                      for i in range(9)]
        self.others = [t for t in range(16) if t not in strategies]
        self.gaps = {t: HEIGHTS[t] - at(self.plane, COLUMNS[t]) for t in self.others}

    def neighbours(self):
        """The strategies of the cell across each facet not on the boundary of L."""
        for j, row in enumerate(self.rows):
            side = {t: at(row, COLUMNS[t]) for t in self.others}
            beyond = [t for t in self.others if side[t] < 0]    # across the facet
            if beyond:
                t = max(beyond, key=lambda t: self.gaps[t] / side[t])
                yield tuple(sorted([*self.strategies[:j], *self.strategies[j + 1:], t]))


def mask(strategies):
    return sum(1 << s for s in strategies)


def first_cell():
    """The strategies, in order, that are no affine combination of those before
    them: the first 9 that span a simplex."""
    strategies, echelon = [], []            # (pivot, row) of each strategy kept
    for s, x in enumerate(COLUMNS):
        for pivot, row in echelon:
            x = [a - x[pivot] / row[pivot] * b for a, b in zip(x, row)]
        if any(x):
            strategies.append(s)
            echelon.append((next(i for i, a in enumerate(x) if a), x))
    return tuple(strategies)


def derived_cells():
    """The cells reached from first_cell, keyed by mask."""
    cells, todo = {}, [first_cell()]
    while todo:
        strategies = todo.pop()
        if mask(strategies) not in cells:
            cell = cells[mask(strategies)] = Cell(strategies)
            todo.extend(cell.neighbours())
    return cells


CELLS = derived_cells()


def test_the_cell_table_is_the_triangulation_by_heights_two_to_the_s():
    assert sorted(negativity._CELL_MASKS) == list(negativity._CELL_MASKS)
    assert set(negativity._CELL_MASKS) == set(CELLS) and len(CELLS) == 64
    for cell in CELLS.values():
        # a lower facet, and the other 7 lifted strategies strictly above it
        assert all(gap > 0 for gap in cell.gaps.values())
    # the cells tile L, so their volumes |det| / 8! add up to L's
    assert {abs(cell.det) for cell in CELLS.values()} == {2}
    assert sum(abs(cell.det) for cell in CELLS.values()) == 128


def test_each_model_and_locator_row_is_exact():
    for k, key in enumerate(negativity._CELL_MASKS):
        cell = CELLS[key]
        exact = [[Fraction(0)] * 9 for _ in range(16)]
        for s, row in zip(cell.strategies, cell.rows):
            exact[s] = row
        model = np.array(exact, dtype=float)
        assert all(x.denominator <= 2 for row in exact for x in row)
        assert np.array_equal(negativity._MODELS[k], model)
        assert not np.signbit(negativity._MODELS[k][model == 0.0]).any()
        assert np.array_equal(negativity._LOCATOR[k],
                              np.array([x / 2 ** 20 for x in cell.plane], dtype=float))


@pytest.mark.parametrize("concentration", [0.1, 1.0, 10.0])
def test_local_boxes_lie_in_one_cell_and_the_locator_finds_it(concentration):
    rng = np.random.default_rng(71)
    measures = rng.dirichlet(np.full(16, concentration), 300)
    boxes = measures @ ql.FORWARD_MATRIX.T
    xs = np.column_stack([np.ones(300), boxes[:, list(ql.INDEPENDENT_INDICES)]])
    weights = np.einsum("ksx,bx->bks", negativity._MODELS, xs)    # box, cell, strategy
    on = np.array([[mask >> s & 1 for s in range(16)] for mask in negativity._CELL_MASKS], bool)
    least = np.where(on, weights, np.inf).min(axis=2)
    assert ((least >= -1e-12).sum(axis=1) >= 1).all()       # in at least one cell
    assert ((least > 1e-12).sum(axis=1) <= 1).all()         # inside at most one
    located = np.argmax(xs @ negativity._LOCATOR.T, axis=1)
    assert (least[range(300), located] >= -1e-12).all()

