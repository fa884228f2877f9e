"""Exact linear algebra: dense rational elimination and a sparse integer solve.

``rref`` and the helpers built on it take dense lists of lists and run
plain Gaussian elimination over fractions.Fraction.  ``ColumnSolver`` is
the integer solve of the action: its columns are sparse and must be
unit-triangular (each column's last nonzero row is a pivot of its own,
with entry +-1), which it checks when it factors, so back-substitution
stays in the integers and each solve certifies itself by leaving a zero
residual.  No floats anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InternalCheckError, SolveFailed

Row = list[Fraction]


def _to_fraction_rows(rows: Sequence[Sequence]) -> list[Row]:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = _to_fraction_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def row_space_equal(a: Sequence[Sequence], b: Sequence[Sequence]) -> bool:
    """True iff the two row spans coincide (same ambient width)."""
    ra, _ = rref(a)
    rb, _ = rref(b)
    return ra == rb


def reduce_against(vector: Sequence, echelon: list[Row], pivots: list[int]) -> Row:
    """Subtract multiples of echelon rows to clear the pivot coordinates."""
    v = [Fraction(x) for x in vector]
    for row, c in zip(echelon, pivots):
        if v[c] != 0:
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def in_row_space(vector: Sequence, rows: Sequence[Sequence]) -> bool:
    ech, piv = rref(rows)
    return all(x == 0 for x in reduce_against(vector, ech, piv))


class ColumnSolver:
    """Solve A x = b exactly over the integers for a unit-triangular A.

    Columns and right-hand sides are sparse ``{row: int}`` dicts.  The
    pivot of a column is its last nonzero row; the factor requires the
    pivots to be distinct and every pivot entry to be +-1, so A is
    unit-triangular in pivot order and every solution is integral.  A
    column that breaks this raises InternalCheckError: there is no dense
    fallback.  ``nrows`` is one past the highest pivot row.
    """

    def __init__(self, columns: Sequence[Mapping[int, int]]):
        self.ncols = len(columns)
        owner: dict[int, int] = {}
        for j, col in enumerate(columns):
            rows = [r for r, v in col.items() if v]
            if not rows:
                raise InternalCheckError(f"unit-triangular: column {j} is zero")
            p = max(rows)
            if p in owner:
                raise InternalCheckError(
                    f"unit-triangular: column {j} has pivot row {p}, "
                    f"already the pivot of column {owner[p]}"
                )
            if col[p] not in (1, -1):
                raise InternalCheckError(
                    f"unit-triangular: column {j} has entry {col[p]} at its pivot row {p}"
                )
            owner[p] = j
        # (pivot row, pivot entry, column index, column items), highest pivot first
        self._steps = [
            (p, columns[j][p], j, [(r, v) for r, v in columns[j].items() if v])
            for p, j in sorted(owner.items(), reverse=True)
        ]
        self.nrows = self._steps[0][0] + 1 if self._steps else 0

    def solve(self, b: Mapping[int, int]) -> list[int]:
        """Return the integer x with A x = b, or raise SolveFailed.

        Back-substitutes in decreasing pivot order on a sparse residual;
        a residual left over at the end proves b is outside the span.
        """
        residual = {r: v for r, v in b.items() if v}
        x = [0] * self.ncols
        for p, unit, j, items in self._steps:
            if not residual:
                break
            c = residual.get(p)
            if not c:
                continue
            c *= unit
            x[j] = c
            for r, v in items:
                left = residual.get(r, 0) - c * v
                if left:
                    residual[r] = left
                else:
                    del residual[r]
        if residual:
            raise SolveFailed(
                f"right-hand side outside the column span ({len(residual)} rows left)"
            )
        return x
