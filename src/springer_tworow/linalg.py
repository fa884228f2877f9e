"""Exact linear algebra: one sparse elimination kernel and a unit-triangular solve.

``Echelon`` is the one row-elimination routine, and ``_eliminate`` its
one loop, run both to build a basis and by ``reduce``.  Rows are sparse
``{column: value}`` dicts; a row's pivot is its lowest column.  Rows are
made primitive integer vectors (coprime entries, positive lead) before
they take a pivot.  A row led by 1 takes its pivot at once; one led by
any other value waits until every row has been offered, so unit rows
take pivots first.  Against a unit pivot a clearing step is a plain
subtraction; against a non-unit one the row is first multiplied by
pivot / gcd, so no step divides.  Each step finds the row's next
column by one scan of its entries (almost every relation and boundary
row has 2-4 entries of +-1).  Fraction appears only in results that
divide by a non-unit pivot: the rows of ``rref`` and the remainders of
``reduce``.  This is sparse exact elimination in the
spirit of Dumas, Saunders and Villard (J. Symbolic Comput. 32, 2001).

``rref``, ``rank``, ``row_space_equal`` and ``reduce_against`` are
thin adapters over the kernel for dense lists of lists; ``rank(rows)``
is ``len(rref(rows)[1])``.  ``normal_forms`` is
the one unit-triangular certificate: it peels rows with one open +-1
pivot entry, only adds and multiplies integers and never falls back;
the reduction to the standard basis and ``ColumnSolver.dual_basis`` run
on it.  ``ColumnSolver`` is the integer solve of the action on sparse,
unit-triangular columns, which it checks when it factors; each solve
certifies itself by leaving a zero residual, and ``trace`` reads traces
off the integer dual basis of the factor, with no solve.  A solver
answers in the numbering of the columns it was factored on.  No floats
anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import InternalCheckError, SolveFailed

Number = Union[int, Fraction]
SparseRow = dict[int, Number]


class Echelon:
    """A row echelon basis of the span of sparse rows, by exact elimination.

    ``rows`` maps each pivot column to its pivot row: a primitive integer
    ``{column: int}`` dict whose lowest column is that pivot, with a
    positive entry there.  After ``back_substitute`` every pivot row is
    also zero at every other pivot column.
    """

    def __init__(self, rows: Iterable[Mapping[int, Number]]):
        self.rows: dict[int, dict[int, int]] = {}
        waiting = [_integral(row)[0] for row in rows]
        while waiting:
            left = []
            for v in waiting:
                lead = self._eliminate(v, full=False)[0]
                if lead is None:
                    continue
                v = _primitive(v, lead)
                if v[lead] == 1:
                    self.rows[lead] = v
                else:
                    left.append(v)
            if len(left) == len(waiting):
                # Nothing changed, so every waiting row is reduced and led
                # by a non-unit: the first one takes its pivot as it is.
                v = left.pop(0)
                self.rows[min(v)] = v
            waiting = left

    def _eliminate(self, v: dict[int, int], full: bool) -> tuple[int | None, int]:
        """Clear pivot columns of v in place, lowest first; return (lead, scale).

        With ``full`` every pivot column is cleared and lead is None; else
        elimination stops at v's first column that no pivot owns and
        returns it (None when v becomes zero).  v was multiplied by
        ``scale`` on the way.  A pivot row has entries right of its pivot
        only, so a passed column never fills again.
        """
        rows, scale, c = self.rows, 1, -1
        while True:
            # Unless full, every passed column was cleared out of v.
            later = [j for j in v if j > c] if full else v
            if not later:
                return None, scale
            c = min(later)
            row = rows.get(c)
            if row is None:
                if full:
                    continue
                return c, scale
            scale *= _clear(v, c, row)

    def reduce(self, vector: Mapping[int, Number]) -> SparseRow:
        """The remainder of vector after clearing every pivot column.

        It is zero exactly when vector lies in the span, and it does not
        depend on which echelon basis of the span is used.
        """
        v, d = _integral(vector)
        d *= self._eliminate(v, full=True)[1]
        return {c: _quotient(x, d) for c, x in v.items()}

    def back_substitute(self) -> None:
        """Clear every pivot row at the other pivot columns: the reduced form.

        Rows go highest pivot first, so every row used to clear another is
        already zero at every pivot but its own.
        """
        for p in sorted(self.rows, reverse=True):
            row = self.rows[p]
            cleared = [j for j in row if j != p and j in self.rows]
            for j in cleared:
                _clear(row, j, self.rows[j])
            if cleared:
                self.rows[p] = _primitive(row, p)


def _clear(v: dict[int, int], c: int, row: dict[int, int]) -> int:
    """Make v[c] zero with the pivot row led at c; return the factor v was scaled by."""
    f, p = v[c], row[c]
    a = 1
    if p != 1:
        g = gcd(f, p)
        a, f = p // g, f // g
        if a != 1:
            for j in v:
                v[j] *= a
    for j, x in row.items():
        y = v.get(j, 0) - f * x
        if y:
            v[j] = y
        else:
            del v[j]
    return a


def _integral(row: Mapping[int, Number]) -> tuple[dict[int, int], int]:
    """(w, d): w is an integer row and d a positive int with row == w / d."""
    w = {c: x for c, x in row.items() if x}
    if set(map(type, w.values())) <= {int}:
        return w, 1
    d = lcm(*(Fraction(x).denominator for x in w.values()))
    return {c: int(x * d) for c, x in w.items()}, d


def _primitive(v: dict[int, int], lead: int) -> dict[int, int]:
    """v divided by the gcd of its entries, signed so that v[lead] > 0."""
    if v[lead] == 1:
        return v
    if v[lead] == -1:
        return {c: -x for c, x in v.items()}
    g = gcd(*v.values())
    if v[lead] < 0:
        g = -g
    return v if g == 1 else {c: x // g for c, x in v.items()}


def _quotient(x: int, d: int) -> Number:
    """x / d exactly: an int when d divides x, else a Fraction."""
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


def _sparse(row: Sequence) -> SparseRow:
    return {c: row[c] for c in compress(range(len(row)), row)}


def _dense(row: Mapping[int, Number], width: int) -> list[Number]:
    out: list[Number] = [0] * width
    for c, x in row.items():
        out[c] = x
    return out


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Number]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Dense rows in, dense reduced rows out, ordered by pivot; entries are
    exact: ``int`` where integral, Fraction otherwise.
    """
    if not rows:
        return [], []
    basis = Echelon(map(_sparse, rows))
    basis.back_substitute()
    pivots = sorted(basis.rows)
    width = len(rows[0])
    out = []
    for p in pivots:
        row = basis.rows[p]  # primitive, so normalised already when led by 1
        row = row if row[p] == 1 else {c: _quotient(x, row[p]) for c, x in row.items()}
        out.append(_dense(row, width))
    return out, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def row_space_equal(a: Sequence[Sequence], b: Sequence[Sequence]) -> bool:
    """True iff the two row spans coincide (same ambient width)."""
    ra, rb = Echelon(map(_sparse, a)), Echelon(map(_sparse, b))
    ra.back_substitute()
    rb.back_substitute()
    return ra.rows == rb.rows


def reduce_against(vector: Sequence, echelon: Sequence[Sequence],
                   pivots: Sequence[int]) -> list[Number]:
    """Clear the pivot coordinates of vector using the rows of an echelon form.

    ``echelon`` and ``pivots`` are as ``rref`` returns them; the result
    is the dense remainder.
    """
    basis = Echelon(map(_sparse, echelon))
    if sorted(basis.rows) != sorted(pivots):
        raise InternalCheckError(f"echelon pivots {sorted(basis.rows)} != given {list(pivots)}")
    return _dense(basis.reduce(_sparse(vector)), len(vector))


def normal_forms(rows: Iterable[Mapping[int, int]],
                 pivots: Iterable[int]) -> dict[int, dict[int, int]]:
    """{c: NF(c)} for every pivot column c, modulo the span of integer rows with no zero entry.

    A row peels when exactly one of its pivot columns c has no form yet
    and its entry u there is +-1: NF(c) = -u * sum_{j != c} r_j * NF(j),
    with NF(j) = {j: 1} for j outside ``pivots``.  Every other row must
    map to zero; then the span is the kernel of NF, and the forms do not
    depend on the row order.  Raises InternalCheckError when a pivot never
    peels (naming the least) or a leftover row does not map to zero.
    """
    rows = list(rows)
    users: dict[int, list[int]] = {c: [] for c in pivots}  # the pivots with no form yet
    count = [0] * len(rows)
    for i, row in enumerate(rows):
        for c in row:
            if c in users:
                users[c].append(i)
                count[i] += 1
    ready = [i for i, x in enumerate(count) if x == 1]
    forms: dict[int, dict[int, int]] = {}
    while ready:
        row = rows[i := ready.pop()]
        c = next((j for j in row if j in users), None)
        if c is not None and row[c] in (1, -1):  # else wait, to be checked as left over
            forms[c] = {s: -row[c] * x for s, x in _image(row, forms).items() if s != c}
            for user in users.pop(c):
                count[user] -= 1
                if count[user] == 1:
                    ready.append(user)
            count[i] = -1  # peeled, so it maps to zero by construction
    if users:
        raise InternalCheckError(f"normal forms: pivot {min(users)} never peels")
    for i, row in enumerate(rows):
        if count[i] == 0 and (left := _image(row, forms)):
            raise InternalCheckError(f"normal forms: row {i} is left over and maps to {left}")
    return forms


def _image(row: Mapping[int, int], forms: Mapping[int, Mapping[int, int]]) -> dict[int, int]:
    """sum_j row[j] * NF(j), NF(j) = {j: 1} for a column j with no form, without zeros."""
    out: dict[int, int] = {}
    for j, x in row.items():
        form = forms.get(j)
        if form is None:
            out[j] = out.get(j, 0) + x
        else:
            for s, y in form.items():
                out[s] = out.get(s, 0) + x * y
    return {s: y for s, y in out.items() if y}


class ColumnSolver:
    """Solve A x = b exactly over the integers for a unit-triangular A.

    Columns and right-hand sides are sparse ``{row: int}`` dicts.  The
    pivot of a column is its last nonzero row; the factor requires the
    pivots to be distinct and every pivot entry to be +-1, so A is
    unit-triangular in pivot order and every solution is integral.  A
    column that breaks this raises InternalCheckError: there is no dense
    fallback.  ``nrows`` is one past the highest pivot row.
    """

    __slots__ = ("nrows", "_steps")

    def __init__(self, columns: Sequence[Mapping[int, int]]):
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

    def solve(self, b: Mapping[int, int]) -> dict[int, int]:
        """Return the nonzero coordinates of the integer x with A x = b, or raise SolveFailed.

        Back-substitutes in decreasing pivot order on a sparse residual;
        a residual left over at the end proves b is outside the span.
        """
        residual = {r: v for r, v in b.items() if v}
        x: dict[int, int] = {}
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

    def dual_basis(self) -> list[tuple[int, dict[int, int]]]:
        """(p_j, b_j) for every column j, lowest pivot first: the columns of A U^-1.

        b_j is the integer vector of the column span that is 1 at the pivot
        row p_j of column j and 0 at every other pivot row: e_{p_j} minus
        the ``normal_forms`` of row p_j over the columns, with the pivot
        rows as pivots.  Built afresh and not kept.
        """
        forms = normal_forms((dict(items) for *_, items in self._steps),
                             [p for p, *_ in self._steps])
        return [(p, {p: 1, **{r: -x for r, x in forms[p].items()}}) for p in sorted(forms)]

    @staticmethod
    def trace(dual: list[tuple[int, dict[int, int]]], source: Callable[[int], int]) -> int:
        """The trace of x -> solve(P x), where (P v)[r] = v[source(r)].

        Reads sum_j b_j[source(p_j)] off ``dual_basis()``, with no solve.
        Valid only if P maps the column span into itself; the trace does
        not check that, so prove it first (certified solves of the images
        of a generating set, say).
        """
        return sum(b.get(source(p), 0) for p, b in dual)
