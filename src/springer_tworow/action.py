"""The graded symmetric-group action on the homology of the two-row space.

One route: push a class through the tabloid model (zeta), permute, and
solve back in the span of the standard-basis images.  Characters and the
Coxeter presentation pin the representation exactly.  The paper's
pole-flip map into line-diagram classes of the ambient sphere product
(``line_diagram_expand``) is kept as a reference, not as a second solve:
the pole-flip terms of a dotted matching are its tabloid terms times
(-1)^(m*(n mod 2)) (the ``action.gamma-agreement`` verify invariant,
n <= 10), so the two routes solve to the same class, and ``act_via_gamma``
is ``act``.

Every solve runs against one cached factor per (n, m),
``tabloids._factor(n, m)``, in its own column numbering, and k only
decides where a result is written.  The (n, k, m) view is the position
table ``tabloids._positions(n, k, m)``: the place of each factor column
in the (n, k, m) basis.  It rests on the bijection M -> M.undotted from
the standard basis of (n, k, m) onto that of (n, m, m), along which
``tableau_of`` agrees (the ``tabloid.graded-module`` verify invariant):
the degree-2m piece is the same module S^(n-m, m) for every k >= m, and
a view only reorders its basis.  A matching column reads only n and the
undotted arcs, so any term, standard or not, whose undotted arcs are a
factor column's takes that column as it is; only other terms are
expanded.  Coordinates are sparse ``{column: int}`` dicts from end to end.
``_image_coords`` moves a weighted sum of columns through ``_RowMap``,
the one memo of row -> sigma(row), and solves in the factor.
``_solved_columns`` solves the image of every factor column with one row
map, so each tabloid row is moved at most once per matrix; ``rep_matrix``
writes it out dense at the view's positions, one lookup per nonzero
entry.  The factor columns are unit-triangular (the
``action.unit-triangular`` verify invariant), so every solve is integer
back-substitution certified by a zero residual, and no Fraction is built
on this path.

The generators have one home, ``_generators(n, m)``: the solved columns
of s_1, ..., s_{n-1} on the factor, built on each call.
``character_table_check`` works one grading at a time, checks each
(n, k, m) view's position table, and reads each grading's
``_certificate`` once per (n, m), since every k >= m has the same traces
and relations.  A certificate reads ``_generators`` first, which proves
the standard span S_n-stable.  Only then does it build the factor's dual
basis, read every class trace off it with no solve, and drop it.  The
forward ``_RowMap`` reads off the trace of sigma^-1, which is that of
sigma, since the two are conjugate in S_n.  Each Coxeter relation w^e = 1
is checked on sparse products: w (s_i, or s_i s_j composed once from the
generator columns) is raised to the power e and compared with the
identity.  The certificate keeps the report rows and failure strings
only.  ``derive_chart`` reads its rows off the same columns, one per
(M, s_i), and the skein calibration reads the chart.

Tabloid rows are keyed by integer bit masks, not frozensets (see
``tabloids``): ``_RowMap`` moves a row by sending each set bit of
its mask through sigma and looking up the result, and every expanded
term (a nonstandard matching whose undotted arcs no factor column has)
becomes a ``{row: int}`` column by ``tabloids._pair_column``.
"""
from __future__ import annotations

from functools import lru_cache

from .errors import (
    DomainError,
    SizeMismatch,
    SolveFailed,
)
from .homology import HomClass, _check_grading, hom_class
from .linalg import ColumnSolver
from .matchings import DottedMatching, check_tabloid_route, standard_dotted_matchings
from .permutations import (
    Permutation,
    adjacent,
    class_representative,
    partitions,
)
from .records import Record
from .tabloids import (
    TabloidVector,
    _arc_pairs,
    _factor,
    _mask_rows,
    _pair_column,
    _pair_terms,
    _positions,
    irr_character,
    tabloid_vector,
)


class _RowMap(dict):
    """Tabloid row r -> the row of sigma(r) at (n, m), moved on first lookup.

    A row moves as its bit mask: each set bit v goes to bit sigma(v).
    """

    def __init__(self, sigma: Permutation, n: int, m: int):
        if sigma.n != n:
            raise SizeMismatch(f"permutation on {sigma.n} letters, class on {n}")
        self.image = {1 << v: 1 << s for v, s in enumerate(sigma.images, 1)}
        self.masks, self.row = _mask_rows(n, m)

    def __missing__(self, r: int) -> int:
        x, out, image = self.masks[r], 0, self.image
        while x:
            bit = x & -x
            out |= image[bit]
            x ^= bit
        s = self[r] = self.row[out]
        return s


def _image_coords(sigma: Permutation, n: int, k: int, m: int, columns,
                  moved: _RowMap) -> dict[int, int]:
    """Factor coordinates of sigma applied to sum(c * column) for (c, column) in ``columns``.

    Solved against ``_factor(n, m)``; raises SolveFailed, naming sigma and
    (n, k, m), if the image, moved through ``moved``, leaves the span.
    """
    target: dict[int, int] = {}
    for c, column in columns:
        for r, v in column.items():
            s = moved[r]
            target[s] = target.get(s, 0) + c * v
    try:
        return _factor(n, m)[2].solve(target)
    except SolveFailed as exc:
        raise SolveFailed(f"action of {sigma.images} at (n, k, m) = ({n}, {k}, {m}) "
                          f"left the standard span: {exc}") from exc


def _act(sigma: Permutation, x: HomClass) -> HomClass:
    """sigma applied to a homogeneous class, in the standard basis.

    Each term takes the factor column with its undotted arcs, or its own
    expanded column if none has them.  The caller checks ``check_tabloid_route``.
    """
    m = x.grading
    moved = _RowMap(sigma, x.n, m)
    if x.is_zero:
        return x
    place, columns, _ = _factor(x.n, m)
    row = _mask_rows(x.n, m)[1]
    terms = ((c, columns[place[M.undotted]] if M.undotted in place
              else _pair_column(_arc_pairs(M), row)) for M, c in x.terms)
    coords = _image_coords(sigma, x.n, x.k, m, terms, moved)
    basis, positions = standard_dotted_matchings(x.n, x.k, m), _positions(x.n, x.k, m)
    return hom_class(x.n, x.k, {basis[positions[j]]: c for j, c in coords.items()})


def act(sigma: Permutation, x: HomClass) -> HomClass:
    """The action of sigma on a homogeneous class, in the standard basis."""
    check_tabloid_route(x.n, x.k, x.grading)
    return _act(sigma, x)


def _solved_columns(sigma: Permutation, n: int, m: int) -> list[dict[int, int]]:
    """Factor coordinates of sigma on each column of ``_factor(n, m)``, each a certified solve."""
    moved = _RowMap(sigma, n, m)
    return [_image_coords(sigma, n, m, m, ((1, column),), moved) for column in _factor(n, m)[1]]


def _generators(n: int, m: int) -> list[list[dict[int, int]]]:
    """``_solved_columns`` of s_1, ..., s_{n-1} on ``_factor(n, m)``, entry i - 1 for s_i.

    The one home of the generator action: the character certificate and
    the chart read it, and so does the skein calibration, through the chart.
    """
    return [_solved_columns(adjacent(n, i), n, m) for i in range(1, n)]


def rep_matrix(sigma: Permutation, n: int, k: int, m: int) -> list[list[int]]:
    """Matrix of the action over the standard basis: ``_solved_columns`` at its ``_positions``."""
    _check_grading(n, k, m)
    check_tabloid_route(n, k, m)
    positions = _positions(n, k, m)
    columns = _solved_columns(sigma, n, m)
    matrix = [[0] * len(columns) for _ in columns]
    for j, column in zip(positions, columns):
        for i, v in column.items():
            matrix[positions[i]][j] = v
    return matrix


# --- the pole-flip map, the reference of action.gamma-agreement -----------------

def _line_pairs(M: DottedMatching) -> list[tuple[int, int]]:
    """The undotted arcs of M as (plus, minus), plus the even endpoint."""
    return [(i, j) if i % 2 == 0 else (j, i) for i, j in M.undotted]


def line_diagram_terms(M: DottedMatching) -> dict[frozenset[int], int]:
    """Integer terms of the pole-flip image of M (see ``line_diagram_expand``)."""
    return _pair_terms(_line_pairs(M))


def line_diagram_expand(M: DottedMatching) -> TabloidVector:
    """Pole-flip image of a dotted matching in the ambient sphere power.

    Every undotted arc contributes [free at even endpoint] - [free at odd
    endpoint]; dotted arcs and rays pin their positions.
    The result is a tabloid vector keyed by the sets of free positions.
    """
    return tabloid_vector(M.n, M.m, line_diagram_terms(M))


def act_via_gamma(sigma: Permutation, x: HomClass | DottedMatching) -> HomClass:
    """``act`` on x, a class or a single dotted matching.

    The pole-flip terms of M are its matching terms times
    (-1)^(m*(n mod 2)) (``action.gamma-agreement``), so the ambient route
    solves to the same class as ``act``; only the name is kept.
    """
    return act(sigma, HomClass.of(x) if isinstance(x, DottedMatching) else x)


# --- action chart -----------------------------------------------------------------

CASE_LABELS = {
    1: "both positions on dotted arcs",
    2: "positions joined by an undotted arc",
    3: "two arcs, exactly one dotted",
    4: "two arcs, neither dotted",
    5: "both positions on rays",
    6: "ray and dotted arc",
    7: "ray and undotted arc",
}

def classify_case(M: DottedMatching, i: int) -> int:
    """Which of the seven local configurations (i, i+1) realizes in M."""
    if not 1 <= i <= M.n - 1:
        raise DomainError(f"position {i} outside 1..{M.n - 1}")
    dotted = set(M.dotted)
    on_ray = {v: v in M.base.rays for v in (i, i + 1)}
    if on_ray[i] and on_ray[i + 1]:
        return 5
    if (i, i + 1) in dotted:
        return 1
    if (i, i + 1) in M.base.arcs:
        return 2
    if on_ray[i] or on_ray[i + 1]:
        arc_vertex = i + 1 if on_ray[i] else i
        arc = next(a for a in M.base.arcs if arc_vertex in a)
        return 6 if arc in dotted else 7
    arc_i = next(a for a in M.base.arcs if i in a)
    arc_j = next(a for a in M.base.arcs if i + 1 in a)
    dots = (arc_i in dotted) + (arc_j in dotted)
    return {0: 4, 1: 3, 2: 1}[dots]


class ChartRow(Record):
    __slots__ = _fields = ("case", "matching", "position", "output")


class Chart(Record):
    __slots__ = _fields = ("n", "k", "rows", "anchor_failures")

    def __init__(self, n: int, k: int, rows: list[ChartRow] | None = None,
                 anchor_failures: list[str] | None = None):
        self._store(n, k, [] if rows is None else rows,
                    [] if anchor_failures is None else anchor_failures)

    @property
    def ok(self) -> bool:
        return not self.anchor_failures

    def cases_present(self) -> set[int]:
        return {r.case for r in self.rows}


#: The paper's readable anchor of each case: what its output must be, and the test
#: of it on (M, output).  The undotted cap negates its input.
_ANCHORS = {
    2: ("-input", lambda M, out: out == HomClass.of(M, -1)),
    **dict.fromkeys((1, 5, 6), ("one term", lambda M, out: len(out.terms) == 1)),
    **dict.fromkeys((3, 4, 7), ("two terms", lambda M, out: len(out.terms) == 2)),
}


def derive_chart(n: int, k: int) -> Chart:
    """Machine-computed action chart with the readable anchors asserted.

    Row (M, i) is column j of ``_generators(n, m)[i - 1]``, the solved
    columns of s_i, with M = basis[positions[j]] in the (n, k, m) view;
    the rows run by grading, then in basis order, then by i.  Each row is
    held to its case's anchor in ``_ANCHORS``.  A generator image that
    leaves the standard span raises SolveFailed, naming s_i and the
    (n, m, m) factor it was solved in.
    """
    check_tabloid_route(n, k)
    chart = Chart(n, k)
    for m in range(k + 1):
        basis, positions = standard_dotted_matchings(n, k, m), _positions(n, k, m)
        gens = _generators(n, m)
        for j in sorted(range(len(positions)), key=positions.__getitem__):
            M = basis[positions[j]]
            for i, columns in enumerate(gens, 1):
                case = classify_case(M, i)
                out = hom_class(n, k, {basis[positions[t]]: c for t, c in columns[j].items()})
                chart.rows.append(ChartRow(case, M, i, out))
                want, holds = _ANCHORS[case]
                if not holds(M, out):
                    chart.anchor_failures.append(
                        f"case {case} at {M}, i={i}: expected {want}, got {out}")
    return chart


# --- character verification ---------------------------------------------------------

class CharacterReport(Record):
    __slots__ = _fields = ("n", "k", "rows", "coxeter_ok", "failures")

    def __init__(self, n: int, k: int,
                 rows: list[tuple[int, tuple[int, ...], int, int]] | None = None,
                 coxeter_ok: bool = True, failures: list[str] | None = None):
        self._store(n, k, [] if rows is None else rows, coxeter_ok,
                    [] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return self.coxeter_ok and not self.failures


def _compose(a: list[dict[int, int]], b: list[dict[int, int]]) -> list[dict[int, int]]:
    """The sparse columns of the product a b: column t is a applied to column t of b.

    A one-term column c * e_t of b becomes column t of a, read as it is
    when c is 1.
    """
    out = []
    for v in b:
        if len(v) == 1:
            (t, x), = v.items()
            out.append(a[t] if x == 1 else {i: x * y for i, y in a[t].items()})
            continue
        w: dict[int, int] = {}
        for t, x in v.items():
            for i, y in a[t].items():
                w[i] = w.get(i, 0) + x * y
        out.append({i: x for i, x in w.items() if x})
    return out


def _power(p: list[dict[int, int]], e: int) -> list[dict[int, int]]:
    """The sparse columns of p^e, for e >= 1."""
    q = p
    for _ in range(e - 1):
        q = _compose(p, q)
    return q


def _coxeter_failures(gens: list[list[dict[int, int]]]) -> list[str]:
    """The Coxeter relations broken by sparse generator columns, ``gens[i - 1]`` for s_i.

    Each relation w^e = 1 is checked on w built once, s_i or the product
    s_i s_j, raised to the power e and compared with the identity.
    """
    g, r = gens, len(gens)
    identity = [{j: 1} for j in range(len(g[0]) if g else 0)]
    relations = [(i, i, 2, "s{}^2 != 1") for i in range(r)]
    relations += [(i, i + 1, 3, "(s{} s{})^3 != 1") for i in range(r - 1)]
    relations += [(i, j, 2, "s{} and s{} do not commute")
                  for i in range(r - 1) for j in range(i + 2, r)]
    return [text.format(i + 1, j + 1) for i, j, e, text in relations
            if _power(g[i] if i == j else _compose(g[i], g[j]), e) != identity]


def _factor_trace(sigma: Permutation, n: int, m: int, dual) -> int:
    """The trace of ``rep_matrix(sigma, n, k, m)``, off its factor's ``dual_basis()``.

    Reading row p of a vector at row sigma(p), through the forward row
    map, moves it by sigma^-1, so this is the trace of sigma^-1.  That is
    the trace of sigma, since sigma^-1 is conjugate to sigma in S_n; no
    solve runs and no permutation is inverted.  Valid only once the span
    is known to be S_n-stable.
    """
    return ColumnSolver.trace(dual, _RowMap(sigma, n, m).__getitem__)


@lru_cache(maxsize=None)
def _certificate(n: int, m: int) -> tuple[tuple, tuple[str, ...], tuple[str, ...]]:
    """(rows, trace failures, relation failures) of grading m on n points.

    Worked in the factor's numbering: ``_generators`` solves and
    certifies the n - 1 generators first, which proves the span
    S_n-stable; the dual basis is then built, read by ``_factor_trace``
    once per class and dropped; the Coxeter relations come last.  Every (n, k, m) view is the same
    module with its basis reordered, so its traces and relations are
    these.  Only the report rows and failure strings are kept.
    """
    gens = _generators(n, m)
    dual = _factor(n, m)[2].dual_basis()
    rows, failures = [], []
    for mu in partitions(n):
        trace = _factor_trace(class_representative(mu, n), n, m, dual)
        expected = irr_character((n - m, m), mu)
        rows.append((m, mu, trace, expected))
        if trace != expected:
            failures.append(f"m={m}, class {mu}: trace {trace} != character {expected}")
    del dual
    relations = tuple(f"m={m}: {text}" for text in _coxeter_failures(gens))
    return tuple(rows), tuple(failures), relations


def character_table_check(n: int, k: int) -> CharacterReport:
    """Traces against the two-row irreducible characters, plus Coxeter laws.

    Each grading's ``_certificate``, on the columns of ``_generators(n, m)``,
    is computed once per (n, m) and read here; the position table of the
    (n, k, m) view is built (or read) for every m, so the bijection onto
    the (n, m, m) basis is proved for this k.  Rows and failures keep the
    order traces, then relations, grading by grading.
    """
    check_tabloid_route(n, k)
    report = CharacterReport(n, k)
    for m in range(k + 1):
        _positions(n, k, m)
        rows, traces, relations = _certificate(n, m)
        report.rows += rows
        report.failures += traces + relations
        if relations:
            report.coxeter_ok = False
    return report


# --- identity sanity -------------------------------------------------------------

def act_word(word: list[int], x: HomClass) -> HomClass:
    """Apply a word of adjacent transpositions, rightmost letter first."""
    out = x
    for a in reversed(word):
        out = act(adjacent(x.n, a), out)
    return out
