"""The graded symmetric-group action on the homology of the two-row space.

Normative route: push a class through the tabloid model (zeta), permute,
and solve back in the span of the standard-basis images.  Validation
route: expand each standard generator as a line-diagram class of the
ambient sphere product via the pole-flip map (every undotted arc becomes
minus-free-at-the-odd-end plus-free-at-the-even-end), permute coordinates
there, and solve back.  The two must agree; characters and the Coxeter
presentation pin the representation exactly.

The two expansions differ by an overall sign only: for a dotted matching M
of grading m on n points, ``line_diagram_terms(M)`` is (-1)^(m*(n mod 2))
times ``matching_terms(M)``, because the orientations of an undotted arc
agree exactly when n is even (the ``action.gamma-agreement`` verify
invariant, over every dotted matching with n <= 10).  So the validation
route certifies the orientation convention, not an independent solve:
``act_via_gamma`` expands every term by ``line_diagram_terms``, moves it
by sigma, multiplies the target by that sign and solves against the
matching factor.

Every caller solves against one cached factor per shape,
``tabloids._solver(n, k, m)``, which ``tabloids.modules_equal`` shares.
It expands each standard basis element once by ``matching_terms`` and
keeps the ``{row: int}`` columns, a position map from basis element to
column, and the factored solver over those columns.  One helper,
``_image_coords``, moves a weighted sum of columns by sigma and solves:
``act`` and ``rep_matrix`` reuse the stored column of a standard term,
and only any other term (a nonstandard one, say) is expanded afresh.
Rows are moved through a memo of row -> sigma(row) that lives for one
sigma; ``rep_matrix`` shares one memo across all its columns, so each
tabloid row is moved at most once per matrix.  The standard columns are
unit-triangular: the lexicographically last key of the column of M is
the bottom row of ``tableau_of(M)``, with entry +-1 (the
``action.unit-triangular`` verify invariant).  So every solve is integer
back-substitution that certifies itself by a zero residual, and no
Fraction is built on this path.

``character_table_check`` works one grading at a time.  It first solves
the n - 1 generator matrices through ``rep_matrix``: every column is a
full solve certified by a zero residual, which proves that the standard
span is stable under S_n.  Only then does it read each class
representative's trace off the factor (``ColumnSolver.trace``, with no
solve and no matrix).  It checks the Coxeter relations (s_i^2,
(s_i s_{i+1})^3, commuting pairs) on sparse columns of the generator
matrices: it applies each relation word to every unit vector e_j and
compares the result with e_j, so no matrix product is formed.
"""
from __future__ import annotations

from .errors import (
    DomainError,
    SizeMismatch,
    SolveFailed,
)
from .homology import HomClass, _check_grading, hom_class
from .matchings import DottedMatching, check_type, standard_dotted_matchings
from .permutations import (
    Permutation,
    adjacent,
    class_representative,
    partitions,
)
from .records import Record
from .tabloids import (
    TabloidVector,
    _column,
    _pair_terms,
    _solver,
    irr_character,
    matching_terms,
    tabloid_keys,
    tabloid_vector,
)


def _image_coords(sigma: Permutation, n: int, k: int, m: int, columns,
                  moved: dict[int, int]) -> list[int]:
    """Coordinates of sigma applied to sum(c * column), over the standard basis.

    ``columns`` yields (c, column) pairs, each column a ``{row: int}`` over
    the tabloid rows of (n, m).  Moves the rows by sigma and solves against
    the shared factor ``_solver(n, k, m)``; raises SolveFailed if the image
    leaves the span.  ``moved`` memoises row -> moved row for this one
    sigma at (n, m): a caller may share it between calls with the same
    sigma and m, never across two sigmas.
    """
    if sigma.n != n:
        raise SizeMismatch(f"permutation on {sigma.n} letters, class on {n}")
    _, index, _, _, solver = _solver(n, k, m)
    keys = tabloid_keys(n, m)
    target: dict[int, int] = {}
    for c, column in columns:
        for r, v in column.items():
            s = moved.get(r)
            if s is None:
                s = moved[r] = index[sigma.apply_to_set(keys[r])]
            target[s] = target.get(s, 0) + c * v
    try:
        return solver.solve(target)
    except SolveFailed as exc:
        raise SolveFailed(f"action of {sigma.images} at (n, k, m) = ({n}, {k}, {m}) "
                          f"left the standard span: {exc}") from exc


def act(sigma: Permutation, x: HomClass) -> HomClass:
    """The action of sigma on a homogeneous class, in the standard basis.

    A standard term reuses its stored column; any other term (a
    nonstandard one, say) is expanded by ``matching_terms``.
    """
    if sigma.n != x.n:
        raise SizeMismatch(f"permutation on {sigma.n} letters, class on {x.n}")
    if x.is_zero:
        return x
    m = x.grading
    basis, index, columns, position, _ = _solver(x.n, x.k, m)
    terms = ((c, columns[position[M]] if M in position else _column(index, matching_terms(M)))
             for M, c in x.terms)
    coords = _image_coords(sigma, x.n, x.k, m, terms, {})
    return hom_class(x.n, x.k, dict(zip(basis, coords)))


def rep_matrix(sigma: Permutation, n: int, k: int, m: int,
               cache=None) -> list[list[int]]:
    """Matrix of the action over the standard basis; columns are images."""
    _check_grading(n, k, m)
    if cache is not None:
        hit = cache.load(sigma, n, k, m)
        if hit is not None:
            return hit
    columns = _solver(n, k, m)[2]
    moved: dict[int, int] = {}
    cols = [_image_coords(sigma, n, k, m, ((1, column),), moved) for column in columns]
    matrix = [list(row) for row in zip(*cols)]
    if cache is not None:
        cache.store(sigma, n, k, m, matrix)
    return matrix


# --- line-diagram route ---------------------------------------------------------

def line_diagram_terms(M: DottedMatching) -> dict[frozenset[int], int]:
    """Integer terms of the pole-flip image of M (see ``line_diagram_expand``)."""
    return _pair_terms([(i, j) if i % 2 == 0 else (j, i) for i, j in M.undotted])


def line_diagram_expand(M: DottedMatching) -> TabloidVector:
    """Pole-flip image of a dotted matching in the ambient sphere power.

    Every undotted arc contributes [free at even endpoint] - [free at odd
    endpoint]; dotted arcs and rays pin their positions.
    The result is a tabloid vector keyed by the sets of free positions.
    """
    return tabloid_vector(M.n, M.m, line_diagram_terms(M))


def act_via_gamma(sigma: Permutation, x: HomClass | DottedMatching) -> HomClass:
    """The action computed through the ambient coordinate permutation.

    Every term is expanded by ``line_diagram_terms`` and moved by sigma.
    The pole-flip columns are the matching columns times
    s = (-1)^(m*(n mod 2)), so the moved image times s is solved against
    the shared matching factor and no pole-flip solver is built.
    """
    if isinstance(x, DottedMatching):
        x = HomClass.of(x)
    if x.is_zero:
        return x
    m = x.grading
    basis, index, _, _, _ = _solver(x.n, x.k, m)
    s = (-1) ** (m * (x.n % 2))
    terms = ((s * c, _column(index, line_diagram_terms(M))) for M, c in x.terms)
    coords = _image_coords(sigma, x.n, x.k, m, terms, {})
    return hom_class(x.n, x.k, dict(zip(basis, coords)))


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

SINGLE_TERM_CASES = (1, 5, 6)
TWO_TERM_CASES = (3, 4, 7)


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

    def __init__(self, case: int, matching: DottedMatching, position: int, output: HomClass):
        self.case = case
        self.matching = matching
        self.position = position
        self.output = output


class Chart(Record):
    __slots__ = _fields = ("n", "k", "rows", "anchor_failures")

    def __init__(self, n: int, k: int, rows: list[ChartRow] | None = None,
                 anchor_failures: list[str] | None = None):
        self.n = n
        self.k = k
        self.rows = [] if rows is None else rows
        self.anchor_failures = [] if anchor_failures is None else anchor_failures

    @property
    def ok(self) -> bool:
        return not self.anchor_failures

    def cases_present(self) -> set[int]:
        return {r.case for r in self.rows}


def derive_chart(n: int, k: int) -> Chart:
    """Machine-computed action chart with the readable anchors asserted.

    Anchors: the undotted-cap case returns minus the input; the
    dotted/dotted, ray/ray and ray-dotted cases return a single term; the
    mixed-arc, undotted-arc-pair and ray-undotted cases return two terms.
    """
    check_type(n, k)
    chart = Chart(n, k)
    for m in range(k + 1):
        for M in standard_dotted_matchings(n, k, m):
            for i in range(1, n):
                case = classify_case(M, i)
                out = act(adjacent(n, i), HomClass.of(M))
                chart.rows.append(ChartRow(case, M, i, out))
                terms = len(out.terms)
                if case == 2:
                    if out != HomClass.of(M, -1):
                        chart.anchor_failures.append(
                            f"case 2 at {M}, i={i}: expected -input, got {out}"
                        )
                elif case in SINGLE_TERM_CASES:
                    if terms != 1:
                        chart.anchor_failures.append(
                            f"case {case} at {M}, i={i}: expected one term, got {out}"
                        )
                elif case in TWO_TERM_CASES:
                    if terms != 2:
                        chart.anchor_failures.append(
                            f"case {case} at {M}, i={i}: expected two terms, got {out}"
                        )
    return chart


# --- character verification ---------------------------------------------------------

class CharacterReport(Record):
    __slots__ = _fields = ("n", "k", "rows", "coxeter_ok", "failures")

    def __init__(self, n: int, k: int,
                 rows: list[tuple[int, tuple[int, ...], int, int]] | None = None,
                 coxeter_ok: bool = True, failures: list[str] | None = None):
        self.n = n
        self.k = k
        self.rows = [] if rows is None else rows
        self.coxeter_ok = coxeter_ok
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return self.coxeter_ok and not self.failures


def _sparse_columns(mat: list[list[int]]) -> list[dict[int, int]]:
    """The columns of a square integer matrix as sparse ``{row: value}`` dicts."""
    cols: list[dict[int, int]] = [{} for _ in mat]
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                cols[j][i] = v
    return cols


def _word_is_identity(word: tuple[list[dict[int, int]], ...]) -> bool:
    """Whether the product of sparse-column matrices in ``word`` is the identity.

    Applies the word to each unit vector e_j, rightmost factor first, and
    compares the result with e_j; stops at the first column that differs.
    A one-term vector c * e_t goes through a letter as its column t, read
    as it is when c is 1.
    """
    for j in range(len(word[0])):
        v = {j: 1}
        for g in reversed(word):
            if len(v) == 1:
                (t, x), = v.items()
                v = g[t] if x == 1 else {i: x * y for i, y in g[t].items()}
                continue
            out: dict[int, int] = {}
            for t, x in v.items():
                for i, y in g[t].items():
                    out[i] = out.get(i, 0) + x * y
            v = {i: x for i, x in out.items() if x}
        if v != {j: 1}:
            return False
    return True


def _factor_trace(sigma: Permutation, n: int, k: int, m: int) -> int:
    """The trace of ``rep_matrix(sigma, n, k, m)``, read off the shared factor.

    Row p of the moved vector is the entry of row index[sigma^-1(keys[p])],
    so ``ColumnSolver.trace`` sums the dual basis there with no solve.
    Valid only once the span is known to be S_n-stable.
    """
    _, index, _, _, solver = _solver(n, k, m)
    keys = tabloid_keys(n, m)
    inverse = [0] * (n + 1)
    for i, image in enumerate(sigma.images, start=1):
        inverse[image] = i
    return solver.trace(lambda p: index[frozenset(inverse[v] for v in keys[p])])


def character_table_check(n: int, k: int) -> CharacterReport:
    """Traces against the two-row irreducible characters, plus Coxeter laws.

    In each grading the generator matrices are solved and certified
    first, through ``rep_matrix``; the class traces are then read off the
    factor by ``_factor_trace``.  Rows and failures keep the order
    traces, then relations, grading by grading.
    """
    check_type(n, k)
    report = CharacterReport(n, k)
    for m in range(k + 1):
        gens = [_sparse_columns(rep_matrix(adjacent(n, i), n, k, m)) for i in range(1, n)]
        for mu in partitions(n):
            trace = _factor_trace(class_representative(mu, n), n, k, m)
            expected = irr_character((n - m, m), mu)
            report.rows.append((m, mu, trace, expected))
            if trace != expected:
                report.failures.append(
                    f"m={m}, class {mu}: trace {trace} != character {expected}"
                )
        for i, g in enumerate(gens, start=1):
            if not _word_is_identity((g, g)):
                report.coxeter_ok = False
                report.failures.append(f"m={m}: s{i}^2 != 1")
        for i in range(1, n - 1):
            if not _word_is_identity((gens[i - 1], gens[i]) * 3):
                report.coxeter_ok = False
                report.failures.append(f"m={m}: (s{i} s{i + 1})^3 != 1")
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                if not _word_is_identity((gens[i - 1], gens[j - 1]) * 2):
                    report.coxeter_ok = False
                    report.failures.append(f"m={m}: s{i} and s{j} do not commute")
    return report


# --- identity sanity -------------------------------------------------------------

def act_word(word: list[int], x: HomClass) -> HomClass:
    """Apply a word of adjacent transpositions, rightmost letter first."""
    out = x
    for a in reversed(word):
        out = act(adjacent(x.n, a), out)
    return out
