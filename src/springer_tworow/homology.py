"""Homology of the two-row space as dotted matchings modulo local relations.

Generators: dotted matchings over all components of a fixed type (n-k, k),
graded by the number m of undotted arcs (degree 2m).  Relations come in
three local families attached to each arrow pair a -> b (a carries the
unnested configuration):

- Type I:   dot on one arc of the unnested pair, summed over both choices,
            equals the same for the nested pair.
- Type II:  both arcs dotted on either side are equal.
- Type III: a dotted arc and the ray it exchanges with under the triple
            move give equal diagrams.

Reduction to the standard basis is implemented twice, by the normal
forms of the relation rows and by a terminating rewriting system, and
the two must agree.  Both the relation rows and the rows of the
difference-of-inclusions map ψ₋ are sparse ``{column: int}`` rows for
:mod:`linalg`, built with integer arithmetic only.  Columns are numbered
by ``matchings._column_numbers``, the one column order, and the dots and
overlay circles of each arrow are bit masks of arc positions, read off
the arrow-move table that ``diagrams.arrow_graph`` builds once per type;
no overlay is glued and no dotted matching is built per term.  The
reduction reads standardness off each base's ``dottable`` mask and builds
only the standard dotted matchings.  :func:`relation_instances` and
:func:`psi_minus_rows` map the columns back through
``all_dotted_matchings``; :func:`pushforward_inclusion` glues with
``diagrams.glue``, the reference of the ``homology.psi-rows`` invariant
for the ψ₋ rows.  :mod:`diagrams` loads on first use.
"""
from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator, Sequence
from functools import lru_cache

from . import linalg
from .errors import (DomainError, InhomogeneousClass, InternalCheckError, NotAnArrowPair,
                     refuse_past)
from .matchings import (
    Arc,
    DottedMatching,
    Matching,
    _column_numbers,
    all_dotted_matchings,
    check_type,
    count_matchings,
    enumerate_matchings,
    format_matching,
    sort_key,
    standard_dotted_matchings,
)
from .records import Record


class HomClass(Record, frozen=True):
    """An integer formal sum of dotted matchings, homogeneous in grading."""

    __slots__ = _fields = ("n", "k", "terms")

    def __init__(self, n: int, k: int, terms: tuple[tuple[DottedMatching, int], ...]):
        set_n, set_k, set_terms = self._setters
        set_n(self, n)
        set_k(self, k)
        set_terms(self, terms)

    @staticmethod
    def of(M: DottedMatching, coeff: int = 1) -> "HomClass":
        return hom_class(M.n, M.k, {M: coeff})

    @property
    def coeffs(self) -> dict[DottedMatching, int]:
        return dict(self.terms)

    @property
    def grading(self) -> int:
        gradings = {M.m for M, _ in self.terms}
        if len(gradings) > 1:
            raise InhomogeneousClass(f"mixed gradings {sorted(gradings)}")
        return gradings.pop() if gradings else 0

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HomClass") -> "HomClass":
        out = self.coeffs
        for M, c in other.terms:
            out[M] = out.get(M, 0) + c
        return hom_class(self.n, self.k, out)

    def __sub__(self, other: "HomClass") -> "HomClass":
        return self + other.scale(-1)

    def __neg__(self) -> "HomClass":
        return self.scale(-1)

    def scale(self, c: int) -> "HomClass":
        return hom_class(self.n, self.k, {M: c * v for M, v in self.terms})

    def __str__(self) -> str:
        return format_class(self)


def hom_class(n: int, k: int, coeffs: dict[DottedMatching, int]) -> HomClass:
    terms = tuple(
        (M, c) for M, c in sorted(coeffs.items(), key=lambda t: sort_key(t[0])) if c != 0
    )
    cls = HomClass(n, k, terms)
    cls.grading  # raises on mixed gradings
    return cls


def format_class(x: HomClass) -> str:
    if x.is_zero:
        return "0"
    parts = []
    for idx, (M, c) in enumerate(x.terms):
        mag = f"{abs(c)}·({format_matching(M)})"
        if idx == 0:
            parts.append(("-" if c < 0 else "") + mag)
        else:
            parts.append(("- " if c < 0 else "+ ") + mag)
    return " ".join(parts)


# --- relation instances -------------------------------------------------------

#: The most dotted-matching columns, of the gradings asked for, that the relation rows and
#: the cokernel are assembled over: (14, 6) has 64,064, (15, 7) 183,040.
COLUMN_CAP = 10**5


def _check_grading(n: int, k: int, m: int | None) -> None:
    """Raise DomainError unless type (n-k, k) exists and m is None or in 0..k."""
    check_type(n, k)
    if m is not None and not 0 <= m <= k:
        raise DomainError(f"grading m={m} outside 0..{k}")


def _check_columns(n: int, k: int, m: int | None = None) -> None:
    """``_check_grading``, then CapExceeded past COLUMN_CAP dotted matchings of grading m."""
    _check_grading(n, k, m)
    width = count_matchings(n, k) * (2**k if m is None else math.comb(k, m))
    refuse_past(width, COLUMN_CAP, "assemble {} dotted-matching columns", n, k, m)


def _relation_rows(n: int, k: int, m: int | None = None) -> Iterator[dict[int, int]]:
    """Every local relation as a sparse row over the columns of grading m.

    Each arrow pair a -> b gives one relation per rule and per set D of
    dots on the s arcs common to a and b.  A rule of excess e has grading
    s - |D| + e (e = 1 for type I, 0 for types II and III), so with m
    given only |D| = s + e - m is enumerated; only a nesting move
    (len(move) == 4) has a type I rule.  Dots are masks of arc positions
    taken from the arrow-move table, columns are ``_column_numbers``, and
    rows come in node order of a, with their +1 entries in a's block.
    """
    from .diagrams import arrow_graph

    graph = arrow_graph(n, k)
    masks, rank = _column_numbers(k, m)
    start = {a: i * len(masks) for i, a in enumerate(graph.nodes)}
    for a in graph.nodes:
        oa = start[a]
        for b, move, shared, a_bits, b_bits in graph.arrows[a]:
            ob, s = start[b], len(shared)
            # the moved arcs: (i, j), (k, l) over (i, l), (j, k), or (j, k) over (r, j)
            x, y, x2, y2 = a_bits[s], b_bits[s], a_bits[-1], b_bits[-1]
            sizes = range(s + 1) if m is None else range(
                max(s - m, 0), min(s + len(move) - 3 - m, s) + 1)
            for r in sizes:
                for da, db in zip(itertools.combinations(a_bits[:s], r),
                                  itertools.combinations(b_bits[:s], r)):
                    da, db = sum(da), sum(db)
                    if len(move) == 3:  # type III
                        if m is None or m == s - r:
                            yield {oa + rank[da | x]: 1, ob + rank[db | y]: -1}
                        continue
                    if m is None or m == s - r + 1:  # type I
                        yield {oa + rank[da | x]: 1, oa + rank[da | x2]: 1,
                               ob + rank[db | y]: -1, ob + rank[db | y2]: -1}
                    if m is None or m == s - r:  # type II
                        yield {oa + rank[da | x | x2]: 1, ob + rank[db | y | y2]: -1}


def _dotted(base: Matching, dotted: set[Arc]) -> DottedMatching:
    return DottedMatching(base, tuple(sorted(dotted)))


def relation_instances(n: int, k: int, m: int | None = None) -> list[HomClass]:
    """Every local relation, optionally of grading m only; DomainError for m outside 0..k."""
    _check_columns(n, k, m)
    columns = all_dotted_matchings(n, k, m)
    return [hom_class(n, k, {columns[c]: v for c, v in row.items()})
            for row in _relation_rows(n, k, m)]


# --- reduction to the standard basis -----------------------------------------

def _nonstandard_columns(bases: Sequence[Matching], masks: Sequence[int]) -> list[int]:
    """Column numbers of the nonstandard dotted matchings: a dot mask outside ``dottable``."""
    width = len(masks)
    return [i * width + r for i, base in enumerate(bases)
            for r, d in enumerate(masks) if d & ~base.dottable]


@lru_cache(maxsize=None)
def _reduction_data(n: int, k: int, m: int):
    """(column, forms, standard): the normal forms of the relation rows of grading m.

    ``forms`` is ``linalg.normal_forms`` of :func:`_relation_rows`, with the
    nonstandard columns (masks outside ``dottable``) as pivots; ``column(M)``
    is M's column number, and ``standard`` maps each other column to its
    dotted matching.  Raises CapExceeded past COLUMN_CAP columns, and
    InternalCheckError, naming (n, k, m), when the rows give no normal forms.
    """
    _check_columns(n, k, m)
    bases = enumerate_matchings(n, k)
    masks, rank = _column_numbers(k, m)
    start = {base: i * len(masks) for i, base in enumerate(bases)}
    try:
        forms = linalg.normal_forms(_relation_rows(n, k, m), _nonstandard_columns(bases, masks))
    except InternalCheckError as exc:
        raise InternalCheckError(f"relation rows of (n, k, m) = ({n}, {k}, {m}): {exc}") from exc
    standard = dict(zip((c for c in range(len(bases) * len(masks)) if c not in forms),
                        standard_dotted_matchings(n, k, m)))
    return (lambda M: start[M.base] + rank[M.mask]), forms, standard


def reduce_class(x: HomClass, method: str = "linear", check: bool = False) -> HomClass:
    """Coordinates of x over the standard basis of its grading.

    ``method`` is "linear" (the normal forms of the relation rows) or
    "rewrite" (oriented local rewriting); both give the same answer, and
    ``check=True`` runs both and asserts the agreement.
    """
    if x.is_zero:
        return x
    if check:
        linear = reduce_class(x, "linear")
        rewritten = reduce_class(x, "rewrite")
        if linear != rewritten:
            raise InternalCheckError(
                f"reduction routes disagree on {x}: {linear} vs {rewritten}"
            )
        return linear
    if all(M.is_standard for M, _ in x.terms):
        return x
    if method == "rewrite":
        return reduce_by_rewriting(x)
    return _reduce_linear(x)


def _reduce_linear(x: HomClass) -> HomClass:
    """The sum of c * NF(M) over the terms c * M of x."""
    column, forms, standard = _reduction_data(x.n, x.k, x.grading)
    reduced = linalg._image({column(M): c for M, c in x.terms}, forms)
    return hom_class(x.n, x.k, {standard[s]: v for s, v in reduced.items()})


def _ray_violation(M: DottedMatching) -> tuple[Arc, int] | None:
    """Rightmost dotted arc with a ray to its right, and the nearest ray."""
    best = None
    for x, y in M.dotted:
        rays_right = [r for r in M.base.rays if r > y]
        if rays_right:
            if best is None or x > best[0][0]:
                best = ((x, y), min(rays_right))
    return best


def rewrite_step(M: DottedMatching, rng: random.Random | None = None) -> HomClass | None:
    """One oriented relation application, or None when M is standard.

    Nesting violations rewrite via Type I/II against the immediate parent;
    ray violations shift the ray left over the rightmost dotted arc via
    Type III.  With an rng, a uniformly random applicable safe rewrite is
    chosen instead of the default priority, for confluence testing.
    """
    candidates = []
    dotted = set(M.dotted)
    for child in M.dotted:
        parent = M.base.parent(child)
        if parent is None:
            continue
        i, l = parent
        j, kk = child
        unnested = {(i, j), (kk, l)}
        rest = dotted - {child} - {(i, l)}
        base_arcs = set(M.base.arcs) - {(i, l), (j, kk)} | unnested
        new_base = Matching(M.n, tuple(sorted(base_arcs)), M.base.rays)
        if (i, l) in dotted:
            candidates.append(HomClass.of(_dotted(new_base, rest | unnested)))
        else:
            candidates.append(hom_class(M.n, M.k, {
                _dotted(new_base, rest | {(i, j)}): 1,
                _dotted(new_base, rest | {(kk, l)}): 1,
                _dotted(M.base, rest | {(i, l)}): -1,
            }))
        if rng is None:
            break
    if not candidates or rng is not None:
        viol = _ray_violation(M)
        if viol is not None:
            (x, y), r = viol
            unnested = not any(i < x and y < j for i, j in M.base.arcs)
            gap_clear = not any(y < dx[0] and dx[1] < r for dx in dotted)
            if unnested and gap_clear:
                base_arcs = set(M.base.arcs) - {(x, y)} | {(y, r)}
                rays = set(M.base.rays) - {r} | {x}
                new_base = Matching(M.n, tuple(sorted(base_arcs)), tuple(sorted(rays)))
                candidates.append(HomClass.of(_dotted(new_base, dotted - {(x, y)} | {(y, r)})))
    if not candidates:
        return None
    return candidates[0] if rng is None else rng.choice(candidates)


def reduce_by_rewriting(x: HomClass, rng: random.Random | None = None) -> HomClass:
    """Reduce x to the standard basis by repeated ``rewrite_step``.

    With an rng, terms and rewrites are picked at random (confluence testing).
    """
    done: dict[DottedMatching, int] = {}
    work = x.coeffs
    while work:
        if rng is None:
            M = min(work, key=sort_key)
        else:
            M = rng.choice(sorted(work, key=sort_key))
        c = work.pop(M)
        if c == 0:
            continue
        step = rewrite_step(M, rng)
        if step is None:
            done[M] = done.get(M, 0) + c
            continue
        for N, cn in step.terms:
            work[N] = work.get(N, 0) + c * cn
    return hom_class(x.n, x.k, done)


# --- Betti numbers -------------------------------------------------------------

def betti(n: int, k: int) -> list[int]:
    """Rank of each H_{2m}, m = 0..k, as standard-basis counts, in closed form.

    The standard dotted matchings with m undotted arcs are in bijection
    with the standard tableaux of shape (n-m, m), whose number is
    ``count_matchings(n, m)``.  The ``homology.betti-both-ways`` invariant
    compares these counts with the enumerated standard basis and with the
    cokernel ranks.  Raises DomainError unless matchings of type (n-k, k)
    exist, a negative k included.
    """
    check_type(n, k)
    return [count_matchings(n, m) for m in range(k + 1)]


# --- inclusion pushforward ------------------------------------------------------

def pushforward_inclusion(a: Matching, b: Matching,
                          free_circles: frozenset[int] | set[int]) -> HomClass:
    """Image in H(S_a) of a product class on S_a ∩ S_b, for an arrow pair.

    The class is specified by the set of overlay-circle indices (into
    ``glue(a, b).circles``) carrying the free sphere factor.  A pinned
    circle dots all its arcs from a; a free circle contributes the sum
    over its arcs of (that arc undotted, its circle-mates dotted); lines
    are always pinned.  ``glue(b, a)`` lists the same circles, so the ψ₋
    row of a -> b and F is this class minus ``pushforward_inclusion(b, a, F)``.
    """
    from .diagrams import glue, is_arrow

    if not (is_arrow(b, a) or is_arrow(a, b)):
        raise NotAnArrowPair(f"{a} and {b} are not one arrow move apart")
    circles = glue(a, b).circles
    bad = set(free_circles) - set(range(len(circles)))
    if bad:
        raise InternalCheckError(f"free circle indices {sorted(bad)} out of range")
    groups = [comp.arcs_above for idx, comp in enumerate(circles) if idx in free_circles]
    # Pinned circles and lines keep all their arcs dotted; each free circle
    # undots one chosen arc, and distinct choices give distinct terms.
    return hom_class(a.n, a.k, {
        DottedMatching(a, tuple(arc for arc in a.arcs if arc not in choice)): 1
        for choice in itertools.product(*groups)
    })


# --- presentation via the boundary map ------------------------------------------

def psi_minus_rows(n: int, k: int, m: int) -> tuple[list, list[dict[int, int]]]:
    """(columns, sparse rows) of the degree-2m block of ψ₋; DomainError for m outside 0..k.

    Columns are all dotted matchings of grading m; each ``{column: int}``
    row is the image of one basis class of one arrow-pair intersection.
    Raises CapExceeded past COLUMN_CAP columns.
    """
    _check_columns(n, k, m)
    return list(all_dotted_matchings(n, k, m)), _psi_minus_rows(k, m, _circle_bits(n, k))


def _circle_bits(n: int, k: int) -> list[tuple]:
    """(index of a, index of b, circles) for every arrow a -> b, sources in node order.

    ``circles`` is ``glue(a, b).circles`` as (bits of a's arcs, bits of
    b's arcs) from the arrow-move table, lowest vertex first: each shared
    arc is a circle, a nesting move (i, j, k, l) adds (i, j), (k, l) over
    (i, l), (j, k), and a ray move only a line.
    """
    from .diagrams import arrow_graph

    graph = arrow_graph(n, k)
    index = {a: i for i, a in enumerate(graph.nodes)}
    out = []
    for a in graph.nodes:
        for b, move, shared, a_bits, b_bits in graph.arrows[a]:
            s = len(shared)
            circles = [((x,), (y,)) for x, y in zip(a_bits[:s], b_bits[:s])]
            if len(move) == 4:
                below = sum(1 for x, _ in shared if x < move[0])
                circles.insert(below, (a_bits[s:], b_bits[s:]))
            out.append((index[a], index[b], circles))
    return out


def _psi_minus_rows(k: int, m: int, arrows: list[tuple]) -> list[dict[int, int]]:
    """Sparse {column: int} rows of the degree-2m block, columns numbered by ``_column_numbers``.

    Per arrow a -> b, a term (+1 on a, -1 on b) dots all arcs but one chosen per free circle.
    """
    masks, rank = _column_numbers(k, m)
    width = len(masks)
    full = (1 << k) - 1
    rows = []
    for ia, ib, circles in arrows:
        oa, ob = ia * width, ib * width
        for free in itertools.combinations(circles, m):
            # keys are distinct: a != b, one choice per circle
            row = {oa + rank[full ^ sum(choice)]: 1
                   for choice in itertools.product(*(above for above, _ in free))}
            for choice in itertools.product(*(below for _, below in free)):
                row[ob + rank[full ^ sum(choice)]] = -1
            rows.append(row)
    return rows


def presentation_betti(n: int, k: int) -> list[int]:
    """Betti numbers as cokernel ranks of ψ₋, the one place ψ₋ rows are densified.

    ``perfbench/test_harness.py`` requires the ``linalg.rref`` that ``linalg.rank`` runs
    to receive dense rows here.  Raises CapExceeded past COLUMN_CAP columns.
    """
    _check_columns(n, k)
    arrows = _circle_bits(n, k)
    out = []
    for m in range(k + 1):
        width = count_matchings(n, k) * math.comb(k, m)
        rows = _psi_minus_rows(k, m, arrows)
        out.append(width - linalg.rank([linalg._dense(row, width) for row in rows]))
    return out
