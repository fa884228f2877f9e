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

Each relation is a row of the difference-of-inclusions map ψ₋: type I
is the row of a nesting arrow whose moved circle is free, type II the
same row with that circle pinned, and type III the row of a ray arrow,
whose line is always pinned.  So :func:`_relation_rows` is the one list
of presentation rows, read by the reduction, by the cokernel ranks and
by :func:`psi_minus_rows`.  Reduction to the standard basis is
implemented twice, and the two must agree: by the normal forms of those
rows, and by a terminating rewriting system that shares nothing with
them.  The rewriting runs on packed states, the ``matchings._encode``
tuples with one ``partner << 2 | dots`` int per vertex, and decodes a
dotted matching only for each term of its result; the checked reduction
compares the two routes on those states.  The rows are sparse
``{column: int}`` rows for :mod:`linalg`, built with integer arithmetic
only.  Columns are numbered by ``matchings._column_numbers``, the one
column order, and the dots of each arrow are bit masks of arc positions,
read off the arrow-move table that ``diagrams.arrow_graph`` builds once
per type; no overlay is glued and no dotted matching is built per term.
The reduction takes its pivots, the nonstandard columns, off each base's
``dottable`` mask, builds no nonstandard dotted matching, and checks that
the standard basis, which ``standard_dotted_matchings`` lists off the same
masks, sits on exactly the other columns.  :func:`relation_instances`
and :func:`psi_minus_rows` map the columns back through
``all_dotted_matchings``; :func:`pushforward_inclusion` glues with
``diagrams.glue``, the reference of the ``homology.psi-rows`` invariant,
which holds every row to the difference of its two glued pushforwards.
:mod:`diagrams` loads on first use.
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterator, Sequence
from functools import lru_cache

from . import linalg
from .errors import (DomainError, InhomogeneousClass, InternalCheckError, MatchingError,
                     NotAnArrowPair, TypeMismatch, refuse_past)
from .matchings import (
    COLUMN_CAP,
    DottedMatching,
    Matching,
    _column_count,
    _column_numbers,
    _decode,
    _encode,
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
    gradings = set()
    for M, c in coeffs.items():
        base = M.base
        if base.n != n or len(base.arcs) != k:
            raise TypeMismatch(f"term {M} is not of type ({n - k},{k}) on {n} vertices")
        if c != 0:
            gradings.add(k - len(M.dotted))
    if len(gradings) > 1:
        raise InhomogeneousClass(f"mixed gradings {sorted(gradings)}")
    return HomClass(n, k, tuple(
        (M, c) for M, c in sorted(coeffs.items(), key=lambda t: sort_key(t[0])) if c != 0))


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

def _check_grading(n: int, k: int, m: int | None) -> None:
    """Raise DomainError unless type (n-k, k) exists and m is None or in 0..k."""
    check_type(n, k)
    if m is not None and not 0 <= m <= k:
        raise DomainError(f"grading m={m} outside 0..{k}")


def _check_columns(n: int, k: int, m: int | None = None) -> None:
    """``_check_grading``, then CapExceeded past COLUMN_CAP dotted matchings of grading m."""
    _check_grading(n, k, m)
    refuse_past(_column_count(n, k, m), COLUMN_CAP, "assemble {} dotted-matching columns",
                n, k, m)


def _relation_rows(n: int, k: int, m: int | None = None) -> Iterator[dict[int, int]]:
    """Every local relation as a sparse row over the columns of grading m: the ψ₋ rows.

    Each arrow pair a -> b gives one relation per rule and per set D of
    dots on the s arcs common to a and b; for an entry (b, move, a_bits,
    b_bits) of the arrow-move table, s = ``len(a_bits) - len(move) + 2``
    (a nesting move moves two arcs of a, a ray move one).  A rule of
    excess e has grading s - |D| + e (e = 1 for type I, 0 for types II
    and III), so with m given only |D| = s + e - m is enumerated; only a
    nesting move (len(move) == 4) has a type I rule.  Dots are masks of arc positions
    taken from the arrow-move table, columns are ``_column_numbers``, and
    rows come in node order of a, with their +1 entries in a's block.
    """
    from .diagrams import arrow_graph

    graph = arrow_graph(n, k)
    masks, rank = _column_numbers(k, m)
    start = {a: i * len(masks) for i, a in enumerate(graph.nodes)}
    for a in graph.nodes:
        oa = start[a]
        for b, move, a_bits, b_bits in graph.arrows[a]:
            ob, s = start[b], len(a_bits) - len(move) + 2
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
    return [i * width + r for i, dottable in enumerate([base.dottable for base in bases])
            for r, d in enumerate(masks) if d & ~dottable]


@lru_cache(maxsize=None)
def _reduction_data(n: int, k: int, m: int):
    """(column, forms, standard): the normal forms of the relation rows of grading m.

    ``forms`` is ``linalg.normal_forms`` of :func:`_relation_rows`, with the
    nonstandard columns (masks outside ``dottable``) as pivots; ``column(M)``
    is M's column number, and ``standard`` maps the column of each element
    of ``standard_dotted_matchings(n, k, m)`` to it.  Raises CapExceeded
    past COLUMN_CAP columns, and InternalCheckError, naming (n, k, m), when
    the rows give no normal forms or when the standard basis, in order, is
    not on exactly the columns with no normal form.
    """
    _check_columns(n, k, m)
    bases = enumerate_matchings(n, k)
    masks, rank = _column_numbers(k, m)
    start = {base: i * len(masks) for i, base in enumerate(bases)}
    try:
        forms = linalg.normal_forms(_relation_rows(n, k, m), _nonstandard_columns(bases, masks))
    except InternalCheckError as exc:
        raise InternalCheckError(f"relation rows of (n, k, m) = ({n}, {k}, {m}): {exc}") from exc

    def column(M: DottedMatching) -> int:
        return start[M.base] + rank[M.mask]

    standard = {column(M): M for M in standard_dotted_matchings(n, k, m)}
    if list(standard) != [c for c in range(len(bases) * len(masks)) if c not in forms]:
        raise InternalCheckError(f"standard basis of (n, k, m) = ({n}, {k}, {m}) is not "
                                 "the set of columns with no normal form")
    return column, forms, standard


def reduce_class(x: HomClass, method: str = "linear", check: bool = False) -> HomClass:
    """Coordinates of x over the standard basis of its grading.

    ``method`` is "linear" (the normal forms of the relation rows) or
    "rewrite" (oriented local rewriting); both give the same answer, and
    ``check=True`` runs both and asserts the agreement, comparing the
    rewriting's packed states with the encoded terms of the linear result.
    Any other method raises DomainError.
    """
    if method not in ("linear", "rewrite"):
        raise DomainError(f"unknown reduction method {method!r}; expected 'linear' or 'rewrite'")
    if all(M.is_standard for M, _ in x.terms):  # zero included
        return x
    if check:
        linear, rewritten = _reduce_linear(x), _rewrite_states(x)
        if {_encode(M): c for M, c in linear.terms} != rewritten:
            raise InternalCheckError(f"reduction routes disagree on {x}: {linear} vs "
                                     f"{_class(x.n, x.k, rewritten.items())}")
        return linear
    if method == "rewrite":
        return reduce_by_rewriting(x)
    return _reduce_linear(x)


def _reduce_linear(x: HomClass) -> HomClass:
    """The sum of c * NF(M) over the terms c * M of x."""
    column, forms, standard = _reduction_data(x.n, x.k, x.grading)
    reduced = linalg._image({column(M): c for M, c in x.terms}, forms)
    return hom_class(x.n, x.k, {standard[s]: v for s, v in reduced.items()})


def _rewrites(state: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]] | None:
    """The oriented rewrite of one packed state as (state, coefficient) terms, or None.

    A state is ``matchings._encode`` of a dotted matching: one
    ``partner << 2 | dots`` int per vertex, n for a ray's partner.  One
    left-to-right scan finds the first dotted arc under an open arc, which
    rewrites via Type I/II against its parent, the innermost open arc.
    With no such arc, every dotted arc is unnested, and the same scan has
    paired the rightmost dotted arc with a ray to its right with the
    nearest such ray; they swap via Type III, and being the rightmost, the
    arc has no dotted arc between them.  Each new state rewrites at most
    four entries; None means the state is standard.
    """
    n = len(state)
    depth = 0  # the arcs open at i
    dotted_end = swap = None  # the last dotted arc's right end, and the last (end, ray) pair
    for i, end in enumerate(state):
        j = end >> 2
        if j < i:
            depth -= 1
            if end & 1:
                dotted_end = i
        elif j == n:
            if dotted_end is not None:
                swap, dotted_end = (dotted_end, i), None
        elif end & 1 and depth:
            # the innermost open arc (p, q) is the nearest left end that closes past i
            p = i - 1
            while not i < state[p] >> 2 < n:
                p -= 1
            q = state[p] >> 2
            # the parent (p, q) and the child (i, j) unnest into (p, i) and (j, q)
            new = list(state)
            if state[p] & 1:  # type II
                new[p], new[i], new[j], new[q] = i << 2 | 1, p << 2 | 1, q << 2 | 1, j << 2 | 1
                return [(tuple(new), 1)]
            new[p], new[i], new[j], new[q] = i << 2 | 1, p << 2 | 1, q << 2, j << 2
            left = tuple(new)
            new[p], new[i], new[j], new[q] = i << 2, p << 2, q << 2 | 1, j << 2 | 1
            right = tuple(new)
            new[p], new[i], new[j], new[q] = q << 2 | 1, j << 2, i << 2, p << 2 | 1
            return [(left, 1), (right, 1), (tuple(new), -1)]
        else:
            depth += 1
    if swap is None:
        return None
    # type III: the dotted arc (i, j) and the ray become a ray at i and the dotted arc (j, ray)
    j, ray = swap
    i = state[j] >> 2
    new = list(state)
    new[i], new[j], new[ray] = n << 2 | 1, ray << 2 | 1, j << 2 | 1
    return [(tuple(new), 1)]


def _class(n: int, k: int, terms) -> HomClass:
    """The class of (state, coefficient) terms, with a dotted matching per nonzero term.

    A state that does not decode raises InternalCheckError naming it.
    """
    coeffs = {}
    for state, c in terms:
        if c:
            try:
                coeffs[_decode(state)] = c
            except MatchingError as exc:
                raise InternalCheckError(f"rewritten state {state}: {exc}") from None
    return hom_class(n, k, coeffs)


def rewrite_step(M: DottedMatching) -> HomClass | None:
    """The class of M's one oriented rewrite (:func:`_rewrites`), or None when M is standard."""
    terms = _rewrites(_encode(M))
    return None if terms is None else _class(M.n, M.k, terms)


def _rewrite_states(x: HomClass) -> dict[tuple[int, ...], int]:
    """x reduced by repeated rewrites, as {standard packed state: nonzero coefficient}.

    Each state is rewritten by its one :func:`_rewrites` entry, smallest
    packed tuple first, so the order is fixed; a heap holds each state of
    ``work`` once.
    """
    done: dict[tuple[int, ...], int] = {}
    work = {_encode(M): c for M, c in x.terms}
    heap = sorted(work)  # a sorted list is a heap
    while work:
        state = heapq.heappop(heap)
        c = work.pop(state)
        if c == 0:
            continue
        terms = _rewrites(state)
        if terms is None:
            done[state] = done.get(state, 0) + c
            continue
        for N, cn in terms:
            if N not in work:
                heapq.heappush(heap, N)
            work[N] = work.get(N, 0) + c * cn
    return {state: c for state, c in done.items() if c}


def reduce_by_rewriting(x: HomClass) -> HomClass:
    """Reduce x to the standard basis by repeated rewrites on packed states.

    The states are ``matchings._encode`` tuples (:func:`_rewrite_states`),
    and a dotted matching is decoded only for each term of the result.
    """
    return _class(x.n, x.k, _rewrite_states(x).items())


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
        raise DomainError(f"free circle indices {sorted(bad)} out of range")
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

    Columns are all dotted matchings of grading m, and the rows are the
    local relation rows: each ``{column: int}`` row is the image of one
    basis class of one arrow-pair intersection.  Raises CapExceeded past
    COLUMN_CAP columns.
    """
    _check_columns(n, k, m)
    return list(all_dotted_matchings(n, k, m)), list(_relation_rows(n, k, m))


def presentation_betti(n: int, k: int) -> list[int]:
    """Betti numbers as cokernel ranks of ψ₋, the one place its rows are densified.

    ``perfbench/test_harness.py`` requires the ``linalg.rref`` that ``linalg.rank`` runs
    to receive dense rows here.  Raises CapExceeded past COLUMN_CAP columns.
    """
    _check_columns(n, k)
    out = []
    for m in range(k + 1):
        width = count_matchings(n, k) * math.comb(k, m)
        rows = [linalg._dense(row, width) for row in _relation_rows(n, k, m)]
        out.append(width - linalg.rank(rows))
    return out
