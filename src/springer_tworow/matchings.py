"""Noncrossing matchings with rays and dot decorations.

Conventions used throughout the package:

- Vertices are the 1-indexed positions 1..n on a horizontal baseline.
- A matching of type (n-k, k) has k arcs and n-2k rays.  Arcs are drawn
  above the baseline and may not cross; rays run upward forever, so no
  ray may sit beneath an arc.
- A dot on an arc pins it to a point (a degree-0 factor of the associated
  component); an undotted arc contributes a free two-sphere factor
  (degree 2).  Rays are always pinned and carry no explicit dot.
- A dotted matching is *standard* when no dotted arc is nested beneath
  another arc and every ray sits to the left of every dotted arc.  With
  m undotted arcs it corresponds to a standard two-row tableau of shape
  (n-m, m): the bottom row lists the right endpoints of the undotted arcs.

Text form (the codec): ``"<n>: item item ..."`` where an item is
``u<i>-<j>`` (undotted arc), ``d<i>-<j>`` (dotted arc) or ``r<i>`` (ray);
items are emitted sorted by leftmost vertex.
"""
from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    BadCounts,
    CodecSyntaxError,
    CrossingArcs,
    DomainError,
    DotOnNonArc,
    NoStandardCompletion,
    NotInRestrictableSet,
    NotStandard,
    RayUnderArc,
    ShapeMismatch,
    VertexReuse,
    refuse_past,
)
from .records import Record

Arc = tuple[int, int]


class Matching(Record, frozen=True, order=True):
    """A noncrossing matching of type (n-k, k); immutable and hashable."""

    _fields = ("n", "arcs", "rays")
    __slots__ = _fields + ("_hash",)

    @property
    def k(self) -> int:
        return len(self.arcs)

    def partner(self, v: int) -> int | None:
        """The other endpoint of v's arc, or None if v is a ray."""
        for i, j in self.arcs:
            if v == i:
                return j
            if v == j:
                return i
        return None

    def parent(self, arc: Arc) -> Arc | None:
        """The innermost arc enclosing ``arc``, or None if no arc encloses it.

        Noncrossing arcs that enclose ``arc`` nest, so the innermost is the
        one with the largest left end.
        """
        i, j = arc
        for p, q in reversed(self.arcs):
            if p < i and j < q:
                return p, q
        return None

    @property
    def dottable(self) -> int:
        """Bit mask of the arcs a standard dotted matching may dot (bit p for ``arcs[p]``).

        Those lie under no arc and right of every ray: arcs run by left end
        and no arc encloses a ray, so they reach past the last ray and every
        earlier arc.
        """
        reach, mask = self.rays[-1] if self.rays else 0, 0
        for p, (_, j) in enumerate(self.arcs):
            if j > reach:
                mask |= 1 << p
                reach = j
        return mask

    def __str__(self) -> str:
        return format_matching(DottedMatching(self, ()))


class DottedMatching(Record, frozen=True, order=True):
    """A matching with a subset of its arcs dotted (pinned)."""

    _fields = ("base", "dotted")
    __slots__ = _fields + ("_hash",)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def undotted(self) -> tuple[Arc, ...]:
        if not self.dotted:
            return self.base.arcs
        dotted = set(self.dotted)
        return tuple(a for a in self.base.arcs if a not in dotted)

    @property
    def m(self) -> int:
        """Number of undotted (free) arcs; homological degree is 2m."""
        return self.k - len(self.dotted)

    @property
    def mask(self) -> int:
        """Bit mask of the dotted arcs' positions in ``base.arcs``."""
        return sum(1 << self.base.arcs.index(arc) for arc in self.dotted)

    @property
    def is_standard(self) -> bool:
        """The paper's definition; the standard basis and the homology pivots read ``base.dottable``."""
        for x, y in self.dotted:
            for i, j in self.base.arcs:
                if i < x and y < j:
                    return False
            if any(r > y for r in self.base.rays):
                return False
        return True

    def __str__(self) -> str:
        return format_matching(self)


class StandardTableau(Record, frozen=True, order=True):
    """A standard two-row tableau, rows strictly increasing left to right."""

    _fields = ("top", "bottom")
    __slots__ = _fields + ("_hash",)

    @property
    def n(self) -> int:
        return len(self.top) + len(self.bottom)

    def check(self) -> None:
        n = self.n
        if sorted(self.top + self.bottom) != list(range(1, n + 1)):
            raise ShapeMismatch("rows must partition 1..n")
        if list(self.top) != sorted(self.top) or list(self.bottom) != sorted(self.bottom):
            raise ShapeMismatch("rows must be strictly increasing")
        if len(self.bottom) > len(self.top):
            raise ShapeMismatch("bottom row longer than top row")
        for t, b in zip(self.top, self.bottom):
            if b <= t:
                raise ShapeMismatch("columns must strictly increase downward")


def _partners(n: int, arcs: Iterable[Arc]) -> list[int]:
    """The packed entries of these arcs on 1..n with no dots, for :func:`_check_noncrossing`.

    Entry v is ``partner << 2``: the 0-based other end of vertex v + 1's
    arc, or n for every vertex no arc uses (a ray).
    """
    state = [n << 2] * n
    for i, j in arcs:
        state[i - 1], state[j - 1] = (j - 1) << 2, (i - 1) << 2
    return state


def _check_noncrossing(state: Sequence[int]) -> tuple[tuple[Arc, ...], tuple[int, ...]]:
    """The arcs and rays of a packed state, once its partners are checked to be a matching.

    ``state[v]`` is a packed entry ``partner << 2 | dots`` (:func:`_encode`;
    :func:`_partners` gives the entries with no dots): the partner is the
    0-based other end of vertex v + 1's arc, or ``len(state)`` when v + 1
    is a ray, and lies in 0..len(state).  The scan reads ``entry >> 2``
    and never the dots.  This is the package's one crossing test: a
    single left-to-right stack scan.  A left end opens an arc; a right end
    must close the innermost open arc and be named back by it, else
    CrossingArcs (the two arcs cross) or VertexReuse (partners are not
    symmetric); a ray must sit under no open arc, else RayUnderArc, raised
    only once the scan finds no crossing.  Arcs come back in left-end
    order and rays ascending, as :class:`Matching` holds them.
    """
    n = len(state)
    arcs: list[Arc] = []
    rays: list[int] = []
    stack: list[int] = []
    under = None
    for v, entry in enumerate(state):
        p = entry >> 2
        if p == n:
            if stack and under is None:
                under = v, stack[-1]
            rays.append(v + 1)
        elif v < p:
            stack.append(v)
            arcs.append((v + 1, p + 1))
        elif p == v or state[p] >> 2 != v:
            raise VertexReuse(f"vertex {v + 1} pairs with {p + 1}, which does not pair back")
        else:
            top = stack.pop()  # p opened an arc that only v closes, so it is on the stack
            if top != p:
                raise CrossingArcs(
                    f"arcs ({p + 1},{v + 1}) and ({top + 1},{(state[top] >> 2) + 1}) cross")
    if stack:
        v = stack[-1]
        raise VertexReuse(
            f"vertex {v + 1} pairs with {(state[v] >> 2) + 1}, which does not pair back")
    if under is not None:
        r, i = under
        raise RayUnderArc(f"ray {r + 1} lies beneath arc ({i + 1},{(state[i] >> 2) + 1})")
    return tuple(arcs), tuple(rays)


def _encode(M: DottedMatching) -> tuple[int, ...]:
    """M as a packed state: one ``partner << 2 | dots`` int per vertex, 0-based.

    The partner is the other end of the vertex's arc, or n for a ray; an
    arc carries its dot (0 or 1) at both ends and a ray its one intrinsic
    dot, so a ray is ``n << 2 | 1``.  Equal states are equal matchings,
    and :func:`_decode` inverts this.
    """
    n, dotted = M.base.n, M.dotted
    state = [n << 2 | 1] * n
    for i, j in M.base.arcs:
        dots = (i, j) in dotted
        state[i - 1], state[j - 1] = (j - 1) << 2 | dots, (i - 1) << 2 | dots
    return tuple(state)


def _decode(state: Sequence[int]) -> DottedMatching:
    """The dotted matching of a packed state (:func:`_encode`), once it is checked.

    One scan of the packed entries by ``_check_noncrossing``, which reads
    only their partners, checks that those are symmetric, that each arc
    closes the innermost open arc and that no ray lies under an arc.  The
    two ends of an arc must carry the same dots, at most one, and a ray
    exactly its intrinsic dot, else BadCounts.
    """
    arcs, rays = _check_noncrossing(state)
    dotted = []
    for arc in arcs:
        dots = state[arc[0] - 1] & 3
        if dots != state[arc[1] - 1] & 3:
            raise BadCounts(f"the ends of arc {arc} disagree on its dots")
        if dots >= 2:
            raise BadCounts(f"arc {arc} is doubly dotted")
        if dots:
            dotted.append(arc)
    for r in rays:
        if state[r - 1] & 3 != 1:
            raise BadCounts(f"ray {r} carries {state[r - 1] & 3} dots, not 1")
    return DottedMatching(Matching(len(state), arcs, rays), tuple(dotted))


def validate(n: int, arcs: Iterable[Arc], rays: Iterable[int] = (),
             dotted: Iterable[Arc] = ()) -> DottedMatching:
    """Check raw arc/ray/dot data and return the dotted matching.

    Raises a :class:`~springer_tworow.errors.MatchingError` subclass naming
    the violated invariant.
    """
    if n < 0:
        raise BadCounts(f"vertex count {n} is negative")
    arcs = tuple(sorted(tuple(sorted(a)) for a in arcs))
    rays = tuple(sorted(rays))
    seen: set[int] = set()
    for i, j in arcs:
        if i == j:
            raise VertexReuse(f"arc ({i},{j}) repeats a vertex")
        for v in (i, j):
            if not 1 <= v <= n:
                raise BadCounts(f"vertex {v} outside 1..{n}")
            if v in seen:
                raise VertexReuse(f"vertex {v} used twice")
            seen.add(v)
    for r in rays:
        if not 1 <= r <= n:
            raise BadCounts(f"vertex {r} outside 1..{n}")
        if r in seen:
            raise VertexReuse(f"vertex {r} used twice")
        seen.add(r)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise BadCounts(f"vertices {missing} unused")
    _check_noncrossing(_partners(n, arcs))
    dotted = tuple(sorted({tuple(sorted(a)) for a in dotted}))
    arc_set = set(arcs)
    for d in dotted:
        if d not in arc_set:
            raise DotOnNonArc(f"dot on {d}, which is not an arc")
    return DottedMatching(Matching(n, arcs, rays), dotted)


# --- enumeration -----------------------------------------------------------

def check_type(n: int, k: int) -> None:
    """Raise DomainError unless matchings of type (n-k, k) exist."""
    if n < 0 or k < 0 or 2 * k > n:
        raise DomainError(f"no matchings of type ({n - k},{k}) on {n} vertices")


#: The most matchings :func:`enumerate_matchings` lists: (26, 13) has 742,900, (28, 14) 2,674,440.
ENUMERATE_CAP = 10**6
#: The most tabloid rows, C(n, m) in the largest grading asked for, that the tabloid route
#: (``action``, ``tabloids``) factors: (16, 8) has 12,870, (17, 8) 24,310.
TABLOID_CAP = 2 * 10**4


@lru_cache(maxsize=None)
def enumerate_matchings(n: int, k: int) -> tuple[Matching, ...]:
    """All noncrossing matchings of type (n-k, k), in column order; CapExceeded past the cap.

    Column order sorts by arc list; :func:`_matchings` walks it directly.

    >>> [m.arcs for m in enumerate_matchings(4, 1)]
    [((1, 2),), ((2, 3),), ((3, 4),)]
    >>> len(enumerate_matchings(6, 3))
    5
    """
    refuse_past(count_matchings(n, k), ENUMERATE_CAP, "list {} matchings", n, k)
    return _matchings(n, k, 0)


def _matchings(n: int, k: int, d: int) -> tuple[Matching, ...]:
    """The matchings of type (n-k, k) with at least d ``dottable`` arcs, in column order.

    The first free vertex takes its partner, nearest first, or else becomes
    a ray (under no open arc), so arcs are placed by left end and the arc
    lists come out sorted.  An arc's inside is a full matching, counted in
    the arcs to place when the arc is opened.  At a top-level vertex with
    a arcs and r rays still to place and ``run`` top-level arcs since the
    last ray, an arc (v, j) leaves a' = a - (j - v + 1) / 2 arcs and is
    taken only if a' (r > 0) or run + 1 + a' (r = 0) is at least d, and a
    ray only if a >= d.  Each bound is reached, so no branch dies.
    """
    out: list[Matching] = []
    arcs: list[Arc] = []
    rays: list[int] = []

    def walk(v: int, a: int, r: int, run: int, ends: tuple[int, ...]) -> None:
        # ends: the right ends of the open arcs, innermost last
        while ends and ends[-1] == v:
            v, ends = v + 1, ends[:-1]
        if v > n and run >= d:  # run < d only where n = 0 < d, and then no branch follows
            out.append(Matching(n, tuple(arcs), tuple(rays)))
        elif ends:
            for j in range(v + 1, ends[-1], 2):
                arcs.append((v, j))
                walk(v + 1, a, r, run, ends + (j,))
                arcs.pop()
        else:
            for j in range(v + 1, n + 1, 2):
                left = a - (j - v + 1) // 2
                if left < 0 or (left if r else run + 1 + left) < d:
                    break
                arcs.append((v, j))
                walk(v + 1, left, r, run + 1, (j,))
                arcs.pop()
            if r and a >= d:
                rays.append(v)
                walk(v + 1, a, r - 1, 0, ())
                rays.pop()

    walk(1, k, n - 2 * k, 0, ())
    return tuple(out)


def count_matchings(n: int, k: int) -> int:
    """Closed form for |enumerate_matchings(n, k)|; DomainError where that raises one."""
    check_type(n, k)
    if k == 0:
        return 1
    return math.comb(n, k) - math.comb(n, k - 1)


def check_tabloid_route(n: int, k: int, m: int | None = None) -> None:
    """Raise CapExceeded past ENUMERATE_CAP matchings, then past TABLOID_CAP rows, C(n, m).

    The tabloid route's entry points call this first (m None: all m <= k, at most C(n, k)).
    It lives here, so that a matrix cache hit refuses without loading the tabloid layer.
    """
    refuse_past(count_matchings(n, k), ENUMERATE_CAP, "enumerate {} matchings", n, k)
    refuse_past(math.comb(n, k if m is None else m), TABLOID_CAP, "factor {} tabloid rows", n, k, m)


def _column_numbers(k: int, m: int | None) -> tuple[list[int], dict[int, int]]:
    """(masks, rank): the one column order of the dotted matchings of type (n-k, k), grading m.

    ``masks`` are the masks of dotted arc positions (``DottedMatching.mask``)
    of grading m, in lexicographic order of their position tuples, and
    ``rank`` maps each of them, and no other mask, to its place there.  The
    matching on the i-th base of ``enumerate_matchings(n, k)`` with mask d
    is column ``i * len(masks) + rank[d]``, its position in
    :func:`all_dotted_matchings`.
    """
    sizes = range(k + 1) if m is None else (k - m,) if m <= k else ()
    subsets = sorted(c for r in sizes for c in itertools.combinations(range(k), r))
    masks = [sum(1 << p for p in positions) for positions in subsets]
    return masks, {d: i for i, d in enumerate(masks)}


def _dotted_matchings(n: int, k: int, m: int | None) -> tuple[DottedMatching, ...]:
    """The bases in order, each with its masks in rank order."""
    masks, _ = _column_numbers(k, m)
    positions = [tuple(p for p in range(k) if d >> p & 1) for d in masks]
    return tuple(DottedMatching(base, tuple(map(base.arcs.__getitem__, ps)))
                 for base in enumerate_matchings(n, k) for ps in positions)


#: The most dotted matchings, of the gradings asked for, that :func:`all_dotted_matchings`
#: lists and the homology layer assembles columns over: (14, 6) has 64,064, (15, 7) 183,040.
COLUMN_CAP = 10**5


def _column_count(n: int, k: int, m: int | None) -> int:
    """len(all_dotted_matchings(n, k, m)): 2**k dot sets per base, or C(k, m) of grading m."""
    return count_matchings(n, k) * (2**k if m is None else math.comb(k, m) if m >= 0 else 0)


def all_dotted_matchings(n: int, k: int, m: int | None = None) -> tuple[DottedMatching, ...]:
    """Every dotted matching of type (n-k, k), optionally of grading m, in column order.

    Raises CapExceeded past COLUMN_CAP of them, before listing any.
    """
    refuse_past(_column_count(n, k, m), COLUMN_CAP, "list {} dotted matchings", n, k, m)
    return _dotted_matchings(n, k, m)


@lru_cache(maxsize=None)
def standard_dotted_matchings(n: int, k: int, m: int | None = None) -> tuple[DottedMatching, ...]:
    """Every standard dotted matching of type (n-k, k); optionally fixed grading m.

    A dotted matching is standard when its dot mask lies inside its base's
    ``dottable`` mask, so grading m lists the bases with at least k - m
    dottable arcs (:func:`_matchings`), each with the masks of
    ``_column_numbers(k, m)`` inside its ``dottable``.  That is column
    order, the ``is_standard`` filter of :func:`all_dotted_matchings` (the
    ``matching.standard-enumeration`` verify invariant).  Raises
    CapExceeded past ``ENUMERATE_CAP`` matchings of type (n-k, k), before
    listing any.
    """
    refuse_past(count_matchings(n, k), ENUMERATE_CAP, "list {} matchings", n, k)
    if m is not None and not 0 <= m <= k:
        return ()
    bases = enumerate_matchings(n, k) if m in (None, k) else _matchings(n, k, k - m)
    masks, _ = _column_numbers(k, m)
    positions = [tuple(p for p in range(k) if d >> p & 1) for d in masks]
    return tuple(DottedMatching(base, tuple(map(base.arcs.__getitem__, ps)))
                 for base in bases for dottable in (base.dottable,)
                 for d, ps in zip(masks, positions) if not d & ~dottable)


def sort_key(M: DottedMatching):
    return (M.base.arcs, M.base.rays, M.dotted)


# --- completion and restriction --------------------------------------------

def complete(a: Matching) -> Matching:
    """Turn each ray into an arc anchored at new vertices on the left.

    The t-th ray (left to right) at position i_t becomes the arc
    (n-2k-t+1, i_t+n-2k); existing arcs shift right by n-2k.  The result
    has type (n-k, n-k) on 2(n-k) vertices and no rays.

    >>> complete(Matching(6, ((1, 2), (4, 5)), (3, 6))).arcs
    ((1, 8), (2, 5), (3, 4), (6, 7))
    """
    pad = len(a.rays)
    arcs = [(i + pad, j + pad) for i, j in a.arcs]
    for t, ray in enumerate(sorted(a.rays), start=1):
        arcs.append((pad - t + 1, ray + pad))
    return Matching(a.n + pad, tuple(sorted(arcs)), ())


def restrict(a: Matching, pad: int) -> Matching:
    """Remove the first ``pad`` vertices; cut arcs become rays.

    Inverse to :func:`complete` when ``pad = n - 2k``.  Raises
    :class:`NotInRestrictableSet` if some arc lies inside the prefix.
    """
    if pad < 0 or pad > a.n:
        raise DomainError(f"pad {pad} outside 0..{a.n}")
    arcs: list[Arc] = []
    rays: list[int] = []
    for i, j in a.arcs:
        if j <= pad:
            raise NotInRestrictableSet(f"arc ({i},{j}) inside removable prefix")
        if i <= pad:
            rays.append(j - pad)
        else:
            arcs.append((i - pad, j - pad))
    if a.rays:
        raise NotInRestrictableSet("input already has rays")
    return Matching(a.n - pad, tuple(sorted(arcs)), tuple(sorted(rays)))


def complete_dotted(M: DottedMatching) -> DottedMatching:
    """Completion carrying dot data: arcs born from rays come out dotted."""
    base = complete(M.base)
    pad = len(M.base.rays)
    dotted = {(i + pad, j + pad) for i, j in M.dotted}
    dotted |= {arc for arc in base.arcs if arc[0] <= pad}
    return DottedMatching(base, tuple(sorted(dotted)))


def restrict_dotted(M: DottedMatching, pad: int) -> DottedMatching:
    base = restrict(M.base, pad)
    dotted = []
    for i, j in M.dotted:
        if i > pad:
            dotted.append((i - pad, j - pad))
    return DottedMatching(base, tuple(sorted(dotted)))


# --- tableau bijection ------------------------------------------------------

def tableau_of(M: DottedMatching) -> StandardTableau:
    """Bottom row: right endpoints of undotted arcs; top row: the rest."""
    if not M.is_standard:
        raise NotStandard(f"{M} is not standard")
    bottom = tuple(sorted(j for _, j in M.undotted))
    top = tuple(v for v in range(1, M.n + 1) if v not in bottom)
    T = StandardTableau(top, bottom)
    T.check()
    return T


def matching_of(T: StandardTableau, k: int) -> DottedMatching:
    """Inverse bijection at arc count k: returns a standard dotted matching.

    Undotted arcs are drawn smallest bottom entry first, right endpoint at
    the entry and left endpoint at the nearest free vertex to its left;
    :func:`standard_layout` places the rays and dotted arcs around them.
    """
    T.check()
    n = T.n
    m = len(T.bottom)
    if not m <= k <= n // 2:
        raise ShapeMismatch(f"need {m} <= k <= {n // 2}, got k={k}")
    occupied: set[int] = set()
    undotted: list[Arc] = []
    for b in T.bottom:
        left = max(v for v in range(1, b) if v not in occupied)
        occupied.update((left, b))
        undotted.append((left, b))
    return standard_layout(undotted, n, k)


def standard_layout(undotted_arcs: Iterable[Arc], n: int, k: int) -> DottedMatching:
    """The unique standard dotted matching with these undotted arcs, validated.

    The other vertices, ascending: the first n - 2k are its rays, and the
    rest pair up left to right into dotted arcs.  Raises
    NoStandardCompletion, before any work, unless 0 <= k <= n // 2, and
    when that layout is no matching or not standard.
    """
    if n < 0 or k < 0 or 2 * k > n:
        raise NoStandardCompletion(f"no dotted matching with k={k} arcs on n={n} vertices")
    undotted = tuple(sorted(tuple(sorted(a)) for a in undotted_arcs))
    if len(undotted) > k:
        raise NoStandardCompletion(f"{len(undotted)} undotted arcs exceed k={k}")
    occupied = {v for arc in undotted for v in arc}
    if len(occupied) != 2 * len(undotted):
        raise NoStandardCompletion("undotted arcs share a vertex")
    free = [v for v in range(1, n + 1) if v not in occupied]
    rays, rest = free[:n - 2 * k], free[n - 2 * k:]
    dotted = tuple(zip(rest[::2], rest[1::2]))
    try:
        M = validate(n, undotted + dotted, rays, dotted)
    except Exception as exc:
        raise NoStandardCompletion(str(exc)) from exc
    if not M.is_standard:
        raise NoStandardCompletion(f"no standard completion of {undotted}")
    return M


# --- codec -------------------------------------------------------------------

_TOKEN = re.compile(r"([udr])(\d+)(?:-(\d+))?$")


def parse_matching(text: str) -> DottedMatching:
    """Parse ``"<n>: u1-2 d3-6 r7"`` into a validated dotted matching."""
    head, sep, body = text.partition(":")
    if not sep:
        raise CodecSyntaxError("missing ':' after vertex count", 0)
    try:
        n = int(head.strip())
    except ValueError:
        raise CodecSyntaxError(f"bad vertex count {head.strip()!r}", 0) from None
    arcs: list[Arc] = []
    rays: list[int] = []
    dotted: list[Arc] = []
    offset = len(head) + 1
    pos = 0
    for raw in body.split():
        pos = body.index(raw, pos)
        m = _TOKEN.match(raw)
        if not m:
            raise CodecSyntaxError(f"bad item {raw!r}", offset + pos)
        kind, i_s, j_s = m.groups()
        if kind == "r":
            if j_s is not None:
                raise CodecSyntaxError(f"ray item {raw!r} has two vertices", offset + pos)
            rays.append(int(i_s))
        else:
            if j_s is None:
                raise CodecSyntaxError(f"arc item {raw!r} needs i-j", offset + pos)
            i, j = int(i_s), int(j_s)
            if not i < j:
                raise CodecSyntaxError(f"arc item {raw!r} needs i < j", offset + pos)
            arcs.append((i, j))
            if kind == "d":
                dotted.append((i, j))
        pos += len(raw)
    return validate(n, arcs, rays, dotted)


def format_matching(M: DottedMatching) -> str:
    """Canonical text form; items sorted by leftmost vertex."""
    dotted = set(M.dotted)
    items: list[tuple[int, str]] = []
    for i, j in M.base.arcs:
        items.append((i, f"{'d' if (i, j) in dotted else 'u'}{i}-{j}"))
    for r in M.base.rays:
        items.append((r, f"r{r}"))
    items.sort()
    return f"{M.n}: " + " ".join(s for _, s in items) if items else f"{M.n}:"
