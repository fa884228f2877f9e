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

    def __init__(self, n: int, arcs: tuple[Arc, ...], rays: tuple[int, ...]):
        set_n, set_arcs, set_rays, set_hash = self._setters
        set_n(self, n)
        set_arcs(self, arcs)
        set_rays(self, rays)
        set_hash(self, hash((n, arcs, rays)))

    def __hash__(self) -> int:
        return self._hash

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
        """The innermost arc enclosing ``arc``, or None if no arc encloses it."""
        i, j = arc
        return min(((p, q) for p, q in self.arcs if p < i and j < q),
                   key=lambda a: a[1] - a[0], default=None)

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

    def __init__(self, base: Matching, dotted: tuple[Arc, ...]):
        set_base, set_dotted, set_hash = self._setters
        set_base(self, base)
        set_dotted(self, dotted)
        set_hash(self, hash((base, dotted)))

    def __hash__(self) -> int:
        return self._hash

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
        """The paper's definition; the enumerators read ``base.dottable`` instead."""
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

    def __init__(self, top: tuple[int, ...], bottom: tuple[int, ...]):
        set_top, set_bottom, set_hash = self._setters
        set_top(self, top)
        set_bottom(self, bottom)
        set_hash(self, hash((top, bottom)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.top) + len(self.bottom)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.top), len(self.bottom))

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
    """The partner array of these arcs on 1..n; every other vertex is a ray."""
    partner = [n] * n
    for i, j in arcs:
        partner[i - 1], partner[j - 1] = j - 1, i - 1
    return partner


def _check_noncrossing(partner: Sequence[int]) -> tuple[tuple[Arc, ...], tuple[int, ...]]:
    """The arcs and rays of a partner array, once it is checked to be a matching.

    ``partner[v]`` is the 0-based other end of vertex v + 1's arc, or
    ``len(partner)`` when v + 1 is a ray; entries lie in 0..len(partner).
    This is the package's one crossing test: a single left-to-right stack
    scan.  A left end opens an arc; a right end must close the innermost
    open arc and be named back by it, else CrossingArcs (the two arcs
    cross) or VertexReuse (partners are not symmetric); a ray must sit
    under no open arc, else RayUnderArc, raised only once the scan finds
    no crossing.  Arcs come back in left-end order and rays ascending, as
    :class:`Matching` holds them.
    """
    n = len(partner)
    arcs: list[Arc] = []
    rays: list[int] = []
    stack: list[int] = []
    under = None
    for v, p in enumerate(partner):
        if p == n:
            if stack and under is None:
                under = v, stack[-1]
            rays.append(v + 1)
        elif v < p:
            stack.append(v)
            arcs.append((v + 1, p + 1))
        elif p == v or partner[p] != v:
            raise VertexReuse(f"vertex {v + 1} pairs with {p + 1}, which does not pair back")
        else:
            top = stack.pop()  # p opened an arc that only v closes, so it is on the stack
            if top != p:
                raise CrossingArcs(
                    f"arcs ({p + 1},{v + 1}) and ({top + 1},{partner[top] + 1}) cross")
    if stack:
        v = stack[-1]
        raise VertexReuse(f"vertex {v + 1} pairs with {partner[v] + 1}, which does not pair back")
    if under is not None:
        r, i = under
        raise RayUnderArc(f"ray {r + 1} lies beneath arc ({i + 1},{partner[i] + 1})")
    return tuple(arcs), tuple(rays)


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
    """All noncrossing matchings of type (n-k, k), sorted by arc list; CapExceeded past the cap.

    >>> [m.arcs for m in enumerate_matchings(4, 1)]
    [((1, 2),), ((2, 3),), ((3, 4),)]
    >>> len(enumerate_matchings(6, 3))
    5
    """
    refuse_past(count_matchings(n, k), ENUMERATE_CAP, "list {} matchings", n, k)
    out: list[Matching] = []
    arcs: list[Arc] = []
    stack: list[int] = []
    rays: list[int] = []

    def walk(pos: int) -> None:
        if pos > n:
            if not stack and len(arcs) == k:
                out.append(Matching(n, tuple(sorted(arcs)), tuple(rays)))
            return
        remaining = n - pos + 1
        # close the innermost open arc
        if stack:
            i = stack.pop()
            arcs.append((i, pos))
            walk(pos + 1)
            arcs.pop()
            stack.append(i)
        # open a new arc
        if len(arcs) + len(stack) < k and len(stack) + 1 <= remaining - 1:
            stack.append(pos)
            walk(pos + 1)
            stack.pop()
        # place a ray: only allowed outside every open arc
        if not stack and len(rays) < n - 2 * k:
            rays.append(pos)
            walk(pos + 1)
            rays.pop()

    walk(1)
    return tuple(sorted(out, key=lambda m: (m.arcs, m.rays)))


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


def _column_numbers(k: int, m: int | None) -> tuple[list[int], list]:
    """(masks, rank): the one column order of the dotted matchings of type (n-k, k), grading m.

    ``masks`` are the masks of dotted arc positions (``DottedMatching.mask``)
    of grading m, in lexicographic order of their position tuples, and
    rank[d] is d's place there (None for masks of another size).  The
    matching on the i-th base of ``enumerate_matchings(n, k)`` with mask d
    is column ``i * len(masks) + rank[d]``, its position in
    :func:`all_dotted_matchings`.
    """
    sizes = range(k + 1) if m is None else (k - m,) if m <= k else ()
    subsets = sorted(c for r in sizes for c in itertools.combinations(range(k), r))
    masks = [sum(1 << p for p in positions) for positions in subsets]
    rank = [None] * (1 << k)
    for i, d in enumerate(masks):
        rank[d] = i
    return masks, rank


def _dotted_matchings(n: int, k: int, m: int | None, standard: bool) -> tuple[DottedMatching, ...]:
    """The bases in order, each with its masks in rank order; ``standard`` keeps ``dottable`` ones."""
    bases = enumerate_matchings(n, k)
    masks, _ = _column_numbers(k, m)
    positions = [(d, tuple(p for p in range(k) if d >> p & 1)) for d in masks]
    out = []
    for base in bases:
        dottable = base.dottable if standard else -1
        out += (DottedMatching(base, tuple(map(base.arcs.__getitem__, ps)))
                for d, ps in positions if not d & ~dottable)
    return tuple(out)


def all_dotted_matchings(n: int, k: int, m: int | None = None) -> tuple[DottedMatching, ...]:
    """Every dotted matching of type (n-k, k), optionally of grading m, in column order."""
    return _dotted_matchings(n, k, m, False)


@lru_cache(maxsize=None)
def standard_dotted_matchings(n: int, k: int, m: int | None = None) -> tuple[DottedMatching, ...]:
    """Every standard dotted matching of type (n-k, k); optionally fixed grading m.

    Listed in column order, so this is the same tuple as filtering
    :func:`all_dotted_matchings` by ``is_standard`` (the
    ``matching.standard-enumeration`` verify invariant).
    """
    return _dotted_matchings(n, k, m, True)


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
        left = max((v for v in range(1, b) if v not in occupied), default=None)
        if left is None:
            raise ShapeMismatch(f"no free vertex left of bottom entry {b}")
        occupied.update((left, b))
        undotted.append((left, b))
    return standard_layout(undotted, n, k)


def standard_layout(undotted_arcs: Iterable[Arc], n: int, k: int) -> DottedMatching:
    """The unique standard dotted matching with exactly these undotted arcs."""
    undotted = tuple(sorted(tuple(sorted(a)) for a in undotted_arcs))
    if len(undotted) > k:
        raise NoStandardCompletion(f"{len(undotted)} undotted arcs exceed k={k}")
    occupied = {v for arc in undotted for v in arc}
    if len(occupied) != 2 * len(undotted):
        raise NoStandardCompletion("undotted arcs share a vertex")
    free = [v for v in range(1, n + 1) if v not in occupied]
    rays = tuple(free[: n - 2 * k])
    leftover = free[n - 2 * k:]
    dotted = tuple((leftover[i], leftover[i + 1]) for i in range(0, len(leftover), 2))
    try:
        M = validate(n, undotted + dotted, rays, dotted)
    except Exception as exc:
        raise NoStandardCompletion(str(exc)) from exc
    if not M.is_standard or set(M.undotted) != set(undotted):
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
