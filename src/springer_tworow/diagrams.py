"""Overlay diagrams and the arrow order on noncrossing matchings.

Gluing a matching ``a`` above the horizontal reflection of ``b`` produces a
1-manifold whose circles and lines control intersections of the associated
components and the distance between matchings.

The arrow relation ``a -> b`` replaces two unnested arcs of ``a`` by the
nested pair on the same four vertices, or shifts a ray one arc to the
right; its reflexive-transitive closure is the partial order used for the
homology presentation.  The nesting scan :func:`_arrow_scan` is the one
definition of an arrow move: one pass per matching finds each arc's
parent and reads every arrow off the nesting directly, so no candidate
matching is built or validated.  ``arrow_graph`` keeps the resulting
move table, with arc positions as bit masks, for the homology rows, and
every arrow query (:func:`arrow_successors`, :func:`arrow_move`,
:func:`is_arrow`) reads that graph; past ``ARROW_GRAPH_CAP`` matchings, the
graph and every query on it raise ``CapExceeded`` before any work.
``verify`` holds the table to an independent generate-and-validate
reference (``diagram.arrow-table``).
"""
from __future__ import annotations

import heapq
import math
import random
from collections import deque
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .errors import (
    CrossingArcs,
    CycleDetected,
    DomainError,
    InternalCheckError,
    NotFound,
    RayUnderArc,
    TypeMismatch,
    refuse_past,
)
from .matchings import (
    Arc,
    Matching,
    _check_noncrossing,
    _partners,
    complete,
    count_matchings,
    enumerate_matchings,
    restrict,
)
from .records import Record


class Component(Record, frozen=True):
    __slots__ = _fields = ("kind", "vertices", "ends", "arcs_above")

    def __init__(self, kind: str, vertices: frozenset[int], ends: tuple[tuple[int, str], ...],
                 arcs_above: tuple[Arc, ...]):
        set_kind, set_vertices, set_ends, set_arcs_above = self._setters
        set_kind(self, kind)                # "circle" | "line"
        set_vertices(self, vertices)
        set_ends(self, ends)                # lines: ((vertex, "up"|"down"), ...)
        set_arcs_above(self, arcs_above)    # arcs of a on this component


class GluedOneManifold(Record, frozen=True):
    __slots__ = _fields = ("a", "b", "components")

    def __init__(self, a: Matching, b: Matching, components: tuple[Component, ...]):
        set_a, set_b, set_components = self._setters
        set_a(self, a)
        set_b(self, b)
        set_components(self, components)

    def __len__(self) -> int:
        return len(self.components)

    @property
    def circles(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.kind == "circle")

    @property
    def lines(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.kind == "line")

    @property
    def vertex_sets(self) -> tuple[frozenset[int], ...]:
        """The collection C_{a,b} of per-component vertex sets."""
        return tuple(c.vertices for c in self.components)

    @property
    def compatible(self) -> bool:
        """True iff every line has one up end and one down end."""
        return all(sorted(d for _, d in line.ends) == ["down", "up"] for line in self.lines)


#: The most matchings (nodes) :func:`arrow_graph` builds on: (20, 10) has 16,796 (2.2 s, 107 MB),
#: (20, 9) 41,990 (5.6 s, 212 MB), for ``springer distance`` and ``order`` on 2 cores, Python 3.11.
ARROW_GRAPH_CAP = 2 * 10**4


def _check_graph_size(n: int, k: int) -> None:
    """Raise CapExceeded for a type with more matchings than ARROW_GRAPH_CAP."""
    refuse_past(count_matchings(n, k), ARROW_GRAPH_CAP,
                "build an arrow graph on {} matchings", n, k)


def _require_same_type(a: Matching, b: Matching) -> None:
    if a.n != b.n or a.k != b.k:
        raise TypeMismatch(
            f"matchings of types ({a.n - a.k},{a.k}) and ({b.n - b.k},{b.k})"
        )


def glue(a: Matching, b: Matching) -> GluedOneManifold:
    """Compute the circles and lines of the overlay of a over reflected b.

    Every vertex has one top connection (arc of a, or an upward ray end)
    and one bottom connection (arc of b, or a downward ray end), so the
    overlay is a disjoint union of paths and circles; component vertex
    sets are the connected components of the union of the two arc sets.
    """
    _require_same_type(a, b)
    parent = list(range(a.n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in a.arcs + b.arcs:
        parent[find(i)] = find(j)
    classes: dict[int, set[int]] = {}
    for v in range(1, a.n + 1):
        classes.setdefault(find(v), set()).add(v)
    components = []
    for vertices in classes.values():
        ends = sorted(
            [(v, "up") for v in a.rays if v in vertices]
            + [(v, "down") for v in b.rays if v in vertices]
        )
        comp = Component(
            kind="line" if ends else "circle",
            vertices=frozenset(vertices),
            ends=tuple(ends),
            arcs_above=tuple(arc for arc in a.arcs if arc[0] in vertices),
        )
        components.append(comp)
    components.sort(key=lambda c: min(c.vertices))
    return GluedOneManifold(a, b, tuple(components))


def compatible(a: Matching, b: Matching) -> bool:
    """True iff every line of the overlay has one up end and one down end."""
    return glue(a, b).compatible


# --- arrow moves -------------------------------------------------------------

def _try_build(n: int, arcs: Iterable[Arc]) -> Matching | None:
    """The matching of these arcs, rays elsewhere; None if arcs cross or a ray lies under one."""
    try:
        arcs, rays = _check_noncrossing(_partners(n, arcs))
    except (CrossingArcs, RayUnderArc):
        return None
    return Matching(n, arcs, rays)


def _code(a: Matching) -> int:
    """Bit i for each left end i and bit n + j for each right end j; it determines a."""
    return sum((1 << i) | (1 << (a.n + j)) for i, j in a.arcs)


def _arrow_scan(a: Matching) -> Iterator[tuple[int, tuple[int, ...], int, int, int]]:
    """(flip, move, x, y, t) of every arrow a -> b, from one nesting scan over 1..n.

    Two arcs (i, j), (p, q) with j < p nest to (i, q), (j, p) when they
    have the same parent arc, or when neither has one and no ray lies
    between j and p.  A top-level arc (j, l) with a ray to its left moves
    with the nearest such ray r to the arc (r, j) and the ray l.  No other
    move keeps the arcs noncrossing and the rays outside every arc.

    ``_code(b) == _code(a) ^ flip``.  x and y are the positions in
    ``a.arcs`` of the arcs that move (x == y for a ray move); in b the new
    arc on a's left end i keeps position x, the other new arc takes
    position t, and the shared arcs at positions t <= u < y move up by one.
    """
    n = a.n
    nest = (1 << n) + 1
    right = dict(a.arcs)
    stack: list[tuple[int, int]] = []       # (left end, position) of each open arc
    siblings: list[list[tuple[int, int, int]]] = [[]]  # closed arcs under each open arc
    ray = ray_t = opened = 0
    for v in range(1, n + 1):
        if v in right:
            stack.append((v, opened))
            siblings.append([])
            opened += 1
        elif stack:  # v closes the innermost open arc
            i, y = stack.pop()
            siblings.pop()
            for p, q, x in siblings[-1]:
                yield ((1 << q) | (1 << i)) * nest, (p, q, i, v), x, y, x + 1 + (q - p) // 2
            siblings[-1].append((i, v, y))
            if ray and not stack:
                yield (1 << i | 1 << ray) | (1 << v | 1 << i) << n, (ray, i, v), y, y, ray_t
        else:  # a ray: top-level arcs on either side of it never nest
            ray, ray_t = v, opened
            siblings[0] = []


def _arrow_table(nodes: tuple[Matching, ...]) -> dict:
    """The arrow-move table of a type's nodes; see :class:`ArrowGraph`."""
    codes = [_code(a) for a in nodes]
    index = {code: i for i, code in enumerate(codes)}
    table = {}
    for a, code in zip(nodes, codes):
        entries = []
        for ib, move, x, y, t in sorted((index[code ^ flip], *rest)
                                        for flip, *rest in _arrow_scan(a)):
            keep = [u for u in range(a.k) if u != x and u != y]
            moved = ((1 << x, 1 << y), (1 << x, 1 << t)) if len(move) == 4 else ((1 << x,), (1 << t,))
            entries.append((nodes[ib], move, tuple(a.arcs[u] for u in keep),
                            tuple(1 << u for u in keep) + moved[0],
                            tuple(1 << (u + (t <= u < y)) for u in keep) + moved[1]))
        table[a] = tuple(entries)
    return table


def arrow_successors(a: Matching) -> tuple[Matching, ...]:
    """All b with a -> b, in node order: unnest->nest on two arcs, or ray shifted right.

    Builds and keeps the whole :func:`arrow_graph` of a's type, Catalan-many
    nodes: one call at (20, 10) takes seconds and about 100 MB, and a type
    past ``ARROW_GRAPH_CAP`` matchings raises CapExceeded before any work.
    """
    return arrow_graph(a.n, a.k).successors[a]


def arrow_move(a: Matching, b: Matching) -> tuple[int, ...] | None:
    """The vertices of the arrow move a -> b; None if a -> b is not one.

    (i, j, k, l) when the unnested arcs (i, j), (k, l) of a become the
    nested (i, l), (j, k) of b; (r, j, k) when the ray r and arc (j, k) of
    a become the arc (r, j) and ray k of b.  Read off a's row of the
    arrow graph's move table, where a b of another type never appears.
    Like :func:`arrow_successors`, it builds and keeps the whole graph of
    a's type, and raises CapExceeded past ``ARROW_GRAPH_CAP`` matchings.
    """
    return next((move for c, move, *_ in arrow_graph(a.n, a.k).arrows[a] if c == b), None)


def is_arrow(a: Matching, b: Matching) -> bool:
    """True iff a -> b is one arrow move; builds (or refuses) a's graph as :func:`arrow_move`."""
    return arrow_move(a, b) is not None


class ArrowGraph(Record, frozen=True):
    """The arrow relation on the matchings of one type.

    ``arrows`` is the arrow-move table that :func:`_arrow_scan` reads off
    each source a: one (b, move, shared, a_bits, b_bits) per successor b,
    in ``successors`` order, where move is (i, j, k, l) or (r, j, k) as
    :func:`arrow_move` returns it.  ``shared`` lists the arcs a and
    b have in common, sorted; ``a_bits`` holds ``1 << p`` for the position
    p in ``a.arcs`` of each shared arc and then of each arc of a that
    moves ((i, j), (k, l) of a nesting move, (j, k) of a ray move), and
    ``b_bits`` the same in ``b.arcs`` for the shared arcs and then (i, l),
    (j, k), or (r, j).  The table is a slot but not a field; a graph built
    from its three fields alone scans its nodes for it.
    """

    _fields = ("nodes", "successors", "predecessors")
    __slots__ = _fields + ("arrows",)

    def __init__(self, nodes: tuple[Matching, ...], successors: dict, predecessors: dict,
                 arrows: dict | None = None):
        set_nodes, set_successors, set_predecessors, set_arrows = self._setters
        set_nodes(self, nodes)
        set_successors(self, successors)
        set_predecessors(self, predecessors)
        set_arrows(self, _arrow_table(nodes) if arrows is None else arrows)


@lru_cache(maxsize=None)
def arrow_graph(n: int, k: int) -> ArrowGraph:
    _check_graph_size(n, k)
    nodes = enumerate_matchings(n, k)
    arrows = _arrow_table(nodes)
    # Successors are the node objects themselves, so dict lookups keyed by
    # them match by identity, without a field-by-field comparison.
    succ = {a: tuple(entry[0] for entry in entries) for a, entries in arrows.items()}
    pred: dict[Matching, list[Matching]] = {a: [] for a in nodes}
    for a in nodes:  # in node order, so each predecessor list is too
        for b in succ[a]:
            pred[b].append(a)
    return ArrowGraph(nodes, succ, {a: tuple(v) for a, v in pred.items()}, arrows)


def linear_order(n: int, k: int, variant: int = 0) -> tuple[Matching, ...]:
    """A linear extension of the arrow order (Kahn's algorithm).

    ``variant`` selects the tie-break among ready nodes: 0 = node order
    (ascending (arcs, rays) key), 1 = reversed, >= 2 = seeded shuffle.
    All variants are valid extensions; downstream results must not depend
    on the choice.  A negative variant raises DomainError.
    """
    _check_graph_size(n, k)
    if variant < 0:
        raise DomainError(f"order variant {variant} is negative; use 0, 1 or a seed >= 2")
    graph = arrow_graph(n, k)
    indeg = {a: len(graph.predecessors[a]) for a in graph.nodes}
    if variant >= 2:
        ranked = list(graph.nodes)
        random.Random(variant).shuffle(ranked)
    else:  # the nodes are sorted by their distinct (arcs, rays) keys
        ranked = graph.nodes[::-1] if variant == 1 else graph.nodes
    rank_of = {a: i for i, a in enumerate(ranked)}
    heap = [(rank_of[a], a) for a in graph.nodes if indeg[a] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, a = heapq.heappop(heap)
        out.append(a)
        for b in graph.successors[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, (rank_of[b], b))
    if len(out) != len(graph.nodes):
        raise CycleDetected("arrow relation is not acyclic")
    return tuple(out)


def _bfs_path(a: Matching, b: Matching, step) -> list[Matching] | None:
    """A shortest path [a, ..., b] along the neighbour function step; None if none."""
    prev = {a: a}
    frontier = deque([a])
    while frontier and b not in prev:
        x = frontier.popleft()
        for y in step(x):
            if y not in prev:
                prev[y] = x
                frontier.append(y)
    if b not in prev:
        return None
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path[::-1]


def reachable(a: Matching, b: Matching) -> bool:
    """True iff a == b or there is an arrow chain a -> ... -> b (a ⪯ b)."""
    _require_same_type(a, b)
    return _bfs_path(a, b, arrow_graph(a.n, a.k).successors.__getitem__) is not None


# --- distance ----------------------------------------------------------------

def _undirected(n: int, k: int):
    """The neighbour function of the arrow graph of type (n, k), both directions."""
    graph = arrow_graph(n, k)
    return lambda x: graph.successors[x] + graph.predecessors[x]


def distance(a: Matching, b: Matching) -> int | float:
    """BFS distance in the undirected arrow graph; math.inf if disconnected.

    For compatible pairs the result is cross-checked against the component
    count formula n - k - |overlay|.
    """
    _check_graph_size(a.n, a.k)
    return _checked_distance(a, b, glue(a, b))


def _checked_distance(a: Matching, b: Matching, glued: GluedOneManifold) -> int | float:
    """``distance(a, b)``, with ``glued = glue(a, b)`` for the cross-check."""
    path = _bfs_path(a, b, _undirected(a.n, a.k))
    d = math.inf if path is None else len(path) - 1
    if glued.compatible:
        formula = a.n - a.k - len(glued)
        if d != formula:
            raise InternalCheckError(
                f"BFS distance {d} != component formula {formula} for {a}, {b}"
            )
    return d


# --- minimal sequences ---------------------------------------------------------

FORWARD = "->"
BACKWARD = "<-"


class MoveSequence(Record, frozen=True):
    __slots__ = _fields = ("steps", "tags", "certified")

    def __init__(self, steps: tuple[Matching, ...], tags: tuple[str, ...], certified: bool):
        set_steps, set_tags, set_certified = self._setters
        set_steps(self, steps)
        set_tags(self, tags)
        set_certified(self, certified)

    def __len__(self) -> int:
        return len(self.tags)


def _tag(x: Matching, y: Matching) -> str:
    if is_arrow(x, y):
        return FORWARD
    if is_arrow(y, x):
        return BACKWARD
    raise InternalCheckError(f"{x} and {y} do not differ by one move")


def _narrowest_leftmost_sequence(a: Matching, b: Matching) -> list[Matching]:
    """Splitting sequence between two ray-free matchings.

    Repeatedly repairs the narrowest leftmost arc of b that is not yet an
    arc of the current matching; every move splits an overlay component.
    """
    steps = [a]
    current = a
    while True:
        unpaired = [arc for arc in b.arcs if arc not in current.arcs]
        if not unpaired:
            return steps
        i, j = min(unpaired, key=lambda arc: (arc[1] - arc[0], arc[0]))
        k2 = current.partner(i)
        l2 = current.partner(j)
        arcs = set(current.arcs)
        arcs -= {tuple(sorted((i, k2))), tuple(sorted((j, l2)))}
        arcs |= {(i, j), tuple(sorted((k2, l2)))}
        nxt = _try_build(current.n, arcs)
        if nxt is None:
            raise InternalCheckError(f"illegal repair move for {current} -> {b}")
        steps.append(nxt)
        current = nxt


def minimal_sequence(a: Matching, b: Matching) -> MoveSequence:
    """A distance-realizing move sequence from a to b.

    Compatible pairs use the constructive splitting algorithm on the
    completions and restrict back; every step then splits one overlay
    component and the result is certified.  Incompatible pairs fall back
    to a BFS shortest path, flagged non-certified.
    """
    _check_graph_size(a.n, a.k)
    _require_same_type(a, b)
    if a == b:
        return MoveSequence((a,), (), True)
    glued = glue(a, b)
    if not glued.compatible:
        path = _bfs_path(a, b, _undirected(a.n, a.k))
        if path is None:
            raise NotFound(f"{a} and {b} are in different components")
        tags = tuple(_tag(x, y) for x, y in zip(path, path[1:]))
        return MoveSequence(tuple(path), tags, False)
    pad = a.n - 2 * a.k
    lifted = _narrowest_leftmost_sequence(complete(a), complete(b))
    steps = tuple(restrict(x, pad) for x in lifted)
    tags = tuple(_tag(x, y) for x, y in zip(steps, steps[1:]))
    d = _checked_distance(a, b, glued)
    if len(tags) != d:
        raise InternalCheckError(f"sequence length {len(tags)} != distance {d}")
    sizes = [len(glued)] + [len(glue(x, b)) for x in steps[1:]]
    if any(x != y - 1 for x, y in zip(sizes, sizes[1:])):
        raise InternalCheckError("step does not split an overlay component")
    return MoveSequence(steps, tags, True)


# --- meet -----------------------------------------------------------------------

def meet(a: Matching, b: Matching) -> Matching:
    """A matching c with a ⪰ c ⪯ b and d(a,b) = d(a,c) + d(c,b).

    Constructive route: walk to arrow-predecessors of the current element
    while that shortens the distance to b; when no predecessor helps, an
    all-forward minimal sequence exists and the current element works.
    Raises InternalCheckError if the element the walk stops at is not a
    meet.
    """
    current = a
    d = distance(current, b)  # refuses a type past the cap, then one unlike a's
    graph = arrow_graph(a.n, a.k)
    while d > 0:
        nxt = next(
            (p for p in graph.predecessors[current] if distance(p, b) == d - 1),
            None,
        )
        if nxt is None:
            break
        current, d = nxt, d - 1
    if not _is_meet(a, b, current):
        raise InternalCheckError(f"the meet walk from {a} towards {b} stopped at {current}, "
                                 "which is not a meet")
    return current


def _is_meet(a: Matching, b: Matching, c: Matching) -> bool:
    return (
        reachable(c, a)
        and reachable(c, b)
        and distance(a, c) + distance(c, b) == distance(a, b)
    )
