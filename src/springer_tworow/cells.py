"""Two cell decompositions of a component subspace.

The arc-forest decomposition hangs cells on the nesting forest of the
arcs: one vertex per arc, an edge from each arc to its immediate
enclosing arc (exactly the pairs swappable by a single arrow move), roots
at the outermost arcs.  Choosing a subset J of edges-plus-roots pins one
sphere's worth per element, so the cell has real dimension 2(k - |J|).

The cartesian decomposition simply chooses which arcs are free: a subset
I of arcs gives a cell of dimension 2|I|, and these cells are in bijection
with the dotted matchings over the given matching (dotted = not in I).
"""
from __future__ import annotations

import itertools

from .diagrams import arrow_move
from .errors import NotAnArrowPair
from .matchings import Arc, DottedMatching, Matching
from .records import Record
from .subspaces import SignedPartitionSubspace, from_constraints, subspace_of

ForestElement = tuple  # ("edge", parent_arc, child_arc) | ("root", arc)


class ArcForest(Record, frozen=True):
    """The arc forest of a matching: ``edges`` are (parent, child) arc pairs."""

    __slots__ = _fields = ("matching", "edges", "roots")

    @property
    def elements(self) -> tuple[ForestElement, ...]:
        return tuple(("edge",) + e for e in self.edges) + tuple(
            ("root", r) for r in self.roots
        )


def arc_forest(a: Matching) -> ArcForest:
    """The nesting forest of a's arcs; |edges| + |roots| = k."""
    edges = []
    roots = []
    for arc in a.arcs:
        parent = a.parent(arc)
        if parent is None:
            roots.append(arc)
        else:
            edges.append((parent, arc))
    return ArcForest(a, tuple(sorted(edges)), tuple(sorted(roots)))


def forest_cells(a: Matching) -> list[tuple[frozenset[ForestElement], int]]:
    """All 2^k cells (J, dimension) with dimension 2(k - |J|)."""
    forest = arc_forest(a)
    cells = []
    for r in range(len(forest.elements) + 1):
        for J in itertools.combinations(forest.elements, r):
            cells.append((frozenset(J), 2 * (a.k - len(J))))
    return cells


def forest_cell_subspace(a: Matching, J: frozenset[ForestElement]) -> SignedPartitionSubspace:
    """Constraint system of the closure of c(J): equalities and pins only."""
    space = subspace_of(a)
    rels = []
    pins = []
    for element in J:
        if element[0] == "edge":
            _, (v1, _), (w1, _) = element
            rels.append((v1, w1, 1))
        else:
            _, (v1, _) = element
            pins.append((v1, (-1) ** v1))
    return space.intersect(from_constraints(a.n, rels, pins))


def cartesian_cells(a: Matching) -> list[tuple[frozenset[Arc], int]]:
    """Cells keyed by the subset of free (undotted) arcs; dim = 2|I|."""
    cells = []
    for r in range(a.k + 1):
        for I in itertools.combinations(a.arcs, r):
            cells.append((frozenset(I), 2 * r))
    return cells


def dotted_matching_of_cell(a: Matching, free: frozenset[Arc]) -> DottedMatching:
    return DottedMatching(a, tuple(sorted(set(a.arcs) - free)))


def subcomplex_cells(a: Matching, b: Matching) -> list[tuple[frozenset[ForestElement], int]]:
    """The forest cells of a whose union is the intersection with b's space.

    Requires b -> a.  The move designates one forest element of a (the
    edge between the two rearranged arcs, or the root created next to the
    shifted ray); the subcomplex consists of the cells containing it.
    """
    move = arrow_move(b, a)
    if move is None:
        raise NotAnArrowPair(f"{b} -> {a} is not an arrow move")
    if len(move) == 4:
        i, j, k, l = move
        designated = ("edge", (i, l), (j, k))
    else:
        i, j, _ = move
        designated = ("root", (i, j))
    if designated not in arc_forest(a).elements:
        raise NotAnArrowPair(f"move {move} does not match the forest of {a}")
    return [(J, dim) for J, dim in forest_cells(a) if designated in J]
