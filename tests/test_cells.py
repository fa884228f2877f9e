import math
import random

import pytest

from springer_tworow import errors, verify
from springer_tworow.cells import (
    arc_forest,
    cartesian_cells,
    dotted_matching_of_cell,
    forest_cell_subspace,
    forest_cells,
    subcomplex_cells,
)
from springer_tworow.diagrams import arrow_graph
from springer_tworow.matchings import enumerate_matchings, parse_matching
from springer_tworow.subspaces import subspace_of


def m(text):
    return parse_matching(text).base


def test_forest_nested_pair():
    forest = arc_forest(m("4: u1-4 u2-3"))
    assert forest.roots == ((1, 4),)
    assert forest.edges == (((1, 4), (2, 3)),)


def test_forest_unnested_pair():
    forest = arc_forest(m("4: u1-2 u3-4"))
    assert forest.roots == ((1, 2), (3, 4)) and not forest.edges


def test_forest_shapes_match_nesting():
    # two trees: a nested pair, and a root with two children
    a = m("11: u1-4 u2-3 r5 u6-11 u7-8 u9-10")
    forest = arc_forest(a)
    assert set(forest.roots) == {(1, 4), (6, 11)}
    assert set(forest.edges) == {((1, 4), (2, 3)), ((6, 11), (7, 8)), ((6, 11), (9, 10))}


def test_forest_size_invariant():
    verify.check_cell_counts(8, random.Random(0))
    (a,) = enumerate_matchings(0, 0)
    forest = arc_forest(a)
    assert not forest.edges and not forest.roots
    for cells in (forest_cells(a), cartesian_cells(a)):
        assert [dim for _, dim in cells] == [0]


def test_cell_dimensions():
    cells_k1 = forest_cells(m("2: u1-2"))
    assert sorted(d for _, d in cells_k1) == [0, 2]
    nested = forest_cells(m("4: u1-4 u2-3"))
    assert sorted(d for _, d in nested) == [0, 2, 2, 4]
    unnested = cartesian_cells(m("4: u1-2 u3-4"))
    assert sorted(d for _, d in unnested) == [0, 2, 2, 4]


def test_poincare_polynomial():
    for n in range(0, 9):
        for k in range(0, n // 2 + 1):
            for a in enumerate_matchings(n, k):
                for cells in (forest_cells(a), cartesian_cells(a)):
                    assert len(cells) == 2 ** k
                    by_dim = {}
                    for _, dim in cells:
                        by_dim[dim] = by_dim.get(dim, 0) + 1
                    assert by_dim == {2 * j: math.comb(k, j) for j in range(k + 1)}


def test_cartesian_cells_are_dotted_matchings():
    a = m("4: u1-2 u3-4")
    cells = cartesian_cells(a)
    dms = {dotted_matching_of_cell(a, I) for I, _ in cells}
    assert len(dms) == 4
    for I, dim in cells:
        assert dim == 2 * dotted_matching_of_cell(a, I).m


def test_subcomplex_triple_move():
    b, a = m("4: r1 u2-3 r4"), m("4: u1-2 r3 r4")
    sub = subcomplex_cells(a, b)
    inter = subspace_of(a).intersect(subspace_of(b))
    assert len(sub) == 1
    J, dim = sub[0]
    assert dim == 0
    cell = forest_cell_subspace(a, J)
    assert cell == inter
    assert cell.pin_vector() == (-1, -1, -1, 1)


def test_subcomplex_contained_in_intersection():
    for n in range(2, 8):
        for k in range(1, n // 2 + 1):
            graph = arrow_graph(n, k)
            for b in graph.nodes:
                for a in graph.successors[b]:
                    inter = subspace_of(a).intersect(subspace_of(b))
                    sub = subcomplex_cells(a, b)
                    for J, _ in sub:
                        assert inter.contains(forest_cell_subspace(a, J))
                    minimal = min(sub, key=lambda t: len(t[0]))[0]
                    assert forest_cell_subspace(a, minimal) == inter


def test_not_an_arrow_pair():
    a = m("4: u1-2 u3-4")
    with pytest.raises(errors.NotAnArrowPair):
        subcomplex_cells(a, a)
    with pytest.raises(errors.NotAnArrowPair):
        subcomplex_cells(a, m("4: u1-4 u2-3"))  # wrong direction: b -> a required
