import itertools
import math
import random

import pytest

from springer_tworow import diagrams, errors, verify
from springer_tworow.diagrams import (
    arrow_graph,
    arrow_move,
    arrow_successors,
    compatible,
    distance,
    glue,
    is_arrow,
    linear_order,
    meet,
    minimal_sequence,
)
from springer_tworow.matchings import enumerate_matchings, parse_matching


def m(text):
    return parse_matching(text).base


def test_glue_single_line_pair():
    a = m("5: r1 u2-3 u4-5")
    b = m("5: u1-2 u3-4 r5")
    g = glue(a, b)
    assert len(g) == 1
    (comp,) = g.components
    assert comp.kind == "line" and comp.vertices == frozenset(range(1, 6))
    assert comp.ends == ((1, "up"), (5, "down"))
    assert compatible(a, b)


def test_glue_self():
    a = m("5: r1 u2-3 u4-5")
    g = glue(a, a)
    assert len(g.circles) == 2 and [c.ends for c in g.lines] == [((1, "down"), (1, "up"))]
    assert compatible(a, a)


def test_glue_b22_circle():
    g = glue(m("4: u1-2 u3-4"), m("4: u1-4 u2-3"))
    assert len(g) == 1 and g.components[0].kind == "circle"
    assert g.components[0].vertices == frozenset({1, 2, 3, 4})


def test_glue_type_mismatch():
    with pytest.raises(errors.TypeMismatch):
        glue(m("4: u1-2 r3 r4"), m("4: u1-2 u3-4"))


def test_vertex_sets_partition():
    for n in range(1, 8):
        for k in range(0, n // 2 + 1):
            ms = enumerate_matchings(n, k)
            for a in ms[:5]:
                for b in ms[:5]:
                    g = glue(a, b)
                    union = set()
                    for vs in g.vertex_sets:
                        assert not (union & vs)
                        union |= vs
                    assert union == set(range(1, n + 1))
                    assert len(g.lines) == n - 2 * k
                    for c in g.circles:
                        assert len(c.vertices) % 2 == 0


def test_incompatible_example():
    a = m("4: u1-2 r3 r4")
    c = m("4: r1 r2 u3-4")
    assert not compatible(a, c)


def test_arrow_successors_examples():
    c = m("4: r1 r2 u3-4")
    assert arrow_successors(c) == (m("4: r1 u2-3 r4"),)
    assert arrow_successors(m("4: u1-2 u3-4")) == (m("4: u1-4 u2-3"),)
    assert arrow_successors(m("4: u1-2 r3 r4")) == ()


def test_nesting_scan_equals_the_generate_and_validate_reference():
    verify.check_arrow_table(10, random.Random(0))


def test_arrow_move_blocked_by_container():
    # nesting (2,3) with (5,6) would produce (2,6), crossing (1,4); the only
    # legal move nests (1,4)'s pair... i.e. rearranges (1,4) and (5,6)
    a = m("6: u1-4 u2-3 u5-6")
    succs = arrow_successors(a)
    assert succs == (m("6: u1-6 u2-3 u4-5"),)
    for b in succs:
        assert is_arrow(a, b)


def test_arrow_move_classifies_exactly_the_successors():
    # every pair with n <= 8 against the generate-and-validate reference:
    # non-arrows, reversed arrows, a == b and pairs of different types too
    ms = [a for n in range(0, 9) for k in range(0, n // 2 + 1) for a in enumerate_matchings(n, k)]
    same_type = 0
    for a in ms:
        moves = dict(verify._reference_successors(a))
        for b in ms:
            same_type += (a.n, a.k) == (b.n, b.k)
            assert arrow_move(a, b) == moves.get(b), (a, b)
            assert is_arrow(a, b) == (b in moves), (a, b)
    assert same_type == 2056 and len(ms) ** 2 == 21904


def test_linear_order_b31():
    order = [x.arcs for x in linear_order(4, 1)]
    assert order == [((3, 4),), ((2, 3),), ((1, 2),)]
    assert [x.arcs for x in linear_order(4, 2)] == [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    assert len(linear_order(5, 0)) == 1


def test_linear_order_extends_arrows():
    verify.check_linear_extension(8, random.Random(0))


def test_distance_examples():
    assert distance(m("4: u1-2 u3-4"), m("4: u1-4 u2-3")) == 1
    a = m("4: u1-2 r3 r4")
    assert distance(a, a) == 0
    assert distance(a, m("4: r1 r2 u3-4")) == 2


def test_distance_formula_exhaustive(monkeypatch):
    # distance() checks its BFS against n - k - |overlay| on every compatible pair, n <= 8
    bfs = diagrams._bfs_path
    monkeypatch.setattr(diagrams, "_bfs_path",
                        lambda a, b, step: (lambda path: path and [a, *path])(bfs(a, b, step)))
    for n in range(9):
        for k in range(n // 2 + 1):
            ms = enumerate_matchings(n, k)
            for a, b in itertools.product(ms, ms):
                if compatible(a, b):
                    with pytest.raises(errors.InternalCheckError, match="BFS distance"):
                        distance(a, b)


def test_each_overlay_query_glues_each_pair_once(monkeypatch):
    calls = []
    monkeypatch.setattr(diagrams, "glue", lambda a, b: calls.append((a, b)) or glue(a, b))
    a, b = m("4: u1-2 u3-4"), m("4: u1-4 u2-3")
    assert distance(a, b) == 1 and calls == [(a, b)]
    a, b = m("8: u1-2 u3-4 u5-6 u7-8"), m("8: u1-2 u3-8 u4-5 u6-7")
    calls.clear()
    seq = minimal_sequence(a, b)
    assert len(seq) == 2 and calls == [(x, b) for x in seq.steps]


def test_minimal_sequence_examples():
    seq = minimal_sequence(m("4: u1-2 u3-4"), m("4: u1-4 u2-3"))
    assert len(seq) == 1 and seq.certified and seq.tags == ("->",)
    a = m("5: r1 u2-3 u4-5")
    same = minimal_sequence(a, a)
    assert len(same) == 0 and same.certified
    b = m("5: u1-2 u3-4 r5")
    seq2 = minimal_sequence(a, b)
    assert len(seq2) == 2 and seq2.certified


def test_minimal_sequence_incompatible_falls_back():
    a = m("4: u1-2 r3 r4")
    c = m("4: r1 r2 u3-4")
    seq = minimal_sequence(a, c)
    assert not seq.certified
    assert len(seq) == distance(a, c)
    for x, y in zip(seq.steps, seq.steps[1:]):
        assert is_arrow(x, y) or is_arrow(y, x)


def test_minimal_sequences_split_components(component_steps_n8):
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            ms = enumerate_matchings(n, k)
            for a in ms:
                for b in ms:
                    if a != b and compatible(a, b):
                        seq = minimal_sequence(a, b)
                        assert seq.steps[0] == a and seq.steps[-1] == b


def test_component_count_bound(component_steps_n8):
    for n in range(2, 8):
        for k in range(0, n // 2 + 1):
            for a in enumerate_matchings(n, k):
                assert len(glue(a, a)) == n - k


def test_ray_pairing():
    verify.check_ray_pairing(8, random.Random(0))


def test_meet_examples():
    a, b, c = (m("4: u1-2 r3 r4"), m("4: r1 u2-3 r4"), m("4: r1 r2 u3-4"))
    assert meet(a, b) == b        # comparable pair: lower element
    assert meet(a, c) == c        # chain a > b > c
    assert meet(m("4: u1-2 u3-4"), m("4: u1-4 u2-3")) == m("4: u1-2 u3-4")


def test_meet_refuses_a_walk_that_misses(monkeypatch):
    a, b = m("4: u1-2 r3 r4"), m("4: r1 r2 u3-4")
    monkeypatch.setattr(diagrams, "_is_meet", lambda *_: False)
    stop = r"from 4: u1-2 r3 r4 towards 4: r1 r2 u3-4 stopped at 4: r1 r2 u3-4"
    with pytest.raises(errors.InternalCheckError, match=stop):
        meet(a, b)


def test_winding_parity():
    verify.check_winding_parity(8, random.Random(0))


def test_arrow_graph_cached_and_acyclic():
    g1 = arrow_graph(6, 2)
    g2 = arrow_graph(6, 2)
    assert g1 is g2
    assert len(g1.nodes) == math.comb(6, 2) - math.comb(6, 1)
    linear_order(6, 2)  # raises CycleDetected on a cycle


def test_ray_move_can_keep_the_component_count():
    # The move a -> y turns the pair with b incompatible and leaves the
    # overlay count at 2, so the "exactly 1" step holds only on compatible pairs.
    a, y, b = (m("4: r1 u2-3 r4"), m("4: u1-2 r3 r4"), m("4: r1 r2 u3-4"))
    assert y in arrow_graph(4, 1).successors[a]
    assert len(glue(a, b)) == len(glue(y, b)) == 2
    assert compatible(a, b) and not compatible(y, b)
