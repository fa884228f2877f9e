import random

import pytest

from springer_tworow import errors, homology, verify
from springer_tworow.diagrams import linear_order
from springer_tworow.homology import (
    HomClass,
    betti,
    format_class,
    hom_class,
    presentation_betti,
    psi_minus_rows,
    pushforward_inclusion,
    reduce_class,
    relation_instances,
)
from springer_tworow.matchings import all_dotted_matchings, parse_matching

pm = parse_matching


def cls(*pairs):
    first = pm(pairs[0][0])
    return hom_class(first.n, first.k, {pm(t): c for t, c in pairs})


def test_homclass_grading_enforced():
    with pytest.raises(errors.InhomogeneousClass):
        cls(("4: u1-2 d3-4", 1), ("4: u1-2 u3-4", 1)).grading


def test_relation_instances_examples():
    rels = {format_class(r) for r in relation_instances(4, 2)}
    type_two = "1·(4: d1-2 d3-4) - 1·(4: d1-4 d2-3)"
    type_one = "1·(4: d1-2 u3-4) + 1·(4: u1-2 d3-4) - 1·(4: d1-4 u2-3) - 1·(4: u1-4 d2-3)"
    assert rels == {type_one, type_two}
    # triple-move relation, smallest case with a ray
    rels31 = {format_class(r) for r in relation_instances(3, 1)}
    assert "-1·(3: d1-2 r3) + 1·(3: r1 d2-3)" in rels31


def test_reduce_examples():
    x = HomClass.of(pm("4: u1-4 d2-3"))
    want = cls(("4: d1-2 u3-4", 1), ("4: u1-2 d3-4", 1), ("4: d1-4 u2-3", -1))
    assert reduce_class(x) == want
    standard = HomClass.of(pm("4: d1-4 u2-3"))
    assert reduce_class(standard) == standard
    assert reduce_class(HomClass.of(pm("3: d1-2 r3"))) == HomClass.of(pm("3: r1 d2-3"))


def test_reduce_routes_agree():
    verify.check_reduce_agreement(7, random.Random(11))


def test_betti_examples():
    assert betti(4, 1) == [1, 3]
    assert betti(4, 2) == [1, 3, 2]
    assert betti(6, 0) == [1]
    assert presentation_betti(4, 1) == [1, 3]
    assert presentation_betti(4, 2) == [1, 3, 2]
    assert presentation_betti(5, 0) == [1]


def test_betti_refuses_impossible_types():
    for n, k in ((3, -1), (0, -1), (4, 3), (-1, 0)):
        with pytest.raises(errors.DomainError, match="no matchings of type"):
            betti(n, k)


def test_psi_minus_rows_refuses_a_grading_outside_0_to_k():
    with pytest.raises(errors.DomainError, match="grading m=-1 outside 0..2"):
        psi_minus_rows(4, 2, -1)


def test_pushforward_examples():
    a, b = pm("4: u1-2 u3-4").base, pm("4: u1-4 u2-3").base
    free = pushforward_inclusion(a, b, {0})
    assert free == cls(("4: u1-2 d3-4", 1), ("4: d1-2 u3-4", 1))
    point = pushforward_inclusion(a, b, set())
    assert point == HomClass.of(pm("4: d1-2 d3-4"))
    # triple move: no circles, point class maps to the all-dotted diagram
    a31, b31 = pm("4: u1-2 r3 r4").base, pm("4: r1 u2-3 r4").base
    assert pushforward_inclusion(a31, b31, set()) == HomClass.of(pm("4: d1-2 r3 r4"))
    with pytest.raises(errors.NotAnArrowPair):
        pushforward_inclusion(a, a, set())


def test_relation_span_equals_boundary_image():
    verify.check_relation_span_matches_boundary(7, random.Random(0))


def test_boundary_rows_peel_alone():
    verify.check_psi_peel(9, random.Random(0))


def test_psi_rows_equal_the_glued_pushforwards():
    verify.check_psi_rows(9, random.Random(0))


def test_closed_form_column_numbers_are_the_enumeration_positions():
    verify.check_column_numbers(10, random.Random(0))


def test_presentation_betti_builds_no_dotted_matching(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dotted matching was built")

    monkeypatch.setattr(homology, "all_dotted_matchings", refuse)
    monkeypatch.setattr(homology, "DottedMatching", refuse)
    assert presentation_betti(9, 4) == betti(9, 4)


def test_presentation_order_independent():
    verify.check_order_independence(7, random.Random(0))
    # the check sees four distinct listings, none of them the node order
    rows = list(homology._relation_rows(7, 3, 1))
    listings = dict(verify._listings(7, 3, 3, rows, random.Random(0))).values()
    assert len({tuple(map(id, listing)) for listing in [rows, *listings]}) == 5


def test_reduction_data_keeps_one_entry_per_shape():
    homology._reduction_data.cache_clear()
    M = next(M for M in all_dotted_matchings(7, 3, 1) if not M.is_standard)
    assert reduce_class(HomClass.of(M)) != HomClass.of(M)
    homology._reduction_data(7, 3, 1)
    assert homology._reduction_data.cache_info().currsize == 1
    verify.check_relation_span_matches_boundary(7, random.Random(0))
    shapes = sum(k + 1 for n in range(1, 8) for k in range(n // 2 + 1))
    assert homology._reduction_data.cache_info().currsize == shapes


def test_presentation_betti_takes_no_row_order():
    with pytest.raises(TypeError):
        presentation_betti(6, 3, linear_order(6, 3)[:2])


def test_format_class():
    x = cls(("4: u1-2 d3-4", 1), ("4: d1-2 u3-4", -2))
    assert format_class(x) == "-2·(4: d1-2 u3-4) + 1·(4: u1-2 d3-4)"
    assert format_class(hom_class(4, 2, {})) == "0"
