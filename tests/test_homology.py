import random

import pytest

from springer_tworow import errors, homology, matchings, verify
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
from springer_tworow.matchings import DottedMatching, Matching, all_dotted_matchings, parse_matching

pm = parse_matching


def cls(*pairs):
    first = pm(pairs[0][0])
    return hom_class(first.n, first.k, {pm(t): c for t, c in pairs})


def test_homclass_grading_enforced():
    with pytest.raises(errors.InhomogeneousClass, match=r"^mixed gradings \[1, 2\]$"):
        cls(("4: u1-2 d3-4", 1), ("4: u1-2 u3-4", 1))


def test_grading_refuses_a_mixed_class_built_directly():
    # hom_class refuses mixed gradings before a class exists; a HomClass built
    # by hand reaches the check in the grading itself.
    x = HomClass(4, 2, ((pm("4: u1-2 d3-4"), 1), (pm("4: u1-2 u3-4"), 1)))
    with pytest.raises(errors.InhomogeneousClass, match=r"^mixed gradings \[1, 2\]$"):
        x.grading


def test_a_class_refuses_a_term_of_another_type():
    # the sum once built an n = 4 class holding an n = 5 term, and act met an IndexError
    x, y = HomClass.of(pm("4: d1-2 u3-4")), HomClass.of(pm("5: r1 d2-3 u4-5"))
    with pytest.raises(errors.TypeMismatch,
                       match=r"^term 5: r1 d2-3 u4-5 is not of type \(2,2\) on 4 vertices$"):
        x + y
    with pytest.raises(errors.TypeMismatch, match=r"^term 4: d1-2 u3-4 is not of type \(3,2\) on 5"):
        y + x


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


def test_reduce_refuses_an_unknown_method_before_any_work(monkeypatch):
    def refuse(x):
        raise AssertionError("a reduction route ran")

    monkeypatch.setattr(homology, "_reduce_linear", refuse)
    monkeypatch.setattr(homology, "reduce_by_rewriting", refuse)
    for x in (HomClass.of(pm("4: u1-4 d2-3")), hom_class(4, 2, {})):
        with pytest.raises(errors.DomainError, match="'Rewrite'; expected 'linear' or 'rewrite'"):
            reduce_class(x, "Rewrite")


@pytest.mark.parametrize("text", [
    "4: u1-4 d2-3",          # type I: a dotted arc under an undotted parent
    "6: r1 d2-5 d3-4 r6",    # type II: a dotted arc under a dotted parent
    "5: d1-2 u3-4 r5",       # type III: a dotted arc left of a ray
])
def test_rewrite_method_alone_equals_the_linear_route(text):
    x = HomClass.of(pm(text))
    rewritten = reduce_class(x, "rewrite")
    assert rewritten == reduce_class(x, "linear") != x
    assert all(N.is_standard for N, _ in rewritten.terms)


def test_a_planted_disagreement_fails_the_checked_reduction(monkeypatch):
    linear = homology._reduce_linear
    monkeypatch.setattr(homology, "_reduce_linear", lambda x: linear(x).scale(-1))
    message = (r"^reduction routes disagree on 1·\(4: u1-4 d2-3\): "
               r"-1·\(4: d1-2 u3-4\) - 1·\(4: u1-2 d3-4\) \+ 1·\(4: d1-4 u2-3\) vs "
               r"1·\(4: d1-2 u3-4\) \+ 1·\(4: u1-2 d3-4\) - 1·\(4: d1-4 u2-3\)$")
    with pytest.raises(errors.InternalCheckError, match=message):
        reduce_class(HomClass.of(pm("4: u1-4 d2-3")), check=True)


def test_reduce_routes_agree():
    verify.check_reduce_agreement(7, random.Random(11))


def test_every_relation_reduces_to_zero_by_both_routes():
    # Rewriting a relation cancels some of its states on the way, so this
    # runs the rewriting route's zero-coefficient skip.
    relations = [x for n in range(1, 8) for k in range(n // 2 + 1)
                 for x in relation_instances(n, k)]
    assert len(relations) == 235
    for x in relations:
        assert reduce_class(x, check=True).is_zero, str(x)
        assert homology.reduce_by_rewriting(x).is_zero, str(x)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_rewrite_is_sound(n):
    # The rule gives a rewrite exactly for the nonstandard states, and that
    # rewrite reduces by the linear route to the class of M.
    for k in range(n // 2 + 1):
        for M in all_dotted_matchings(n, k):
            terms = homology._rewrites(matchings._encode(M))
            assert (terms is None) == M.is_standard, str(M)
            if terms is not None:
                want = reduce_class(HomClass.of(M), "linear")
                assert reduce_class(homology._class(n, k, terms), "linear") == want, (str(M), terms)


def test_rewrite_step_is_the_class_of_the_one_rewrite():
    # Type I/II and type III rewrites: every dotted matching on six points.
    for k in range(4):
        for M in all_dotted_matchings(6, k):
            step = homology.rewrite_step(M)
            if M.is_standard:
                assert step is None, str(M)
                continue
            assert step == homology._class(6, k, homology._rewrites(matchings._encode(M))), str(M)
            assert reduce_class(step, "linear") == reduce_class(HomClass.of(M), "linear"), str(M)


def test_rewriting_builds_dotted_matchings_only_for_the_result(monkeypatch):
    # The rewriting runs on packed states: the one Matching and DottedMatching
    # built per state are those of the reduced class's terms.
    x = HomClass.of(pm("12: d1-12 u2-11 d3-10 u4-9 d5-8 u6-7"))
    built = {Matching: [], DottedMatching: []}
    for record, calls in built.items():
        monkeypatch.setattr(record, "__init__", lambda self, *args, init=record.__init__,
                            calls=calls: calls.append(args) or init(self, *args))
    reduced = homology.reduce_by_rewriting(x)
    monkeypatch.undo()
    terms = [N for N, _ in reduced.terms]
    assert len(terms) > 1 and all(N.is_standard for N in terms)
    assert sorted(built[Matching]) == sorted((N.n, N.base.arcs, N.base.rays) for N in terms)
    assert sorted(built[DottedMatching]) == sorted((N.base, N.dotted) for N in terms)


def test_checked_reduction_builds_no_dotted_matching_once_warm(monkeypatch):
    # The check compares the rewriting's packed states with the encoded linear
    # result, so with the normal forms built it makes no Matching or DottedMatching.
    x = HomClass.of(pm("12: d1-12 u2-11 d3-10 u4-9 d5-8 u6-7"))
    want = reduce_class(x, check=True)
    built = []
    for record in (Matching, DottedMatching):
        monkeypatch.setattr(record, "__init__", lambda self, *args, init=record.__init__:
                            built.append(args) or init(self, *args))
    assert reduce_class(x, check=True) == want
    assert built == []


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
    # (4: u1-2 u3-4) -> (4: u1-4 u2-3) glues one circle, index 0
    with pytest.raises(errors.DomainError, match=r"^free circle indices \[1, 3\] out of range$"):
        pushforward_inclusion(a, b, {0, 1, 3})


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
    # the order-independence check sees four distinct listings, none of them the node order
    rows = list(homology._relation_rows(7, 3, 1))
    listings = dict(verify._listings(7, 3, 3, rows, random.Random(0))).values()
    assert len({tuple(map(id, listing)) for listing in [rows, *listings]}) == 5


def test_reduction_data_keeps_one_entry_per_shape():
    homology._reduction_data.cache_clear()
    M = next(M for M in all_dotted_matchings(7, 3, 1) if not M.is_standard)
    assert reduce_class(HomClass.of(M)) != HomClass.of(M)
    homology._reduction_data(7, 3, 1)
    assert homology._reduction_data.cache_info().currsize == 1
    shapes = [(n, k, m) for n in range(1, 8) for k in range(n // 2 + 1) for m in range(k + 1)]
    for shape in shapes:
        homology._reduction_data(*shape)
    assert homology._reduction_data.cache_info().currsize == len(shapes)


@pytest.mark.parametrize("change", [lambda basis: basis[::-1], lambda basis: basis[:-1],
                                    lambda basis: basis[:1] + basis[:-1]],
                         ids=["reversed", "short", "repeated"])
def test_reduction_data_refuses_a_standard_basis_off_the_form_free_columns(monkeypatch, change):
    real = homology.standard_dotted_matchings
    monkeypatch.setattr(homology, "standard_dotted_matchings",
                        lambda n, k, m: change(real(n, k, m)))
    with pytest.raises(errors.InternalCheckError, match=r"\(n, k, m\) = \(7, 3, 1\)"):
        homology._reduction_data.__wrapped__(7, 3, 1)


def test_presentation_betti_takes_no_row_order():
    with pytest.raises(TypeError):
        presentation_betti(6, 3, linear_order(6, 3)[:2])


def test_format_class():
    x = cls(("4: u1-2 d3-4", 1), ("4: d1-2 u3-4", -2))
    assert format_class(x) == "-2·(4: d1-2 u3-4) + 1·(4: u1-2 d3-4)"
    assert format_class(hom_class(4, 2, {})) == "0"


def test_a_rewritten_state_that_does_not_decode_is_refused(monkeypatch):
    # Two rays with no dot: every ray of a packed state carries exactly one.
    monkeypatch.setattr(homology, "_rewrites", lambda state: [((8, 8), 1)])
    with pytest.raises(errors.InternalCheckError,
                       match=r"^rewritten state \(8, 8\): ray 1 carries 0 dots, not 1$"):
        homology.rewrite_step(parse_matching("2: u1-2"))
