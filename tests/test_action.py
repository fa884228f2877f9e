import random

import pytest

import springer_tworow
from springer_tworow import errors, linalg, tabloids, verify
from springer_tworow.action import (
    CASE_LABELS,
    act,
    act_via_gamma,
    act_word,
    character_table_check,
    classify_case,
    derive_chart,
    line_diagram_expand,
    line_diagram_terms,
    rep_matrix,
)
from springer_tworow.homology import HomClass, hom_class
from springer_tworow.matchings import (
    all_dotted_matchings,
    count_matchings,
    parse_matching,
    standard_dotted_matchings,
)
from springer_tworow.permutations import (
    adjacent,
    class_representative,
    identity,
    parse_permutation,
    partitions,
)
from springer_tworow.tabloids import irr_character, modules_equal, tabloid_vector

pm = parse_matching


def one(text):
    return HomClass.of(pm(text))


def pair(t1, c1, t2, c2):
    M1, M2 = pm(t1), pm(t2)
    return hom_class(M1.n, M1.k, {M1: c1, M2: c2})


def test_undotted_cap_negates():
    assert act(parse_permutation("(1 2)", 2), one("2: u1-2")) == one("2: u1-2").scale(-1)


def test_trivial_on_bottom_degree():
    x = one("4: d1-2 d3-4")
    for word in ([1], [2], [3], [1, 2, 3]):
        assert act_word(word, x) == x


def test_two_term_example():
    got = act(parse_permutation("(2 3)", 4), one("4: u1-2 u3-4"))
    assert got == pair("4: u1-2 u3-4", 1, "4: u1-4 u2-3", -1)


def test_ray_case_example():
    got = act(parse_permutation("(1 2)", 3), one("3: r1 u2-3"))
    assert got == pair("3: r1 u2-3", 1, "3: u1-2 r3", -1)


def test_identity_matrix():
    mat = rep_matrix(identity(4), 4, 2, 1)
    assert mat == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_s1_matrix_422():
    mat = rep_matrix(adjacent(4, 1), 4, 2, 2)
    assert [row[0] for row in mat] == [-1, 0]
    assert mat[0][0] == -1


def test_action_is_graded_and_respects_words():
    verify.check_action_graded_and_group(5, random.Random(5))


def test_line_diagram_expansion():
    terms = line_diagram_expand(pm("2: u1-2")).as_dict
    assert terms == {frozenset({1}): -1, frozenset({2}): 1}
    terms3 = line_diagram_expand(pm("3: r1 u2-3")).as_dict
    assert terms3 == {frozenset({2}): 1, frozenset({3}): -1}
    point = line_diagram_expand(pm("3: r1 d2-3")).as_dict
    assert point == {frozenset(): 1}


def test_line_diagram_expand_is_the_tabloid_vector_of_its_terms():
    for n in range(1, 7):
        for k in range(0, n // 2 + 1):
            for M in all_dotted_matchings(n, k):
                want = tabloid_vector(M.n, M.m, line_diagram_terms(M))
                assert line_diagram_expand(M) == want, M


def test_pole_flip_terms_are_matching_terms_up_to_a_global_sign():
    # The two orientations differ exactly when n is odd, once per undotted arc.
    assert verify.check_gamma_agreement(10, random.Random(0)) == 5588


def test_one_factor_serves_every_caller(monkeypatch):
    # One matching factor per (n, m), shared by every k >= m; modules_equal
    # adds one polytabloid factor per (n, m).  The character tables read
    # every grading m' <= k, so each of (8, 0) .. (8, 4) is factored once.
    n, m = 8, 2
    factored = []
    original = linalg.ColumnSolver.__init__

    def counting(self, columns):
        factored.append(len(columns))
        original(self, columns)

    springer_tworow.clear_caches()
    monkeypatch.setattr(linalg.ColumnSolver, "__init__", counting)
    sigma = parse_permutation("(1 3 4 7 6 2)(5 8)", n)
    for k in range(m, n // 2 + 1):
        basis = standard_dotted_matchings(n, k, m)
        rep_matrix(sigma, n, k, m)
        act(sigma, HomClass.of(basis[0]) - HomClass.of(basis[-1]))
        act_via_gamma(sigma, basis[1])
        assert modules_equal(n, m, k).equal
        assert character_table_check(n, k).ok
    assert tabloids._factor.cache_info().misses == n // 2 + 1
    assert sorted(factored) == sorted([count_matchings(n, j) for j in range(n // 2 + 1)]
                                      + [count_matchings(n, m)])


def test_classify_cases():
    assert classify_case(pm("4: d1-2 d3-4"), 2) == 1
    assert classify_case(pm("2: d1-2"), 1) == 1
    assert classify_case(pm("2: u1-2"), 1) == 2
    assert classify_case(pm("4: u1-2 d3-4"), 2) == 3
    assert classify_case(pm("4: u1-2 u3-4"), 2) == 4
    assert classify_case(pm("4: r1 r2 d3-4"), 1) == 5
    assert classify_case(pm("3: r1 d2-3"), 1) == 6
    assert classify_case(pm("3: r1 u2-3"), 1) == 7
    assert set(CASE_LABELS) == set(range(1, 8))


def test_chart_anchors():
    seen = set()
    for n in range(2, 6):
        for k in range(0, n // 2 + 1):
            chart = derive_chart(n, k)
            seen |= chart.cases_present()
            for row in chart.rows:
                if row.case in (1, 5, 6):
                    assert row.output == HomClass.of(row.matching)
    assert seen == set(range(1, 8))


def test_character_table_422():
    report = character_table_check(4, 2)
    assert report.ok
    by_class = {mu: trace for m, mu, trace, _ in report.rows if m == 2}
    assert by_class == {
        (1, 1, 1, 1): 2,
        (2, 1, 1): 0,
        (2, 2): 2,
        (3, 1): -1,
        (4,): 0,
    }


def test_traces_match_for_all_classes():
    for n in range(2, 7):
        for k in range(0, n // 2 + 1):
            for m in range(k + 1):
                for mu in partitions(n):
                    sigma = class_representative(mu, n)
                    mat = rep_matrix(sigma, n, k, m)
                    assert sum(mat[i][i] for i in range(len(mat))) == irr_character(
                        (n - m, m), mu
                    )


def test_eta_image_stability():
    # adjacent transpositions fixing the pad stabilize the completion span
    verify.check_image_stability(5, random.Random(0))


def test_act_size_mismatch():
    with pytest.raises(errors.SizeMismatch):
        act(parse_permutation("(1 2)", 3), one("2: u1-2"))
