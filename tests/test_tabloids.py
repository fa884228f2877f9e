import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import springer_tworow
from springer_tworow import errors, linalg, verify
from springer_tworow.action import line_diagram_expand, line_diagram_terms, rep_matrix
from springer_tworow.homology import HomClass, hom_class
from springer_tworow.matchings import (
    StandardTableau,
    all_dotted_matchings,
    count_matchings,
    parse_matching,
    standard_dotted_matchings,
    tableau_of,
)
from springer_tworow.permutations import (
    Permutation,
    class_representative,
    from_word,
    identity,
    parse_permutation,
    partitions,
    transposition,
)
from springer_tworow.tabloids import (
    f_embed,
    irr_character,
    matching_terms,
    ModuleComparison,
    matching_vector,
    modules_equal,
    permute,
    polytabloid,
    polytabloid_terms,
    tabloid_vector,
    zeta,
)

pm = parse_matching


def tv(n, m, coords):
    return tabloid_vector(n, m, {frozenset(k): v for k, v in coords.items()})


def test_permutation_parsing_and_words():
    s = parse_permutation("(1 2 3)(4 5)", 5)
    assert s.images == (2, 3, 1, 5, 4)
    assert parse_permutation("s1 s2", 3) == parse_permutation("(1 2 3)", 3)
    assert parse_permutation("id", 4) == identity(4)
    with pytest.raises(errors.DomainError):
        parse_permutation("(1 6)", 4)


def test_permutations_refuse_letters_and_cycle_types_of_another_size():
    with pytest.raises(errors.SizeMismatch, match="sizes 3 and 4 differ"):
        identity(3) * identity(4)
    with pytest.raises(errors.DomainError, match=r"transposition \(1 5\) outside 1..4"):
        transposition(4, 1, 5)
    with pytest.raises(errors.DomainError, match=r"\(2, 1\) is not a partition of 4"):
        class_representative((2, 1), 4)


def test_tabloid_operations_refuse_mismatched_sizes():
    with pytest.raises(errors.SizeMismatch, match=r"key \[1, 2\] is not an 1-subset"):
        tv(3, 1, {(1, 2): 1})
    with pytest.raises(errors.SizeMismatch, match="permutation on 4 letters, vector on 3"):
        permute(identity(4), tv(3, 1, {(1,): 1}))
    with pytest.raises(errors.DomainError, match="pad -1 is negative"):
        f_embed(tv(3, 1, {(1,): 1}), -1)
    with pytest.raises(errors.DomainError, match=r"\(2, 1\) and \(2, 2\) partition different"):
        irr_character((2, 1), (2, 2))


@pytest.mark.parametrize("text, entry", [("(1 1)", 1), ("(1 2)(1 2)", 1), ("(1 2)(3 2)", 2)])
def test_parse_permutation_refuses_a_repeated_cycle_entry(text, entry):
    # "(1 1)" once parsed as the identity and "(1 2)(1 2)" as (1 2)
    with pytest.raises(errors.DomainError, match=f"cycle entry {entry} appears twice"):
        parse_permutation(text, 3)


@given(st.permutations(range(1, 7)))
@settings(max_examples=50)
def test_word_roundtrip(images):
    sigma = Permutation(tuple(images))
    assert from_word(sigma.word(), 6) == sigma


def test_permute_examples():
    v = tv(4, 2, {(2, 4): 1})
    assert permute(identity(4), v) == v
    got = permute(parse_permutation("(2 3)", 4), v)
    assert got == tv(4, 2, {(3, 4): 1})


def test_polytabloid_examples():
    e = polytabloid(StandardTableau((1, 3), (2,)))
    assert e == tv(3, 1, {(2,): 1, (1,): -1})
    assert polytabloid(StandardTableau((1, 2, 3), ())) == tv(3, 0, {(): 1})
    e2 = polytabloid(StandardTableau((1, 3), (2, 4)))
    assert e2 == tv(4, 2, {(2, 4): 1, (1, 4): -1, (2, 3): -1, (1, 3): 1})
    with pytest.raises(errors.ShapeMismatch, match="columns must strictly increase"):
        polytabloid(StandardTableau((2, 3), (1,)))


def test_matching_vector_examples():
    # n = 3: the positively oriented endpoint is the odd one
    assert matching_vector(pm("3: u1-2 r3")) == tv(3, 1, {(1,): 1, (2,): -1})
    # n = 2: positive endpoint is the even (right) one: the sign vector
    assert matching_vector(pm("2: u1-2")) == tv(2, 1, {(2,): 1, (1,): -1})
    assert matching_vector(pm("4: r1 r2 d3-4")) == tv(4, 0, {(): 1})
    got = matching_vector(pm("4: u1-4 u2-3"))
    assert got == tv(4, 2, {(2, 4): 1, (3, 4): -1, (1, 2): -1, (1, 3): 1})


def _reference_matching_terms(M):
    oriented = [(i, j) if i % 2 == M.n % 2 else (j, i) for i, j in M.undotted]
    out = {}
    for picks in itertools.product((0, 1), repeat=len(oriented)):
        key = frozenset(mi if p else pl for p, (pl, mi) in zip(picks, oriented))
        out[key] = out.get(key, 0) + (-1) ** sum(picks)
    return out


def _reference_polytabloid_terms(T):
    columns = list(zip(T.top, T.bottom))
    out = {}
    for swaps in itertools.product((False, True), repeat=len(columns)):
        key = frozenset(t if s else b for s, (t, b) in zip(swaps, columns))
        out[key] = out.get(key, 0) + (-1) ** sum(swaps)
    return out


def _reference_line_diagram_terms(M):
    ends = [(i, j) if i % 2 == 0 else (j, i) for i, j in M.undotted]
    out = {}
    for picks in itertools.product((0, 1), repeat=len(ends)):
        key = frozenset(odd if p else even for p, (even, odd) in zip(picks, ends))
        out[key] = out.get(key, 0) + (-1) ** sum(picks)
    return out


def test_term_families_match_their_own_expansion_loops():
    # Each reference expands its family's signed pairs in a loop of its own;
    # the shared expansion must reproduce all three to n = 10.
    for n in range(11):
        for k in range(n // 2 + 1):
            for M in all_dotted_matchings(n, k):
                assert matching_terms(M) == _reference_matching_terms(M), M
                assert line_diagram_terms(M) == _reference_line_diagram_terms(M), M
                if M.is_standard:
                    T = tableau_of(M)
                    assert polytabloid_terms(T) == _reference_polytabloid_terms(T), M


def test_matching_vector_ignores_dots_and_rays():
    assert matching_vector(pm("4: u1-2 d3-4")) == matching_vector(pm("4: u1-2 r3 r4"))


def test_zeta_sign_representation():
    e = zeta(HomClass.of(pm("2: u1-2")))
    swapped = permute(parse_permutation("(1 2)", 2), e)
    assert swapped == e.scale(-1)


def test_f_embed_examples():
    v = tv(7, 2, {(2, 3): 1})
    assert f_embed(v, 1) == tv(8, 2, {(3, 4): 1})
    assert f_embed(tv(4, 0, {(): 1}), 2) == tv(6, 0, {(): 1})


def test_package_vectors_have_int_coordinates():
    def integral(v):
        return all(type(c) is int for c in v.as_dict.values())

    for n in range(1, 7):
        sigma = Permutation(tuple(random.Random(n).sample(range(1, n + 1), n)))
        for k in range(0, n // 2 + 1):
            pad = n - 2 * k
            for m in range(k + 1):
                ms = all_dotted_matchings(n, k, m)
                x = hom_class(n, k, {M: j - 2 for j, M in enumerate(ms)})
                assert integral(zeta(x)), (n, k, m)
                for M in ms:
                    v = matching_vector(M)
                    assert integral(v) and integral(line_diagram_expand(M)), M
                    assert integral(permute(sigma, v)) and integral(f_embed(v, pad)), M
                for M in standard_dotted_matchings(n, k, m):
                    assert integral(polytabloid(tableau_of(M))), M


@pytest.mark.parametrize("m", [-1, 3])
def test_grading_outside_range_is_a_domain_error(m):
    with pytest.raises(errors.DomainError):
        modules_equal(5, m, 2)
    with pytest.raises(errors.DomainError):
        rep_matrix(identity(5), 5, 2, m)


def test_modules_equal_examples():
    result = modules_equal(4, 2, 2)
    basis = standard_dotted_matchings(4, 2, 2)
    tableau_rows = [polytabloid(tableau_of(M)).to_row() for M in basis]
    assert result.equal and linalg.rank(tableau_rows) == 2
    # change-of-basis matrices invert each other exactly
    from fractions import Fraction
    t_in_m, m_in_t = result.tableau_in_matching, result.matching_in_tableau
    size = len(t_in_m)
    product = [
        [sum(t_in_m[i][r] * m_in_t[r][j] for r in range(size)) for j in range(size)]
        for i in range(size)
    ]
    assert product == [
        [Fraction(1) if i == j else Fraction(0) for j in range(size)]
        for i in range(size)
    ]
    # shared vector for even n: interval matching equals its polytabloid
    M = pm("4: u1-2 u3-4")
    assert matching_vector(M) == polytabloid(tableau_of(M))
    M6 = pm("6: u1-2 u3-4 d5-6")
    assert matching_vector(M6) == polytabloid(tableau_of(M6))


def test_characters_examples():
    assert irr_character((2, 2), (1, 1, 1, 1)) == 2
    assert irr_character((2, 2), (2, 2)) == 2
    assert irr_character((2, 2), (3, 1)) == -1
    assert irr_character((4,), (4,)) == 1
    for mu in partitions(5):
        assert irr_character((5,), mu) == 1
    # dimension = number of standard tableaux
    for n in range(1, 9):
        for m in range(0, n // 2 + 1):
            assert irr_character((n - m, m), (1,) * n) == count_matchings(n, m)


def test_integer_rows_agree_with_the_frozenset_reference():
    verify.check_integer_rows(8, random.Random(0))


def test_young_rule_up_to_14():
    verify.check_young_rule(14, random.Random(0))


def test_character_orthogonality_row():
    import math

    n = 5
    shapes = [(5,), (4, 1), (3, 2)]
    sizes = {}
    for mu in partitions(n):
        count = math.factorial(n)
        for part in set(mu):
            count //= part ** mu.count(part) * math.factorial(mu.count(part))
        sizes[mu] = count
    for s1 in shapes:
        for s2 in shapes:
            total = sum(
                sizes[mu] * irr_character(s1, mu) * irr_character(s2, mu)
                for mu in partitions(n)
            )
            assert total == (math.factorial(n) if s1 == s2 else 0)


def test_modules_equal_reports_unequal_spans_when_a_solve_fails(monkeypatch):
    # From cold caches, so the comparison is solved here; the failed one is
    # cleared again, so no later caller reads it.
    def fail(self, b):
        raise errors.SolveFailed("planted")

    springer_tworow.clear_caches()
    monkeypatch.setattr(linalg.ColumnSolver, "solve", fail)
    try:
        assert modules_equal(5, 2, 2) == ModuleComparison(False, None, None)
    finally:
        monkeypatch.undo()
        springer_tworow.clear_caches()
    assert modules_equal(5, 2, 2).equal
