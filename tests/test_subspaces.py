import random

import pytest

from springer_tworow import errors, verify
from springer_tworow.cells import forest_cell_subspace, forest_cells
from springer_tworow.matchings import enumerate_matchings, parse_matching
from springer_tworow.subspaces import (
    SignedPartitionSubspace,
    from_constraints,
    full_space,
    subspace_of,
)


def m(text):
    return parse_matching(text).base


def test_x31_components_and_points():
    a, b, c = (m("4: u1-2 r3 r4"), m("4: r1 u2-3 r4"), m("4: r1 r2 u3-4"))
    Sa, Sb, Sc = subspace_of(a), subspace_of(b), subspace_of(c)
    assert Sa.pin_vector() == (None, None, -1, 1)
    assert Sb.pin_vector() == (-1, None, None, 1)
    assert Sc.pin_vector() == (-1, 1, None, None)
    assert Sa.dimension == Sb.dimension == Sc.dimension == 2
    assert Sa.intersect(Sb).pin_vector() == (-1, -1, -1, 1)
    assert Sb.intersect(Sc).pin_vector() == (-1, 1, 1, 1)
    assert Sa.intersect(Sc).empty


def test_primed_variant():
    a = m("4: u1-2 r3 r4")
    Sp = subspace_of(a, "primed")
    assert Sp.pin_vector() == (None, None, 1, 1)
    rels, _ = Sp.constraints()
    assert rels == [(2, 1, -1)]


def test_unknown_variant_is_refused():
    with pytest.raises(errors.DomainError, match="'Primed'; expected 'plain' or 'primed'"):
        subspace_of(m("4: u1-2 r3 r4"), "Primed")


def test_no_rays_no_pins():
    a = m("4: u1-2 u3-4")
    S = subspace_of(a)
    assert not S.pins and S.free_class_count == 2 and S.dimension == 4


def test_intersection_idempotent_and_dimension():
    for n in range(1, 8):
        for k in range(0, n // 2 + 1):
            for a in enumerate_matchings(n, k):
                S = subspace_of(a)
                assert S.intersect(S) == S
                assert S.dimension == 2 * k


def test_fung_criterion_and_circle_count():
    verify.check_fung_and_circles(8, random.Random(0))


def test_contains():
    a, b, c = (m("4: u1-2 r3 r4"), m("4: r1 u2-3 r4"), m("4: r1 r2 u3-4"))
    Sa, Sb, Sc = subspace_of(a), subspace_of(b), subspace_of(c)
    assert Sa.contains(Sa.intersect(Sb))
    assert full_space(4).contains(Sa)
    assert Sb.contains(Sa.intersect(Sc))      # empty set in anything
    assert not Sa.contains(Sb)


def test_contains_reads_a_hand_built_value_as_its_set():
    # x1 = x2 with slot 2 as representative: not the canonical form of the set
    hand_built = SignedPartitionSubspace(2, ((2, 1), (2, 1)), (), False)
    assert full_space(2).contains(hand_built)
    assert from_constraints(2, [(1, 2, 1)], []).contains(hand_built)
    assert not from_constraints(2, [(1, 2, -1)], []).contains(hand_built)


def test_a_hand_built_value_equals_its_canonical_form():
    # x1 = x2 with slot 2 as representative: not the canonical form of the set
    hand_built = SignedPartitionSubspace(2, ((2, 1), (2, 1)), (), False)
    closed = from_constraints(2, [(1, 2, 1)], [])
    assert hand_built == closed
    assert hash(hand_built) == hash(closed)
    assert hand_built.assignment == ((1, 1), (1, 1))
    with pytest.raises(errors.SizeMismatch):
        SignedPartitionSubspace(3, ((1, 1), (1, 1)), (), False)


def test_the_constructor_keeps_canonical_fields():
    for space in (from_constraints(4, [(1, 3, -1), (2, 4, 1)], [(4, -1)]),
                  from_constraints(3, [(1, 2, 1), (1, 2, -1)], []),
                  full_space(3)):
        rebuilt = SignedPartitionSubspace(space.n, space.assignment, space.pins, space.empty)
        assert rebuilt == space


def _entails_relation(space, i, j, s):
    """Reference: x_i = s * x_j holds on all of ``space``."""
    if space.empty:
        return True
    ri, si = space.rep(i)
    rj, sj = space.rep(j)
    if ri == rj:
        return si * sj == s
    pins = space.pin_map
    if ri in pins and rj in pins:
        return si * pins[ri] == s * sj * pins[rj]
    return False


def _entails_pin(space, i, s):
    """Reference: x_i = s * p holds on all of ``space``."""
    if space.empty:
        return True
    ri, si = space.rep(i)
    pins = space.pin_map
    return ri in pins and si * pins[ri] == s


def _entails_contains(big, small):
    """Reference containment: ``small`` entails each canonical constraint of ``big``."""
    if small.empty:
        return True
    if big.empty:
        return False
    rels, pins = big.constraints()
    return all(_entails_relation(small, i, j, s) for i, j, s in rels) and all(
        _entails_pin(small, i, s) for i, s in pins
    )


def test_contains_agrees_with_constraint_entailment():
    # Components (plain, primed and their gamma images), forest-cell
    # subspaces and all their pairwise intersections, every ordered pair.
    for n in range(1, 7):
        family = set()
        for k in range(n // 2 + 1):
            for a in enumerate_matchings(n, k):
                plain, primed = subspace_of(a), subspace_of(a, "primed")
                family |= {plain, primed, plain.apply_gamma(), primed.apply_gamma()}
                family |= {forest_cell_subspace(a, J) for J, _ in forest_cells(a)}
        spaces = family | {x.intersect(y) for x in family for y in family}
        for x in spaces:
            for y in spaces:
                assert x.contains(y) == _entails_contains(x, y), (x, y)


def test_sign_conflict_collapses():
    S = from_constraints(2, [(1, 2, 1), (1, 2, -1)], [])
    assert S.empty
    S2 = from_constraints(2, [(1, 2, 1)], [(1, 1), (2, -1)])
    assert S2.empty
    S3 = from_constraints(2, [(1, 2, 1)], [(1, 1), (2, 1)])
    assert not S3.empty and S3.dimension == 0


def test_the_empty_subspace_stays_empty_under_every_operation():
    empty = from_constraints(2, [(1, 2, 1), (1, 2, -1)], [])
    cap = subspace_of(m("2: u1-2"))
    assert empty.empty and (empty.free_class_count, empty.dimension) == (0, -1)
    assert empty.intersect(cap) == cap.intersect(empty) == empty.apply_gamma() == empty
    for image in (empty.apply_eta(4), empty.apply_iota(4)):
        assert image.empty and image.n == 4
    with pytest.raises(errors.SizeMismatch, match="slot counts 2 and 4 differ"):
        cap.intersect(full_space(4))


def test_commuting_square():
    for n in range(1, 7):
        for k in range(0, n // 2 + 1):
            target = 2 * (n - k)
            for a in enumerate_matchings(n, k):
                S = subspace_of(a)
                assert S.apply_eta(target).apply_gamma() == S.apply_gamma().apply_iota(target)


def test_eta_lands_in_completion_component():
    from springer_tworow.matchings import complete

    for n in range(1, 7):
        for k in range(0, n // 2 + 1):
            target = 2 * (n - k)
            for a in enumerate_matchings(n, k):
                image = subspace_of(a).apply_eta(target)
                assert subspace_of(complete(a)).contains(image)


def test_pad_size_mismatch():
    S = subspace_of(m("4: u1-2 r3 r4"))
    with pytest.raises(errors.PadSizeMismatch):
        S.apply_eta(3)
    with pytest.raises(errors.PadSizeMismatch):
        S.apply_iota(7)


def test_intersection_algebra_random():
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60)
    @given(st.data())
    def run(data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        picks = []
        for _ in range(3):
            k = data.draw(st.integers(min_value=0, max_value=n // 2))
            ms = enumerate_matchings(n, k)
            picks.append(subspace_of(ms[data.draw(st.integers(0, len(ms) - 1))]))
        A, B, C = picks
        assert A.intersect(B) == B.intersect(A)
        assert A.intersect(B).intersect(C) == A.intersect(B.intersect(C))
        assert A.contains(A.intersect(B))

    run()


def test_triple_intersection_lemma():
    verify.check_intersect_triple(7, random.Random(0))
