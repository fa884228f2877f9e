import itertools
import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

import springer_tworow
from springer_tworow import action, errors, matchings, permutations, tabloids, verify
from springer_tworow.matchings import (
    DottedMatching,
    Matching,
    StandardTableau,
    _check_noncrossing,
    _decode,
    _encode,
    _partners,
    all_dotted_matchings,
    complete,
    count_matchings,
    enumerate_matchings,
    format_matching,
    matching_of,
    parse_matching,
    restrict,
    standard_dotted_matchings,
    standard_layout,
    tableau_of,
    validate,
)


def interval_count(n: int, k: int) -> int:
    """Independent counting oracle by first-vertex case analysis.

    Vertex 1 is either a ray (legal only with everything to its right, k
    arcs among n-1 vertices and rays still allowed... rays must be outside
    arcs, so a ray at 1 leaves an arbitrary type (n-1-k, k) matching) or
    opens an arc to vertex 2j for some j, enclosing a ray-free balanced
    region.
    """
    def catalan(j):
        return math.comb(2 * j, j) // (j + 1)

    def count(n, k):
        if k < 0 or 2 * k > n:
            return 0
        if n == 0:
            return 1
        total = count(n - 1, k)  # vertex 1 is a ray
        for inside in range(0, k):
            # arc from vertex 1 encloses `inside` arcs (no rays beneath)
            total += catalan(inside) * count(n - 2 - 2 * inside, k - 1 - inside)
        return total

    return count(n, k)


def test_docstring_examples():
    import doctest

    from springer_tworow import matchings as module

    failures, _ = doctest.testmod(module).failed, None
    assert failures == 0


def test_validate_examples():
    M = validate(4, [(1, 2), (3, 4)])
    assert M.base.k == 2 and not M.base.rays
    with pytest.raises(errors.RayUnderArc):
        validate(4, [(1, 3)], [2, 4])
    with pytest.raises(errors.CrossingArcs):
        validate(4, [(1, 3), (2, 4)])
    with pytest.raises(errors.VertexReuse):
        validate(4, [(1, 2), (2, 3)], [4])
    with pytest.raises(errors.BadCounts):
        validate(4, [(1, 2)], [3])
    with pytest.raises(errors.DotOnNonArc):
        validate(4, [(1, 2), (3, 4)], (), [(1, 3)])
    assert M.base.partner(3) == 4 and validate(2, [], [1, 2]).base.partner(1) is None


@pytest.mark.parametrize("args, error, what", [
    ((-1, []), errors.BadCounts, r"^vertex count -1 is negative$"),
    ((3, [(2, 2)], [1, 3]), errors.VertexReuse, r"^arc \(2,2\) repeats a vertex$"),
    ((2, [], [1, 3]), errors.BadCounts, r"^vertex 3 outside 1\.\.2$"),
    ((3, [(1, 2)], [2, 3]), errors.VertexReuse, r"^vertex 2 used twice$"),
])
def test_validate_refuses_bad_vertices(args, error, what):
    with pytest.raises(error, match=what):
        validate(*args)


def _pairwise_noncrossing(arcs, rays):
    """The pairwise crossing test the stack scan replaced, kept as its reference."""
    for (i, j), (p, q) in itertools.combinations(arcs, 2):
        if i < p < j < q or p < i < q < j:
            raise errors.CrossingArcs(f"arcs ({i},{j}) and ({p},{q}) cross")
    for r in rays:
        for i, j in arcs:
            if i < r < j:
                raise errors.RayUnderArc(f"ray {r} lies beneath arc ({i},{j})")


def _arc_sets(n):
    """Every set of disjoint arcs on 1..n, crossing or not; the other vertices are rays."""
    def walk(free):
        if not free:
            yield []
            return
        first, rest = free[0], free[1:]
        yield from walk(rest)  # first is a ray
        for idx, other in enumerate(rest):
            for arcs in walk(rest[:idx] + rest[idx + 1:]):
                yield [(first, other), *arcs]
    return walk(list(range(1, n + 1)))


def _outcome(check):
    try:
        return check()
    except (errors.CrossingArcs, errors.RayUnderArc) as exc:
        return type(exc)


def test_stack_scan_refuses_exactly_where_the_pairwise_test_does():
    seen = {errors.CrossingArcs: 0, errors.RayUnderArc: 0}
    for n in range(9):
        for arcs in _arc_sets(n):
            rays = sorted(set(range(1, n + 1)) - {v for arc in arcs for v in arc})
            want = _outcome(lambda: _pairwise_noncrossing(arcs, rays))
            got = _outcome(lambda: _check_noncrossing(_partners(n, arcs)))
            if want is None:
                assert got == (tuple(sorted(arcs)), tuple(rays)), (n, arcs)
            else:
                assert got is want, (n, arcs)
                seen[want] += 1
    assert all(seen.values())


@pytest.mark.parametrize("partner", [
    [1, 0, 3, 1],   # vertex 4 names 2, which names 1
    [1, 2, 3, 2],   # vertex 2 names 3, which names 4
    [0, 2, 2],      # vertex 1 names itself
    [5, 0, 2, 3],   # vertex 1 names a vertex past the end
])
def test_stack_scan_refuses_asymmetric_partners(partner):
    with pytest.raises(errors.VertexReuse, match="does not pair back"):
        _check_noncrossing(partner)


def test_decode_inverts_encode():
    # The checked reduction compares packed states, so distinct matchings
    # must give distinct states and each state must decode to its matching.
    states = set()
    for n in range(11):
        for k in range(n // 2 + 1):
            for M in all_dotted_matchings(n, k):
                state = _encode(M)
                assert len(state) == n and _decode(state) == M, str(M)
                states.add(state)
    assert len(states) == sum(len(all_dotted_matchings(n, k))
                              for n in range(11) for k in range(n // 2 + 1))


@pytest.mark.parametrize("state, what", [
    ((1 << 2 | 2, 0 << 2 | 2), r"^arc \(1, 2\) is doubly dotted$"),
    ((1 << 2 | 1, 0 << 2), r"^the ends of arc \(1, 2\) disagree on its dots$"),
    ((2 << 2 | 1, 2 << 2), r"^ray 2 carries 0 dots, not 1$"),
])
def test_decode_refuses_a_miscounted_dot(state, what):
    # The crossing scan's refusals are held by the _check_noncrossing tests.
    with pytest.raises(errors.BadCounts, match=what):
        _decode(state)


def test_enumerate_b31():
    got = [m.arcs for m in enumerate_matchings(4, 1)]
    assert got == [((1, 2),), ((2, 3),), ((3, 4),)]
    assert [m.rays for m in enumerate_matchings(4, 1)] == [(3, 4), (1, 4), (1, 2)]


def test_enumerate_small_counts():
    assert len(enumerate_matchings(5, 0)) == 1
    assert len(enumerate_matchings(6, 3)) == 5  # Catalan number C_3
    for n, k in ((4, 3), (3, -1)):
        for count in (enumerate_matchings, count_matchings):
            with pytest.raises(errors.DomainError):
                count(n, k)


@pytest.mark.parametrize("n", range(0, 11))
def test_enumerate_counts_cross_checked(n):
    for k in range(0, n // 2 + 1):
        ms = enumerate_matchings(n, k)
        assert len(ms) == count_matchings(n, k)
        assert len(ms) == interval_count(n, k)
        if n <= 8:
            assert set(ms) == verify._reference_matchings(n, k)


def test_arcs_join_opposite_parities():
    # tabloids._arc_pairs refuses an arc of equal parity, and tabloids.integer-rows
    # orients every arc of every matching with n <= 10 through it
    M = DottedMatching(Matching(4, ((1, 3),), (2, 4)), ())
    with pytest.raises(errors.DomainError, match=r"arc \(1,3\) joins two vertices of equal"):
        tabloids._arc_pairs(M)


def test_complete_worked_example():
    a = validate(6, [(1, 2), (4, 5)], [3, 6]).base
    c = complete(a)
    assert c.arcs == ((1, 8), (2, 5), (3, 4), (6, 7))
    assert restrict(c, 2) == a


def test_complete_identity_when_no_rays():
    a = validate(4, [(1, 2), (3, 4)]).base
    assert complete(a) == a


def test_complete_all_rays():
    a = validate(2, [], [1, 2]).base
    assert complete(a).arcs == ((1, 4), (2, 3))


def test_restrict_errors():
    c = validate(4, [(1, 2), (3, 4)]).base
    with pytest.raises(errors.NotInRestrictableSet):
        restrict(c, 2)
    for pad in (-1, 5):
        with pytest.raises(errors.DomainError, match=rf"^pad {pad} outside 0\.\.4$"):
            restrict(c, pad)
    with pytest.raises(errors.NotInRestrictableSet, match="^input already has rays$"):
        restrict(validate(3, [(2, 3)], [1]).base, 1)


def test_completion_bijective_up_to_8():
    verify.check_completion_restriction(8, random.Random(0))


TYPE43 = "7: r1 u2-3 d4-7 u5-6"


def test_tableau_of_examples():
    M = parse_matching(TYPE43)
    T = tableau_of(M)
    assert T.top == (1, 2, 4, 5, 7) and T.bottom == (3, 6)
    allen = parse_matching("4: u1-2 u3-4")
    assert tableau_of(allen) == StandardTableau((1, 3), (2, 4))
    alldot = parse_matching("4: r1 r2 d3-4")
    assert tableau_of(alldot).bottom == ()
    with pytest.raises(errors.NotStandard):
        tableau_of(parse_matching("4: u1-4 d2-3"))


def test_matching_of_examples():
    T = StandardTableau((1, 2, 4, 5, 7), (3, 6))
    assert format_matching(matching_of(T, 3)) == TYPE43
    one_row = StandardTableau((1, 2, 3, 4), ())
    assert format_matching(matching_of(one_row, 1)) == "4: r1 r2 d3-4"
    assert format_matching(matching_of(StandardTableau((1, 3), (2, 4)), 2)) == "4: u1-2 u3-4"
    with pytest.raises(errors.ShapeMismatch):
        matching_of(StandardTableau((1, 3), (2, 4)), 1)


def test_bijection_exhaustive():
    verify.check_graded_module(9, random.Random(0))


def test_standard_enumeration_is_the_is_standard_filter():
    verify.check_standard_enumeration(10, random.Random(0))


@pytest.mark.parametrize("n", range(13))
def test_the_walk_lists_exactly_the_bases_with_enough_dottable_arcs(n):
    # The prune drops no base and keeps none extra: every d in 0..k + 1, in column order.
    for k in range(n // 2 + 1):
        bases = enumerate_matchings(n, k)
        assert list(bases) == sorted(bases, key=lambda a: a.arcs), (n, k)
        for d in range(k + 2):
            want = tuple(a for a in bases if a.dottable.bit_count() >= d)
            assert matchings._matchings(n, k, d) == want, (n, k, d)


@pytest.mark.parametrize("n", range(14))
def test_standard_basis_is_the_is_standard_filter_of_the_column_walk(n):
    # The listing shares the walk and the column order with all_dotted_matchings,
    # but reads standardness off the dottable masks: this holds it to the paper's definition.
    for k in range(n // 2 + 1):
        for m in (None, *range(k + 1)):
            want = tuple(M for M in all_dotted_matchings(n, k, m) if M.is_standard)
            assert standard_dotted_matchings(n, k, m) == want, (n, k, m)


def recorded_enumerations(monkeypatch) -> list:
    """Cold caches, and the (n, k) of every later ``enumerate_matchings`` call, in order."""
    springer_tworow.clear_caches()
    calls, real = [], matchings.enumerate_matchings

    def recording(n, k):
        calls.append((n, k))
        return real(n, k)

    for name, module in list(sys.modules.items()):
        if name.startswith("springer_tworow") and vars(module).get("enumerate_matchings") is real:
            monkeypatch.setattr(module, "enumerate_matchings", recording)
    return calls


def test_standard_basis_lists_only_the_matchings_of_its_grading(monkeypatch):
    # Grading 1 of (16, 8) needs 7 dottable arcs: the 8 bases with at most one arc under
    # another carry its 15 elements, and enumerate_matchings is never called.
    calls = recorded_enumerations(monkeypatch)
    built, init = [], Matching.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Matching, "__init__", counting)
    assert len(standard_dotted_matchings(16, 8, 1)) == 15
    assert calls == [] and len(built) <= 15


@pytest.mark.parametrize("m", [-1, 3])
def test_standard_basis_of_a_grading_outside_0_to_k_is_empty_before_any_walk(m, monkeypatch):
    springer_tworow.clear_caches()
    monkeypatch.setattr(matchings, "_matchings", None)
    monkeypatch.setattr(matchings, "enumerate_matchings", None)
    assert standard_dotted_matchings(6, 2, m) == ()


def test_rep_matrix_below_the_top_grading_lists_no_matching_of_its_type(monkeypatch):
    calls = recorded_enumerations(monkeypatch)
    sigma = permutations.parse_permutation("(1 5 2)(3 9)", 9)
    assert len(action.rep_matrix(sigma, 9, 4, 0)) == 1
    assert calls and (9, 4) not in calls


def test_standard_layout_examples():
    assert format_matching(standard_layout([(2, 3), (5, 6)], 7, 3)) == TYPE43
    assert format_matching(standard_layout([], 4, 1)) == "4: r1 r2 d3-4"
    assert format_matching(standard_layout([(1, 2)], 2, 1)) == "2: u1-2"
    with pytest.raises(errors.NoStandardCompletion):
        standard_layout([(1, 2), (2, 3)], 6, 3)
    with pytest.raises(errors.NoStandardCompletion):
        standard_layout([(2, 3)], 4, 0)


@pytest.mark.parametrize("n, k", [(4, 3), (3, 2), (0, 1), (4, -1), (-2, -1)])
def test_standard_layout_refuses_a_type_with_no_matchings_before_any_work(n, k):
    # k arcs do not fit on n vertices: the layout once returned "4: r1 r2 d3-4" for (4, 3).
    # The undotted arcs raise if read, so the refusal comes before any work.
    def undotted():
        raise AssertionError("standard_layout read the undotted arcs")
        yield

    with pytest.raises(errors.NoStandardCompletion,
                       match=rf"^no dotted matching with k={k} arcs on n={n} vertices$"):
        standard_layout(undotted(), n, k)


def test_standard_layout_refuses_a_layout_that_is_no_standard_matching():
    # The rays 2 and 4 around the arc (1, 3) lie beneath it; the dotted (2, 3) nests under (1, 4).
    with pytest.raises(errors.NoStandardCompletion, match=r"^ray 2 lies beneath arc \(1,3\)$"):
        standard_layout([(1, 3)], 4, 1)
    with pytest.raises(errors.NoStandardCompletion,
                       match=r"^no standard completion of \(\(1, 4\),\)$"):
        standard_layout([(1, 4)], 4, 2)


def test_codec_examples():
    assert format_matching(parse_matching(TYPE43)) == TYPE43
    assert format_matching(parse_matching("2: u1-2")) == "2: u1-2"
    with pytest.raises(errors.RayUnderArc):
        parse_matching("4: u1-3 r2 r4")
    with pytest.raises(errors.CodecSyntaxError):
        parse_matching("4: x1-2")
    with pytest.raises(errors.CodecSyntaxError):
        parse_matching("u1-2")
    with pytest.raises(errors.CodecSyntaxError):
        parse_matching("4: r1-2 r3 r4")


@pytest.mark.parametrize("text, what", [
    ("x: u1-2", r"^bad vertex count 'x'"),
    ("4: u1 r3 r4", r"^arc item 'u1' needs i-j"),
    ("4: u2-1 r3 r4", r"^arc item 'u2-1' needs i < j"),
])
def test_codec_refuses_malformed_items(text, what):
    with pytest.raises(errors.CodecSyntaxError, match=what):
        parse_matching(text)


def test_codec_roundtrip_exhaustive():
    verify.check_codec_roundtrip(7, random.Random(0))
    (M,) = all_dotted_matchings(0, 0)
    assert parse_matching(format_matching(M)) == M


@given(st.integers(min_value=1, max_value=8), st.data())
def test_codec_roundtrip_random(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n // 2))
    ms = enumerate_matchings(n, k)
    base = ms[data.draw(st.integers(min_value=0, max_value=len(ms) - 1))]
    dotted = tuple(
        arc for arc in base.arcs if data.draw(st.booleans())
    )
    M = DottedMatching(base, dotted)
    assert parse_matching(format_matching(M)) == M


def test_grading_and_standardness():
    M = parse_matching(TYPE43)
    assert M.m == 2 and M.k == 3 and M.is_standard
    assert not parse_matching("4: d1-2 r3 r4").is_standard  # rays right of a dot
    assert not parse_matching("4: u1-4 d2-3").is_standard   # nested dot
    assert parse_matching("4: d1-4 u2-3").is_standard       # dot over undotted is fine
