import itertools
import random

import pytest

from springer_tworow import action, errors, skein, verify
from springer_tworow.action import act, act_word
from springer_tworow.homology import HomClass, hom_class, reduce_class
from springer_tworow.matchings import (
    all_dotted_matchings,
    parse_matching,
    standard_dotted_matchings,
)
from springer_tworow.permutations import Permutation, from_word, parse_permutation
from springer_tworow.skein import (
    _PLACEMENT_DOTS,
    CALIBRATED_CONVENTION,
    ResolutionConvention,
    _anchor_ok,
    _read_off,
    _reassemble,
    boundary_coefficients,
    calibrate,
    expand_resolutions,
    flatten,
    random_word,
    resolve_evaluate,
    skein_act,
    skein_matches_action,
)

pm = parse_matching

#: The full convention family, built here apart from ``calibrate``'s anchored
#: candidates: every coefficient in -2..2 and every dot placement.
COEFFS = range(-2, 3)
PLACEMENTS = ("both", "lowerArc", "none", "upperArc")
FAMILY = [ResolutionConvention(*fields)
          for fields in itertools.product(COEFFS, COEFFS, PLACEMENTS, COEFFS, PLACEMENTS)]


def _anchored(convention):
    return _anchor_ok(convention.closure_coeff, convention.closure_dots)


def test_flatten():
    t = flatten([1, 2], 3)
    assert t.layers == (1, 2)
    assert flatten([], 3).layers == ()
    assert flatten([1, 1], 2).layers == (1, 1)


def test_identity_tangle_fixes():
    M = pm("4: r1 u2-3 r4")
    assert resolve_evaluate(M, flatten([], 4)) == HomClass.of(M)


def test_single_crossing_anchors():
    assert resolve_evaluate(pm("2: u1-2"), flatten([1], 2)) == HomClass.of(
        pm("2: u1-2")
    ).scale(-1)
    assert resolve_evaluate(pm("2: d1-2"), flatten([1], 2)) == HomClass.of(
        pm("2: d1-2")
    )


def test_double_crossing_is_identity():
    M = pm("2: u1-2")
    assert resolve_evaluate(M, flatten([1, 1], 2)) == HomClass.of(M)


def test_worked_example_three_cycle():
    M = pm("3: u1-2 r3")
    sigma = parse_permutation("(1 2 3)", 3)
    got = skein_act(sigma, M)
    assert got == HomClass.of(pm("3: r1 u2-3")).scale(-1)
    assert got == act(sigma, HomClass.of(M))


def test_evaluators_default_to_the_calibrated_convention():
    # The fold has no convention parameter: it evaluates the one the
    # reference is handed explicitly here, which is also its default.
    rng = random.Random(12)
    for n in range(2, 6):
        for M in all_dotted_matchings(n, n // 2):
            tangle = flatten(random_word(n, 5, rng), n)
            want = skein.expanded_coefficients(M, tangle, CALIBRATED_CONVENTION)
            assert boundary_coefficients(M, tangle) == want
            assert resolve_evaluate(M, tangle) == reduce_class(hom_class(n, n // 2, want))
            assert expand_resolutions(M, tangle) == expand_resolutions(
                M, tangle, CALIBRATED_CONVENTION)


def test_calibrate_finds_unique_convention():
    conv = calibrate(3)
    assert conv == CALIBRATED_CONVENTION
    assert conv == ResolutionConvention(1, -2, "upperArc", -1, "none")


def _candidate_major_calibrate(n_max):
    """Reference search: each candidate walks the pairs alone and recomputes the oracle."""
    def agrees(c):
        for n in range(2, n_max + 1):
            for k in range(0, n // 2 + 1):
                for m in range(k + 1):
                    for M in standard_dotted_matchings(n, k, m):
                        for i in range(1, n):
                            try:
                                coeffs = skein.expanded_coefficients(M, flatten((i,), n), c)
                                got = reduce_class(hom_class(n, k, coeffs))
                            except (errors.InhomogeneousClass, errors.InternalCheckError):
                                return False
                            if got != act_word([i], HomClass.of(M)):
                                return False
        return True

    fits = [c for c in sorted(FAMILY) if _anchored(c) and agrees(c)]
    if not fits:
        raise errors.NoConventionFits(f"no convention matches the action up to n={n_max}")
    if len(fits) > 1:
        raise errors.MultipleConventionsFit(fits)
    return fits[0]


def _search_outcome(search, n_max):
    """A search's convention, or its exception type with the attached conventions."""
    try:
        return search(n_max)
    except (errors.NoConventionFits, errors.MultipleConventionsFit) as exc:
        return type(exc), getattr(exc, "conventions", None)


@pytest.mark.parametrize("n_max", [2, 3, 4, 5])
def test_calibrate_matches_the_candidate_major_search(n_max):
    assert _search_outcome(calibrate, n_max) == _search_outcome(_candidate_major_calibrate, n_max)


def test_convention_family_is_generated_in_order():
    assert set(PLACEMENTS) == set(_PLACEMENT_DOTS)
    assert FAMILY == sorted(FAMILY)
    assert len(set(FAMILY)) == len(FAMILY) == 2000


def test_calibrate_starts_from_the_anchored_family_in_order(monkeypatch):
    # With no pair to check, every candidate survives and is attached.
    monkeypatch.setattr(skein, "_generator_pairs", lambda n_max: iter(()))
    with pytest.raises(errors.MultipleConventionsFit) as info:
        calibrate(2)
    want = [c for c in FAMILY if _anchored(c)]
    assert info.value.conventions == want
    assert len(want) == 100
    assert {(c.closure_coeff, c.closure_dots) for c in want} == {(-2, "upperArc")}


def test_calibrate_calls_the_oracle_once_per_pair(monkeypatch):
    # the oracle is the chart: one derive_chart per (n, k), one row per pair
    charts, evaluations = [], []

    def counted_derive_chart(n, k):
        charts.append(derive_chart(n, k))
        return charts[-1]

    def counted_expanded_coefficients(M, tangle, convention):
        evaluations.append((M, tangle.layers))
        return expanded_coefficients(M, tangle, convention)

    derive_chart, expanded_coefficients = skein.derive_chart, skein.expanded_coefficients
    monkeypatch.setattr(skein, "derive_chart", counted_derive_chart)
    monkeypatch.setattr(skein, "expanded_coefficients", counted_expanded_coefficients)
    assert calibrate(3) == CALIBRATED_CONVENTION
    assert [(chart.n, chart.k) for chart in charts] == [(2, 0), (2, 1), (3, 0), (3, 1)]
    pairs = [(row.matching, (row.position,)) for chart in charts for row in chart.rows]
    assert len(pairs) == len(set(pairs)) == 11
    assert len(evaluations) == 262
    assert set(pairs) == set(evaluations)


def test_the_chart_and_calibrate_solve_no_class_alone(monkeypatch):
    # both read the generator columns that the character certificate solves
    def refuse(*args):
        raise AssertionError("a per-pair action oracle ran")

    monkeypatch.setattr(action, "_act", refuse)
    monkeypatch.setattr(skein, "act_word", refuse)
    assert action.derive_chart(7, 3).ok
    assert calibrate(3) == CALIBRATED_CONVENTION


@pytest.mark.parametrize("n_max", [1, 0, -3])
def test_calibrate_refuses_a_depth_below_2(monkeypatch, n_max):
    def refuse(*args):
        raise AssertionError("the calibration search started")

    monkeypatch.setattr(skein, "_anchor_ok", refuse)
    monkeypatch.setattr(skein, "_generator_pairs", refuse)
    with pytest.raises(errors.DomainError, match=f"depth {n_max} is below 2"):
        calibrate(n_max)


def test_calibrate_underconstrained_at_2():
    with pytest.raises(errors.MultipleConventionsFit) as info:
        calibrate(2)
    fits = info.value.conventions
    assert len(fits) > 1 and info.value.pick == min(fits)
    # the closure side is pinned even at depth 2
    assert all(
        (c.identity_coeff, c.closure_coeff, c.closure_dots) == (1, -2, "upperArc")
        for c in fits
    )


def test_word_invariance():
    verify.check_skein_word_invariance(4, random.Random(4))


def test_braid_relation_via_skein():
    for n in (3, 4):
        for k in range(0, n // 2 + 1):
            for M in standard_dotted_matchings(n, k):
                for i in range(1, n - 1):
                    lhs = resolve_evaluate(M, flatten([i, i + 1, i], n))
                    rhs = resolve_evaluate(M, flatten([i + 1, i, i + 1], n))
                    assert lhs == rhs


def test_nonstandard_input_reduces():
    from springer_tworow.homology import reduce_class

    x = HomClass.of(pm("4: u1-4 d2-3"))
    got = resolve_evaluate(pm("4: u1-4 d2-3"), flatten([], 4))
    assert all(N.is_standard for N, _ in got.terms)
    assert got == reduce_class(x)


# --- the layer fold against the full expansion --------------------------------

def test_fold_errors_name_the_matching_and_the_word():
    with pytest.raises(errors.SizeMismatch, match=r"2: u1-2 .*\(1, 2\)"):
        boundary_coefficients(pm("2: u1-2"), flatten([1, 2], 3))


def test_a_crossing_outside_the_strands_is_refused():
    with pytest.raises(errors.DomainError, match=r"^crossing position 4 outside 1..3$"):
        flatten([1, 4], 4)


def test_reference_errors_name_the_matching_and_the_word():
    M, tangle = pm("2: u1-2"), flatten([1, 2], 3)
    messages = []
    for route in (expand_resolutions, boundary_coefficients):
        with pytest.raises(errors.SizeMismatch, match=r"2: u1-2 .*\(1, 2\)") as info:
            route(M, tangle)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


#: A ray end on four points: partner 4 and the ray's one dot.
_RAY_END = 4 << 2 | 1


def test_read_off_decodes_a_fold_state():
    state = (1 << 2 | 1, 0 << 2 | 1, _RAY_END, _RAY_END)
    assert _read_off(pm("4: u1-2 u3-4"), flatten([1], 4), state) == pm("4: d1-2 r3 r4")


@pytest.mark.parametrize("state, what", [
    ((1 << 2, 0 << 2, 3 << 2, 1 << 2), "does not pair back"),
    ((2 << 2, 3 << 2, 0 << 2, 1 << 2), r"arcs \(1,3\) and \(2,4\) cross"),
    ((2 << 2, _RAY_END, 0 << 2, _RAY_END), r"ray 2 lies beneath arc \(1,3\)"),
    ((1 << 2 | 2, 0 << 2 | 2, _RAY_END, _RAY_END), "doubly dotted"),
    ((1 << 2, 0 << 2, 4 << 2 | 2, _RAY_END), "ray 3 carries 2 dots"),
    ((1 << 2 | 1, 0 << 2, _RAY_END, _RAY_END), r"ends of arc \(1, 2\) disagree"),
])
def test_read_off_refuses_a_broken_state(state, what):
    with pytest.raises(errors.InternalCheckError,
                       match=r"^4: u1-2 u3-4 under word \(1, 3\): .*" + what):
        _read_off(pm("4: u1-2 u3-4"), flatten([1, 3], 4), state)


def test_reference_refuses_to_close_a_ray(monkeypatch):
    # A ray has one boundary end, so no turnback closes it; hand the
    # reference one ray on both points, and prune the vertical smoothing.
    monkeypatch.setattr(skein, "_start", lambda M, tangle: ([0, 0], [(1, True)]))
    convention = ResolutionConvention(0, -2, "upperArc", -1, "none")
    message = r"^2: u1-2 under word \(1,\): a ray closes into a circle at crossing 1$"
    with pytest.raises(errors.InternalCheckError, match=message):
        expand_resolutions(pm("2: u1-2"), flatten([1], 2), convention)


def test_fold_agreement_at_depth_7():
    verify.check_skein_fold_agreement(7, random.Random(7))


def _random_longest_word(n, rng):
    """A random reduced word of the longest element: a random maximal chain."""
    images = list(range(1, n + 1))
    word = []
    while True:
        ascents = [i for i in range(1, n) if images[i - 1] < images[i]]
        if not ascents:
            return word
        i = rng.choice(ascents)
        images[i - 1], images[i] = images[i], images[i - 1]
        word.append(i)


def test_full_length_words_up_to_8():
    rng = random.Random(8)
    for n, sample in ((6, None), (7, 8), (8, 8)):
        w0 = Permutation(tuple(range(n, 0, -1)))
        words = [list(w0.word())] + [_random_longest_word(n, rng) for _ in range(2)]
        for word in words:
            assert len(word) == n * (n - 1) // 2 and from_word(word, n) == w0
        for k in range(0, n // 2 + 1):
            basis = standard_dotted_matchings(n, k)
            chosen = basis if sample is None else rng.sample(basis, min(sample, len(basis)))
            for M in chosen:
                for word in words:
                    assert skein_matches_action(word, M), (word, M)


def test_the_fold_refuses_two_ray_ends_that_merge(monkeypatch):
    # Each ray carries its one dot, so a join of two rays reaches two dots
    # and is dropped; plant rays with none, and the join must raise instead.
    encode = skein._encode
    monkeypatch.setattr(skein, "_encode", lambda M: tuple(
        end & ~3 if end >> 2 == M.n else end for end in encode(M)))
    with pytest.raises(errors.InternalCheckError,
                       match=r"^2: r1 r2 under word \(1,\): two ray ends merge at crossing 1$"):
        boundary_coefficients(pm("2: r1 r2"), flatten([1], 2))


# No fold of a valid input leaves these components; read each off by hand.
@pytest.mark.parametrize("labels, comps, what", [
    ([0, 0], [(1, True)], "two boundary ends on a ray component"),
    ([0, 0], [(2, False)], "doubly dotted component survived"),
    ([0, 1], [(0, False), (1, True)], "open non-ray component at the boundary"),
    ([0, 0, 0], [(0, False)], "component with 3 boundary ends"),
])
def test_reassemble_refuses_a_broken_component(labels, comps, what):
    with pytest.raises(errors.InternalCheckError, match=rf"^2: u1-2 under word \(1,\): {what}$"):
        _reassemble(pm("2: u1-2"), flatten([1], 2), labels, comps, {})
