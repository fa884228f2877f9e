"""Skein evaluation of the action: flatten, resolve, evaluate circles.

A flattened braid for a permutation word is glued below a dotted matching;
each flat crossing resolves into the vertical smoothing plus the
turnback (cup over cap) smoothing.  Components accumulate dots (rays
carry one intrinsic dot); any component with two or more dots kills its
term, a closed plain circle scales by -2, a closed one-dot circle by +1,
and the surviving boundary diagram is reread as a dotted matching and
reduced to the standard basis.

Evaluation folds one crossing layer at a time, top layer first, in the
manner of Bar-Natan's local evaluation: after each layer the open
boundary is again a dotted matching with at most one dot per component,
held as a flat tuple of ints, one ``partner << 2 | dots`` entry per
boundary point (its partner, or n for a ray, and the dots of its
component).  A turnback rewrites at most four entries and leaves the
tuple canonical, so equal boundary states merge in one dict with no
relabelling, a circle closed by a layer becomes a scalar at once, and
the number of states stays bounded by the number of boundary states
instead of doubling with every crossing.  Each surviving state is read
off by one left-to-right stack scan of its partners, the package's one
crossing test ``matchings._check_noncrossing``.
:func:`expand_resolutions` lists every resolution of the whole tangle; it
is the full-expansion reference the fold is tested against.  It keeps
its own component-label states and shares with the fold only that
crossing scan (it reads its boundaries off through ``validate``), the
placement table and the circle rule.  It evaluates each circle where it
closes, as the fold does, but never merges states, so it checks the
fold's rewriting and merging.

The decoration and coefficient of each smoothing are not dictated by the
evaluation rules themselves; they are fixed once as
:data:`CALIBRATED_CONVENTION`, which every evaluator uses unless handed
another member of the finite convention family.  The turnback is
decorated separately according to whether its cup closes one component
into a circle or merges two components: the two topologies provably
cannot share one decoration (closing a dotted cap must die while merging
through a dotted arc must survive).  :func:`calibrate` is a check, not
set-up: it searches the family for the conventions that agree with the
tabloid-oracle action and changes nothing.  Of the family's 2,000
members it builds only the 100 whose closure pair passes
:func:`_anchor_ok`.  The search is pair-major: it walks the pairs
(standard M, generator s_i) with 2 <= n <= n_max once, computes the
oracle action at each pair once, and filters the surviving candidates
there.  Depth 2 is the least that checks a pair, and it leaves several
fits; depth 3 pins :data:`CALIBRATED_CONVENTION`.
"""
from __future__ import annotations

import random

from .action import act_word
from .errors import (
    CapExceeded,
    DomainError,
    InhomogeneousClass,
    InternalCheckError,
    MatchingError,
    MultipleConventionsFit,
    NoConventionFits,
)
from .homology import HomClass, hom_class, reduce_class
from .matchings import (
    DottedMatching,
    Matching,
    _check_noncrossing,
    standard_dotted_matchings,
    validate,
)
from .permutations import Permutation
from .records import Record

#: (dots added to the cup side, dots added to the cap side) of each turnback placement.
_PLACEMENT_DOTS = {"none": (0, 0), "upperArc": (1, 0), "lowerArc": (0, 1), "both": (1, 1)}


class FlatTangle(Record, frozen=True):
    """Crossing layers, listed bottom to top; layer value = strand position."""

    __slots__ = _fields = ("n", "layers")

    def __init__(self, n: int, layers: tuple[int, ...]):
        set_n, set_layers = self._setters
        set_n(self, n)
        set_layers(self, layers)
        for i in layers:
            if not 1 <= i <= n - 1:
                raise InternalCheckError(f"crossing position {i} outside 1..{n - 1}")


def flatten(word: list[int] | tuple[int, ...], n: int) -> FlatTangle:
    """One crossing layer per letter; the last letter sits on top."""
    return FlatTangle(n, tuple(word))


class ResolutionConvention(Record, frozen=True, order=True):
    __slots__ = _fields = ("identity_coeff", "closure_coeff", "closure_dots", "merge_coeff",
                           "merge_dots")

    def __init__(self, identity_coeff: int = 1, closure_coeff: int = -2,
                 closure_dots: str = "upperArc", merge_coeff: int = -1,
                 merge_dots: str = "none"):
        (set_identity_coeff, set_closure_coeff, set_closure_dots, set_merge_coeff,
         set_merge_dots) = self._setters
        set_identity_coeff(self, identity_coeff)
        set_closure_coeff(self, closure_coeff)
        set_closure_dots(self, closure_dots)
        set_merge_coeff(self, merge_coeff)
        set_merge_dots(self, merge_dots)


#: The convention every evaluator uses by default, the unique fit that
#: :func:`calibrate` finds from n = 3 on: closing a plain component must
#: scale by -2 with the dot landing on the circle (undotted cap -> -2
#: undotted cap, dotted cap -> 0), and merging must pass dots through
#: unscathed with coefficient -1.
CALIBRATED_CONVENTION = ResolutionConvention(1, -2, "upperArc", -1, "none")


class ResolvedDiagram(Record, frozen=True):
    """One fully resolved term: its coefficient, closed circles included, and its boundary."""

    __slots__ = _fields = ("coefficient", "boundary")

    def __init__(self, coefficient: int, boundary: DottedMatching):
        set_coefficient, set_boundary = self._setters
        set_coefficient(self, coefficient)
        set_boundary(self, boundary)


def circle_rule(dots: int) -> int:
    """Printed evaluation of a closed circle by its dot count."""
    if dots == 0:
        return -2
    if dots == 1:
        return 1
    return 0


def resolve_evaluate(M: DottedMatching, tangle: FlatTangle,
                     convention: ResolutionConvention = CALIBRATED_CONVENTION) -> HomClass:
    """Evaluate the tangle glued below M; result in the standard basis."""
    return reduce_class(hom_class(M.n, M.k, boundary_coefficients(M, tangle, convention)))


def _start(M: DottedMatching, tangle: FlatTangle) -> tuple[list[int], list[tuple[int, bool]]]:
    """M's boundary state as (labels, comps) lists.

    ``labels[v - 1]`` is the component of boundary point v and
    ``comps[label]`` its (dots, ray); a ray carries its intrinsic dot.
    """
    _check_strands(M, tangle)
    labels = [0] * M.n
    comps: list[tuple[int, bool]] = []
    dotted = set(M.dotted)
    for arc in M.base.arcs:
        labels[arc[0] - 1] = labels[arc[1] - 1] = len(comps)
        comps.append((1 if arc in dotted else 0, False))
    for ray in M.base.rays:
        labels[ray - 1] = len(comps)
        comps.append((1, True))
    return labels, comps


def _check_strands(M: DottedMatching, tangle: FlatTangle) -> None:
    if M.n != tangle.n:
        raise InternalCheckError(
            f"{M} has {M.n} strands but the tangle of word {tangle.layers} has {tangle.n}")


def _state_error(M: DottedMatching, tangle: FlatTangle, what: str) -> InternalCheckError:
    """A failed state check of M under TANGLE, naming both."""
    return InternalCheckError(f"{M} under word {tangle.layers}: {what}")


def boundary_coefficients(M: DottedMatching, tangle: FlatTangle,
                          convention: ResolutionConvention = CALIBRATED_CONVENTION
                          ) -> dict[DottedMatching, int]:
    """The tangle glued below M as boundary matchings with nonzero coefficients.

    Folds the crossing layers top first over a dict from partner state to
    coefficient.  A partner state is a flat tuple of ints, one per boundary
    point v, 0-based: ``partner << 2 | dots``, where the partner is the
    other boundary end of v's component, or n when the component runs off
    as a ray, and the dots are those on the component (a ray's intrinsic
    dot included).  Every surviving component has one boundary end or two,
    so the tuple is the open boundary as a dotted matching, already
    canonical.  A state passes its vertical smoothing on unchanged.  Its
    turnback rewrites at most four entries: a cup on the two ends of one
    arc closes a circle, which is evaluated at once; a cup on two
    components joins their outer ends, and a join reaching two dots is
    dropped.  Zero coefficients are pruned after every layer, and each
    surviving state is read off by :func:`_read_off`.  The result is not
    reduced to the standard basis; it equals the sum of
    :func:`expand_resolutions` by boundary.
    """
    c = convention
    _check_strands(M, tangle)
    n = M.n
    start = [n << 2 | 1] * n
    dotted = set(M.dotted)
    for arc in M.base.arcs:
        i, j = arc[0] - 1, arc[1] - 1
        dots = 1 if arc in dotted else 0
        start[i], start[j] = j << 2 | dots, i << 2 | dots
    states: dict[tuple[int, ...], int] = {tuple(start): 1}
    identity = c.identity_coeff
    cup_c, cap_c = _PLACEMENT_DOTS[c.closure_dots]
    cup_m, cap_m = _PLACEMENT_DOTS[c.merge_dots]

    for pos in reversed(tangle.layers):
        a, b = pos - 1, pos
        closed = (b << 2 | cap_c, a << 2 | cap_c)
        merged_a, merged_b = b << 2 | cap_m, a << 2 | cap_m
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        for state, coeff in states.items():
            nxt[state] = get(state, 0) + coeff * identity
            end_a, end_b = state[a], state[b]
            partner_a = end_a >> 2
            if partner_a == b:
                # the cup closes this arc's component into a circle
                key = state[:a] + closed + state[b + 1:]
                coeff *= c.closure_coeff * circle_rule((end_a & 3) + cup_c)
            else:
                dots = (end_a & 3) + (end_b & 3) + cup_m
                if dots >= 2:
                    continue  # a two-dot component kills the term
                # the cup joins the two components at their outer ends; two
                # rays hold two dots, so a ray-ray join here is a dot miscount
                partner_b = end_b >> 2
                if partner_a == partner_b == n:
                    raise _state_error(M, tangle, f"two ray ends merge at crossing {pos}")
                turned = list(state)
                if partner_a != n:
                    turned[partner_a] = partner_b << 2 | dots
                if partner_b != n:
                    turned[partner_b] = partner_a << 2 | dots
                turned[a], turned[b] = merged_a, merged_b
                key = tuple(turned)
                coeff *= c.merge_coeff
            nxt[key] = get(key, 0) + coeff
        states = {state: coeff for state, coeff in nxt.items() if coeff}

    return {_read_off(M, tangle, state): coeff for state, coeff in states.items()}


def _read_off(M: DottedMatching, tangle: FlatTangle, state: tuple[int, ...]) -> DottedMatching:
    """The dotted matching of one fold state of M under TANGLE.

    One scan of the partner array by ``_check_noncrossing`` checks that
    partners are symmetric, that each arc closes the innermost open arc and
    that no ray lies under an arc.  The two ends of an arc must carry its
    dots, at most one, and a ray exactly its intrinsic dot.  A failed check
    names M and the word.  A state that passes is the encoding of the
    matching it reads off to, so distinct states give distinct matchings.
    """
    try:
        arcs, rays = _check_noncrossing([end >> 2 for end in state])
    except MatchingError as exc:
        raise _state_error(M, tangle, f"boundary state {state}: {exc}") from None
    dotted = []
    for arc in arcs:
        dots = state[arc[0] - 1] & 3
        if dots != state[arc[1] - 1] & 3:
            raise _state_error(M, tangle, f"the ends of arc {arc} disagree on its dots")
        if dots >= 2:
            raise _state_error(M, tangle, "doubly dotted component survived")
        if dots:
            dotted.append(arc)
    for r in rays:
        if state[r - 1] & 3 != 1:
            raise _state_error(M, tangle, f"ray {r} carries {state[r - 1] & 3} dots, not 1")
    return DottedMatching(Matching(M.n, arcs, rays), tuple(dotted))


def expand_resolutions(M: DottedMatching, tangle: FlatTangle,
                       convention: ResolutionConvention = CALIBRATED_CONVENTION
                       ) -> list[ResolvedDiagram]:
    """All surviving resolutions of the tangle under M.

    A term is dropped when its coefficient is 0 or a merge gives a
    component two dots.  A circle is evaluated by its dots at the turnback
    that closes it, as in :func:`boundary_coefficients`; the closed
    component stays in ``comps`` with no label pointing at it.  This is the
    full-expansion reference for that fold: it never merges states.
    """
    c = convention
    labels, comps = _start(M, tangle)
    out: list[ResolvedDiagram] = []
    validated: dict = {}
    cup_c, cap_c = _PLACEMENT_DOTS[c.closure_dots]
    cup_m, cap_m = _PLACEMENT_DOTS[c.merge_dots]

    def recurse(layer_idx, labels, comps, coeff):
        if coeff == 0:
            return
        if layer_idx < 0:
            out.append(ResolvedDiagram(coeff, _reassemble(M, tangle, labels, comps, validated)))
            return
        pos = tangle.layers[layer_idx]
        # vertical smoothing
        recurse(layer_idx - 1, labels, comps, coeff * c.identity_coeff)
        # turnback smoothing
        left, right = labels[pos - 1], labels[pos]
        (left_dots, left_ray), (right_dots, right_ray) = comps[left], comps[right]
        if left == right:
            # a ray component has one boundary end, so it never closes
            if left_ray:
                raise _state_error(M, tangle, f"a ray closes into a circle at crossing {pos}")
            labels2 = list(labels)
            comps2 = [*comps, (cap_c, False)]
            coeff *= c.closure_coeff * circle_rule(left_dots + cup_c)
        else:
            merged = left_dots + right_dots + cup_m
            if merged >= 2:
                return  # a two-dot component kills the term
            labels2 = [left if label == right else label for label in labels]
            comps2 = [*comps, (cap_m, False)]
            comps2[left] = (merged, left_ray or right_ray)
            coeff *= c.merge_coeff
        labels2[pos - 1] = labels2[pos] = len(comps)
        recurse(layer_idx - 1, labels2, comps2, coeff)

    recurse(len(tangle.layers) - 1, labels, comps, 1)
    return out


def _reassemble(M: DottedMatching, tangle: FlatTangle, labels, comps,
                validated: dict) -> DottedMatching:
    """Read a boundary off a (labels, comps) state of M under TANGLE.

    VALIDATED memoizes ``validate``.  The component checks run for every
    call, and a failed one names M and the word.  ``validate`` runs once per
    distinct (arcs, rays, dotted) within one VALIDATED dict, which the
    caller keeps for one evaluation.
    """
    positions: dict[int, list[int]] = {}
    for v, label in enumerate(labels, 1):
        positions.setdefault(label, []).append(v)
    arcs = []
    rays = []
    dotted = []
    for label, vs in positions.items():
        dots, ray = comps[label]
        if len(vs) == 2:
            if ray:
                raise _state_error(M, tangle, "two boundary ends on a ray component")
            arc = (vs[0], vs[1])
            arcs.append(arc)
            if dots == 1:
                dotted.append(arc)
            elif dots >= 2:
                raise _state_error(M, tangle, "doubly dotted component survived")
        elif len(vs) == 1:
            if not ray:
                raise _state_error(M, tangle, "open non-ray component at the boundary")
            rays.append(vs[0])
        else:
            raise _state_error(M, tangle, f"component with {len(vs)} boundary ends")
    key = (tuple(arcs), tuple(rays), tuple(dotted))
    boundary_matching = validated.get(key)
    if boundary_matching is None:
        boundary_matching = validated[key] = validate(M.n, arcs, rays, dotted)
    return boundary_matching


def skein_act(sigma: Permutation, M: DottedMatching) -> HomClass:
    """Action of sigma on M computed by skein evaluation of a reduced word."""
    return resolve_evaluate(M, flatten(sigma.word(), M.n))


# --- calibration -------------------------------------------------------------

def _anchor_ok(closure_coeff: int, closure_dots: str) -> bool:
    """Turnback-operator constraints read off the two single caps.

    The closure branch alone must send the undotted cap to -2 times
    itself (in particular stay undotted) and the dotted cap to zero.  The
    identity coefficient is left to the full n = 2 agreement check.
    """
    cup, cap = _PLACEMENT_DOTS[closure_dots]
    return (cap == 0 and closure_coeff * circle_rule(cup) == -2
            and closure_coeff * circle_rule(1 + cup) == 0)


def _fits(c: ResolutionConvention, M: DottedMatching, tangle: FlatTangle,
          want: HomClass) -> bool:
    """Whether c evaluates the tangle under M to WANT; a raising evaluation does not fit."""
    try:
        return resolve_evaluate(M, tangle, c) == want
    except (InhomogeneousClass, InternalCheckError):
        return False


def _generator_pairs(n_max: int):
    """(M, i) for every standard M with 2 <= n <= N_MAX and every s_i of S_n, in search order."""
    for n in range(2, n_max + 1):
        for k in range(0, n // 2 + 1):
            for m in range(k + 1):
                for M in standard_dotted_matchings(n, k, m):
                    for i in range(1, n):
                        yield M, i


#: The deepest :func:`calibrate` searches: depth 11 takes 2.4 s, 12 6.5 s (CLI, 2 cores, 3.11).
CALIBRATE_CAP = 11


def calibrate(n_max: int) -> ResolutionConvention:
    """Search the convention family for agreement with the oracle action.

    The family takes every coefficient in -2..2 and every placement; the
    candidates are its ``_anchor_ok`` members, built in lexicographic order.
    One pass over the pairs (M, s_i): every standard dotted matching M
    with 2 <= n <= N_MAX, by n, k and grading m, and every generator s_i
    of S_n.  Each pair computes the tabloid-oracle action of s_i on M once
    and keeps the anchored candidates whose single-crossing skein
    evaluation equals it; the pass stops when none is left.  Depth 2
    leaves several fits and depth 3 pins one.

    Returns the unique fitting convention and changes nothing.  Raises
    DomainError below depth 2, where no generator acts; CapExceeded past
    depth CALIBRATE_CAP; NoConventionFits when the family is empty of fits
    at this depth; and MultipleConventionsFit (all fits attached, least
    first) when the depth under-constrains the family.
    """
    if n_max < 2:
        raise DomainError(f"calibration depth {n_max} is below 2, where no generator acts")
    if n_max > CALIBRATE_CAP:
        raise CapExceeded({"depth": n_max}, n_max, CALIBRATE_CAP,
                          f"would search past the depth cap of {CALIBRATE_CAP}")
    coeffs, placements = range(-2, 3), sorted(_PLACEMENT_DOTS)
    fits = [ResolutionConvention(ic, cc, cd, mc, md)
            for ic in coeffs for cc in coeffs for cd in placements if _anchor_ok(cc, cd)
            for mc in coeffs for md in placements]
    for M, i in _generator_pairs(n_max):
        if not fits:
            break
        tangle = flatten((i,), M.n)
        want = act_word([i], HomClass.of(M))
        fits = [c for c in fits if _fits(c, M, tangle, want)]
    if not fits:
        raise NoConventionFits(f"no convention matches the action up to n={n_max}")
    if len(fits) > 1:
        raise MultipleConventionsFit(fits)
    return fits[0]


def random_word(n: int, max_len: int, rng: random.Random) -> list[int]:
    length = rng.randint(0, max_len)
    return [rng.randint(1, n - 1) for _ in range(length)]


def skein_matches_action(word: list[int], M: DottedMatching) -> bool:
    return resolve_evaluate(M, flatten(word, M.n)) == act_word(word, HomClass.of(M))
