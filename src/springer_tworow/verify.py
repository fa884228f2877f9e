"""Named invariant suites for every module, runnable at a chosen depth.

Each check raises AssertionError on failure, with a message naming the
(n, k[, m]) and the input; run_all collects results.  Depth caps below
are the exhaustive bounds at which each property is asserted; the CLI's
-nmax lowers them uniformly, down to ``MIN_DEPTH``, the least depth at
which every suite asserts something.  The suites call the library through
its module attributes, so a fault planted in a module reaches each of them.

The unit tests and acceptance criteria call these checks, each at its
own depth and seed, instead of restating them, so every invariant is
written only here.  Every suite has a planted fault that makes it fail
(``tests/test_verify.py``); a suite whose faults others catch and whose
invariant another suite or a library check implies is retired.
"""
from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

from . import (action, cells, diagrams, homology, linalg, matchings, permutations, skein,
               subspaces, tabloids)
from .errors import DomainError, InternalCheckError
from .records import Record


def _types(n_max: int, n_min: int = 1):
    for n in range(n_min, n_max + 1):
        for k in range(0, n // 2 + 1):
            yield n, k


# --- matching-core ------------------------------------------------------------

def _reference_matchings(n: int, k: int) -> set[matchings.Matching]:
    """Independent oracle: try every pairing of every 2k-subset, filter."""
    result: set[matchings.Matching] = set()
    for support in itertools.combinations(range(1, n + 1), 2 * k):
        for arcs in _all_pairings(list(support)):
            b = diagrams._try_build(n, arcs)
            if b is not None:
                result.add(b)
    return result


def _all_pairings(vertices: list[int]) -> Iterator[list[tuple[int, int]]]:
    if not vertices:
        yield []
        return
    first, rest = vertices[0], vertices[1:]
    for idx, other in enumerate(rest):
        sub = rest[:idx] + rest[idx + 1:]
        for tail in _all_pairings(sub):
            yield [(first, other)] + tail


def _reference_dotted_matchings(n: int, k: int, m: int | None = None) -> tuple:
    """Every dotted matching of type (n-k, k) of grading m, built, then sorted by ``sort_key``."""
    out = [matchings.DottedMatching(base, dotted)
           for base in matchings.enumerate_matchings(n, k)
           for r in range(k + 1) if m is None or k - r == m
           for dotted in itertools.combinations(base.arcs, r)]
    return tuple(sorted(out, key=matchings.sort_key))


def check_enumeration_counts(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 10)):
        got = matchings.enumerate_matchings(n, k)
        assert len(got) == matchings.count_matchings(n, k), (n, k)
        assert len(set(got)) == len(got), (n, k)
        if n <= min(n_max, 8):
            assert set(got) == _reference_matchings(n, k), (n, k)


def check_completion_restriction(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 8)):
        seen = set()
        pad = n - 2 * k
        for a in matchings.enumerate_matchings(n, k):
            comp = matchings.complete(a)
            assert comp not in seen, (n, k, str(a), "completion not injective")
            seen.add(comp)
            assert comp.k == n - k and not comp.rays, (n, k, str(a), str(comp))
            assert matchings.restrict(comp, pad) == a, (n, k, str(a))
        n2 = 2 * (n - k)
        for b in matchings.enumerate_matchings(n2, n - k):
            if all(arc[1] > pad for arc in b.arcs):
                assert matchings.complete(matchings.restrict(b, pad)) == b, (n, k, str(b))


def check_standard_enumeration(n_max: int, rng) -> None:
    """The enumeration of the standard basis is the ``is_standard`` filter of the reference.

    For every (n, k) with n up to min(n_max, 12) and every m, None
    included, ``standard_dotted_matchings``, which lists the dot masks
    inside each base's ``dottable`` mask, lists the dotted matchings of
    the build-then-sort :func:`_reference_dotted_matchings` that satisfy
    the paper's definition.
    """
    for n, k in _types(min(n_max, 12)):
        for m in (None, *range(k + 1)):
            want = tuple(M for M in _reference_dotted_matchings(n, k, m) if M.is_standard)
            assert matchings.standard_dotted_matchings(n, k, m) == want, (n, k, m)


def check_codec_roundtrip(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 7)):
        for M in matchings.all_dotted_matchings(n, k):
            assert matchings.parse_matching(matchings.format_matching(M)) == M, (n, k, str(M))


# --- diagram-combinatorics -------------------------------------------------------

def check_ray_pairing(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 8)):
        for a in matchings.enumerate_matchings(n, k):
            for b in matchings.enumerate_matchings(n, k):
                glued = diagrams.glue(a, b)
                if not glued.compatible:
                    continue
                for t, (ra, rb) in enumerate(zip(a.rays, b.rays)):
                    line = next(c for c in glued.lines if ra in c.vertices)
                    assert rb in line.vertices, (n, k, str(a), str(b), t)


def check_component_steps(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 8)):
        ms = matchings.enumerate_matchings(n, k)
        graph = diagrams.arrow_graph(n, k)
        for b in ms:
            glued = {x: diagrams.glue(x, b) for x in ms}
            for a in ms:
                count = len(glued[a])
                assert count <= n - k, (n, k, str(a), str(b))
                # a single move changes the overlay count by exactly 1 while
                # both pairs stay compatible, and by at most 1 otherwise (a
                # ray move can leave it unchanged)
                for y in graph.successors[a]:
                    step = abs(count - len(glued[y]))
                    both = glued[a].compatible and glued[y].compatible
                    assert step == 1 if both else step <= 1, (n, k, str(a), str(y), str(b), step)
                if a == b or not glued[a].compatible:
                    continue
                seq = diagrams.minimal_sequence(a, b)
                where = (n, k, str(a), str(b))
                assert seq.certified and len(seq) == diagrams.distance(a, b), where
                for x, y in zip(seq.steps, seq.steps[1:]):
                    assert len(glued[x]) == len(glued[y]) - 1, (n, k, str(a), str(b), str(x))


def check_winding_parity(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 8)):
        ms = matchings.enumerate_matchings(n, k)
        for a in ms:
            for b in ms:
                glued = diagrams.glue(a, b)
                for comp in glued.circles:
                    arcs = comp.arcs_above
                    for (i, l), (j, kk) in itertools.permutations(arcs, 2):
                        if not (i < j and kk < l):
                            continue
                        between_same = any(
                            i < x < j and kk < y < l for x, y in arcs
                            if (x, y) not in ((i, l), (j, kk))
                        )
                        if between_same:
                            continue
                        between_all = sum(
                            1 for x, y in a.arcs if i < x < j and kk < y < l
                        )
                        assert between_all % 2 == 0, (n, k, str(a), str(b), (i, l), (j, kk))


def _reference_successors(a) -> list:
    """Every (b, move) with a -> b, by building and validating each candidate move.

    Each pair of unnested arcs (i, j), (p, q) is nested, move (i, j, p, q),
    and each ray r is paired with each arc (j, l) to its right, move
    (r, j, l); a candidate survives if no two of its arcs cross and no ray
    lies under an arc.  Sorted by b's (arcs, rays), the node order.
    """
    out = []
    arcs = set(a.arcs)
    for (i, j) in a.arcs:
        for (p, q) in a.arcs:
            if j < p:
                nested = arcs - {(i, j), (p, q)} | {(i, q), (j, p)}
                out.append((diagrams._try_build(a.n, nested), (i, j, p, q)))
    for r in a.rays:
        for (j, l) in a.arcs:
            if r < j:
                out.append((diagrams._try_build(a.n, arcs - {(j, l)} | {(r, j)}), (r, j, l)))
    return sorted(((b, move) for b, move in out if b is not None),
                  key=lambda pair: (pair[0].arcs, pair[0].rays))


def check_arrow_table(n_max: int, rng) -> None:
    """The nesting scan's arrow graph equals the generate-and-validate reference.

    For every (n, k) with n up to min(n_max, 12): each node's (successor,
    move) pairs in the move table, in order, and its successors and
    predecessors in node order; for each arrow a -> b the position masks
    decode to the sorted common arcs and then to the arcs that move.
    """
    for n, k in _types(min(n_max, 12), n_min=0):
        graph = diagrams.arrow_graph(n, k)
        predecessors = {a: [] for a in graph.nodes}
        for a in graph.nodes:
            moves = [(b, move) for b, move, *_ in graph.arrows[a]]
            assert moves == _reference_successors(a), (n, k, str(a))
            assert list(graph.successors[a]) == [b for b, _ in moves], (n, k, str(a))
            for b, move, a_bits, b_bits in graph.arrows[a]:
                predecessors[b].append(a)
                shared = tuple(sorted(set(a.arcs) & set(b.arcs)))
                where, s = (n, k, str(a), str(b)), len(shared)
                assert len(a_bits) == len(b_bits) == s + len(move) - 2, where
                assert _arcs(a, a_bits[:s]) == _arcs(b, b_bits[:s]) == shared, where
                assert set(_arcs(a, a_bits[s:])) == set(a.arcs) - set(shared), where
                assert set(_arcs(b, b_bits[s:])) == set(b.arcs) - set(shared), where
        assert {a: list(v) for a, v in graph.predecessors.items()} == predecessors, (n, k)


def _arcs(a, bits) -> tuple:
    """The arcs of a at the positions of single-bit masks."""
    return tuple(a.arcs[bit.bit_length() - 1] for bit in bits)


def check_linear_extension(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 8)):
        for variant in (0, 1, 2, 3):
            order = diagrams.linear_order(n, k, variant)
            position = {a: i for i, a in enumerate(order)}
            for a in order:
                for b in diagrams.arrow_successors(a):
                    assert position[a] < position[b], (n, k, variant, str(a), str(b))


def check_meet(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 7)):
        ms = matchings.enumerate_matchings(n, k)
        for a in ms:
            for b in ms:
                c = diagrams.meet(a, b)
                where = (n, k, str(a), str(b), str(c))
                assert diagrams.reachable(c, a) and diagrams.reachable(c, b), where
                assert (diagrams.distance(a, c) + diagrams.distance(c, b)
                        == diagrams.distance(a, b)), where


# --- sphere-subspaces ---------------------------------------------------------------

def check_fung_and_circles(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 8)):
        ms = matchings.enumerate_matchings(n, k)
        spaces = {a: subspaces.subspace_of(a) for a in ms}
        for a in ms:
            assert spaces[a].dimension == 2 * k, (n, k, str(a))
            for b in ms:
                inter = spaces[a].intersect(spaces[b])
                if diagrams.compatible(a, b):
                    assert not inter.empty, (n, k, str(a), str(b))
                    assert inter.free_class_count == len(diagrams.glue(a, b).circles), (
                        n, k, str(a), str(b))
                else:
                    assert inter.empty, (n, k, str(a), str(b))


def check_intersect_triple(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 7)):
        ms = matchings.enumerate_matchings(n, k)
        spaces = {a: subspaces.subspace_of(a) for a in ms}
        dist = {(x, y): diagrams.distance(x, y) for x in ms for y in ms}
        for a in ms:
            for b in ms:
                if not diagrams.compatible(a, b):
                    continue
                for c in ms:
                    if dist[a, c] == dist[a, b] + dist[b, c]:
                        lhs = spaces[a].intersect(spaces[c])
                        rhs = lhs.intersect(spaces[b])
                        assert lhs == rhs, (n, k, str(a), str(b), str(c))


def check_intersection_witness(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 7)):
        order = diagrams.linear_order(n, k)
        spaces = {a: subspaces.subspace_of(a) for a in order}
        graph = diagrams.arrow_graph(n, k)
        for idx, a in enumerate(order):
            for b in order[:idx]:
                inter = spaces[a].intersect(spaces[b])
                if inter.empty:
                    continue
                witnesses = [
                    a1 for a1 in graph.predecessors[a]
                    if spaces[a].intersect(spaces[a1]).contains(inter)
                ]
                assert witnesses, (n, k, str(a), str(b))


def check_pointmaps(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 6)):
        for a in matchings.enumerate_matchings(n, k):
            plain = subspaces.subspace_of(a)
            primed = subspaces.subspace_of(a, "primed")
            assert plain.apply_gamma() == primed, (n, k, str(a))
            assert plain.apply_gamma().apply_gamma() == plain, (n, k, str(a))
            target = 2 * (n - k)
            eta_first = plain.apply_eta(target).apply_gamma()
            assert eta_first == plain.apply_gamma().apply_iota(target), (n, k, str(a))


# --- cell-decompositions ----------------------------------------------------------

def check_cell_counts(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 8)):
        for a in matchings.enumerate_matchings(n, k):
            forest = cells.arc_forest(a)
            assert len(forest.edges) + len(forest.roots) == k, (n, k, str(a))
            fc = cells.forest_cells(a)
            cc = cells.cartesian_cells(a)
            assert len(fc) == len(cc) == 2 ** k, (n, k, str(a))
            for cell_list in (fc, cc):
                by_dim: dict[int, int] = {}
                for _, dim in cell_list:
                    by_dim[dim] = by_dim.get(dim, 0) + 1
                want = {2 * j: math.comb(k, j) for j in range(k + 1)}
                assert by_dim == want, (n, k, str(a), by_dim)


def check_forest_edges_are_moves(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 7)):
        for a in matchings.enumerate_matchings(n, k):
            forest = cells.arc_forest(a)
            for (i, l), (j, kk) in forest.edges:
                arcs = set(a.arcs) - {(i, l), (j, kk)} | {(i, j), (kk, l)}
                b = diagrams._try_build(n, arcs)
                assert b is not None and diagrams.is_arrow(b, a), (n, k, str(a), (i, l), (j, kk))


def check_subcomplexes(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 7)):
        graph = diagrams.arrow_graph(n, k)
        for b in graph.nodes:
            for a in graph.successors[b]:
                inter = subspaces.subspace_of(a).intersect(subspaces.subspace_of(b))
                sub = cells.subcomplex_cells(a, b)
                circles = len(diagrams.glue(a, b).circles)
                poly: dict[int, int] = {}
                for J, dim in sub:
                    cell = cells.forest_cell_subspace(a, J)
                    assert inter.contains(cell), (n, k, str(a), str(b), J)
                    poly[dim] = poly.get(dim, 0) + 1
                assert poly == {2 * j: math.comb(circles, j) for j in range(circles + 1)}, (
                    n, k, str(a), str(b), poly)
                minimal = min(sub, key=lambda t: len(t[0]))[0]
                assert cells.forest_cell_subspace(a, minimal) == inter, (n, k, str(a), str(b))


# --- homology-presentation ----------------------------------------------------------

def check_reduce_agreement(n_max: int, rng) -> None:
    """Both reduction routes agree on every dotted matching, to n = min(n_max, 9)."""
    for n, k in _types(min(n_max, 9)):
        for M in matchings.all_dotted_matchings(n, k):
            x = homology.HomClass.of(M)
            linear = homology.reduce_class(x)
            rewrite = homology.reduce_by_rewriting(x)
            assert linear == rewrite, (n, k, str(M))
            assert all(N.is_standard for N, _ in linear.terms), (n, k, str(M))


def check_psi_peel(n_max: int, rng) -> None:
    """The ψ₋ rows alone prove the standard basis, up to n = min(n_max, 13).

    ``linalg.normal_forms`` of ``_relation_rows``, the ψ₋ rows
    (``homology.psi-rows``), with the nonstandard columns as pivots, peels
    every nonstandard column with a ±1 entry and leaves no row that fails
    to vanish (it raises otherwise).  So the integral cokernel of ψ₋ is
    free on the standard columns.
    """
    for n, k in _types(min(n_max, 13)):
        bases = matchings.enumerate_matchings(n, k)
        for m in range(k + 1):
            pivots = homology._nonstandard_columns(bases, matchings._column_numbers(k, m)[0])
            forms = _normal_forms(homology._relation_rows(n, k, m), pivots)
            assert isinstance(forms, dict), (n, k, m, forms)


def _normal_forms(rows, pivots) -> dict | str:
    """``linalg.normal_forms(rows, pivots)``, or the message of the InternalCheckError it raises."""
    try:
        return linalg.normal_forms(rows, pivots)
    except InternalCheckError as exc:
        return str(exc)


def check_psi_rows(n_max: int, rng) -> None:
    """Every local relation is a ψ₋ row: ``_relation_rows`` lists push(a, b, F) - push(b, a, F).

    ``push`` is ``pushforward_inclusion``, a -> b runs over the arrows and
    F over the m-subsets of ``glue(a, b).circles``; per (n, k, m) with n
    up to min(n_max, 10) the two lists hold the same rows, each as often.
    The order is pinned by ``reference_relations`` in the tests, and
    ``homology.order-independence`` shows that no result depends on it.
    m = 1 rows hold one circle each, so the arrow-move table's moved arcs
    are checked too; the reference shares no code with that table.
    """
    push = homology.pushforward_inclusion
    for n, k in _types(min(n_max, 10)):
        graph = diagrams.arrow_graph(n, k)
        for m in range(k + 1):
            index = {M: c for c, M in enumerate(matchings.all_dotted_matchings(n, k, m))}
            want = [{index[M]: c for M, c in (push(a, b, F) - push(b, a, F)).terms}
                    for a in graph.nodes for b in graph.successors[a]
                    for F in map(set, itertools.combinations(
                        range(len(diagrams.glue(a, b).circles)), m))]
            got = homology._relation_rows(n, k, m)
            assert sorted(sorted(row.items()) for row in got) == sorted(
                sorted(row.items()) for row in want), (n, k, m)


def check_column_numbers(n_max: int, rng) -> None:
    """``matchings._column_numbers`` gives each dotted matching its sorted position.

    For every (n, k) with n up to min(n_max, 12) and every m, None
    included, ``all_dotted_matchings(n, k, m)`` is the build-then-sort
    :func:`_reference_dotted_matchings`, and the closed form (index of the
    base) * len(masks) + rank[M.mask] is each matching's position there.
    """
    for n, k in _types(min(n_max, 12)):
        base = {a: i for i, a in enumerate(matchings.enumerate_matchings(n, k))}
        for m in [None, *range(k + 1)]:
            masks, rank = matchings._column_numbers(k, m)
            want = _reference_dotted_matchings(n, k, m)
            assert matchings.all_dotted_matchings(n, k, m) == want, (n, k, m)
            for column, M in enumerate(want):
                assert base[M.base] * len(masks) + rank[M.mask] == column, (n, k, m, str(M))


def check_betti_both_ways(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 9)):
        expected = [len(matchings.standard_dotted_matchings(n, k, m)) for m in range(k + 1)]
        assert homology.betti(n, k) == expected, (n, k)
        assert homology.presentation_betti(n, k) == expected, (n, k)


def check_order_independence(n_max: int, rng) -> None:
    """Relisting the ψ₋ rows changes no normal form, n up to min(n_max, 7).

    Each :func:`_listings` of an (n, k, m)'s ``_relation_rows`` gives
    ``_reduction_data``'s forms.  Equal forms peel the same pivots, so the
    cokernel rank does not depend on the order either.
    """
    for n, k in _types(min(n_max, 7)):
        for m in range(k + 1):
            width, forms = math.comb(k, m), homology._reduction_data(n, k, m)[1]
            for how, rows in _listings(n, k, width, homology._relation_rows(n, k, m), rng):
                assert _normal_forms(rows, forms) == forms, (n, k, m, how)


def _listings(n: int, k: int, width: int, rows, rng) -> Iterator[tuple[str, list]]:
    """(name, rows) along each ``diagrams.linear_order(n, k, v)``, v = 0, 1, 2, then shuffled.

    The rows come in node order of their sources, and a row's source is
    the node whose block of ``width`` columns holds its +1 entries, so a
    stable sort by the source's place lists the rows along an extension.
    """
    rows, nodes = list(rows), diagrams.arrow_graph(n, k).nodes
    sources = [nodes[min(c for c, x in row.items() if x == 1) // width] for row in rows]
    for v in (0, 1, 2):
        place = {a: i for i, a in enumerate(diagrams.linear_order(n, k, v))}
        ranked = sorted(range(len(rows)), key=lambda i: place[sources[i]])
        yield f"extension {v}", [rows[i] for i in ranked]
    yield "shuffle", rng.sample(rows, len(rows))


def check_zeta_kills_relations(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 7)):
        for rel in homology.relation_instances(n, k):
            assert tabloids.zeta(rel).is_zero, (n, k, str(rel))


# --- specht-tabloids ------------------------------------------------------------------

def check_permute_action(n_max: int, rng) -> None:
    n = min(n_max, 6)
    for _ in range(20):
        m = rng.randint(0, n // 2)
        keys = list(tabloids.tabloid_keys(n, m))
        v = tabloids.tabloid_vector(
            n, m, {keys[rng.randrange(len(keys))]: rng.randint(-3, 3) for _ in range(3)}
        )
        sigma = permutations.Permutation(tuple(rng.sample(range(1, n + 1), n)))
        tau = permutations.Permutation(tuple(rng.sample(range(1, n + 1), n)))
        where = (n, m, sigma.images, tau.images)
        assert tabloids.permute(sigma * tau, v) == tabloids.permute(
            sigma, tabloids.permute(tau, v)), where
        assert tabloids.permute(permutations.identity(n), v) == v, where


def check_matching_vector_depends_on_undotted(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 6)):
        by_undotted: dict[tuple, object] = {}
        for M in matchings.all_dotted_matchings(n, k):
            vec = tabloids.matching_vector(M)
            seen = by_undotted.setdefault(M.undotted, vec)
            assert vec == seen, (n, k, str(M))


def check_f_embed(n_max: int, rng) -> None:
    """Completion commutes with the matching vector, and f_embed intertwines the action.

    For n up to min(n_max, 6): f_embed of each standard matching vector is
    the vector of its completion, and f_embed(s_i v) is the shifted s_i
    applied to f_embed(v) for every tabloid v and every adjacent s_i.
    With the certified solve of ``act``, ``tabloids.integer-rows`` and
    ``tabloid.graded-module``, which make zeta(s_i x) = s_i zeta(x), this
    carries the action through the completion embedding (eta) on every
    class.
    """
    for n, k in _types(min(n_max, 6)):
        pad = n - 2 * k
        for M in matchings.standard_dotted_matchings(n, k):
            embedded = tabloids.f_embed(tabloids.matching_vector(M), pad)
            assert embedded == tabloids.matching_vector(matchings.complete_dotted(M)), (
                n, k, str(M))
        for m in range(k + 1):
            for key in tabloids.tabloid_keys(n, m):
                v = tabloids.tabloid_vector(n, m, {key: 1})
                for i in range(1, n):
                    sigma = permutations.adjacent(n, i)
                    lhs = tabloids.f_embed(tabloids.permute(sigma, v), pad)
                    shifted = tabloids.shifted_permutation(sigma, pad)
                    assert lhs == tabloids.permute(shifted, tabloids.f_embed(v, pad)), (
                        n, k, m, sorted(key), i)


def check_integer_rows(n_max: int, rng) -> None:
    """The action layer's bit-mask rows agree with the frozenset reference.

    At every (n, m) with n up to min(n_max, 10): ``_mask_rows`` lists the
    mask of each ``tabloid_keys`` entry in row order, and for a seeded
    sigma and every adjacent transposition, ``action._RowMap`` sends every
    row r to ``tabloid_index[sigma.apply_to_set(keys[r])]``.  For every
    dotted matching M, standard or not, the ``_pair_column`` of its arc
    pairs equals ``matching_terms`` looked up in ``tabloid_index``; for a
    standard M so does the column of ``tableau_of(M)``'s pairs against
    ``polytabloid_terms``, and each ``_factor`` column is the column of the
    basis element at its ``_positions`` entry.  No production path builds
    a pole-flip column, and ``action.gamma-agreement`` holds pole-flip
    terms to matching terms.
    """
    for n in range(1, min(n_max, 10) + 1):
        for m in range(n // 2 + 1):
            index, keys = tabloids.tabloid_index(n, m), tabloids.tabloid_keys(n, m)
            masks, row = tabloids._mask_rows(n, m)
            assert masks == tuple(sum(1 << v for v in key) for key in keys), (n, m)
            assert row == {mask: r for r, mask in enumerate(masks)}, (n, m)
            seeded = permutations.Permutation(tuple(rng.sample(range(1, n + 1), n)))
            for sigma in [seeded] + [permutations.adjacent(n, i) for i in range(1, n)]:
                moved = action._RowMap(sigma, n, m)
                for r, key in enumerate(keys):
                    assert moved[r] == index[sigma.apply_to_set(key)], (n, m, sigma.images, r)
        for k in range(n // 2 + 1):
            for m in range(k + 1):
                index, row = tabloids.tabloid_index(n, m), tabloids._mask_rows(n, m)[1]

                def reference(terms):
                    return {index[key]: v for key, v in terms.items()}

                standard = []
                for M in matchings.all_dotted_matchings(n, k, m):
                    families = [("matching", tabloids._arc_pairs(M), tabloids.matching_terms(M))]
                    if M.is_standard:
                        T = matchings.tableau_of(M)
                        families.append(("polytabloid", tabloids._tableau_pairs(T),
                                         tabloids.polytabloid_terms(T)))
                        standard.append(reference(tabloids.matching_terms(M)))
                    for family, pairs, terms in families:
                        got = tabloids._pair_column(pairs, row)
                        assert got == reference(terms), ((n, k, m), str(M), family)
                columns = tabloids._factor(n, m)[1]
                positions = tabloids._positions(n, k, m)
                assert [standard[i] for i in positions] == columns, (n, k, m)


def check_unit_triangular(n_max: int, rng) -> None:
    """Standard columns are unit-triangular on their tableau bottom rows.

    For the matching vector and the polytabloid of tableau_of(M), the
    lexicographically last key with a nonzero entry is the bottom row of
    tableau_of(M), and that entry is +-1.  The integer solve of the action
    relies on this.  The pole-flip image is the matching vector up to sign
    (``action.gamma-agreement``), so it is unit-triangular too.
    """
    for n, k in _types(min(n_max, 10)):
        for M in matchings.standard_dotted_matchings(n, k):
            T = matchings.tableau_of(M)
            families = (
                ("matching vector", tabloids.matching_terms(M)),
                ("polytabloid", tabloids.polytabloid_terms(T)),
            )
            for family, terms in families:
                last = max(tuple(sorted(key)) for key, c in terms.items() if c)
                entry = terms[frozenset(last)]
                assert last == T.bottom and entry in (1, -1), (
                    (n, k, M.m), str(M), family, last, entry)


def check_modules_equal(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 7)):
        for m in range(k + 1):
            assert tabloids.modules_equal(n, m, k).equal, (n, k, m)


def check_graded_module(n_max: int, rng) -> None:
    """Every (n, k, m) view is the (n, m, m) graded module with its basis reordered.

    For n up to min(n_max, 12) and every k >= m: the basis of (n, m, m)
    has ``count_matchings(n, m)`` elements, the number of standard tableaux
    of shape (n - m, m); M -> M.undotted is a bijection from
    ``standard_dotted_matchings(n, k, m)`` onto that basis; ``tableau_of``
    agrees along it; ``matching_of(tableau_of(M), k)`` gives M back, so
    ``tableau_of`` is injective and ``standard_layout`` rebuilds M from its
    undotted arcs; and ``tabloids._positions(n, k, m)`` is the
    bijection's inverse.  The action layer shares one factor per (n, m),
    ``tabloids._factor(n, m)``, on this bijection.  The two bases are
    listed independently, the (n, m, m) one from every matching of type
    (n - m, m) and the (n, k, m) one from the matchings of type (n - k, k)
    with at least k - m dottable arcs, so the bijection checks the one
    listing against the other; ``matching.standard-enumeration`` holds
    both to the paper's ``is_standard``.
    """
    for n in range(1, min(n_max, 12) + 1):
        for m in range(n // 2 + 1):
            shared = matchings.standard_dotted_matchings(n, m, m)
            place = {M.undotted: j for j, M in enumerate(shared)}
            assert len(place) == len(shared) == matchings.count_matchings(n, m), (n, m)
            for k in range(m, n // 2 + 1):
                basis = matchings.standard_dotted_matchings(n, k, m)
                order = [place.get(M.undotted) for M in basis]
                assert None not in order and sorted(order) == list(range(len(shared))), \
                    ((n, k, m), [str(M) for M, j in zip(basis, order) if j is None])
                for M, j in zip(basis, order):
                    T = matchings.tableau_of(M)
                    partner = matchings.tableau_of(shared[j])
                    assert T == partner, ((n, k, m), str(M), str(shared[j]))
                    assert matchings.matching_of(T, k) == M, ((n, k, m), str(M))
                positions = tabloids._positions(n, k, m)
                assert [positions[j] for j in order] == list(range(len(basis))), (n, k, m)


def check_young_rule(n_max: int, rng) -> None:
    """Young's rule: sum over m <= k of irr_character((n - m, m), mu) counts fixed k-subsets.

    The permutation module on k-subsets is the sum of the two-row
    irreducibles with m <= k, so its character at sigma, the number of
    k-subsets sigma fixes, is counted here as the number of ways to pick
    cycles of sigma with total length k, sharing no formula with the
    border-strip recursion.
    """
    for n in range(1, min(n_max, 14) + 1):
        half = n // 2
        for mu in permutations.partitions(n):
            fixed = [1] + [0] * half  # fixed[s]: sets of cycles of total length s
            for length in mu:
                for s in range(half, length - 1, -1):
                    fixed[s] += fixed[s - length]
            total = 0
            for k in range(half + 1):
                total += tabloids.irr_character((n - k, k), mu)
                assert total == fixed[k], (n, mu, k, total, fixed[k])


# --- springer-action -------------------------------------------------------------------

def check_action_graded_and_group(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 6), n_min=2):
        for m in range(k + 1):
            basis = matchings.standard_dotted_matchings(n, k, m)
            if not basis:
                continue
            for _ in range(5):
                word1 = skein.random_word(n, 4, rng)
                word2 = skein.random_word(n, 4, rng)
                x = homology.HomClass.of(basis[rng.randrange(len(basis))])
                sigma1 = permutations.from_word(word1, n)
                sigma2 = permutations.from_word(word2, n)
                lhs = action.act(sigma1 * sigma2, x)
                rhs = action.act(sigma1, action.act(sigma2, x))
                assert lhs == rhs, (n, k, m, word1, word2, str(x))
                assert lhs.is_zero or lhs.grading == m, (n, k, m, word1, word2, str(x))


def check_gamma_agreement(n_max: int, rng) -> int:
    """Pole-flip terms are matching terms times (-1)^(m*(n mod 2)).

    Checked on every dotted matching with n up to min(n_max, 10).  So the
    pole-flip route acts as ``act`` does, and no second solve runs.
    Returns the number of dotted matchings whose terms were compared.
    """
    count = 0
    for n, k in _types(min(n_max, 10)):
        for M in matchings.all_dotted_matchings(n, k):
            sign = (-1) ** (M.m * (n % 2))
            want = {key: sign * v for key, v in tabloids.matching_terms(M).items()}
            assert action.line_diagram_terms(M) == want, (n, k, str(M))
            count += 1
    return count


def check_image_stability(n_max: int, rng) -> None:
    """The completed standard basis spans a lattice kept by S_n on the last n points.

    Checked for n up to min(n_max, 5).  Each completion reduces to a single
    ±1 term, so a class lies in that span when every term's column is the
    column of an image.
    """
    for n, k in _types(min(n_max, 5), n_min=2):
        if k == n // 2 and n % 2 == 0:
            continue  # eta is the identity there
        pad = n - 2 * k
        n2 = 2 * (n - k)
        for m in range(k + 1):
            images = []
            for M in matchings.standard_dotted_matchings(n, k, m):
                image = homology.reduce_class(homology.HomClass.of(matchings.complete_dotted(M)))
                assert len(image.terms) == 1 and abs(image.terms[0][1]) == 1, (
                    n, k, m, str(M), str(image))
                images.append(image)
            columns = {image.terms[0][0] for image in images}
            for image in images:
                for i in range(pad + 1, n2):
                    moved = action.act(permutations.adjacent(n2, i), image).terms
                    assert all(N in columns for N, _ in moved), (n, k, m, i)


def check_trace_agreement(n_max: int, rng) -> None:
    """``ColumnSolver.trace`` is the diagonal sum of ``rep_matrix``.

    Compared for every class representative and one seeded random
    permutation, at every (n, k, m) with n up to min(n_max, 10), against
    one dual basis per (n, m): every k >= m reads the same factor.
    ``character_table_check`` reads its class traces off the factor this
    way, after its generator solves have proved the span S_n-stable.
    """
    for n in range(1, min(n_max, 10) + 1):
        classes = [permutations.class_representative(mu, n) for mu in permutations.partitions(n)]
        for m in range(n // 2 + 1):
            dual = tabloids._factor(n, m)[2].dual_basis()
            for k in range(m, n // 2 + 1):
                seeded = permutations.Permutation(tuple(rng.sample(range(1, n + 1), n)))
                for sigma in classes + [seeded]:
                    mat = action.rep_matrix(sigma, n, k, m)
                    diagonal = sum(mat[i][i] for i in range(len(mat)))
                    got = action._factor_trace(sigma, n, m, dual)
                    assert got == diagonal, ((n, k, m), sigma.images, got, diagonal)


def check_characters(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 6), n_min=2):
        report = action.character_table_check(n, k)
        assert report.ok, ((n, k), report.failures)


def check_chart_anchors(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 5), n_min=2):
        chart = action.derive_chart(n, k)
        assert chart.ok, ((n, k), chart.anchor_failures)


# --- skein ---------------------------------------------------------------------------

def check_skein_calibration(n_max: int, rng) -> None:
    """``calibrate`` up to n = min(n_max, 5) returns the convention of the package.

    Its one fit evaluates every s_i on every standard M with n up to that
    depth as the tabloid action does.
    """
    depth = max(3, min(n_max, 5))
    convention = skein.calibrate(depth)
    assert convention == skein.CALIBRATED_CONVENTION, (depth, convention)


def check_skein_fold_agreement(n_max: int, rng) -> None:
    """The layer fold equals the full expansion summed by boundary, for every dotted matching."""
    for n, k in _types(min(n_max, 7), n_min=2):
        for M in matchings.all_dotted_matchings(n, k):
            word = skein.random_word(n, 8, rng)
            tangle = skein.flatten(word, n)
            got = skein.boundary_coefficients(M, tangle)
            assert got == skein.expanded_coefficients(M, tangle), (n, k, str(M), word)


def check_skein_random_words(n_max: int, rng) -> None:
    for n, k in _types(min(n_max, 4), n_min=2):
        basis = matchings.standard_dotted_matchings(n, k)
        for _ in range(100):
            word = skein.random_word(n, 6, rng)
            M = basis[rng.randrange(len(basis))]
            assert skein.skein_matches_action(word, M), (n, k, str(M), word)


def check_skein_word_invariance(n_max: int, rng) -> None:
    """Every reduced word one commuting swap away evaluates like sigma's own word."""
    for n, k in _types(min(n_max, 4), n_min=2):
        for _ in range(20):
            sigma = permutations.Permutation(tuple(rng.sample(range(1, n + 1), n)))
            word = sigma.word()
            words = {word}
            for i in range(len(word) - 1):
                a, b = word[i], word[i + 1]
                if abs(a - b) >= 2:
                    words.add(word[:i] + (b, a) + word[i + 2:])
            assert all(permutations.from_word(w, n) == sigma for w in words), (n, sigma.images)
            for M in matchings.standard_dotted_matchings(n, k)[:4]:
                results = {str(skein.resolve_evaluate(M, skein.flatten(w, n))) for w in words}
                assert len(results) == 1, (n, k, sigma.images, str(M))


# --- registry ---------------------------------------------------------------------------

class Check(Record):
    __slots__ = _fields = ("name", "fn")


CHECKS: list[Check] = [
    Check("matching.enumeration-counts", check_enumeration_counts),
    Check("matching.completion-restriction", check_completion_restriction),
    Check("matching.standard-enumeration", check_standard_enumeration),
    Check("matching.codec-roundtrip", check_codec_roundtrip),
    Check("diagram.ray-pairing", check_ray_pairing),
    Check("diagram.component-steps", check_component_steps),
    Check("diagram.winding-parity", check_winding_parity),
    Check("diagram.arrow-table", check_arrow_table),
    Check("diagram.linear-extension", check_linear_extension),
    Check("diagram.meet", check_meet),
    Check("subspace.fung-and-circles", check_fung_and_circles),
    Check("subspace.triple-intersection", check_intersect_triple),
    Check("subspace.intersection-witness", check_intersection_witness),
    Check("subspace.pointmaps", check_pointmaps),
    Check("cells.counts", check_cell_counts),
    Check("cells.forest-edges", check_forest_edges_are_moves),
    Check("cells.subcomplexes", check_subcomplexes),
    Check("homology.reduce-agreement", check_reduce_agreement),
    Check("homology.psi-peel", check_psi_peel),
    Check("homology.psi-rows", check_psi_rows),
    Check("homology.column-numbers", check_column_numbers),
    Check("homology.betti-both-ways", check_betti_both_ways),
    Check("homology.order-independence", check_order_independence),
    Check("zeta.kills-relations", check_zeta_kills_relations),
    Check("tabloid.permute-action", check_permute_action),
    Check("tabloid.undotted-dependence", check_matching_vector_depends_on_undotted),
    Check("tabloid.f-embed", check_f_embed),
    Check("tabloid.modules-equal", check_modules_equal),
    Check("tabloid.graded-module", check_graded_module),
    Check("tabloids.young-rule", check_young_rule),
    Check("tabloids.integer-rows", check_integer_rows),
    Check("action.unit-triangular", check_unit_triangular),
    Check("action.graded-group-laws", check_action_graded_and_group),
    Check("action.gamma-agreement", check_gamma_agreement),
    Check("action.image-stability", check_image_stability),
    Check("action.trace-agreement", check_trace_agreement),
    Check("action.characters", check_characters),
    Check("action.chart-anchors", check_chart_anchors),
    Check("skein.calibration", check_skein_calibration),
    Check("skein.fold-agreement", check_skein_fold_agreement),
    Check("skein.random-words", check_skein_random_words),
    Check("skein.word-invariance", check_skein_word_invariance),
]


MIN_DEPTH = 4


def run_all(n_max: int, seed: int = 0, names: list[str] | None = None):
    """Run the suites; returns (all_ok, [(name, ok, message)]).

    Unknown names, then a depth below ``MIN_DEPTH``, raise DomainError first.
    """
    unknown = sorted(set(names or ()) - {check.name for check in CHECKS})
    if unknown:
        raise DomainError(f"unknown checks: {', '.join(unknown)}")
    if n_max < MIN_DEPTH:
        raise DomainError(f"depth {n_max} is below {MIN_DEPTH}, where some suites check nothing")
    results = []
    ok_all = True
    for check in CHECKS:
        if names and check.name not in names:
            continue
        rng = random.Random(seed)
        try:
            check.fn(n_max, rng)
            results.append((check.name, True, ""))
        except AssertionError as exc:
            ok_all = False
            results.append((check.name, False, str(exc)))
        except Exception as exc:  # a crashed check must not abort the suite
            ok_all = False
            results.append((check.name, False, f"{type(exc).__name__}: {exc}"))
    return ok_all, results
