"""Exact tabloid arithmetic: polytabloids, matching vectors, characters.

Tabloids of two-row shape (n-m, m) are keyed by their bottom-row set.
The polytabloid of a standard tableau alternates over the column
stabilizer.  The matching vector of a dotted matching expands every
undotted arc into a difference of its two endpoint tabloids, oriented
toward the endpoint with the parity of n (an even count of vertices to
its right): each arc joins one even and one odd vertex, and this
orientation of the two-sphere factors is the one under which the class
map kills all three relation families, intertwines the
coordinate-permutation action, and commutes with completion.  For even n
and undotted arcs (1,2), (3,4), ... it reduces to right minus left and
the matching vector coincides with the polytabloid of the associated
tableau.

Two keys name one tabloid.  The reference API (``matching_terms``,
``polytabloid_terms``, ``TabloidVector``, ``tabloid_index``,
``tabloid_keys``) keys it by its bottom-row ``frozenset``.  The hot path
keys it by an integer bit mask, bit v for each bottom-row vertex v: the
one cached ``_mask_rows(n, m)`` table gives the masks in row order and
the row of each mask, in the same lexicographic order as
``tabloid_index``.  ``_pair_column`` expands a product of (plus - minus)
vertex pairs by doubling a list of masks, one pair at a time, and emits
the ``{row: int}`` column directly; ``_factor``'s matching columns,
``modules_equal``'s polytabloid side and the action's expanded terms are
all built this way, and no frozenset is made on that path.  The
``tabloids.integer-rows`` verify invariant checks the two keyings
against each other.

The action layer keeps one factor per (n, m), not per (n, k, m).  The
map M -> M.undotted is a bijection from the standard dotted matchings of
(n, k, m) onto those of (n, m, m), and ``tableau_of`` agrees along it
(the ``tabloid.graded-module`` verify invariant), so the degree-2m piece
is one module S^(n-m, m) for every k >= m.  A matching column reads only
n and the undotted arcs, so ``_factor(n, m)`` builds the columns and the
``ColumnSolver`` of the (n, m, m) basis once, and every solve runs in its
column numbering.  An (n, k, m) view is only the position table
``_positions(n, k, m)``: where each factor column sits in the (n, k, m)
basis, checked to be a bijection.  It decides where a result is written
and nothing else; ``modules_equal`` solves once per (n, m) in
``_comparison`` and writes the answer out through it.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import DomainError, InternalCheckError, SizeMismatch, SolveFailed
from .homology import HomClass, _check_grading
from .linalg import ColumnSolver, _dense
from .matchings import (DottedMatching, StandardTableau, check_tabloid_route,
                        standard_dotted_matchings, tableau_of)
from .permutations import Permutation
from .records import Record

TabloidKey = frozenset


class TabloidVector(Record, frozen=True):
    """Integer vector over m-subset tabloids (bottom-row sets)."""

    __slots__ = _fields = ("n", "m", "coords")

    @property
    def as_dict(self) -> dict[TabloidKey, int]:
        return dict(self.coords)

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def scale(self, c) -> "TabloidVector":
        return tabloid_vector(self.n, self.m, {k: c * v for k, v in self.coords})

    def to_row(self) -> list[int]:
        """Dense coordinates over all m-subsets of 1..n, sorted."""
        lookup = self.as_dict
        return [lookup.get(key, 0) for key in tabloid_keys(self.n, self.m)]


def tabloid_vector(n: int, m: int, coords: dict) -> TabloidVector:
    clean = {}
    for key, c in coords.items():
        key = frozenset(key)
        if len(key) != m:
            raise SizeMismatch(f"key {sorted(key)} is not an {m}-subset")
        if c != 0:
            clean[key] = c
    ordered = tuple(sorted(clean.items(), key=lambda t: sorted(t[0])))
    return TabloidVector(n, m, ordered)


@lru_cache(maxsize=None)
def tabloid_keys(n: int, m: int) -> tuple[TabloidKey, ...]:
    return tuple(frozenset(c) for c in itertools.combinations(range(1, n + 1), m))


@lru_cache(maxsize=None)
def tabloid_index(n: int, m: int) -> dict[TabloidKey, int]:
    """Row of each tabloid; rows run in lexicographic order of the sorted sets."""
    return {key: i for i, key in enumerate(tabloid_keys(n, m))}


@lru_cache(maxsize=None)
def _mask_rows(n: int, m: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """(masks in row order, {mask: row}) for the m-subset tabloids of 1..n.

    The mask of a bottom-row set has bit v for each vertex v; rows run in
    the order of ``tabloid_index``.
    """
    masks = tuple(sum(1 << v for v in c) for c in itertools.combinations(range(1, n + 1), m))
    return masks, {mask: r for r, mask in enumerate(masks)}


def permute(sigma: Permutation, v: TabloidVector) -> TabloidVector:
    if sigma.n != v.n:
        raise SizeMismatch(f"permutation on {sigma.n} letters, vector on {v.n}")
    return tabloid_vector(v.n, v.m, {sigma.apply_to_set(k): c for k, c in v.coords})


def _pair_terms(pairs) -> dict[TabloidKey, int]:
    """Expand the product of (plus - minus) over disjoint (plus, minus) vertex pairs.

    Each term picks one vertex from every pair; its key is the set of
    picks and its sign is -1 to the number of minus picks.  The pairing
    and orientation are the caller's: a tableau column, an oriented arc.
    This is the frozenset reference of ``_pair_column``.
    """
    out: dict[TabloidKey, int] = {}
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        out[frozenset(pair[p] for p, pair in zip(picks, pairs))] = (-1) ** sum(picks)
    return out


def _pair_column(pairs, row: dict[int, int]) -> dict[int, int]:
    """``_pair_terms(pairs)`` as a ``{row: int}`` column, over the masks of ``row``.

    Doubles a list of masks once per pair, last pair first, so the terms
    come in the order of ``_pair_terms``.
    """
    masks, signs = [0], [1]
    for plus, minus in reversed(pairs):
        p, q = 1 << plus, 1 << minus
        masks = [x | p for x in masks] + [x | q for x in masks]
        signs += [-s for s in signs]
    return {row[x]: s for x, s in zip(masks, signs)}


def _tableau_pairs(T: StandardTableau) -> tuple[tuple[int, int], ...]:
    """The (bottom, top) column pairs of a tableau: the polytabloid's pairs."""
    return tuple(zip(T.bottom, T.top))


def _arc_pairs(M: DottedMatching) -> list[tuple[int, int]]:
    """The undotted arcs of M as (plus, minus), plus the endpoint with the parity of n."""
    n = M.n
    oriented = []
    for i, j in M.undotted:
        if (i + j) % 2 == 0:
            raise DomainError(f"arc ({i},{j}) joins two vertices of equal parity")
        oriented.append((i, j) if i % 2 == n % 2 else (j, i))
    return oriented


def polytabloid_terms(T: StandardTableau) -> dict[TabloidKey, int]:
    """Integer terms of the polytabloid: alternating sum over the column stabilizer."""
    T.check()
    return _pair_terms(_tableau_pairs(T))


def polytabloid(T: StandardTableau) -> TabloidVector:
    """Alternating sum over the column stabilizer (order 2^m)."""
    return tabloid_vector(T.n, len(T.bottom), polytabloid_terms(T))


def matching_terms(M: DottedMatching) -> dict[TabloidKey, int]:
    """Integer terms of the matching vector of M (see ``matching_vector``)."""
    return _pair_terms(_arc_pairs(M))


@lru_cache(maxsize=None)
def _factor(n: int, m: int):
    """The one matching factor of grading m on n points: (place, columns, solver).

    Built on the standard basis of (n, m, m), the matchings with no dotted
    arc.  ``columns`` are their matching columns as ``{row: int}`` dicts
    over ``_mask_rows(n, m)``, ``solver`` the ``ColumnSolver`` over them,
    and ``place`` the column number of each tuple of undotted arcs.  A
    matching column reads only n and the undotted arcs (``_arc_pairs``),
    so every (n, k, m) solves against these columns in this numbering.
    """
    basis = standard_dotted_matchings(n, m, m)
    row = _mask_rows(n, m)[1]
    columns = [_pair_column(_arc_pairs(M), row) for M in basis]
    return {M.undotted: j for j, M in enumerate(basis)}, columns, ColumnSolver(columns)


@lru_cache(maxsize=None)
def _positions(n: int, k: int, m: int) -> tuple[int, ...]:
    """The (n, k, m) view of ``_factor(n, m)``: the basis position of each factor column.

    Entry j is the position, in the standard basis of (n, k, m), of the
    element with the undotted arcs of factor column j.  The view rests on
    the bijection M -> M.undotted from that basis onto the standard basis
    of (n, m, m), along which ``tableau_of`` agrees (the
    ``tabloid.graded-module`` verify invariant); it is checked here, between
    two independently listed bases (the (n, k, m) one walks only the
    matchings with at least k - m dottable arcs), and a basis element with
    no partner or a repeated partner, or a partner left over, raises
    InternalCheckError.  Every solve runs in the factor's
    numbering; the callers map its answers through this table.
    """
    basis = standard_dotted_matchings(n, k, m)
    place, shared, _ = _factor(n, m)
    where = f"graded module at (n, k, m) = ({n}, {k}, {m})"
    seen: dict[int, int] = {}  # shared column -> basis position
    for i, M in enumerate(basis):
        j = place.get(M.undotted)
        if j is None:
            raise InternalCheckError(f"{where}: no standard matching of ({n}, {m}, {m}) "
                                     f"has the undotted arcs of {M}")
        if j in seen:
            raise InternalCheckError(f"{where}: {M} repeats the undotted arcs of "
                                     f"{basis[seen[j]]}")
        seen[j] = i
    if len(seen) != len(shared):
        left = next(N for N in standard_dotted_matchings(n, m, m) if place[N.undotted] not in seen)
        raise InternalCheckError(f"{where}: no basis element has the undotted arcs of {left}")
    return tuple(seen[j] for j in range(len(shared)))


def matching_vector(M: DottedMatching) -> TabloidVector:
    """Signed tabloid expansion of the undotted arcs.

    Each undotted arc contributes (v at one endpoint) - (v at the other),
    positively oriented toward the endpoint lying an even number of
    vertices from the right edge of the diagram (the endpoint with the
    parity of n).  That orientation is invariant under completion and is
    the one under which all three relation families cancel.  Dots and
    rays contribute nothing; M need not be standard.
    """
    return tabloid_vector(M.n, M.m, matching_terms(M))


def zeta(x: HomClass) -> TabloidVector:
    """Linear extension of the matching-vector map to formal sums."""
    m = x.grading
    out: dict[TabloidKey, int] = {}
    for M, c in x.terms:
        for key, v in matching_terms(M).items():
            out[key] = out.get(key, 0) + c * v
    return tabloid_vector(x.n, m, out)


def f_embed(v: TabloidVector, pad: int) -> TabloidVector:
    """Shift every bottom-row set by ``pad`` into shape (n + pad - m, m)."""
    if pad < 0:
        raise DomainError(f"pad {pad} is negative")
    return tabloid_vector(
        v.n + pad, v.m, {frozenset(x + pad for x in k): c for k, c in v.coords}
    )


def shifted_permutation(sigma: Permutation, pad: int) -> Permutation:
    """The permutation fixing 1..pad and acting as sigma beyond it."""
    images = list(range(1, pad + 1)) + [sigma(i) + pad for i in range(1, sigma.n + 1)]
    return Permutation(tuple(images))


class ModuleComparison(Record):
    """Whether the two spans are equal, with both changes of basis, or None for each.

    Row i of ``tableau_in_matching`` is e_T(i) over the e_M basis, and
    row i of ``matching_in_tableau`` is e_M(i) over the e_T basis.
    """

    __slots__ = _fields = ("equal", "tableau_in_matching", "matching_in_tableau")


@lru_cache(maxsize=None)
def _comparison(n: int, m: int):
    """Both change-of-basis matrices of grading m on n points, or None when the spans differ.

    (tableau in matching, matching in tableau) as sparse rows over the
    standard basis of (n, m, m): row i holds the certified solve of the
    i-th polytabloid against the matching factor, or of the i-th matching
    column against the polytabloid factor, the one factored here.
    """
    _, m_cols, m_solver = _factor(n, m)
    row = _mask_rows(n, m)[1]
    t_cols = [_pair_column(_tableau_pairs(tableau_of(M)), row)
              for M in standard_dotted_matchings(n, m, m)]
    t_solver = ColumnSolver(t_cols)
    try:
        return [m_solver.solve(col) for col in t_cols], [t_solver.solve(col) for col in m_cols]
    except SolveFailed:
        return None


def modules_equal(n: int, m: int, k: int) -> ModuleComparison:
    """Span comparison of the tableau and matching spanning sets.

    The spanning sets are the polytabloids of standard (n-m, m) tableaux
    and the matching vectors of standard dotted matchings of type
    (n-k, k) with grading m, as sparse tabloid columns built on masks.
    Both factors are unit-triangular ``ColumnSolver``s; the spans
    coincide exactly when every vector of each set solves in the other,
    and those certified solves are the two integer change-of-basis
    matrices.  They are solved once per (n, m), by ``_comparison`` over
    the (n, m, m) basis, and written out here with rows and columns at
    their ``_positions`` in the (n, k, m) basis: ``tableau_of`` agrees
    along the view's bijection, so both bases only change order.
    """
    _check_grading(n, k, m)
    check_tabloid_route(n, k, m)
    positions = _positions(n, k, m)
    solved = _comparison(n, m)
    if solved is None:
        return ModuleComparison(False, None, None)
    order = sorted(range(len(positions)), key=positions.__getitem__)  # factor column by position
    t_in_m, m_in_t = ([_dense({positions[j]: c for j, c in rows[s].items()}, len(order))
                       for s in order] for rows in solved)
    return ModuleComparison(True, t_in_m, m_in_t)


# --- characters ----------------------------------------------------------------

@lru_cache(maxsize=None)
def irr_character(shape: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character of the irreducible labelled by ``shape`` at cycle type ``mu``.

    Border-strip (Murnaghan-Nakayama) recursion over partitions; exact.
    """
    shape = tuple(x for x in shape if x > 0)
    mu = tuple(x for x in mu if x > 0)
    if sum(shape) != sum(mu):
        raise DomainError(f"{shape} and {mu} partition different numbers")
    if not shape:
        return 1
    t = mu[0]
    rest = mu[1:]
    total = 0
    for strip, height in _border_strips(shape, t):
        total += (-1) ** height * irr_character(strip, rest)
    return total


def _border_strips(shape: tuple[int, ...], t: int):
    """Shapes obtained by removing a size-t border strip, with leg lengths.

    Beta-number formulation: with beta_i = shape_i + (rows - 1 - i), a
    strip removal subtracts t from one beta number without colliding with
    another; the leg length is the number of beta numbers jumped over.
    """
    rows = len(shape)
    beta = [shape[i] + (rows - 1 - i) for i in range(rows)]
    bset = set(beta)
    for b in beta:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        height = sum(1 for x in beta if nb < x < b)
        newshape = tuple(
            x - (rows - 1 - idx) for idx, x in enumerate(newbeta)
        )
        yield tuple(x for x in newshape if x > 0), height
