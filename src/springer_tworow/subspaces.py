"""Sign-labeled partition model of the component subspaces of (S^2)^n.

A subspace is cut out by constraints of two kinds: ``x_i = s * x_j`` with a
sign s in {+1, -1}, and pins ``x_i = s * p`` where p is the north pole.
Every space handled by the package (components, their intersections, and
images under the pole-flip maps) has this form, so equality, containment
and emptiness are decided exactly on the symbolic level; no point of the
sphere is ever sampled.  Containment is equality of canonical forms:
``other`` lies in ``self`` exactly when ``self.intersect(other)`` equals
``other``.

Canonical form: slots are grouped into classes; each class is named by its
least slot with sign +1, every other slot stores its sign relative to the
representative, and pinned classes record the pole value at the
representative.  A sign conflict or pin conflict collapses the whole
subspace to a canonical empty value.  Every value is held in canonical
form: :func:`from_constraints` builds it directly, and the public
constructor closes whatever fields it is handed, so ``==`` and ``hash``
compare sets.
"""
from __future__ import annotations

from typing import Iterable, Literal

from .errors import DomainError, PadSizeMismatch, SizeMismatch
from .matchings import Matching
from .records import Record

Relation = tuple[int, int, int]   # (i, j, s): x_i = s * x_j
Pin = tuple[int, int]             # (i, s):    x_i = s * p


class SignedPartitionSubspace(Record, frozen=True):
    """A subspace of (S^2)^n in canonical form.

    ``assignment`` maps slot i to (representative, sign) at position
    i - 1, and each pin is (representative, sign) of a pinned class.
    """

    __slots__ = _fields = ("n", "assignment", "pins", "empty")

    def __init__(self, n: int, assignment: tuple[tuple[int, int], ...],
                 pins: tuple[Pin, ...], empty: bool):
        """The set the fields describe, stored in canonical form.

        ``assignment[i - 1] = (r, s)`` reads as x_i = s * x_r and a pin
        ``(i, s)`` as x_i = s * p, whether or not they are canonical.  The
        closed fields are stored by ``_store``; :func:`_canonical` stores
        fields already canonical with it and skips the closure.
        """
        if empty:
            canonical = _empty(n)
        else:
            if len(assignment) != n:
                raise SizeMismatch(f"{len(assignment)} assigned slots for {n} slots")
            relations = [(i, r, s) for i, (r, s) in enumerate(assignment, 1)]
            canonical = from_constraints(n, relations, pins)
        self._store(n, canonical.assignment, canonical.pins, canonical.empty)

    # -- queries ---------------------------------------------------------

    def rep(self, i: int) -> tuple[int, int]:
        return self.assignment[i - 1]

    @property
    def pin_map(self) -> dict[int, int]:
        return dict(self.pins)

    @property
    def free_class_count(self) -> int:
        if self.empty:
            return 0
        reps = {r for r, _ in self.assignment}
        return len(reps - set(self.pin_map))

    @property
    def dimension(self) -> int:
        """Real dimension: two per free class; 0 for points, -1 if empty."""
        if self.empty:
            return -1
        return 2 * self.free_class_count

    def pin_vector(self) -> tuple[int | None, ...]:
        """Per-slot pole value (+1 = p, -1 = -p) or None when free."""
        pins = self.pin_map
        out: list[int | None] = []
        for i in range(1, self.n + 1):
            r, s = self.rep(i)
            out.append(s * pins[r] if r in pins else None)
        return tuple(out)

    def constraints(self) -> tuple[list[Relation], list[Pin]]:
        """A generating constraint list (canonical-form edges and pins)."""
        rels = [(i, r, s) for i, (r, s) in zip(range(1, self.n + 1), self.assignment) if i != r]
        return rels, list(self.pins)

    # -- set operations -----------------------------------------------------

    def intersect(self, other: "SignedPartitionSubspace") -> "SignedPartitionSubspace":
        if self.n != other.n:
            raise SizeMismatch(f"slot counts {self.n} and {other.n} differ")
        if self.empty or other.empty:
            return _empty(self.n)
        r1, p1 = self.constraints()
        r2, p2 = other.constraints()
        return from_constraints(self.n, r1 + r2, p1 + p2)

    def contains(self, other: "SignedPartitionSubspace") -> bool:
        """True iff ``other`` is a subset of ``self``."""
        return self.intersect(other) == other

    # -- point maps -----------------------------------------------------------

    def apply_gamma(self) -> "SignedPartitionSubspace":
        """Image under slot-wise pole flip at odd positions: x_i -> (-1)^i x_i."""
        if self.empty:
            return _empty(self.n)
        rels, pins = self.constraints()
        new_rels = [(i, j, s * (-1) ** (i + j)) for i, j, s in rels]
        new_pins = [(i, s * (-1) ** i) for i, s in pins]
        return from_constraints(self.n, new_rels, new_pins)

    def apply_eta(self, target_n: int) -> "SignedPartitionSubspace":
        """Prepend alternating pinned poles ending at -p next to slot 1."""
        pad = _check_pad(self.n, target_n)
        if self.empty:
            return _empty(target_n)
        rels, pins = self.constraints()
        new_rels = [(i + pad, j + pad, s) for i, j, s in rels]
        new_pins = [(i + pad, s) for i, s in pins]
        new_pins += [(t, (-1) ** (pad - t + 1)) for t in range(1, pad + 1)]
        return from_constraints(target_n, new_rels, new_pins)

    def apply_iota(self, target_n: int) -> "SignedPartitionSubspace":
        """Prepend constant pins (-1)^(n-1) p and scale the block by (-1)^n."""
        pad = _check_pad(self.n, target_n)
        if self.empty:
            return _empty(target_n)
        sign = (-1) ** self.n
        rels, pins = self.constraints()
        new_rels = [(i + pad, j + pad, s) for i, j, s in rels]
        new_pins = [(i + pad, s * sign) for i, s in pins]
        new_pins += [(t, -sign) for t in range(1, pad + 1)]
        return from_constraints(target_n, new_rels, new_pins)


def _check_pad(n: int, target_n: int) -> int:
    pad = target_n - n
    if pad < 0 or target_n % 2 != 0:
        raise PadSizeMismatch(
            f"target {target_n} must be even and at least {n}"
        )
    return pad


def _canonical(n: int, assignment: tuple[tuple[int, int], ...], pins: tuple[Pin, ...],
               empty: bool) -> SignedPartitionSubspace:
    """A subspace from fields already in canonical form, not closed again."""
    space = object.__new__(SignedPartitionSubspace)
    space._store(n, assignment, pins, empty)
    return space


def _empty(n: int) -> SignedPartitionSubspace:
    return _canonical(n, (), (), True)


def from_constraints(n: int, relations: Iterable[Relation],
                     pins: Iterable[Pin]) -> SignedPartitionSubspace:
    """Close the constraints under union-find with signs; detect emptiness."""
    parent = list(range(n + 1))
    sign = [1] * (n + 1)  # sign of slot relative to its parent chain

    def find(v: int) -> tuple[int, int]:
        if parent[v] == v:
            return v, 1
        root, s = find(parent[v])
        parent[v] = root
        sign[v] *= s
        return root, sign[v]

    empty = False
    for i, j, s in relations:
        ri, si = find(i)
        rj, sj = find(j)
        if ri == rj:
            if si != s * sj:
                empty = True
        else:
            # attach ri under rj: x_ri = (si)^-1 x_i = ... = si*s*sj * x_rj
            parent[ri] = rj
            sign[ri] = si * s * sj
    pin_of: dict[int, int] = {}
    for i, s in pins:
        ri, si = find(i)
        want = si * s  # x_ri = si * x_i = si * s * p
        if pin_of.setdefault(ri, want) != want:
            empty = True
    if empty:
        return _empty(n)
    # Canonicalize.  Free classes: representative = least slot, sign +1
    # there.  Pinned slots are fully determined points, so they carry
    # their value individually; whether two equally pinned classes were
    # merged is invisible at the point-set level and must not affect
    # equality.
    members: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        members.setdefault(find(v)[0], []).append(v)
    assignment: list[tuple[int, int]] = [(0, 0)] * n
    canon_pins: list[Pin] = []
    for root, vs in members.items():
        if root in pin_of:
            for v in vs:
                _, sv = find(v)
                assignment[v - 1] = (v, 1)
                canon_pins.append((v, sv * pin_of[root]))
            continue
        lead = min(vs)
        _, lead_sign = find(lead)
        for v in vs:
            _, sv = find(v)
            assignment[v - 1] = (lead, sv * lead_sign)
    return _canonical(n, tuple(assignment), tuple(sorted(canon_pins)), False)


def full_space(n: int) -> SignedPartitionSubspace:
    return from_constraints(n, [], [])


def subspace_of(a: Matching, variant: Literal["plain", "primed"] = "plain") -> SignedPartitionSubspace:
    """The component subspace of a matching.

    plain:  x_i = x_j along arcs, ray i pinned to (-1)^i p.
    primed: x_i = -x_j along arcs, ray i pinned to +p.
    """
    if variant == "plain":
        rels = [(i, j, 1) for i, j in a.arcs]
        pins = [(r, (-1) ** r) for r in a.rays]
    elif variant == "primed":
        rels = [(i, j, -1) for i, j in a.arcs]
        pins = [(r, 1) for r in a.rays]
    else:
        raise DomainError(f"unknown variant {variant!r}; expected 'plain' or 'primed'")
    return from_constraints(a.n, rels, pins)
