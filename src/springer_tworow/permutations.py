"""Permutations of {1..n}: cycle/word parsing, composition, conjugacy data.

A word ``[a1, ..., ar]`` denotes the composite ``s_a1 ∘ s_a2 ∘ ... ∘ s_ar``
of adjacent transpositions applied right to left, matching the convention
``act(sigma * tau, x) = act(sigma, act(tau, x))``.
"""
from __future__ import annotations

import re

from .errors import DomainError, SizeMismatch
from .records import Record


class Permutation(Record, frozen=True, order=True):
    """A permutation of 1..n by its images: ``images[i - 1]`` is sigma(i)."""

    _fields = ("images",)
    __slots__ = _fields + ("_hash",)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise SizeMismatch(f"sizes {self.n} and {other.n} differ")
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            v = self(start)
            while v != start:
                cyc.append(v)
                seen.add(v)
                v = self(v)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Partition of n recording all cycle lengths (fixed points included)."""
        lengths = sorted((len(c) for c in self.cycles()), reverse=True)
        fixed = self.n - sum(lengths)
        return tuple(lengths) + (1,) * fixed

    def apply_to_set(self, s: frozenset[int]) -> frozenset[int]:
        return frozenset(self(v) for v in s)

    def word(self) -> tuple[int, ...]:
        """A reduced word w with ``from_word(w, n) == self``.

        Bubble-sorts the one-line form; each adjacent swap at position i
        contributes a right factor s_i.
        """
        line = list(self.images)
        rev: list[int] = []
        changed = True
        while changed:
            changed = False
            for i in range(self.n - 1):
                if line[i] > line[i + 1]:
                    line[i], line[i + 1] = line[i + 1], line[i]
                    rev.append(i + 1)
                    changed = True
        return tuple(reversed(rev))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def transposition(n: int, i: int, j: int) -> Permutation:
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"transposition ({i} {j}) outside 1..{n}")
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return Permutation(tuple(images))


def adjacent(n: int, i: int) -> Permutation:
    """The generator s_i = (i, i+1)."""
    return transposition(n, i, i + 1)


def from_word(word: list[int] | tuple[int, ...], n: int) -> Permutation:
    sigma = identity(n)
    for a in word:
        sigma = sigma * adjacent(n, a)
    return sigma


def from_cycles(cycles: list[tuple[int, ...]], n: int) -> Permutation:
    """The product of disjoint cycles; DomainError names an entry that appears twice."""
    images, seen = list(range(1, n + 1)), set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a in seen:
                raise DomainError(f"cycle entry {a} appears twice in {cycles}")
            seen.add(a)
            images[a - 1] = b
    return Permutation(tuple(images))


_CYCLE = re.compile(r"\(([^()]*)\)")
_WORD_ITEM = re.compile(r"s(\d+)$")


def parse_permutation(text: str, n: int) -> Permutation:
    """Accepts cycle notation ``"(1 2 3)(4 5)"``, words ``"s1 s2"``, or ``"id"``."""
    text = text.strip()
    if text in ("", "id", "()"):
        return identity(n)
    if text.startswith("("):
        rest = _CYCLE.sub("", text).strip()
        if rest:
            raise DomainError(f"unparseable permutation text {text!r}")
        cycles = []
        for body in _CYCLE.findall(text):
            try:
                entries = tuple(int(t) for t in body.replace(",", " ").split())
            except ValueError as exc:
                raise DomainError(f"cycle entries take integers: {exc}") from None
            if any(not 1 <= e <= n for e in entries):
                raise DomainError(f"cycle entry outside 1..{n} in {text!r}")
            if entries:
                cycles.append(entries)
        return from_cycles(cycles, n)
    word = []
    for tok in text.split():
        m = _WORD_ITEM.match(tok)
        if not m:
            raise DomainError(f"unparseable permutation token {tok!r}")
        a = int(m.group(1))
        if not 1 <= a <= n - 1:
            raise DomainError(f"generator s{a} outside s1..s{n - 1}")
        word.append(a)
    return from_word(word, n)


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n in decreasing order, largest part first."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def class_representative(cycle_type: tuple[int, ...], n: int) -> Permutation:
    """A permutation with the given cycle type, built from consecutive blocks."""
    if sum(cycle_type) != n:
        raise DomainError(f"{cycle_type} is not a partition of {n}")
    cycles = []
    start = 1
    for length in cycle_type:
        if length > 1:
            cycles.append(tuple(range(start, start + length)))
        start += length
    return from_cycles(cycles, n)
