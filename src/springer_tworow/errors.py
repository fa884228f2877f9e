"""Exception taxonomy for the package.

Every structured failure raises a subclass of :class:`SpringerError`, named
after the condition it reports so callers can catch precisely.
"""
from __future__ import annotations


class SpringerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpringerError):
    """Parameters outside the valid (n, k) domain."""


class CapExceeded(DomainError):
    """Work past a size cap, refused before it starts; names its ``shape``, ``count`` and ``cap``.

    ``shape`` holds n and k, m where it matters, or a search ``depth``.
    """

    def __init__(self, shape: dict[str, int], count: int, cap: int, reason: str):
        self.shape, self.count, self.cap, self.reason = shape, count, cap, reason
        where = ", ".join(f"{key}={value}" for key, value in shape.items())
        super().__init__(f"{where} {reason}")


def refuse_past(count: int, cap: int, work: str, n: int, k: int, m: int | None = None) -> None:
    """Raise CapExceeded if COUNT passes CAP; WORK says what would be done, ``{}`` the count."""
    if count > cap:
        shape = {"n": n, "k": k} if m is None else {"n": n, "k": k, "m": m}
        raise CapExceeded(shape, count, cap,
                          f"would {work.format(count)}, more than the cap of {cap}")


# --- matching validation -------------------------------------------------

class MatchingError(SpringerError):
    """Base class for invalid matching data."""


class CrossingArcs(MatchingError):
    pass


class RayUnderArc(MatchingError):
    pass


class VertexReuse(MatchingError):
    pass


class DotOnNonArc(MatchingError):
    pass


class BadCounts(MatchingError):
    pass


class CodecSyntaxError(SpringerError):
    """Unparseable matching text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotInRestrictableSet(SpringerError):
    """Matching has an arc entirely inside the removable prefix."""


class NotStandard(SpringerError):
    """Operation requires a standard dotted matching."""


class ShapeMismatch(SpringerError):
    """Tableau shape incompatible with the requested matching type."""


class NoStandardCompletion(SpringerError):
    """No standard dotted matching extends the given undotted arcs."""


# --- diagram combinatorics ------------------------------------------------

class TypeMismatch(SpringerError):
    """Operands are matchings of different types (n, k)."""


class CycleDetected(SpringerError):
    """The arrow relation unexpectedly contains a cycle."""


class NotFound(SpringerError):
    """A guaranteed-to-exist element could not be constructed."""


class NotAnArrowPair(SpringerError):
    """The two matchings do not differ by a single arrow move."""


# --- homology / representations -------------------------------------------

class InhomogeneousClass(SpringerError):
    """Formal sum mixes homological degrees."""


class SizeMismatch(SpringerError):
    """Permutation size does not match the vector's ground set."""


class PadSizeMismatch(SpringerError):
    """Embedding pad size is negative or odd."""


class SolveFailed(SpringerError):
    """A linear solve guaranteed by theory failed (implementation bug)."""


# --- skein -----------------------------------------------------------------

class NoConventionFits(SpringerError):
    """Calibration found no convention matching the oracle action."""


class MultipleConventionsFit(SpringerError):
    """Calibration was under-constrained; carries all fits, least first."""

    def __init__(self, conventions):
        self.conventions = list(conventions)
        self.pick = self.conventions[0]
        super().__init__(
            f"{len(self.conventions)} conventions fit; lexicographically "
            f"least is {self.pick}"
        )


class InternalCheckError(SpringerError):
    """A redundant internal cross-check failed (implementation bug)."""
