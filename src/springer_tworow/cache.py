"""Representation-matrix cache: JSON files with provenance, atomic writes.

Entries live at ``<root>/rep_{n}_{k}_{m}/{perm-key}.json`` with matrix
entries serialized as decimal strings.  The cache is an accelerator only:
an entry is ignored unless its provenance fields, basis listing and
permutation images match the request and its matrix is a square list of
lists of canonical decimal strings, of the basis dimension.
"""
from __future__ import annotations

import json
import os
import tempfile

from .matchings import format_matching, standard_dotted_matchings
from .permutations import Permutation

CACHE_ENV = "SPRINGER_CACHE_DIR"
GENERATOR = "zeta-oracle"
VERSION = "2"


def _images(sigma: Permutation) -> list[str]:
    return [str(v) for v in sigma.images]


def default_cache_dir() -> str:
    return os.environ.get(CACHE_ENV, os.path.join(os.getcwd(), "cache"))


class RepMatrixCache:
    def __init__(self, root: str | None = None):
        self.root = root or default_cache_dir()

    def _path(self, sigma: Permutation, n: int, k: int, m: int) -> str:
        key = "p" + "-".join(str(v) for v in sigma.images)
        return os.path.join(self.root, f"rep_{n}_{k}_{m}", f"{key}.json")

    def _basis(self, n: int, k: int, m: int) -> list[str]:
        return [format_matching(M) for M in standard_dotted_matchings(n, k, m)]

    def load(self, sigma: Permutation, n: int, k: int, m: int):
        path = self._path(sigma, n, k, m)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("generator") != GENERATOR or data.get("version") != VERSION:
            return None
        basis = self._basis(n, k, m)
        if data.get("basis") != basis:
            return None
        if (data.get("n"), data.get("k"), data.get("m")) != (str(n), str(k), str(m)):
            return None
        if data.get("perm") != _images(sigma):
            return None
        stored = data.get("matrix")
        try:
            matrix = [[int(entry) for entry in row] for row in stored]
        except (ValueError, TypeError):
            return None
        # Only what ``store`` writes: len(basis) lists of len(basis) canonical decimal strings.
        if ([[str(entry) for entry in row] for row in matrix] != stored
                or {len(matrix), *map(len, matrix)} != {len(basis)}):
            return None
        return matrix

    def store(self, sigma: Permutation, n: int, k: int, m: int,
              matrix: list[list[int]]) -> str:
        path = self._path(sigma, n, k, m)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "n": str(n),
            "k": str(k),
            "m": str(m),
            "basis": self._basis(n, k, m),
            "perm": _images(sigma),
            "matrix": [[str(entry) for entry in row] for row in matrix],
            "generator": GENERATOR,
            "version": VERSION,
        }
        text = json.dumps(payload, indent=1)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path
