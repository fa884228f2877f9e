"""Combinatorial model of two-row Springer varieties.

Matchings, overlay diagrams, component subspaces, cell decompositions, the
homology presentation with its standard basis, the tabloid model, the
symmetric-group action (tabloid and skein routes, with the pole-flip map
as a reference), and a CLI.

Importing the package loads no submodule.  Each name in ``__all__`` is
looked up in its defining submodule on every access (PEP 562), importing
that submodule on first use, so a caller pays only for what it touches.
"""
import importlib
import sys

_EXPORTS = {
    "matchings": (
        "DottedMatching",
        "Matching",
        "StandardTableau",
        "complete",
        "complete_dotted",
        "enumerate_matchings",
        "format_matching",
        "matching_of",
        "parse_matching",
        "restrict",
        "restrict_dotted",
        "standard_dotted_matchings",
        "standard_layout",
        "tableau_of",
        "validate",
    ),
    "diagrams": (
        "compatible",
        "arrow_successors",
        "distance",
        "glue",
        "linear_order",
        "meet",
        "minimal_sequence",
    ),
    "subspaces": ("SignedPartitionSubspace", "subspace_of"),
    "homology": (
        "HomClass",
        "betti",
        "hom_class",
        "presentation_betti",
        "pushforward_inclusion",
        "reduce_class",
        "relation_instances",
    ),
    "tabloids": (
        "TabloidVector",
        "f_embed",
        "irr_character",
        "matching_vector",
        "modules_equal",
        "permute",
        "polytabloid",
        "zeta",
    ),
    "action": ("act", "act_via_gamma", "character_table_check", "derive_chart", "rep_matrix"),
    "skein": ("ResolutionConvention", "calibrate", "flatten", "resolve_evaluate", "skein_act"),
    "permutations": ("Permutation", "parse_permutation"),
}
_SUBMODULES = (*_EXPORTS, "errors", "linalg")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    # Never bound into the package namespace, so a later rebinding in the
    # defining module (a test's monkeypatch, a tracing wrapper) shows here.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def clear_caches() -> None:
    """Empty every per-shape table: the ``lru_cache`` of each loaded submodule.

    Imports nothing; a submodule not loaded yet has no table to empty.
    Tests that patch the action layer, or need its factors cold, call it.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{__name__}."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
