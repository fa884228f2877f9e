"""Which program calls are traced, and the per-layer metrics made from them.

The layers are the program's modules.  ``subspaces``, ``cells``,
``render``, ``permutations`` and ``verify`` get no spans: no open item
targets them and none is a hot path of any workload.
"""
from __future__ import annotations

import os

S, COUNT, RATIO, MS = "s", "count", "ratio", "ms"


def _rows(key):
    return lambda t, args, result: t.count(key, len(result))


def _factor(t, args, result):
    t.count("linalg.ColumnSolver.rows", args[0].nrows)


def _rref(t, args, result):
    rows = args[0]
    cols = len(rows[0]) if rows else 0
    t.count("linalg.rref.rows", len(rows))
    t.count("linalg.rref.cols", cols)
    t.count("linalg.rref.cells", len(rows) * cols)
    t.count("linalg.rref.nnz", sum(1 for row in rows for x in row if x))


def _psi(t, args, result):
    columns, rows = result
    t.count("homology.psi_minus_rows.rows", len(rows))
    t.count("homology.psi_minus_rows.cols", len(columns))


def _rep_dim(t, args, result):
    t.count_max("action.rep_matrix.dim_max", len(result))


def _resolutions(t, args, result):
    t.count("skein.expand_resolutions.terms", len(result))
    t.count("skein.expand_resolutions.distinct", len({d.boundary for d in result}))


def _load(t, args, result):
    t.count("cache.load.hits", result is not None)


def _store(t, args, result):
    t.count("cache.store.bytes", os.path.getsize(result))


P = "springer_tworow."

#: (module, function or Class.method, span name, counter)
TARGETS = [
    (P + "matchings", "enumerate_matchings", "matchings.enumerate_matchings", None),
    (P + "matchings", "all_dotted_matchings", "matchings.all_dotted_matchings", None),
    (P + "matchings", "standard_dotted_matchings", "matchings.standard_dotted_matchings", None),
    (P + "diagrams", "arrow_graph", "diagrams.arrow_graph", None),
    (P + "diagrams", "glue", "diagrams.glue", None),
    (P + "linalg", "rref", "linalg.rref", _rref),
    (P + "linalg", "reduce_against", "linalg.reduce_against", None),
    (P + "linalg", "row_space_equal", "linalg.row_space_equal", None),
    (P + "linalg", "ColumnSolver.__init__", "linalg.ColumnSolver.factor", _factor),
    (P + "linalg", "ColumnSolver.solve", "linalg.ColumnSolver.solve", None),
    (P + "homology", "relation_instances", "homology.relation_instances",
     _rows("homology.relation_instances.rows")),
    (P + "homology", "psi_minus_rows", "homology.psi_minus_rows", _psi),
    (P + "homology", "presentation_betti", "homology.presentation_betti", None),
    (P + "homology", "reduce_class", "homology.reduce_class", None),
    (P + "homology", "rewrite_step", "homology.rewrite_step", None),
    (P + "homology", "hom_class", "homology.hom_class", None),
    (P + "tabloids", "matching_vector", "tabloids.matching_vector", None),
    (P + "tabloids", "zeta", "tabloids.zeta", None),
    (P + "tabloids", "permute", "tabloids.permute", None),
    (P + "tabloids", "TabloidVector.to_row", "tabloids.to_row", None),
    (P + "tabloids", "polytabloid", "tabloids.polytabloid", None),
    (P + "tabloids", "modules_equal", "tabloids.modules_equal", None),
    (P + "action", "act", "action.act", None),
    (P + "action", "rep_matrix", "action.rep_matrix", _rep_dim),
    (P + "action", "act_via_gamma", "action.act_via_gamma", None),
    (P + "action", "line_diagram_expand", "action.line_diagram_expand", None),
    (P + "action", "character_table_check", "action.character_table_check", None),
    (P + "skein", "expand_resolutions", "skein.expand_resolutions", _resolutions),
    (P + "skein", "resolve_evaluate", "skein.resolve_evaluate", None),
    (P + "skein", "calibrate", "skein.calibrate", None),
    (P + "cache", "RepMatrixCache.load", "cache.load", _load),
    (P + "cache", "RepMatrixCache.store", "cache.store", _store),
    (P + "cli", "main", "cli.main", None),
    (P + "cli", "parse_class", "cli.parse_class", None),
    (P + "cli", "build_parser", "cli.build_parser", None),
    (P + "cli", "_Parser.parse_args", "cli.parse_args", None),
]


def _self_calls(*spans):
    return [(f"{s}.{field}", unit) for s in spans for field, unit in (("self_s", S),
                                                                       ("calls", COUNT))]


#: Every per-layer metric, in report order, with its unit.
PER_LAYER = [
    ("linalg.ColumnSolver.factor_s", S), ("linalg.ColumnSolver.factors", COUNT),
    ("linalg.ColumnSolver.rows", COUNT), ("linalg.ColumnSolver.solve_s", S),
    ("linalg.ColumnSolver.solves", COUNT),
    ("linalg.rref.self_s", S), ("linalg.rref.calls", COUNT), ("linalg.rref.rows", COUNT),
    ("linalg.rref.cols", COUNT), ("linalg.rref.nnz", COUNT), ("linalg.rref.density", RATIO),
    ("linalg.reduce_against.self_s", S), ("linalg.reduce_against.calls", COUNT),
    ("linalg.row_space_equal.self_s", S),
    *_self_calls("tabloids.matching_vector", "tabloids.zeta", "tabloids.permute",
                 "tabloids.to_row", "tabloids.polytabloid", "tabloids.modules_equal",
                 "action.act", "action.rep_matrix", "action.act_via_gamma",
                 "action.line_diagram_expand"),
    ("action.character_table_check.self_s", S), ("action.rep_matrix.dim_max", COUNT),
    ("homology.relation_instances.self_s", S), ("homology.relation_instances.calls", COUNT),
    ("homology.relation_instances.rows", COUNT),
    ("homology.psi_minus_rows.self_s", S), ("homology.psi_minus_rows.calls", COUNT),
    ("homology.psi_minus_rows.rows", COUNT), ("homology.psi_minus_rows.cols", COUNT),
    ("homology.presentation_betti.self_s", S),
    *_self_calls("homology.reduce_class", "homology.rewrite_step", "homology.hom_class",
                 "diagrams.arrow_graph", "diagrams.glue", "matchings.enumerate_matchings",
                 "matchings.all_dotted_matchings", "matchings.standard_dotted_matchings"),
    ("skein.expand_resolutions.self_s", S), ("skein.expand_resolutions.calls", COUNT),
    ("skein.expand_resolutions.terms", COUNT),
    ("skein.expand_resolutions.distinct_ratio", RATIO),
    ("skein.resolve_evaluate.self_s", S), ("skein.calibrate.self_s", S),
    ("cache.load.self_s", S), ("cache.load.calls", COUNT), ("cache.load.hits", COUNT),
    ("cache.load.hit_ratio", RATIO),
    ("cache.store.self_s", S), ("cache.store.calls", COUNT), ("cache.store.bytes", COUNT),
    ("cli.import_ms", MS), ("cli.parse_s", S), ("cli.parse_class.self_s", S),
    ("cli.main.self_s", S),
    ("bench.unattributed_s", S), ("bench.trace_overhead_ratio", RATIO),
    ("bench.error_rate", RATIO),
]

_RENAMED = {
    "linalg.ColumnSolver.factor_s": ("self_s", "linalg.ColumnSolver.factor"),
    "linalg.ColumnSolver.factors": ("calls", "linalg.ColumnSolver.factor"),
    "linalg.ColumnSolver.solve_s": ("self_s", "linalg.ColumnSolver.solve"),
    "linalg.ColumnSolver.solves": ("calls", "linalg.ColumnSolver.solve"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(totals: dict) -> dict[str, float]:
    """Per-layer values from merged totals {"self_s", "calls", "counts"}.

    The bench.* metrics and cli.import_ms are measured by the harness and
    are filled in by the caller.
    """
    self_s, calls, counts = totals["self_s"], totals["calls"], totals["counts"]
    out = {}
    for name, _unit in PER_LAYER:
        if name in _RENAMED:
            kind, span = _RENAMED[name]
            out[name] = (self_s if kind == "self_s" else calls).get(span, 0)
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        else:
            out[name] = counts.get(name, 0)
    out["linalg.rref.density"] = _ratio(counts.get("linalg.rref.nnz", 0),
                                        counts.get("linalg.rref.cells", 0))
    out["skein.expand_resolutions.distinct_ratio"] = _ratio(
        counts.get("skein.expand_resolutions.distinct", 0),
        counts.get("skein.expand_resolutions.terms", 0))
    out["cache.load.hit_ratio"] = _ratio(counts.get("cache.load.hits", 0),
                                         calls.get("cache.load", 0))
    out["cli.parse_s"] = self_s.get("cli.build_parser", 0.0) + self_s.get("cli.parse_args", 0.0)
    return out


def merge(into: dict, totals: dict) -> dict:
    """Add one set of totals into another (counts ending in dim_max take the max)."""
    for kind in ("self_s", "calls", "counts"):
        dst = into.setdefault(kind, {})
        for key, value in totals.get(kind, {}).items():
            if key.endswith("dim_max"):
                dst[key] = max(dst.get(key, value), value)
            else:
                dst[key] = dst.get(key, 0) + value
    return into
