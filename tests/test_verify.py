"""Every invariant suite asserts something at the least depth, and fails under a planted fault.

A suite whose loops are empty at a depth reports PASS while checking
nothing.  Each suite runs at ``verify.MIN_DEPTH`` under ``sys.settrace``,
which records the lines run in the suite's own code (nested
comprehensions and functions included); one of them must belong to one of
its own ``assert`` statements.

A suite that no fault can trip reports PASS and proves nothing, so
``FAULTS`` gives each suite one planted fault: a stand-in for the library
code the suite guards, and a depth.  Under its fault the suite must FAIL
with a message naming the shape or the input, and without it PASS.

``PYTHONPATH=src python tests/test_verify.py`` prints the kill matrix:
every fault run against every suite, and the suites that catch it.
``tests/kill_matrix.txt`` is its record, and CI diffs a fresh run against it.
"""
import ast
import contextlib
import inspect
import random
import sys
import textwrap
from unittest import mock

import pytest

import springer_tworow
from springer_tworow import (action, cells, diagrams, homology, linalg, matchings, permutations,
                             skein, subspaces, tabloids, verify)

Subspace = subspaces.SignedPartitionSubspace


def assert_lines(fn) -> set[int]:
    """The line numbers of fn's own assert statements, continuation lines included."""
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return {first + line - 1 for node in ast.walk(tree) if isinstance(node, ast.Assert)
            for line in range(node.lineno, node.end_lineno + 1)}


def own_code(fn) -> set:
    """fn's code object and every code object nested in it."""
    codes, todo = set(), [fn.__code__]
    while todo:
        code = todo.pop()
        codes.add(code)
        todo += [c for c in code.co_consts if inspect.iscode(c)]
    return codes


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda check: check.name)
def test_every_suite_runs_one_of_its_asserts_at_the_least_depth(check):
    codes, ran = own_code(check.fn), set()

    def trace(frame, event, arg):
        if frame.f_code not in codes:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        check.fn(verify.MIN_DEPTH, random.Random(0))
    finally:
        sys.settrace(previous)
    assert ran & assert_lines(check.fn), f"{check.name} ran none of its asserts"


# --- planted faults -------------------------------------------------------------

def _when(test, change):
    """A stand-in maker: the real result, passed through CHANGE where TEST holds of the input."""
    def make(real):
        def stand_in(*args):
            out = real(*args)
            return change(out, *args) if test(*args) else out
        return stand_in
    return make


def _inverse(sigma):
    return permutations.Permutation(tuple(sorted(range(1, sigma.n + 1), key=sigma)))


def _ray_moved_to_another_line(glued, a, b):
    """The overlay with a's first ray moved into the vertex set of another line."""
    comps, r = list(glued.components), a.rays[0]
    home = next(i for i, c in enumerate(comps) if r in c.vertices)
    other = next(i for i, c in enumerate(comps) if c.kind == "line" and i != home)
    for i, vertices in ((home, comps[home].vertices - {r}), (other, comps[other].vertices | {r})):
        comps[i] = diagrams.Component(comps[i].kind, vertices, comps[i].ends, comps[i].arcs_above)
    return diagrams.GluedOneManifold(glued.a, glued.b, tuple(comps))


def _second_arc_dropped(glued, a, b):
    """The overlay with the second of each circle's arcs of a left out of its list."""
    comps = [diagrams.Component(c.kind, c.vertices, c.ends,
                                c.arcs_above[:1] + c.arcs_above[2:] if c.kind == "circle"
                                else c.arcs_above)
             for c in glued.components]
    return diagrams.GluedOneManifold(glued.a, glued.b, tuple(comps))


def _corrupted_arrow_table(real):
    """The (6, 3) arrow graph with two vertices of one move swapped."""
    built = real(6, 3)
    arrows = dict(built.arrows)
    a = next(x for x in built.nodes if arrows[x])
    (b, (i, j, kk, l), *rest), *others = arrows[a]
    arrows[a] = ((b, (i, kk, j, l), *rest), *others)
    corrupted = diagrams.ArrowGraph(built.nodes, built.successors, built.predecessors, arrows)
    return lambda n, k: corrupted if (n, k) == (6, 3) else real(n, k)


def _outermost_parents(forest, a):
    """The forest with each edge hung from the outermost arc enclosing the child."""
    def outermost(child):
        return max((p for p in a.arcs if p[0] < child[0] and child[1] < p[1]),
                   key=lambda p: p[1] - p[0])
    edges = tuple(sorted((outermost(child), child) for _, child in forest.edges))
    return cells.ArcForest(a, edges, forest.roots)


def _pins_negated(space, *args):
    rels, pins = space.constraints()
    return subspaces.from_constraints(space.n, rels, [(i, -s) for i, s in pins])


def _others_relations_negated(real):
    def intersect(self, other):
        if self.n != 6 or self.empty or other.empty:
            return real(self, other)
        rels, pins = other.constraints()
        return real(self, subspaces.from_constraints(6, [(i, j, -s) for i, j, s in rels], pins))
    return intersect


def _bottom_entry_doubled(terms, T):
    last = max(tuple(sorted(key)) for key in terms)
    return {key: 2 * c if tuple(sorted(key)) == last else c for key, c in terms.items()}


def _one_completion(real):
    return lambda M: real(matchings.standard_dotted_matchings(M.n, M.k, M.m)[0] if M.n == 3 else M)


def _psi_row_negated(real):
    def rows(n, k, m=None):
        return [{c: -x for c, x in row.items()} if (k, m, i) == (2, 1, 0) else row
                for i, row in enumerate(real(n, k, m))]
    return rows


def _psi_targets_doubled(real):
    return lambda n, k, m=None: [{c: 2 * x if x < 0 else x for c, x in row.items()}
                                 for row in real(n, k, m)]


def _last_listed_row_dropped(real):
    """Drop the last row of a list; ``_reduction_data`` passes a generator and meets no fault."""
    return lambda rows, pivots: real(rows[:-1] if isinstance(rows, list) else rows, pivots)


def _zeta_without_last_term(real):
    def zeta(x):
        if x.n == 5 and len(x.terms) > 1:
            x = x - homology.HomClass.of(*x.terms[-1])
        return real(x)
    return zeta


def _first_entry_negated(real):
    def column(pairs, row):
        out = real(pairs, row)
        if len(pairs) == 2:
            first = next(iter(out))
            out[first] = -out[first]
        return out
    return column


class Fault:
    """A stand-in for TARGET.NAME, made from the real one by MAKE, planted at DEPTH.

    ``expect`` is a part of the failing suite's message: the shape or input it names.
    """

    def __init__(self, depth, target, name, make, expect):
        self.depth, self.target, self.name, self.make, self.expect = (
            depth, target, name, make, expect)

    @contextlib.contextmanager
    def planted(self):
        springer_tworow.clear_caches()
        stand_in = self.make(getattr(self.target, self.name))
        try:
            with mock.patch.object(self.target, self.name, stand_in):
                yield
        finally:
            springer_tworow.clear_caches()


#: One planted fault per suite, by suite name.
FAULTS = {
    "matching.enumeration-counts": Fault(
        6, matchings, "enumerate_matchings",
        _when(lambda n, k: (n, k) == (6, 2), lambda ms, n, k: ms[:-1] + ms[:1]),
        "(6, 2)"),
    "matching.completion-restriction": Fault(
        4, matchings, "restrict",
        _when(lambda a, pad: pad >= 2,
              lambda b, a, pad: matchings.Matching(b.n, b.arcs, b.rays[::-1])),
        "(2, 0, '2: r1 r2')"),
    "matching.standard-enumeration": Fault(
        6, matchings, "standard_dotted_matchings",
        _when(lambda n, k, m=None: (n, k, m) == (6, 3, None), lambda ms, *args: ms[:-1]),
        "(6, 3, None)"),
    "matching.codec-roundtrip": Fault(
        4, matchings, "format_matching",
        _when(lambda M: M.n == 4, lambda text, M: text.replace(" d", " u", 1)),
        "(4, 1, '4: "),
    "diagram.ray-pairing": Fault(
        5, diagrams, "glue",
        _when(lambda a, b: a.n == 5 and len(a.rays) > 1, _ray_moved_to_another_line),
        "(5, 1, '5: u1-2 r3 r4 r5'"),
    "diagram.component-steps": Fault(
        4, diagrams, "minimal_sequence",
        _when(lambda a, b: a.n == 4,
              lambda s, a, b: diagrams.MoveSequence(s.steps[::-1], s.tags, s.certified)),
        "(4, 1, '4: r1 u2-3 r4'"),
    "diagram.winding-parity": Fault(
        6, diagrams, "glue",
        _when(lambda a, b: a.n == 6, _second_arc_dropped),
        "(6, 3, '6: u1-6 u2-5 u3-4'"),
    "diagram.arrow-table": Fault(
        6, diagrams, "arrow_graph",
        _corrupted_arrow_table,
        "(6, 3, '6: u1-2 u3-4 u5-6')"),
    "diagram.linear-extension": Fault(
        4, diagrams, "linear_order",
        _when(lambda n, k, variant=0: variant == 1, lambda order, *args: order[::-1]),
        "(3, 1, 1, "),
    "diagram.meet": Fault(
        4, diagrams, "meet",
        _when(lambda a, b: a.n == 4, lambda c, a, b: a),
        "(4, 1, '4: u1-2 r3 r4'"),
    "subspace.fung-and-circles": Fault(
        5, subspaces, "subspace_of",
        _when(lambda a, variant="plain": a.n == 5 and variant == "plain",
              lambda space, a, *v: subspaces.from_constraints(5, [(*arc, 1) for arc in a.arcs],
                                                              [])),
        "(5, 0, '5: r1 r2 r3 r4 r5')"),
    "subspace.triple-intersection": Fault(
        6, Subspace, "intersect",
        _others_relations_negated,
        "(6, 2, '6: u1-2 u3-4 r5 r6'"),
    "subspace.intersection-witness": Fault(
        5, Subspace, "contains",
        lambda real: lambda self, other: real(other, self) if self.n == 5 else real(self, other),
        "(5, 2, '5: r1 u2-5 u3-4'"),
    "subspace.pointmaps": Fault(
        4, Subspace, "apply_gamma",
        _when(lambda space: space.n == 4, _pins_negated),
        "(2, 0, '2: r1 r2')"),
    "cells.counts": Fault(
        4, cells, "cartesian_cells",
        _when(lambda a: a.k == 2, lambda cl, a: cl[:-1]),
        "(4, 2, '4: u1-2 u3-4')"),
    "cells.forest-edges": Fault(
        6, cells, "arc_forest",
        _when(lambda a: a.n == 6, _outermost_parents),
        "(6, 3, '6: u1-6 u2-5 u3-4'"),
    "cells.subcomplexes": Fault(
        4, cells, "subcomplex_cells",
        _when(lambda a, b: True, lambda cl, a, b: cl[:-1]),
        "(3, 1, '3: u1-2 r3', '3: r1 u2-3'"),
    "homology.reduce-agreement": Fault(
        5, homology, "_reduce_linear",
        _when(lambda x: x.n == 5, lambda y, x: y.scale(-1)),
        "(5, 1, '5: d1-2 r3 r4 r5')"),
    "homology.psi-peel": Fault(
        4, homology, "_relation_rows",
        _psi_targets_doubled,
        "(3, 1, 0, 'normal forms"),
    "homology.psi-rows": Fault(
        4, homology, "_relation_rows",
        _psi_row_negated,
        "(4, 2, 1)"),
    "homology.column-numbers": Fault(
        5, matchings, "_column_numbers",
        _when(lambda k, m: (k, m) == (2, 1),
              lambda out, k, m: (out[0], {d: len(out[0]) - 1 - r for d, r in out[1].items()})),
        "(4, 2, 1, '4: d1-2 u3-4')"),
    "homology.betti-both-ways": Fault(
        4, homology, "presentation_betti",
        _when(lambda n, k: True, lambda ranks, n, k: ranks[:-1] + [ranks[-1] + 1]),
        "(1, 0)"),
    "homology.order-independence": Fault(
        4, linalg, "normal_forms",
        _last_listed_row_dropped,
        "(3, 1, 0, 'extension 0')"),
    "zeta.kills-relations": Fault(
        5, tabloids, "zeta",
        _zeta_without_last_term,
        "(5, 1, '-1·(5: d1-2 r3 r4 r5)"),
    "tabloid.permute-action": Fault(
        4, tabloids, "permute",
        lambda real: lambda sigma, v: real(_inverse(sigma), v),
        "(4, 2, (3, 1, 4, 2)"),
    "tabloid.undotted-dependence": Fault(
        4, tabloids, "matching_vector",
        _when(lambda M: bool(M.dotted), lambda v, M: v.scale((-1) ** sum(i for i, _ in M.dotted))),
        "(3, 1, '3: r1 d2-3')"),
    "tabloid.f-embed": Fault(
        5, tabloids, "f_embed",
        _when(lambda v, pad: pad % 2 == 1, lambda out, v, pad: out.scale(-1)),
        "(1, 0, '1: r1')"),
    "tabloid.modules-equal": Fault(
        5, tabloids, "_comparison",
        _when(lambda n, m: (n, m) == (5, 2), lambda out, n, m: None),
        "(5, 2, 2)"),
    "tabloid.graded-module": Fault(
        6, tabloids, "_positions",
        _when(lambda n, k, m: n == 6 and k > m, lambda out, n, k, m: out[::-1]),
        "(6, 2, 1)"),
    "tabloids.young-rule": Fault(
        5, tabloids, "irr_character",
        _when(lambda shape, mu: tuple(shape) == (3, 2), lambda c, *args: -c),
        "(5, (4, 1), 2"),
    "tabloids.integer-rows": Fault(
        4, tabloids, "_pair_column",
        _first_entry_negated,
        "((4, 2, 2), '4: u1-2 u3-4', 'matching')"),
    "action.unit-triangular": Fault(
        4, tabloids, "polytabloid_terms",
        _when(lambda T: len(T.bottom) == 2, _bottom_entry_doubled),
        "((4, 2, 2), '4: u1-2 u3-4', 'polytabloid'"),
    "action.graded-group-laws": Fault(
        4, action, "act",
        lambda real: lambda sigma, x: real(_inverse(sigma), x),
        "(3, 1, 1, [1, 2, 1, 1]"),
    "action.gamma-agreement": Fault(
        4, action, "_line_pairs",
        lambda real: lambda M: list(M.undotted),
        "(2, 1, '2: u1-2')"),
    "action.image-stability": Fault(
        4, matchings, "complete_dotted",
        _one_completion,
        "(3, 1, 1, 3)"),
    "action.trace-agreement": Fault(
        4, action, "_factor_trace",
        _when(lambda sigma, n, m, dual: (n, m) == (4, 1), lambda t, *args: t + 1),
        "((4, 1, 1), (2, 3, 4, 1)"),
    "action.characters": Fault(
        4, action, "_power",
        lambda real: lambda p, e: real(p, e - 1) if e > 1 else p,
        "((2, 1), ['m=1: s1^2 != 1'])"),
    "action.chart-anchors": Fault(
        4, action, "classify_case",
        _when(lambda M, i: True, lambda case, M, i: 1 if case == 3 else case),
        "((4, 2), ['case 1 at 4: d1-2 u3-4, i=2"),
    "skein.calibration": Fault(
        4, skein, "_anchor_ok",
        lambda real: lambda coeff, dots: real(coeff, dots) and dots == "none",
        "up to n=4"),
    "skein.fold-agreement": Fault(
        4, skein, "boundary_coefficients",
        _when(lambda M, tangle, *c: len(tangle.layers) > 3,
              lambda out, *args: {N: -c for N, c in out.items()}),
        "(2, 0, '2: r1 r2', [1, 1, 1, 1, 1, 1])"),
    "skein.random-words": Fault(
        4, skein, "act_word",
        lambda real: lambda word, x: real(word[::-1], x),
        "(3, 1, '3: u1-2 r3', [2, 2, 1, 2])"),
    "skein.word-invariance": Fault(
        4, skein, "resolve_evaluate",
        _when(lambda M, tangle, *c: len(tangle.layers) > 1
              and tangle.layers[0] > tangle.layers[-1], lambda y, *args: -y),
        "(4, 0, (2, 1, 4, 3), '4: r1 r2 r3 r4')"),
}


def test_the_fault_table_names_each_suite_once():
    assert list(FAULTS) == [check.name for check in verify.CHECKS]


@pytest.mark.parametrize("name", FAULTS)
def test_each_suite_fails_under_its_fault_and_passes_without(name):
    fault = FAULTS[name]
    springer_tworow.clear_caches()
    assert verify.run_all(fault.depth, names=[name]) == (True, [(name, True, "")])
    with fault.planted():
        ok, [(_, passed, message)] = verify.run_all(fault.depth, names=[name])
    assert not ok and not passed and fault.expect in message, message


if __name__ == "__main__":
    matrix = {}  # the suites that fail under each fault, at its depth
    for name, fault in FAULTS.items():
        with fault.planted():
            matrix[name] = [suite for suite, passed, _ in verify.run_all(fault.depth)[1]
                            if not passed]
    width = max(map(len, matrix))
    print(f"{'fault of':<{width}}  depth  caught by")
    for name, caught in matrix.items():
        alone = " (alone)" if caught == [name] else ""
        print(f"{name:<{width}}  {FAULTS[name].depth:>5}  {', '.join(caught) or '-'}{alone}")
    shared = [name for name, caught in matrix.items() if caught != [name]]
    print(f"\n{len(matrix) - len(shared)} of {len(matrix)} faults are caught by their own suite "
          "alone; the fault of each of these suites is caught by another suite too:")
    print(", ".join(shared) or "-")
