"""The integer unit-triangular ColumnSolver: solves, refusals, the dual basis and traces.

The action layer's answers are held to a dense solve in
``test_action_kernel.py``; here the solver itself is checked on small
columns, on every factor to n = 10, and on the action path's use of it,
which builds no Fraction and no frozenset table.
"""
import itertools
import random

import pytest

from springer_tworow import errors, verify
from springer_tworow.action import rep_matrix
from springer_tworow.homology import HomClass
from springer_tworow.linalg import ColumnSolver
from springer_tworow.matchings import standard_dotted_matchings
from springer_tworow.permutations import Permutation
from springer_tworow.tabloids import matching_vector, modules_equal, tabloid_keys


def dense(coords, width):
    """A sparse ``{column: int}`` solution written out as a list."""
    return [coords.get(j, 0) for j in range(width)]


def random_sigma(n, k, m):
    """The seeded random permutation of the shape (n, k, m)."""
    return Permutation(tuple(random.Random(f"{n}-{k}-{m}").sample(range(1, n + 1), n)))


def test_solutions_are_ints():
    x = ColumnSolver([{0: 1}, {0: 2, 1: -1}]).solve({0: 4, 1: 3})
    assert dense(x, 2) == [10, -3] and all(type(v) is int for v in x.values())


def test_solutions_hold_only_nonzero_coordinates():
    solver = ColumnSolver([{0: 1}, {0: 2, 1: -1}, {0: 1, 2: 1}])
    assert solver.solve({0: 2, 1: -1}) == {1: 1}
    assert solver.solve({}) == {}


def test_rhs_outside_span_raises():
    solver = ColumnSolver([{0: 1}, {0: 2, 2: -1}])
    assert solver.nrows == 3
    with pytest.raises(errors.SolveFailed):
        solver.solve({1: 1})
    with pytest.raises(errors.SolveFailed):
        solver.solve({5: 1})
    # a tabloid vector outside the span of the standard matching vectors
    basis = standard_dotted_matchings(4, 2, 2)
    keys = tabloid_keys(4, 2)
    cols = [{i: v for i, v in enumerate(matching_vector(M).to_row()) if v} for M in basis]
    with pytest.raises(errors.SolveFailed):
        ColumnSolver(cols).solve({keys.index(frozenset({3, 4})): 1})


def test_colliding_pivots_raise():
    with pytest.raises(errors.InternalCheckError, match=r"column 1 .*row 2"):
        ColumnSolver([{0: 1, 2: 1}, {1: 3, 2: -1}])


def test_non_unit_pivot_raises():
    with pytest.raises(errors.InternalCheckError, match=r"column 1 .*entry 2"):
        ColumnSolver([{0: 1}, {0: 1, 1: 2}])
    with pytest.raises(errors.InternalCheckError, match="column 0 is zero"):
        ColumnSolver([{0: 0}])


def test_trace_reads_the_dual_basis():
    # three columns spanning the sum-zero vectors of Z^4, pivots at rows 1, 2, 3
    columns = [{0: 1, 1: -1}, {0: 1, 2: -1}, {1: 2, 2: -1, 3: -1}]
    solver = ColumnSolver(columns)
    dual = solver.dual_basis()
    assert dual == [(1, {0: -1, 1: 1}), (2, {0: -1, 2: 1}), (3, {0: -1, 3: 1})]
    # every row permutation keeps the span, acting as the standard
    # representation of S_4, whose character is (fixed points - 1)
    for images in itertools.permutations(range(4)):
        source = images.__getitem__
        solved = [dense(solver.solve({r: col.get(source(r), 0) for r in range(4)}), 3)
                  for col in columns]
        diagonal = sum(solved[j][j] for j in range(3))
        fixed = sum(source(r) == r for r in range(4))
        assert solver.trace(dual, source) == diagonal == fixed - 1, images


def test_the_factor_keeps_no_dual_basis():
    # a factor holds its columns and nothing else: no attribute can be
    # assigned after __init__, and each caller gets a dual basis of its own
    solver = ColumnSolver([{0: 1, 1: -1}, {0: 1, 2: -1}])
    assert ColumnSolver.__slots__ == ("nrows", "_steps")
    assert not hasattr(solver, "__dict__")
    with pytest.raises(AttributeError):
        solver._dual = []
    first = solver.dual_basis()
    assert first == solver.dual_basis() and first is not solver.dual_basis()


def test_dual_basis_checks_its_unit_vectors():
    solver = ColumnSolver([{0: 1}, {0: 2, 1: -1}])
    p, unit, j, items = solver._steps[0]
    solver._steps[0] = (p, unit, j, [(r, 2 * v) for r, v in items])  # a non-unit pivot on record
    with pytest.raises(errors.InternalCheckError, match="pivot 1 never peels"):
        solver.dual_basis()


@pytest.mark.parametrize("n", range(1, 11))
def test_dual_basis_vectors_solve_to_unit_vectors_on_the_pivot_rows(n):
    from springer_tworow import tabloids

    for m in range(n // 2 + 1):
        solver = tabloids._factor(n, m)[2]
        dual = solver.dual_basis()
        pivots = [p for p, _ in dual]
        assert pivots == sorted(step[0] for step in solver._steps), (n, m)
        for p, b in dual:
            solver.solve(b)  # raises SolveFailed outside the column span
            assert {r: x for r, x in b.items() if r in pivots} == {p: 1}, (n, m, p)


def test_unit_triangular_invariant_to_n10():
    verify.check_unit_triangular(10, random.Random(0))


def test_action_path_builds_no_fraction(monkeypatch):
    import fractions

    import springer_tworow
    from springer_tworow import action

    built = []
    original = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    springer_tworow.clear_caches()
    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    sigma = random_sigma(7, 3, 2)
    basis = standard_dotted_matchings(7, 3, 2)
    rep_matrix(sigma, 7, 3, 2)
    action.act(sigma, HomClass.of(basis[0]) + HomClass.of(basis[-1]))
    assert built == []
    monkeypatch.undo()
    assert fractions.Fraction(1, 2) * 2 == 1


def test_cold_action_path_builds_no_frozenset_table(monkeypatch):
    # The action layer keys tabloid rows by bit masks: with every cache
    # cold and every frozenset route raising wherever the package binds
    # it, each caller still gives the answer it gave before.
    import sys

    import springer_tworow
    from springer_tworow import action, tabloids
    from springer_tworow.matchings import all_dotted_matchings

    n, k, m = 6, 3, 2
    sigma = random_sigma(n, k, m)
    basis = standard_dotted_matchings(n, k, m)
    other = next(M for M in all_dotted_matchings(n, k, m) if not M.is_standard)
    x = HomClass.of(other) - HomClass.of(basis[0])

    def run():
        return (rep_matrix(sigma, n, k, m), action.act(sigma, x), modules_equal(n, m, k),
                action.character_table_check(n, k))

    want = run()
    names = ("tabloid_index", "tabloid_keys", "_pair_terms", "matching_terms", "polytabloid_terms")
    originals = {name: getattr(tabloids, name) for name in names}
    springer_tworow.clear_caches()
    patched = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("springer_tworow"):
            continue
        for name, original in originals.items():
            if vars(module).get(name) is original:
                def refuse(*args, name=name):
                    raise AssertionError(f"the action path called {name}")
                monkeypatch.setattr(module, name, refuse)
                patched.append((module.__name__, name))
    assert {name for _, name in patched} == set(names)
    got = run()
    assert got[:3] == want[:3]
    assert got[3].ok and got[3].rows == want[3].rows
