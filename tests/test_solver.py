"""The integer unit-triangular ColumnSolver against dense rational elimination.

The reference solves A X = B by ``linalg.rref`` of the augmented matrix
[A | B]: with A of full column rank, the pivots fall in the first
columns and the solution is read off the B block.  Every (n, k, m) with
n <= 8 is compared: ``rep_matrix`` for each adjacent generator and one
seeded random permutation, ``act_via_gamma`` on every standard basis
vector for that permutation, and both ``modules_equal`` change-of-basis
matrices.
"""
import itertools
import random

import pytest

from springer_tworow import errors, linalg, verify
from springer_tworow.action import act_via_gamma, line_diagram_expand, rep_matrix
from springer_tworow.homology import HomClass
from springer_tworow.linalg import ColumnSolver
from springer_tworow.matchings import standard_dotted_matchings, tableau_of
from springer_tworow.permutations import Permutation, adjacent
from springer_tworow.tabloids import (
    matching_vector,
    modules_equal,
    permute,
    polytabloid,
    tabloid_keys,
)


def shapes(n):
    return [(k, m) for k in range(n // 2 + 1) for m in range(k + 1)]


def reference_solve(a_cols, b_cols):
    """Columns x_j with A x_j = b_j, by rref of [A | B]; None if inconsistent."""
    nrows, ncols = len(a_cols[0]), len(a_cols)
    aug = [[col[i] for col in a_cols] + [col[i] for col in b_cols] for i in range(nrows)]
    echelon, pivots = linalg.rref(aug)
    if pivots[:ncols] != list(range(ncols)) or any(c >= ncols for c in pivots):
        return None
    return [[echelon[r][ncols + j] for r in range(ncols)] for j in range(len(b_cols))]


def dense(coords, width):
    """A sparse ``{column: int}`` solution written out as a list."""
    return [coords.get(j, 0) for j in range(width)]


def random_sigma(n, k, m):
    """The seeded random permutation of the shape (n, k, m)."""
    return Permutation(tuple(random.Random(f"{n}-{k}-{m}").sample(range(1, n + 1), n)))


def gamma_row(M, sigma):
    moved = {sigma.apply_to_set(key): v for key, v in line_diagram_expand(M).coords}
    return [moved.get(key, 0) for key in tabloid_keys(M.n, M.m)]


@pytest.mark.parametrize("n", range(1, 9))
def test_rep_matrix_matches_dense_reference(n):
    for k, m in shapes(n):
        basis = standard_dotted_matchings(n, k, m)
        a_cols = [matching_vector(M).to_row() for M in basis]
        sigmas = [adjacent(n, i) for i in range(1, n)] + [random_sigma(n, k, m)]
        b_cols = [permute(s, matching_vector(M)).to_row() for s in sigmas for M in basis]
        x = reference_solve(a_cols, b_cols)
        assert x is not None, (n, k, m)
        d = len(basis)
        for idx, sigma in enumerate(sigmas):
            cols = x[idx * d:(idx + 1) * d]
            want = [[cols[j][i] for j in range(d)] for i in range(d)]
            assert rep_matrix(sigma, n, k, m) == want, (n, k, m, sigma.images)


@pytest.mark.parametrize("n", range(1, 9))
def test_act_via_gamma_matches_dense_reference(n):
    for k, m in shapes(n):
        sigma = random_sigma(n, k, m)
        basis = standard_dotted_matchings(n, k, m)
        a_cols = [line_diagram_expand(M).to_row() for M in basis]
        x = reference_solve(a_cols, [gamma_row(M, sigma) for M in basis])
        assert x is not None, (n, k, m)
        for M, coords in zip(basis, x):
            want = {N: c for N, c in zip(basis, coords) if c}
            assert act_via_gamma(sigma, M).coeffs == want, (n, k, m, M)


@pytest.mark.parametrize("n", range(1, 9))
def test_modules_equal_change_of_basis_matches_dense_reference(n):
    for k, m in shapes(n):
        basis = standard_dotted_matchings(n, k, m)
        t_rows = [polytabloid(tableau_of(M)).to_row() for M in basis]
        m_rows = [matching_vector(M).to_row() for M in basis]
        got = modules_equal(n, m, k)
        assert got.equal
        for matrix in (got.tableau_in_matching, got.matching_in_tableau):
            assert all(type(v) is int for row in matrix for v in row)
        assert got.tableau_in_matching == reference_solve(m_rows, t_rows), (n, k, m)
        assert got.matching_in_tableau == reference_solve(t_rows, m_rows), (n, k, m)


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

    for k, m in shapes(n):
        solver = tabloids._solver(n, k, m)[1]
        dual = solver.dual_basis()
        pivots = [p for p, _ in dual]
        assert pivots == sorted(step[0] for step in solver._steps), (n, k, m)
        for p, b in dual:
            solver.solve(b)  # raises SolveFailed outside the column span
            assert {r: x for r, x in b.items() if r in pivots} == {p: 1}, (n, k, m, p)


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
    act_via_gamma(sigma, basis[1])
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
        return (rep_matrix(sigma, n, k, m), action.act(sigma, x), act_via_gamma(sigma, basis[1]),
                modules_equal(n, m, k), action.character_table_check(n, k))

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
    assert got[:4] == want[:4]
    assert got[4].ok and got[4].rows == want[4].rows
