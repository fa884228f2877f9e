"""Differential tests of the action kernel against a dense solve.

The kernel solves in one factor per (n, m), in the factor's own column
numbering, and writes each answer at the positions of the (n, k, m)
basis; it moves each tabloid row once per sigma as a bit mask, checks
each Coxeter relation on composed sparse products and reads class traces
off the factor's dual basis.  The reference shares none of that.
``reference_solve`` takes ``linalg.rref`` of the dense augmented matrix
[A | B] of one (n, k, m) on its own, with columns built by the frozenset
route (``matching_vector``, ``polytabloid``, ``permute``); traces are
diagonals of solved matrices, and Coxeter relations dense matrix
products.  ``rep_matrix``, ``modules_equal`` and the rows and failures of
``character_table_check`` are held to it for every (n, k, m) with
n <= 9, and ``act`` on mixed classes for n <= 8; a planted row map that
leaves the span must make ``act`` raise SolveFailed naming sigma and the
(n, k, m).  ``act_via_gamma`` is ``act``: the pole-flip terms are the
matching terms up to a global sign (``action.gamma-agreement``).  Tests
that patch the kernel start and end with ``springer_tworow.clear_caches()``,
so no certificate computed under a patch is read by another test.
"""
import random

import pytest

import springer_tworow
from springer_tworow import action, linalg, tabloids, verify
from springer_tworow.action import (
    act,
    character_table_check,
    rep_matrix,
)
from springer_tworow.errors import InternalCheckError, SolveFailed
from springer_tworow.homology import HomClass, hom_class
from springer_tworow.matchings import (all_dotted_matchings, parse_matching,
                                       standard_dotted_matchings, tableau_of)
from springer_tworow.permutations import (
    Permutation,
    adjacent,
    class_representative,
    partitions,
)
from springer_tworow.tabloids import (
    irr_character,
    matching_vector,
    modules_equal,
    permute,
    polytabloid,
)

NMAX = 8
VIEW_NMAX = 9


def shapes(n):
    return [(k, m) for k in range(n // 2 + 1) for m in range(k + 1)]


def seeded_sigma(n, k, m):
    return Permutation(tuple(random.Random(f"kernel-{n}-{k}-{m}").sample(range(1, n + 1), n)))


# --- reference: a dense solve per shape ------------------------------------------

def reference_solve(a_cols, b_cols):
    """Columns x_j with A x_j = b_j, by rref of [A | B]; None if inconsistent."""
    nrows, ncols = len(a_cols[0]), len(a_cols)
    aug = [[col[i] for col in a_cols] + [col[i] for col in b_cols] for i in range(nrows)]
    echelon, pivots = linalg.rref(aug)
    if pivots[:ncols] != list(range(ncols)) or any(c >= ncols for c in pivots):
        return None
    return [[echelon[r][ncols + j] for r in range(ncols)] for j in range(len(b_cols))]


def moved_row(sigma, terms):
    """sigma applied to the sum of c * matching_vector(M) over the terms (M, c), dense."""
    rows = [[c * v for v in permute(sigma, matching_vector(M)).to_row()] for M, c in terms]
    return [sum(entries) for entries in zip(*rows)]


def reference_matrices(n, k, m, sigmas):
    """The matrix of each sigma on the (n, k, m) basis, from one dense solve."""
    basis = standard_dotted_matchings(n, k, m)
    b_cols = [moved_row(sigma, [(M, 1)]) for sigma in sigmas for M in basis]
    x = reference_solve([matching_vector(M).to_row() for M in basis], b_cols)
    d = len(basis)
    return [[list(row) for row in zip(*x[i * d:(i + 1) * d])] for i in range(len(sigmas))]


def reference_class(sigma, x):
    """sigma applied to the class x, or None if it leaves the span."""
    basis = standard_dotted_matchings(x.n, x.k, x.grading)
    solved = reference_solve([matching_vector(M).to_row() for M in basis],
                             [moved_row(sigma, x.terms)])
    return None if solved is None else hom_class(x.n, x.k, dict(zip(basis, solved[0])))


def mat_mul(a, b):
    """The square dense product a b, row by row: a nonzero a[i][t] adds a[i][t] * b[t]."""
    out = []
    for row in a:
        acc = [0] * len(row)
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def is_identity(mat):
    return all(mat[i][j] == (i == j) for i in range(len(mat)) for j in range(len(mat)))


def dense_matrix(columns):
    """Sparse ``{row: int}`` columns of a square matrix, written out dense."""
    return [[column.get(i, 0) for column in columns] for i in range(len(columns))]


def coxeter_failures(gens):
    """The Coxeter relations broken by dense generator matrices ``gens[i - 1]`` for s_i."""
    r = len(gens)
    failures = [f"s{i}^2 != 1" for i, g in enumerate(gens, 1) if not is_identity(mat_mul(g, g))]
    for i in range(1, r):
        braid = mat_mul(gens[i - 1], gens[i])
        if not is_identity(mat_mul(braid, mat_mul(braid, braid))):
            failures.append(f"(s{i} s{i + 1})^3 != 1")
    for i in range(1, r):
        for j in range(i + 2, r + 1):
            comm = mat_mul(gens[i - 1], gens[j - 1])
            if not is_identity(mat_mul(comm, comm)):
                failures.append(f"s{i} and s{j} do not commute")
    return failures


def reference_characters(n, k, generators=None):
    """(rows, failures) of ``character_table_check(n, k)`` by dense solves and products.

    Each grading solves its n - 1 generators and every class
    representative in one ``reference_matrices`` call; traces are the
    diagonals.  ``generators[m]``, when given, replaces the solved
    generator matrices in the relations, so a patched kernel generator
    changes only the relation lines.
    """
    rows, failures = [], []
    for m in range(k + 1):
        gens = [adjacent(n, i) for i in range(1, n)]
        mus = partitions(n)
        mats = reference_matrices(n, k, m, gens + [class_representative(mu, n) for mu in mus])
        for mu, mat in zip(mus, mats[len(gens):]):
            trace = sum(mat[i][i] for i in range(len(mat)))
            expected = irr_character((n - m, m), mu)
            rows.append((m, mu, trace, expected))
            if trace != expected:
                failures.append(f"m={m}, class {mu}: trace {trace} != character {expected}")
        relations = mats[:len(gens)] if generators is None else generators[m]
        failures += [f"m={m}: {text}" for text in coxeter_failures(relations)]
    return rows, failures


# --- the kernel against the reference ------------------------------------------

@pytest.fixture
def cold_caches():
    """Every per-shape table empty before the test and again after it."""
    springer_tworow.clear_caches()
    yield
    springer_tworow.clear_caches()


@pytest.mark.parametrize("n", range(1, VIEW_NMAX + 1))
def test_rep_matrix_matches_reference(n):
    for k, m in shapes(n):
        sigmas = [adjacent(n, i) for i in range(1, n)] + [seeded_sigma(n, k, m)]
        for sigma, want in zip(sigmas, reference_matrices(n, k, m, sigmas)):
            assert rep_matrix(sigma, n, k, m) == want, (sigma.images, n, k, m)


def mixed_classes(n, k, m, rng):
    """Seeded classes over (n, k, m) that each hold at least one nonstandard term."""
    basis = standard_dotted_matchings(n, k, m)
    others = [M for M in all_dotted_matchings(n, k, m) if not M.is_standard]
    for _ in range(min(3, len(others))):
        coeffs = {M: rng.choice((-3, -1, 1, 2)) for M in rng.sample(others, min(2, len(others)))}
        for M in rng.sample(basis, min(2, len(basis))):
            coeffs[M] = coeffs.get(M, 0) + rng.choice((-2, 1, 3))
        yield hom_class(n, k, coeffs)


@pytest.mark.parametrize("n", range(1, NMAX + 1))
def test_act_on_nonstandard_terms_matches_reference(n):
    rng = random.Random(f"kernel-mixed-{n}")
    seen = 0
    for k, m in shapes(n):
        for x in mixed_classes(n, k, m, rng):
            seen += 1
            for sigma in (adjacent(n, rng.randint(1, n - 1)), seeded_sigma(n, k, m)):
                assert act(sigma, x) == reference_class(sigma, x), (sigma.images, x)
    assert seen or n < 4


@pytest.mark.usefixtures("cold_caches")
def test_an_image_outside_the_span_raises_naming_sigma_and_the_shape(monkeypatch):
    # a row map that sends tabloid row 0 to row 1 is no permutation of the
    # rows, and it moves this class out of the standard span
    class Stray(action._RowMap):
        def __init__(self, sigma, n, m):
            super().__init__(sigma, n, m)
            self[0] = 1

    monkeypatch.setattr(action, "_RowMap", Stray)
    sigma, x = adjacent(6, 1), HomClass.of(parse_matching("6: u1-4 u2-3 d5-6"))
    with pytest.raises(SolveFailed, match=r"^action of \(2, 1, 3, 4, 5, 6\) at "
                                          r"\(n, k, m\) = \(6, 3, 2\) left the standard span"):
        act(sigma, x)


def corrupted_generators(gens):
    """Seeded corruptions of sparse generators: (name, generators) pairs.

    Negate one column of s2, swap s1 and s3, drop one term of a column
    of s1; a corruption that the shape cannot carry is left out.
    """
    yield "clean", gens
    if len(gens) >= 2 and gens[1]:
        s2 = list(gens[1])
        s2[len(s2) // 2] = {i: -x for i, x in s2[len(s2) // 2].items()}
        yield "negated column of s2", [gens[0], s2, *gens[2:]]
    if len(gens) >= 3:
        yield "s1 and s3 swapped", [gens[2], gens[1], gens[0], *gens[3:]]
    longest = max(range(len(gens[0])), key=lambda t: len(gens[0][t]), default=None)
    if longest is not None:
        s1 = list(gens[0])
        s1[longest] = dict(list(s1[longest].items())[:-1])
        yield "dropped term of s1", [s1, *gens[1:]]


@pytest.mark.parametrize("n", range(2, NMAX + 1))
def test_sparse_coxeter_words_match_dense_products(n):
    failing = 0
    for m in range(n // 2 + 1):
        # the factor is the (n, m, m) basis, which its own view leaves in place
        matrices = [rep_matrix(adjacent(n, i), n, m, m) for i in range(1, n)]
        sparse = action._generators(n, m)
        for columns, mat in zip(sparse, matrices):
            # the seam keeps only nonzero coordinates, and rep_matrix writes them out
            assert all(v for column in columns for v in column.values())
            assert dense_matrix(columns) == mat
        # each word is a base (one letter or two) raised to a power
        words = [((i,), 2) for i in range(n - 1)]
        words += [((i, i + 1), 3) for i in range(n - 2)]
        words += [((i, j), 2) for i in range(n - 1) for j in range(i + 2, n - 1)]
        # words that are not the identity, so the False answer is compared too
        words += [((i,), 1) for i in range(n - 1)] + [((i, i + 1), 2) for i in range(n - 2)]
        for base, e in words:
            word = base * e
            product = matrices[word[0]]
            for letter in word[1:]:
                product = mat_mul(product, matrices[letter])
            p = sparse[base[0]]
            if len(base) == 2:
                p = action._compose(p, sparse[base[1]])
            identity = [{j: 1} for j in range(len(p))]
            assert (action._power(p, e) == identity) == is_identity(product), (n, m, word)
        # the composed relation check fails as dense products do, on corrupted generators
        for name, broken in corrupted_generators(sparse):
            got = action._coxeter_failures(broken)
            assert got == coxeter_failures([dense_matrix(g) for g in broken]), (n, m, name)
            assert name != "clean" or got == []
            failing += bool(got)
    assert failing


@pytest.mark.parametrize("n", range(1, VIEW_NMAX + 1))
def test_modules_equal_views_match_the_per_shape_reference(n):
    for k, m in shapes(n):
        basis = standard_dotted_matchings(n, k, m)
        t_rows = [polytabloid(tableau_of(M)).to_row() for M in basis]
        m_rows = [matching_vector(M).to_row() for M in basis]
        got = modules_equal(n, m, k)
        assert got.equal, (n, k, m)
        for matrix in (got.tableau_in_matching, got.matching_in_tableau):
            assert all(type(v) is int for row in matrix for v in row)
        assert got.tableau_in_matching == reference_solve(m_rows, t_rows), (n, k, m)
        assert got.matching_in_tableau == reference_solve(t_rows, m_rows), (n, k, m)


@pytest.mark.parametrize("n", range(2, VIEW_NMAX + 1))
def test_character_check_matches_the_per_shape_reference(n):
    for k in range(n // 2 + 1):
        report = character_table_check(n, k)
        rows, failures = reference_characters(n, k)
        assert (report.rows, report.failures, report.coxeter_ok) == (rows, failures, True), (n, k)


def broken_basis(change, n, k, m):
    """(basis, matching the error must name) for the (n, k, m) basis broken by ``change``.

    A dropped element is named by its (n, m, m) partner, which is left over.
    """
    basis = standard_dotted_matchings(n, k, m)
    place = tabloids._factor(n, m)[0]
    if change == "dropped":
        return basis[:-1], standard_dotted_matchings(n, m, m)[place[basis[-1].undotted]]
    if change == "duplicated":
        return basis + basis[-1:], basis[-1]
    stray = next(M for M in all_dotted_matchings(n, k, m) if M.undotted not in place)
    return basis[:-1] + (stray,), stray


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("change", ["dropped", "duplicated", "nonstandard"])
def test_a_broken_view_basis_raises_naming_its_shape(monkeypatch, change):
    n, k, m = 7, 3, 1
    basis, culprit = broken_basis(change, n, k, m)
    real = tabloids.standard_dotted_matchings

    def patched(n2, k2, m2=None):
        return basis if (n2, k2, m2) == (n, k, m) else real(n2, k2, m2)

    monkeypatch.setattr(tabloids, "standard_dotted_matchings", patched)
    assert character_table_check(n, m).ok  # the shared (7, 1) factor is sound
    callers = [lambda: rep_matrix(adjacent(n, 1), n, k, m),
               lambda: modules_equal(n, m, k), lambda: character_table_check(n, k)]
    for call in callers:
        with pytest.raises(InternalCheckError, match=r"\(n, k, m\) = \(7, 3, 1\)") as info:
            call()
        assert str(culprit) in str(info.value), change


def test_factor_traces_match_rep_matrix_diagonals(monkeypatch):
    # one dual basis per (n, m), n <= 10: every k >= m reads the same factor
    built, real = [], linalg.ColumnSolver.dual_basis

    def counted(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(linalg.ColumnSolver, "dual_basis", counted)
    verify.check_trace_agreement(10, random.Random(0))
    assert len(built) == sum(n // 2 + 1 for n in range(1, 11)) == 35


@pytest.mark.usefixtures("cold_caches")
def test_character_check_solves_generators_before_reading_traces(monkeypatch):
    # per grading: the n - 1 generator solves, then one factor trace per
    # class and no solve for a class representative
    n, k, calls = 6, 3, []
    real_solve, real_trace = action._solved_columns, action._factor_trace

    def solve(sigma, n, m):
        calls.append(("_solved_columns", sigma, m))
        return real_solve(sigma, n, m)

    def trace(sigma, n, m, dual):
        calls.append(("trace", sigma, m))
        return real_trace(sigma, n, m, dual)

    monkeypatch.setattr(action, "_solved_columns", solve)
    monkeypatch.setattr(action, "_factor_trace", trace)
    assert character_table_check(n, k).ok
    want = []
    for m in range(k + 1):
        want += [("_solved_columns", adjacent(n, i), m) for i in range(1, n)]
        want += [("trace", class_representative(mu, n), m) for mu in partitions(n)]
    assert calls == want


# --- broken generators: both checks must fail the same way ----------------------

N, K = 6, 3


def patch_s1(monkeypatch, replacement):
    """Make the solved columns of s1 on N letters those of ``replacement(real, m)``.

    ``real`` gives the unpatched generator matrices in the factor's
    numbering, and the patched seam also changes ``rep_matrix``, which
    writes them out at each view's positions.
    """
    real_solve, s1 = action._solved_columns, adjacent(N, 1)

    def real(sigma, n, m):
        return dense_matrix(real_solve(sigma, n, m))

    def patched(sigma, n, m):
        if sigma != s1:
            return real_solve(sigma, n, m)
        mat = replacement(real, m)
        return [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(len(mat))]

    monkeypatch.setattr(action, "_solved_columns", patched)


def generator(real, i, m):
    return real(adjacent(N, i), N, m)


def broken_report():
    report = character_table_check(N, K)
    assert not report.coxeter_ok
    kernel = [[rep_matrix(adjacent(N, i), N, K, m) for i in range(1, N)] for m in range(K + 1)]
    assert report.failures == reference_characters(N, K, kernel)[1]
    return report


def relations_broken(report):
    """Which Coxeter relations the report's failures name (trace lines aside)."""
    texts = {"square": "^2 != 1", "braid": ")^3 != 1", "commute": "do not commute"}
    return {name for name, text in texts.items() if any(text in f for f in report.failures)}


@pytest.mark.usefixtures("cold_caches")
def test_broken_square_fails_like_the_reference(monkeypatch):
    # s1 -> s1 s2, a 3-cycle: not an involution once m >= 1
    patch_s1(monkeypatch, lambda real, m: mat_mul(generator(real, 1, m), generator(real, 2, m)))
    report = broken_report()
    assert "m=1: s1^2 != 1" in report.failures
    assert "m=0: s1^2 != 1" not in report.failures


@pytest.mark.usefixtures("cold_caches")
def test_broken_braid_fails_like_the_reference(monkeypatch):
    # s1 -> 1: still an involution commuting with every s_j, but (1 s2)^3 = s2
    patch_s1(monkeypatch, lambda real, m: [[int(i == j) for j in range(len(g))]
                                           for i, g in enumerate(generator(real, 1, m))])
    report = broken_report()
    assert relations_broken(report) == {"braid"}
    assert "m=1: (s1 s2)^3 != 1" in report.failures


@pytest.mark.usefixtures("cold_caches")
def test_broken_commutation_fails_like_the_reference(monkeypatch):
    # s1 -> s3: (s3 s2)^3 = 1 still holds, but s3 and s4 do not commute
    patch_s1(monkeypatch, lambda real, m: generator(real, 3, m))
    report = broken_report()
    assert relations_broken(report) == {"commute"}
    assert "m=1: s1 and s4 do not commute" in report.failures


@pytest.mark.usefixtures("cold_caches")
def test_broken_trace_fails_with_its_class(monkeypatch):
    # one class trace off by 1: exactly its trace line fails, no relation does
    real, bad = action._factor_trace, class_representative((3, 2, 1), N)

    def patched(sigma, n, m, dual):
        return real(sigma, n, m, dual) + (sigma == bad and m == 2)

    monkeypatch.setattr(action, "_factor_trace", patched)
    report = character_table_check(N, K)
    want = irr_character((N - 2, 2), (3, 2, 1))
    assert report.coxeter_ok
    assert report.failures == [f"m=2, class (3, 2, 1): trace {want + 1} != character {want}"]
