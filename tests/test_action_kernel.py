"""Differential tests of the action kernel against the route it replaced.

The kernel reuses the factored standard columns, moves each tabloid row
once per sigma as a bit mask, checks each Coxeter relation on composed
sparse products and reads class traces off the factor's dual basis.  The
references below are the plain route: expand every term, move every key
by sigma, look it up and solve, written out dense; take traces of solved
matrices; multiply dense generator matrices; push every unit vector
through every letter of a relation word.  They must agree exactly over
every (n, k, m) with n <= 8, the traces to n = 10.

The kernel keeps one factor per (n, m), and each (n, k, m) is a
relabelled view of it; ``reference_solver`` factors every (n, k, m) on
its own.  ``rep_matrix``, ``modules_equal`` and the rows and failures of
``character_table_check`` are held to that per-shape route for every
(n, k, m) with n <= 9.  Tests that patch the kernel start and end with
``springer_tworow.clear_caches()``, so no certificate computed under a
patch is read by another test.
"""
import random
from functools import lru_cache

import pytest

import springer_tworow
from springer_tworow import action, tabloids, verify
from springer_tworow.action import (
    act,
    act_via_gamma,
    character_table_check,
    line_diagram_terms,
    rep_matrix,
)
from springer_tworow.errors import InternalCheckError, SolveFailed
from springer_tworow.homology import HomClass, hom_class
from springer_tworow.linalg import ColumnSolver
from springer_tworow.matchings import all_dotted_matchings, standard_dotted_matchings, tableau_of
from springer_tworow.permutations import (
    Permutation,
    adjacent,
    class_representative,
    partitions,
)
from springer_tworow.tabloids import (
    irr_character,
    matching_terms,
    modules_equal,
    polytabloid_terms,
    tabloid_index,
)

NMAX = 8
VIEW_NMAX = 9


def shapes(n):
    return [(k, m) for k in range(n // 2 + 1) for m in range(k + 1)]


def seeded_sigma(n, k, m):
    return Permutation(tuple(random.Random(f"kernel-{n}-{k}-{m}").sample(range(1, n + 1), n)))


# --- reference: the replaced route ---------------------------------------------

@lru_cache(maxsize=None)
def reference_solver(expand, n, k, m):
    index = tabloid_index(n, m)
    basis = standard_dotted_matchings(n, k, m)
    return ColumnSolver([{index[key]: v for key, v in expand(M).items()} for M in basis])


def reference_coords(sigma, terms, expand, n, k, m):
    """Expand each term, move each key by sigma, look it up, solve; dense coordinates."""
    index = tabloid_index(n, m)
    target = {}
    for M, c in terms:
        for key, v in expand(M).items():
            row = index[sigma.apply_to_set(key)]
            target[row] = target.get(row, 0) + c * v
    width = len(standard_dotted_matchings(n, k, m))
    return dense(reference_solver(expand, n, k, m).solve(target), width)


def dense(coords, width):
    """A sparse ``{column: int}`` solution written out as a list."""
    return [coords.get(j, 0) for j in range(width)]


def reference_matrix(sigma, n, k, m):
    basis = standard_dotted_matchings(n, k, m)
    cols = [reference_coords(sigma, ((M, 1),), matching_terms, n, k, m) for M in basis]
    return [list(row) for row in zip(*cols)]


def tableau_terms(M):
    """The polytabloid terms of M's tableau: the tableau side of ``modules_equal``."""
    return polytabloid_terms(tableau_of(M))


def reference_comparison(n, k, m):
    """Both change-of-basis matrices of (n, k, m), each set solved in the other's own factor."""
    index = tabloid_index(n, m)
    basis = standard_dotted_matchings(n, k, m)
    sides = [(expand, [{index[key]: v for key, v in expand(M).items()} for M in basis])
             for expand in (tableau_terms, matching_terms)]
    (t_expand, t_cols), (m_expand, m_cols) = sides
    return ([dense(reference_solver(m_expand, n, k, m).solve(col), len(basis)) for col in t_cols],
            [dense(reference_solver(t_expand, n, k, m).solve(col), len(basis)) for col in m_cols])


def reference_character_report(n, k):
    """(rows, failures) of ``character_table_check`` on the per-shape reference route.

    Traces from ``reference_matrix``; relations checked word by word on
    generator columns solved by ``reference_coords``.
    """
    rows, failures = [], []
    for m in range(k + 1):
        for mu in partitions(n):
            mat = reference_matrix(class_representative(mu, n), n, k, m)
            trace = sum(mat[i][i] for i in range(len(mat)))
            expected = irr_character((n - m, m), mu)
            rows.append((m, mu, trace, expected))
            if trace != expected:
                failures.append(f"m={m}, class {mu}: trace {trace} != character {expected}")
        basis = standard_dotted_matchings(n, k, m)
        gens = [[{r: v for r, v in enumerate(reference_coords(adjacent(n, i), ((M, 1),),
                                                              matching_terms, n, k, m)) if v}
                 for M in basis] for i in range(1, n)]
        failures += [f"m={m}: {text}" for text in reference_coxeter_failures(gens)]
    return rows, failures


def reference_class(sigma, x, expand):
    basis = standard_dotted_matchings(x.n, x.k, x.grading)
    coords = reference_coords(sigma, x.terms, expand, x.n, x.k, x.grading)
    return hom_class(x.n, x.k, dict(zip(basis, coords)))


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]) if b else 0)]
            for i in range(len(a))]


def is_identity(mat):
    return all(mat[i][j] == (i == j) for i in range(len(mat)) for j in range(len(mat)))


def reference_word_is_identity(word):
    """Whether the product of sparse-column matrices in ``word`` is the identity.

    Applies the word to each unit vector e_j, rightmost factor first, and
    compares the result with e_j; stops at the first column that differs.
    """
    for j in range(len(word[0])):
        v = {j: 1}
        for g in reversed(word):
            out = {}
            for t, x in v.items():
                for i, y in g[t].items():
                    out[i] = out.get(i, 0) + x * y
            v = {i: x for i, x in out.items() if x}
        if v != {j: 1}:
            return False
    return True


def reference_coxeter_failures(gens):
    """The Coxeter relations broken by sparse generators, checked word by word."""
    g, r = gens, len(gens)
    relations = [((g[i],) * 2, "s{}^2 != 1", i, i) for i in range(r)]
    relations += [((g[i], g[i + 1]) * 3, "(s{} s{})^3 != 1", i, i + 1) for i in range(r - 1)]
    relations += [((g[i], g[j]) * 2, "s{} and s{} do not commute", i, j)
                  for i in range(r - 1) for j in range(i + 2, r)]
    return [text.format(i + 1, j + 1) for word, text, i, j in relations
            if not reference_word_is_identity(word)]


def reference_character_failures(n, k):
    """The failures of ``character_table_check`` by dense matrix products.

    Class traces come from ``reference_matrix``, generators from
    ``action.rep_matrix``, the dense view of ``action._solved_columns``,
    so a patched generator changes only the relation lines.
    """
    failures = []
    for m in range(k + 1):
        for mu in partitions(n):
            mat = reference_matrix(class_representative(mu, n), n, k, m)
            trace = sum(mat[i][i] for i in range(len(mat)))
            expected = irr_character((n - m, m), mu)
            if trace != expected:
                failures.append(f"m={m}, class {mu}: trace {trace} != character {expected}")
        gens = [action.rep_matrix(adjacent(n, i), n, k, m) for i in range(1, n)]
        for i, g in enumerate(gens, start=1):
            if not is_identity(mat_mul(g, g)):
                failures.append(f"m={m}: s{i}^2 != 1")
        for i in range(1, n - 1):
            braid = mat_mul(gens[i - 1], gens[i])
            if not is_identity(mat_mul(braid, mat_mul(braid, braid))):
                failures.append(f"m={m}: (s{i} s{i + 1})^3 != 1")
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                comm = mat_mul(gens[i - 1], gens[j - 1])
                if not is_identity(mat_mul(comm, comm)):
                    failures.append(f"m={m}: s{i} and s{j} do not commute")
    return failures


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
        for sigma in sigmas:
            assert rep_matrix(sigma, n, k, m) == reference_matrix(sigma, n, k, m), \
                (sigma.images, n, k, m)


@pytest.mark.parametrize("n", range(1, NMAX + 1))
def test_act_via_gamma_matches_reference(n):
    for k, m in shapes(n):
        sigmas = [adjacent(n, i) for i in range(1, n)] + [seeded_sigma(n, k, m)]
        for sigma in sigmas:
            for M in standard_dotted_matchings(n, k, m):
                want = reference_class(sigma, HomClass.of(M), line_diagram_terms)
                assert act_via_gamma(sigma, M) == want, (sigma.images, M)


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
                assert act(sigma, x) == reference_class(sigma, x, matching_terms), \
                    (sigma.images, x)
                try:
                    want = reference_class(sigma, x, line_diagram_terms)
                except SolveFailed:
                    with pytest.raises(SolveFailed):
                        act_via_gamma(sigma, x)
                else:
                    assert act_via_gamma(sigma, x) == want, (sigma.images, x)
    assert seen or n < 4


@pytest.mark.parametrize("n", range(2, NMAX + 1))
def test_sparse_coxeter_words_match_dense_products(n):
    for k, m in shapes(n):
        matrices = [rep_matrix(adjacent(n, i), n, k, m) for i in range(1, n)]
        sparse = [action._solved_columns(adjacent(n, i), n, k, m) for i in range(1, n)]
        for columns, mat in zip(sparse, matrices):
            # the seam keeps only nonzero coordinates, and rep_matrix writes them out
            assert all(v for column in columns for v in column.values())
            assert [[c.get(i, 0) for c in columns] for i in range(len(mat))] == mat
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
            want = is_identity(product)
            assert reference_word_is_identity(tuple(sparse[t] for t in word)) == want
            p = sparse[base[0]]
            if len(base) == 2:
                p = action._compose(p, sparse[base[1]])
            identity = [{j: 1} for j in range(len(p))]
            assert (action._power(p, e) == identity) == want, (n, k, m, word)


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


@pytest.mark.parametrize("n", range(2, 8))
def test_composed_coxeter_check_fails_like_the_word_by_word_reference(n):
    failing = 0
    for k, m in shapes(n):
        gens = [action._solved_columns(adjacent(n, i), n, k, m) for i in range(1, n)]
        for name, broken in corrupted_generators(gens):
            got = action._coxeter_failures(broken)
            assert got == reference_coxeter_failures(broken), (n, k, m, name)
            assert name != "clean" or got == []
            failing += bool(got)
    assert failing


@pytest.mark.parametrize("n", range(1, VIEW_NMAX + 1))
def test_modules_equal_views_match_the_per_shape_reference(n):
    for k, m in shapes(n):
        got = modules_equal(n, m, k)
        assert got.equal, (n, k, m)
        want = reference_comparison(n, k, m)
        assert (got.tableau_in_matching, got.matching_in_tableau) == want, (n, k, m)


@pytest.mark.parametrize("n", range(2, VIEW_NMAX + 1))
def test_character_check_matches_the_per_shape_reference(n):
    for k in range(n // 2 + 1):
        report = character_table_check(n, k)
        rows, failures = reference_character_report(n, k)
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


def test_factor_traces_match_rep_matrix_diagonals():
    verify.check_trace_agreement(10, random.Random(0))


@pytest.mark.parametrize("n", range(2, 7))
def test_character_check_matches_dense_reference(n):
    for k in range(n // 2 + 1):
        report = character_table_check(n, k)
        assert report.ok
        assert report.failures == reference_character_failures(n, k) == []


@pytest.mark.usefixtures("cold_caches")
def test_character_check_solves_generators_before_reading_traces(monkeypatch):
    # per grading: the n - 1 generator solves, then one factor trace per
    # class and no solve for a class representative
    n, k, calls = 6, 3, []
    real_solve, real_trace = action._solved_columns, action._factor_trace

    def solve(sigma, n, k, m):
        calls.append(("_solved_columns", sigma, m))
        return real_solve(sigma, n, k, m)

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
    """Make the solved columns of s1 on N letters those of ``replacement(real, k, m)``.

    ``real`` gives the unpatched generator matrices, and the patched seam
    also changes ``rep_matrix``, its dense view.
    """
    real_solve, s1 = action._solved_columns, adjacent(N, 1)

    def real(sigma, n, k, m):
        columns = real_solve(sigma, n, k, m)
        return [[column.get(i, 0) for column in columns] for i in range(len(columns))]

    def patched(sigma, n, k, m):
        if sigma != s1:
            return real_solve(sigma, n, k, m)
        mat = replacement(real, k, m)
        return [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(len(mat))]

    monkeypatch.setattr(action, "_solved_columns", patched)


def generator(real, i, k, m):
    return real(adjacent(N, i), N, k, m)


def broken_report():
    report = character_table_check(N, K)
    assert not report.coxeter_ok
    assert report.failures == reference_character_failures(N, K)
    return report


def relations_broken(report):
    """Which Coxeter relations the report's failures name (trace lines aside)."""
    texts = {"square": "^2 != 1", "braid": ")^3 != 1", "commute": "do not commute"}
    return {name for name, text in texts.items() if any(text in f for f in report.failures)}


@pytest.mark.usefixtures("cold_caches")
def test_broken_square_fails_like_the_reference(monkeypatch):
    # s1 -> s1 s2, a 3-cycle: not an involution once m >= 1
    patch_s1(monkeypatch, lambda real, k, m: mat_mul(generator(real, 1, k, m),
                                                      generator(real, 2, k, m)))
    report = broken_report()
    assert "m=1: s1^2 != 1" in report.failures
    assert "m=0: s1^2 != 1" not in report.failures


@pytest.mark.usefixtures("cold_caches")
def test_broken_braid_fails_like_the_reference(monkeypatch):
    # s1 -> 1: still an involution commuting with every s_j, but (1 s2)^3 = s2
    patch_s1(monkeypatch, lambda real, k, m: [[int(i == j) for j in range(len(g))]
                                              for i, g in enumerate(generator(real, 1, k, m))])
    report = broken_report()
    assert relations_broken(report) == {"braid"}
    assert "m=1: (s1 s2)^3 != 1" in report.failures


@pytest.mark.usefixtures("cold_caches")
def test_broken_commutation_fails_like_the_reference(monkeypatch):
    # s1 -> s3: (s3 s2)^3 = 1 still holds, but s3 and s4 do not commute
    patch_s1(monkeypatch, lambda real, k, m: generator(real, 3, k, m))
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
