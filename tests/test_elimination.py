"""The sparse elimination kernel against dense rational Gauss-Jordan.

``reference_rref`` is plain Gaussian elimination over Fraction on dense
rows, kept here as the independent reference.  The kernel-backed
``rref``, ``rank``, ``row_space_equal``, ``reduce_against`` and
``Echelon.reduce`` must agree with it on every difference-of-inclusions
block and every relation block with n <= 8, and on seeded random
matrices whose entries are not all units, so that non-unit pivots and
fractional results occur.  The linear reduction to the standard basis,
on the ``linalg.normal_forms`` peel, must agree with the rewriting
route on every nonstandard generator with n <= 8 and with ``Echelon``
over the relation rows with n <= 9, must build no Fraction, and must
refuse a relation list that lost a necessary row (a pivot never peels)
or gained a standard generator (a leftover row does not vanish).

``reference_relations`` is the assembly the integer one replaced: every
relation built as a ``HomClass`` of dotted matchings, each dot-set size
filtered by m, over the arrows and moves of the generate-and-validate
reference ``verify._reference_successors``, so it shares nothing with
the nesting scan.  The integer relation rows (for every m) and the relation
normal forms must equal theirs in value and order.  The cokernel ranks
must be those of the public ``psi_minus_rows``, which the
``homology.psi-rows`` invariant holds to ``pushforward_inclusion``.
"""
import itertools
import random
from fractions import Fraction

import pytest

from springer_tworow import errors, homology, linalg, verify
from springer_tworow.homology import (
    HomClass,
    hom_class,
    psi_minus_rows,
    reduce_by_rewriting,
    reduce_class,
    relation_instances,
)
from springer_tworow.matchings import (
    DottedMatching,
    all_dotted_matchings,
    enumerate_matchings,
    standard_dotted_matchings,
)


def reference_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def reference_reduce(vector, echelon, pivots):
    v = [Fraction(x) for x in vector]
    for row, c in zip(echelon, pivots):
        if v[c] != 0:
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def dotted(base, arcs):
    return DottedMatching(base, tuple(sorted(arcs)))


def reference_relations(n, k, m=None):
    out = []
    for a in enumerate_matchings(n, k):
        for b, move in verify._reference_successors(a):
            shared = sorted(set(a.arcs) & set(b.arcs))
            for r in range(len(shared) + 1):
                for D in itertools.combinations(shared, r):
                    free = len(shared) - r
                    if len(move) == 4:
                        i, j, kk, l = move
                        rels = [(free + 1, {dotted(a, D + ((i, j),)): 1,
                                            dotted(a, D + ((kk, l),)): 1,
                                            dotted(b, D + ((i, l),)): -1,
                                            dotted(b, D + ((j, kk),)): -1}),
                                (free, {dotted(a, D + ((i, j), (kk, l))): 1,
                                        dotted(b, D + ((i, l), (j, kk))): -1})]
                    else:
                        ray, j, kk = move
                        rels = [(free, {dotted(a, D + ((j, kk),)): 1,
                                        dotted(b, D + ((ray, j),)): -1})]
                    out += [hom_class(n, k, rel) for grading, rel in rels if m in (None, grading)]
    return out


def shapes(n):
    return [(k, m) for k in range(n // 2 + 1) for m in range(k + 1)]


def blocks(n):
    """(difference-of-inclusions rows, relation rows) of every (k, m), on shared columns."""
    for k, m in shapes(n):
        columns, rows = psi_minus_rows(n, k, m)
        rows = [linalg._dense(row, len(columns)) for row in rows]
        index = {M: i for i, M in enumerate(columns)}
        rel_rows = []
        for rel in relation_instances(n, k, m):
            row = [0] * len(columns)
            for M, c in rel.terms:
                row[index[M]] = c
            rel_rows.append(row)
        yield (n, k, m), columns, rows, rel_rows


def check_against_reference(rows, probes):
    want = reference_rref(rows)
    assert linalg.rref(rows) == want
    assert linalg.rank(rows) == len(want[1])
    for v in probes:
        remainder = reference_reduce(v, *want)
        assert linalg.reduce_against(v, *want) == remainder
        in_span = not linalg.Echelon(map(linalg._sparse, rows)).reduce(linalg._sparse(v))
        assert in_span == (not any(remainder))
    return want


@pytest.mark.parametrize("n", range(1, 9))
def test_homology_blocks_match_reference(n):
    rng = random.Random(n)
    for shape, columns, rows, rel_rows in blocks(n):
        width = len(columns)
        units = [[int(i == j) for i in range(width)] for j in rng.sample(range(width), min(width, 6))]
        want = check_against_reference(rows, units)
        want_rel = check_against_reference(rel_rows, units + rel_rows[:3])
        assert linalg.row_space_equal(rows, rel_rows), shape
        assert width - len(want[1]) == homology.betti(n, shape[1])[shape[2]], shape
        if rel_rows:
            fewer = rel_rows[1:]
            same = reference_rref(fewer)[0] == want_rel[0]
            assert linalg.row_space_equal(fewer, rel_rows) == same, shape


@pytest.mark.parametrize("seed", range(6))
def test_random_matrices_match_reference(seed):
    rng = random.Random(seed)
    entries = [0, 0, 0, 0, 1, -1, 2, -2, 3, 6, Fraction(1, 2), Fraction(-3, 4)]
    fractional = 0
    for trial in range(60):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 9)
        pool = entries if trial % 3 == 0 else entries[:-2]  # mostly integer input
        rows = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
        probes = [[rng.choice(pool) for _ in range(ncols)] for _ in range(3)]
        if rows:
            # combinations of the rows: inside the span by construction
            probes.append([sum(rng.randint(-3, 3) * row[j] for row in rows)
                           for j in range(ncols)])
        want = check_against_reference(rows, probes)
        fractional += any(x.denominator != 1 for row in want[0] for x in row)
        mixed = [[sum(rng.randint(-2, 2) * row[j] for row in rows) for j in range(ncols)]
                 for _ in range(nrows)]
        same = reference_rref(mixed)[0] == want[0]
        assert linalg.row_space_equal(rows, mixed) == same
    assert fractional, "no trial needed a non-unit pivot"


def test_echelon_rows_match_reference():
    """Back-substituted and normalised, the ``Echelon`` rows are the Fraction reference's.

    Its remainders are the reference's too, on boundary and relation
    blocks and on seeded random rows with non-unit entries.
    """
    rng = random.Random(5)
    cases = [rows for _, _, psi, rel in blocks(6) for rows in (psi, rel)]
    for _ in range(40):
        ncols = rng.randint(1, 14)
        cases.append([[rng.choice([0, 0, 0, 1, -1, 1, 2, -3]) for _ in range(ncols)]
                      for _ in range(rng.randint(1, 12))])
    for dense in cases:
        if not dense:
            continue
        basis = linalg.Echelon(map(linalg._sparse, dense))
        want = reference_rref(dense)
        probe = [rng.choice([0, 1, -1, 2]) for _ in dense[0]]
        remainder = basis.reduce(linalg._sparse(probe))
        assert linalg._dense(remainder, len(probe)) == reference_reduce(probe, *want)
        basis.back_substitute()
        got = [[Fraction(x, row[p]) for x in linalg._dense(row, len(dense[0]))]
               for p, row in sorted(basis.rows.items())]
        assert (got, sorted(basis.rows)) == want


def test_integer_rows_stay_integer_and_unit_rows_take_the_pivot():
    rng = random.Random(7)
    rows = [{c: rng.choice([2, -3, 4, 1, -1]) for c in rng.sample(range(12), 4)}
            for _ in range(10)]
    basis = linalg.Echelon(rows)
    for p, row in basis.rows.items():
        assert min(row) == p and row[p] > 0
        assert all(type(x) is int for x in row.values())
    # the row led by 2 is offered first, but the unit row takes column 0
    basis = linalg.Echelon([{0: 2, 1: 1}, {0: 1, 2: 1}])
    assert basis.rows == {0: {0: 1, 2: 1}, 1: {1: 1, 2: -2}}


@pytest.mark.parametrize("n", range(1, 9))
def test_linear_reduction_matches_rewriting(n):
    for k in range(n // 2 + 1):
        for M in all_dotted_matchings(n, k):
            if not M.is_standard:
                x = HomClass.of(M)
                assert reduce_class(x, "linear") == reduce_class(x, "rewrite"), M


def nonstandard_forms(n, k, m, rels):
    """(column numbers, nonstandard columns by the paper's is_standard, normal forms of rels)."""
    columns = all_dotted_matchings(n, k, m)
    index = {M: i for i, M in enumerate(columns)}
    pivots = [index[M] for M in columns if not M.is_standard]
    return index, pivots, linalg.normal_forms(
        ({index[M]: c for M, c in rel.terms} for rel in rels), pivots)


@pytest.mark.parametrize("n", range(1, 9))
def test_index_keyed_assembly_matches_the_hom_class_reference(n):
    for k in range(n // 2 + 1):
        for m in [None, *range(k + 1)]:
            index = {M: i for i, M in enumerate(all_dotted_matchings(n, k, m))}
            want = reference_relations(n, k, m)
            assert (list(homology._relation_rows(n, k, m))
                    == [{index[M]: c for M, c in rel.terms} for rel in want]), (n, k, m)
            assert relation_instances(n, k, m) == want, (n, k, m)
            if m is None:
                continue
            expected = nonstandard_forms(n, k, m, reference_relations(n, k, m))[2]
            _, forms, _ = homology._reduction_data.__wrapped__(n, k, m)
            assert forms == expected, (n, k, m)


@pytest.mark.parametrize("n", range(1, 9))
def test_reduction_reads_standardness_off_the_dottable_masks(n, monkeypatch):
    # The reference: every column of all_dotted_matchings, nonstandard ones
    # by the paper's is_standard, and the rewriting route.
    want = {}
    for k, m in shapes(n):
        index, pivots, expected = nonstandard_forms(n, k, m, relation_instances(n, k, m))
        nonstandard = [HomClass.of(M) for M in index if not M.is_standard]
        standard = {i: M for M, i in index.items() if M.is_standard}
        want[k, m] = (index, pivots, expected, standard, nonstandard,
                      [reduce_by_rewriting(x) for x in nonstandard])

    def refuse(*args):
        raise AssertionError("the reduction built every dotted matching or tested one")

    monkeypatch.setattr(DottedMatching, "is_standard", property(refuse))
    monkeypatch.setattr(homology, "all_dotted_matchings", refuse)
    homology._reduction_data.cache_clear()
    for (k, m), (index, pivots, expected, standard, nonstandard, reduced) in want.items():
        column, forms, named = homology._reduction_data.__wrapped__(n, k, m)
        assert named == standard, (n, k, m)
        assert [column(M) for M in index] == list(index.values()), (n, k, m)
        assert forms == expected and sorted(forms) == pivots, (n, k, m)
        assert [homology._reduce_linear(x) for x in nonstandard] == reduced, (n, k, m)


@pytest.mark.parametrize("n", range(1, 10))
def test_linear_reduction_matches_the_echelon_route(n):
    # The route the normal forms replaced: Echelon over the relation rows
    # with the nonstandard columns numbered first, so they take the pivots
    # and the remainder of M lies on the standard columns.
    for k, m in shapes(n):
        ranked = sorted(all_dotted_matchings(n, k, m), key=lambda M: M.is_standard)
        place = {M: i for i, M in enumerate(ranked)}
        basis = linalg.Echelon({place[M]: c for M, c in rel.terms}
                               for rel in relation_instances(n, k, m))
        for M in ranked:
            if M.is_standard:
                break
            want = hom_class(n, k, {ranked[i]: v for i, v in basis.reduce({place[M]: 1}).items()})
            assert homology._reduce_linear(HomClass.of(M)) == want, M


def test_linear_reduction_builds_no_fraction(monkeypatch):
    import fractions

    built = []
    original = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    homology._reduction_data.cache_clear()
    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    for M in all_dotted_matchings(8, 4, 2)[::7]:
        reduce_class(HomClass.of(M), "linear")
    assert built == []
    monkeypatch.undo()
    assert fractions.Fraction(1, 2) * 2 == 1


def test_normal_forms_do_not_depend_on_the_row_order():
    rng = random.Random(3)
    for n, k, m in [(6, 3, 1), (7, 3, 2), (8, 4, 2)]:
        pivots = list(homology._reduction_data(n, k, m)[1])
        rows = list(homology._relation_rows(n, k, m))
        want = linalg.normal_forms(rows, pivots)
        for _ in range(3):
            rng.shuffle(rows)
            assert linalg.normal_forms(rows, reversed(pivots)) == want, (n, k, m)


def test_normal_forms_peel_unit_entries_only():
    # both pivots of the one row stay open, so neither peels
    with pytest.raises(errors.InternalCheckError, match="pivot 0 never peels"):
        linalg.normal_forms([{0: 1, 1: 1, 2: 1}], [1, 0])
    # the only open entry is 2: the row never peels
    with pytest.raises(errors.InternalCheckError, match="pivot 3 never peels"):
        linalg.normal_forms([{0: 1, 4: 1}, {3: 2, 4: 1}], [3, 0])
    # it is left over once a unit row peels its column, and maps to zero
    assert linalg.normal_forms([{0: 2, 1: 2}, {0: 1, 1: 1}], [0]) == {0: {1: -1}}
    assert linalg.normal_forms([{0: -1, 1: 1, 2: 3}], [0]) == {0: {1: 1, 2: 3}}


def test_normal_forms_refuse_a_leftover_row_that_does_not_vanish():
    with pytest.raises(errors.InternalCheckError, match=r"row \d is left over and maps to"):
        linalg.normal_forms([{0: 1, 2: 1}, {0: 1, 2: 2}], [0])
    with pytest.raises(errors.InternalCheckError, match="row 1 is left over and maps to {2: 1}"):
        linalg.normal_forms([{0: 1, 2: 1}, {2: 1}], [0])


@pytest.mark.parametrize("n", range(1, 10))
def test_cokernel_ranks_match_the_hom_class_reference(n):
    for k in range(n // 2 + 1):
        want = []
        for m in range(k + 1):
            columns, rows = psi_minus_rows(n, k, m)
            want.append(len(columns) - len(linalg.Echelon(rows).rows))
        assert homology.presentation_betti(n, k) == want, (n, k)


def test_presentation_assembly_builds_no_hom_class(monkeypatch):
    calls = []
    build = homology.hom_class
    monkeypatch.setattr(homology, "hom_class", lambda *args: calls.append(args) or build(*args))
    homology.presentation_betti(8, 4)
    homology._reduction_data.__wrapped__(8, 4, 2)
    assert calls == []


def shape_with_a_necessary_relation():
    """An (n, k, m), its relation rows and the index of a row whose removal lowers the rank."""
    n, k, m = 5, 2, 1
    rels = list(homology._relation_rows(n, k, m))
    width = len(all_dotted_matchings(n, k, m))

    def dense(rel_list):
        return [linalg._dense(row, width) for row in rel_list]

    full = len(reference_rref(dense(rels))[1])
    drop = next(i for i in range(len(rels))
                if len(reference_rref(dense(rels[:i] + rels[i + 1:]))[1]) < full)
    return (n, k, m), rels, drop


def test_reduction_data_refuses_a_relation_list_missing_a_row(monkeypatch):
    (n, k, m), rels, drop = shape_with_a_necessary_relation()
    monkeypatch.setattr(homology, "_relation_rows",
                        lambda *args, **kw: iter(rels[:drop] + rels[drop + 1:]))
    with pytest.raises(errors.InternalCheckError,
                       match=rf"\(n, k, m\) = \({n}, {k}, {m}\): normal forms: "
                             r"pivot \d+ never peels"):
        homology._reduction_data.__wrapped__(n, k, m)


def test_reduction_data_refuses_a_pivot_on_a_standard_generator(monkeypatch):
    (n, k, m), rels, _ = shape_with_a_necessary_relation()
    standard = standard_dotted_matchings(n, k, m)[0]
    column = all_dotted_matchings(n, k, m).index(standard)
    monkeypatch.setattr(homology, "_relation_rows",
                        lambda *args, **kw: iter(rels + [{column: 1}]))
    with pytest.raises(errors.InternalCheckError,
                       match=rf"\(n, k, m\) = \({n}, {k}, {m}\): normal forms: "
                             rf"row {len(rels)} is left over and maps to {{{column}: 1}}"):
        homology._reduction_data.__wrapped__(n, k, m)
