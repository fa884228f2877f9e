"""Acceptance suite: one test per criterion, exact checks, timed budgets.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) including the elapsed time, and fails if the criterion
or its time budget is violated.  All comparisons are exact integer or
exact-rational equalities; there are no tolerances to tune.
"""
import math
import random
import sys
import time
from contextlib import contextmanager

from springer_tworow import action, homology, skein, verify
from springer_tworow.diagrams import distance, linear_order, meet, reachable
from springer_tworow.homology import HomClass
from springer_tworow.matchings import (
    enumerate_matchings,
    parse_matching,
    standard_dotted_matchings,
)
from springer_tworow.permutations import Permutation, parse_permutation
from springer_tworow.subspaces import subspace_of
from springer_tworow.tabloids import irr_character


@contextmanager
def budget(number: int, label: str, seconds: float):
    from conftest import RESULT_LINES

    start = time.monotonic()
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {number} FAIL {label}"
        print(line, file=sys.stderr)
        RESULT_LINES.append(line)
        raise
    elapsed = time.monotonic() - start
    line = f"ACCEPTANCE {number} PASS ({elapsed:.2f}s / {seconds:.0f}s) {label}"
    print(line)
    RESULT_LINES.append(line)
    assert elapsed < seconds, f"criterion {number} exceeded its {seconds}s budget"


def types(n_max, n_min=1):
    for n in range(n_min, n_max + 1):
        for k in range(0, n // 2 + 1):
            yield n, k


def test_criterion_01_betti_both_ways():
    with budget(1, "Betti numbers match the two-row rank formula both ways", 60):
        verify.check_betti_both_ways(8, random.Random(0))
        for n, k in types(8):
            expected = [
                math.comb(n, m) - math.comb(n, m - 1) if m else 1 for m in range(k + 1)
            ]
            enumerated = [len(standard_dotted_matchings(n, k, m)) for m in range(k + 1)]
            assert enumerated == expected, (n, k)


def test_criterion_02_x31_reproduction():
    with budget(2, "the (3,1) space: three spheres wedged at printed points", 1):
        ms = enumerate_matchings(4, 1)
        assert len(ms) == 3
        spaces = [subspace_of(a) for a in ms]
        for s in spaces:
            assert s.dimension == 2
        s_a, s_b, s_c = spaces
        assert s_a.intersect(s_b).pin_vector() == (-1, -1, -1, 1)
        assert s_b.intersect(s_c).pin_vector() == (-1, 1, 1, 1)
        assert s_a.intersect(s_c).empty
        assert homology.betti(4, 1) == [1, 3]


def test_criterion_03_distance():
    with budget(3, "BFS distance equals the component-count formula, n <= 8", 120):
        # distance() raises InternalCheckError where the two differ on a compatible pair
        for n, k in types(8):
            ms = enumerate_matchings(n, k)
            for a in ms:
                for b in ms:
                    distance(a, b)


def test_criterion_04_meets():
    with budget(4, "meet elements with additive distances", 120):
        verify.check_meet(7, random.Random(0))
        for n in (2, 4, 6, 8):
            ms = enumerate_matchings(n, n // 2)
            for a in ms:
                for b in ms:
                    c = meet(a, b)
                    assert reachable(c, a) and reachable(c, b)
                    assert distance(a, c) + distance(c, b) == distance(a, b)


def test_criterion_05_representation():
    with budget(5, "Coxeter presentation and two-row characters, n <= 6", 60):
        verify.check_characters(6, random.Random(0))


def test_criterion_06_modules_equal():
    with budget(6, "tableau and matching spanning sets share a row space", 30):
        verify.check_modules_equal(7, random.Random(0))


def test_criterion_07_chart_anchors():
    with budget(7, "derived chart anchors: sign of the cap case, term counts", 10):
        verify.check_chart_anchors(5, random.Random(0))
        seen: set[int] = set()
        for n, k in types(5, n_min=2):
            seen |= action.derive_chart(n, k).cases_present()
        assert seen == set(range(1, 8))  # every local configuration exercised


def test_criterion_08_oracle_triangulation():
    with budget(8, "tabloid route = ambient route; class map kills relations", 60):
        verify.check_gamma_agreement(5, random.Random(0))
        verify.check_zeta_kills_relations(7, random.Random(0))


def test_criterion_09_skein():
    with budget(9, "skein calibration and agreement with the action", 120):
        verify.check_skein_calibration(5, random.Random(0))
        verify.check_skein_random_words(4, random.Random(20260809))
        M = parse_matching("3: u1-2 r3")
        sigma = parse_permutation("(1 2 3)", 3)
        got = skein.skein_act(sigma, M)
        assert got == action.act(sigma, HomClass.of(M))


def test_criterion_10_embedding_coherence():
    with budget(10, "completion compatibility of vectors and point maps", 30):
        verify.check_f_embed(5, random.Random(0))
        verify.check_pointmaps(5, random.Random(0))


def test_criterion_11_cell_decompositions():
    with budget(11, "forest-cell polynomials and subcomplex containment", 30):
        verify.check_cell_counts(7, random.Random(0))
        verify.check_subcomplexes(7, random.Random(0))


def test_criterion_12_order_independence():
    with budget(12, "rows relisted by three linear extensions and a shuffle", 60):
        verify.check_order_independence(7, random.Random(12))
        # the sweep genuinely varied the extension
        assert any(len({linear_order(n, k, v) for v in (0, 1, 2)}) == 3 for n, k in types(6))


def test_criterion_13_representation_reach():
    with budget(13, "character table at (10, 5); exact (12, 6, 6) matrix trace", 60):
        report = action.character_table_check(10, 5)
        assert report.ok, report.failures
        sigma = Permutation(tuple(random.Random(13).sample(range(1, 13), 12)))
        mat = action.rep_matrix(sigma, 12, 6, 6)
        assert len(mat) == 132
        trace = sum(mat[i][i] for i in range(len(mat)))
        assert trace == irr_character((6, 6), sigma.cycle_type())


def test_criterion_14_cokernel_betti_reach():
    with budget(14, "cokernel ranks equal basis counts at n = 10", 60):
        for k in range(10 // 2 + 1):
            assert homology.presentation_betti(10, k) == homology.betti(10, k), k


def test_criterion_15_skein_reach():
    with budget(15, "skein evaluation of the longest element at n = 8 and 10", 60):
        rng = random.Random(15)
        for n in (8, 10):
            w0 = Permutation(tuple(range(n, 0, -1)))
            for k in range(n // 2 + 1):
                basis = standard_dotted_matchings(n, k)
                for M in rng.sample(basis, min(20, len(basis))):
                    got = skein.skein_act(w0, M)
                    assert got == action.act(w0, HomClass.of(M)), (n, M)


def test_criterion_16_character_table_reach():
    with budget(16, "character table and Coxeter presentation at (12, 6)", 60):
        report = action.character_table_check(12, 6)
        assert report.coxeter_ok and report.ok, report.failures
        assert len(report.rows) == 7 * 77  # every class trace, m = 0..6


def test_criterion_17_character_table_at_14():
    with budget(17, "character table and Coxeter presentation at (14, 7)", 60):
        report = action.character_table_check(14, 7)
        assert report.coxeter_ok and report.ok, report.failures
        assert len(report.rows) == 8 * 135  # every class trace, m = 0..7
