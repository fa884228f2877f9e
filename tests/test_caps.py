"""The library owns its size caps, and the CLI refuses exactly where the library does.

Each cap sits beside the work it bounds and raises ``CapExceeded`` before
any of that work starts.  The work itself is replaced here by a stand-in
that raises, so a refusal that came late, or an admission that came
early, fails the test without doing the work.
"""
import pytest

from springer_tworow import action, cache, cells, diagrams, homology, matchings, skein, tabloids
from springer_tworow.cli import main
from springer_tworow.errors import CapExceeded
from springer_tworow.homology import HomClass
from springer_tworow.matchings import parse_matching
from springer_tworow.permutations import adjacent


class Admitted(Exception):
    """Raised by a stand-in for the work a cap bounds: the shape got past its cap."""


def _admitted(*args, **kwargs):
    raise Admitted


def _plant(monkeypatch, work):
    for module, name in work:
        monkeypatch.setattr(module, name, _admitted)


def _every_type_admitted(call, n_max):
    """Raise Admitted once CALL(n, k) has reached its work for every type with n <= n_max."""
    for n in range(n_max + 1):
        for k in range(n // 2 + 1):
            with pytest.raises(Admitted):
                call(n, k)
    raise Admitted


M20_9 = parse_matching("20: r1 r2 " + " ".join(f"u{i}-{i + 1}" for i in range(3, 21, 2))).base
M20_10 = parse_matching("20: " + " ".join(f"u{i}-{i + 1}" for i in range(1, 21, 2))).base
M22 = parse_matching("22: " + " ".join(f"u{i}-{i + 1}" for i in range(1, 23, 2))).base
UNDOTTED_17 = HomClass.of(parse_matching(
    "17: " + " ".join(f"u{i}-{i + 1}" for i in range(1, 17, 2)) + " r17"))
NESTED_30 = HomClass.of(parse_matching(
    "30: u1-4 d2-3 " + " ".join(f"u{i}-{i + 1}" for i in range(5, 31, 2))))

ENUMERATION = [(matchings, "Matching")]
DOTTED = [(matchings, name) for name in ("enumerate_matchings", "_dotted_matchings")]
ARROW_GRAPH = [(diagrams, name) for name in ("enumerate_matchings", "_arrow_table", "glue",
                                             "_bfs_path", "_narrowest_leftmost_sequence")]
COLUMNS = [(homology, name) for name in ("enumerate_matchings", "all_dotted_matchings",
                                         "_relation_rows", "reduce_by_rewriting",
                                         "_rewrite_states")]
TABLOID_ROUTE = [(action, name) for name in ("_RowMap", "_positions", "_solved_columns",
                                             "standard_dotted_matchings")]
TABLOID_ROUTE += [(tabloids, "_positions"), (tabloids, "_comparison")]
CALIBRATION = [(skein, "_anchor_ok"), (skein, "_generator_pairs")]

# One row per cap: the first shape past it and the last shape under it, through
# one library entry point and through the CLI; the work the cap bounds; the
# command and flags the CLI names the refused shape by; and the count and cap.
CAPS = {
    "enumeration": (lambda: matchings.enumerate_matchings(28, 14),
                    lambda: matchings.enumerate_matchings(26, 13),
                    ["enumerate", "-n", "28", "-k", "14"], ["enumerate", "-n", "26", "-k", "13"],
                    ENUMERATION, "enumerate -n 28 -k 14", 2674440, 10**6),
    "arrow graph": (lambda: diagrams.arrow_successors(M20_9),
                    lambda: diagrams.arrow_successors(M20_10),
                    ["order", "-n", "20", "-k", "9"], ["order", "-n", "20", "-k", "10"],
                    ARROW_GRAPH, "order -n 20 -k 9", 41990, 2 * 10**4),
    # Of the types with n <= 14, (14, 6) has the most columns: 1001 * 2**6 = 64,064.
    "columns": (lambda: homology.presentation_betti(15, 7),
                lambda: _every_type_admitted(homology.presentation_betti, 14),
                ["betti", "-n", "15", "-k", "7", "--method", "both"],
                ["betti", "-n", "14", "-k", "6", "--method", "cokernel"],
                COLUMNS, "betti -n 15 -k 7", 183040, 10**5),
    "tabloid rows": (lambda: action.character_table_check(17, 8),
                     lambda: _every_type_admitted(action.character_table_check, 16),
                     ["character", "-n", "17", "-k", "8"], ["character", "-n", "16", "-k", "8"],
                     TABLOID_ROUTE, "character -n 17 -k 8", 24310, 2 * 10**4),
    "calibration depth": (lambda: skein.calibrate(12), lambda: skein.calibrate(11),
                          ["calibrate", "--nmax", "12"], ["calibrate", "--nmax", "11"],
                          CALIBRATION, "calibrate --nmax 12", 12, 11),
}


@pytest.mark.parametrize("past, under, argv_past, argv_under, work, flags, count, cap",
                         CAPS.values(), ids=CAPS.keys())
def test_library_and_cli_refuse_the_same_first_shape_and_admit_the_last(
        monkeypatch, capsys, past, under, argv_past, argv_under, work, flags, count, cap):
    _plant(monkeypatch, work)
    with pytest.raises(CapExceeded) as info:
        past()
    assert (info.value.count, info.value.cap) == (count, cap)
    capsys.readouterr()
    assert main(argv_past) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {flags} {info.value.reason}\n")
    assert str(count) in err and err.endswith(f" {cap}\n")
    with pytest.raises(Admitted):
        under()
    with pytest.raises(Admitted):
        main(argv_under)


# The work each cap bounds, the count at the shapes refused below, and the cap.
ARROW = (ARROW_GRAPH, 41990, 2 * 10**4)
TABLOID = (TABLOID_ROUTE, 24310, 2 * 10**4)
S1 = adjacent(17, 1)

ENTRY_POINTS = {
    "enumerate_matchings": (lambda: matchings.enumerate_matchings(28, 14), ENUMERATION,
                            2674440, 10**6),
    "all_dotted_matchings": (lambda: matchings.all_dotted_matchings(24, 12), DOTTED,
                             208012 * 4096, 10**5),
    "all_dotted_matchings, one grading": (lambda: matchings.all_dotted_matchings(16, 8, 4),
                                          DOTTED, 1430 * 70, 10**5),
    "arrow_graph": (lambda: diagrams.arrow_graph(20, 9), *ARROW),
    "arrow_successors": (lambda: diagrams.arrow_successors(M20_9), *ARROW),
    "arrow_move": (lambda: diagrams.arrow_move(M20_9, M20_9), *ARROW),
    "is_arrow": (lambda: diagrams.is_arrow(M20_9, M20_9), *ARROW),
    "linear_order": (lambda: diagrams.linear_order(20, 9), *ARROW),
    "linear_order, negative variant": (lambda: diagrams.linear_order(20, 9, -1), *ARROW),
    "reachable": (lambda: diagrams.reachable(M20_9, M20_9), *ARROW),
    "distance": (lambda: diagrams.distance(M20_9, M20_9), *ARROW),
    "distance, types differ": (lambda: diagrams.distance(M20_9, M20_10), *ARROW),
    "minimal_sequence, a == b": (lambda: diagrams.minimal_sequence(M20_9, M20_9), *ARROW),
    "meet": (lambda: diagrams.meet(M20_9, M20_9), *ARROW),
    "pushforward_inclusion": (lambda: homology.pushforward_inclusion(M20_9, M20_9, set()), *ARROW),
    "subcomplex_cells": (lambda: cells.subcomplex_cells(M20_9, M20_9), *ARROW),
    "relation_instances": (lambda: homology.relation_instances(15, 7), COLUMNS, 183040, 10**5),
    "relation_instances, one grading": (lambda: homology.relation_instances(20, 10, 5), COLUMNS,
                                        16796 * 252, 10**5),
    "presentation_betti": (lambda: homology.presentation_betti(15, 7), COLUMNS, 183040, 10**5),
    "psi_minus_rows": (lambda: homology.psi_minus_rows(20, 10, 5), COLUMNS, 16796 * 252, 10**5),
    "reduce_class": (lambda: homology.reduce_class(NESTED_30, check=True), COLUMNS,
                     9694845 * 15, 10**5),
    "act": (lambda: action.act(S1, UNDOTTED_17), *TABLOID),
    "act_via_gamma": (lambda: action.act_via_gamma(S1, UNDOTTED_17), *TABLOID),
    "rep_matrix": (lambda: action.rep_matrix(S1, 17, 8, 8), *TABLOID),
    "character_table_check": (lambda: action.character_table_check(17, 8), *TABLOID),
    "derive_chart": (lambda: action.derive_chart(17, 8), *TABLOID),
    "modules_equal": (lambda: tabloids.modules_equal(17, 8, 8), *TABLOID),
    "calibrate": (lambda: skein.calibrate(12), CALIBRATION, 12, 11),
}


@pytest.mark.parametrize("call, work, count, cap", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_each_library_entry_point_refuses_past_its_cap_before_any_work(
        monkeypatch, call, work, count, cap):
    _plant(monkeypatch, work)
    with pytest.raises(CapExceeded) as info:
        call()
    assert (info.value.count, info.value.cap) == (count, cap)
    assert str(count) in str(info.value) and str(cap) in str(info.value)


def test_derive_chart_checks_its_cap_once(monkeypatch):
    checks = []
    check = action.check_tabloid_route
    monkeypatch.setattr(action, "check_tabloid_route",
                        lambda *shape: checks.append(shape) or check(*shape))
    assert action.derive_chart(8, 4).ok
    assert checks == [(8, 4)]


def test_matrix_refuses_past_the_tabloid_cap_before_reading_the_cache(
        monkeypatch, capsys, tmp_path):
    _plant(monkeypatch, TABLOID_ROUTE + [(cache.RepMatrixCache, "load")])
    argv = ["matrix", "-n", "20", "-k", "10", "-m", "10", "--sigma", "s1", "--cached",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: matrix -n 20 -k 10 would factor 184756 "
                                       "tabloid rows, more than the cap of 20000\n")


def test_a_refusal_names_the_shape_the_count_and_the_cap():
    with pytest.raises(CapExceeded) as info:
        diagrams.arrow_successors(M22)
    assert str(info.value) == ("n=22, k=11 would build an arrow graph on 58786 matchings, "
                               "more than the cap of 20000")
    with pytest.raises(CapExceeded) as info:
        action.rep_matrix(adjacent(20, 1), 20, 10, 10)
    assert info.value.shape == {"n": 20, "k": 10, "m": 10}
    assert str(info.value) == ("n=20, k=10, m=10 would factor 184756 tabloid rows, "
                               "more than the cap of 20000")
