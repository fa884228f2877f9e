"""Independent checks of every job's output, run outside the timed region.

In-process jobs are checked by a second route through the library: a
representation matrix by its trace against the irreducible character, the
pole-flip action against the matching column of the tabloid-route matrix,
cokernel Betti numbers against standard-basis counts, skein evaluation
against the tabloid action.  A CLI job's stdout must be byte-identical to
:func:`expected_stdout`, the library result formatted the way the CLI
formats it (computed by another route where the library has one).
"""
from __future__ import annotations

from springer_tworow import action, diagrams, homology
from springer_tworow.errors import InternalCheckError
from springer_tworow.homology import HomClass, format_class, hom_class
from springer_tworow.matchings import (
    DottedMatching,
    enumerate_matchings,
    format_matching,
    parse_matching,
    standard_dotted_matchings,
)
from springer_tworow.permutations import Permutation, parse_permutation
from springer_tworow.tabloids import irr_character


def as_class(terms) -> HomClass:
    coeffs = {}
    for text, c in terms:
        M = parse_matching(text)
        coeffs[M] = coeffs.get(M, 0) + c
    some = next(iter(coeffs))
    return hom_class(some.n, some.k, coeffs)


def check(job: dict, out, outputs: dict) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    kind = job["kind"]
    if kind == "rep_matrix":
        n, m = job["n"], job["m"]
        trace = sum(out[i][i] for i in range(len(out)))
        want = irr_character((n - m, m), Permutation(tuple(job["sigma"])).cycle_type())
        return None if trace == want else f"trace {trace} != character {want}"
    if kind == "gamma":
        M = parse_matching(job["matching"])
        matrix = outputs.get(job["pair"])
        if matrix is None:
            return "its paired rep_matrix job failed"
        basis = standard_dotted_matchings(M.n, M.k, M.m)
        j = basis.index(M)
        column = {N: matrix[i][j] for i, N in enumerate(basis) if matrix[i][j]}
        return None if out.coeffs == column else f"{out} is not column {j} of the matrix"
    if kind == "character":
        return None if out.ok else "; ".join(out.failures)
    if kind == "modules_equal":
        return None if out.equal else "spans differ"
    if kind == "presentation_betti":
        want = homology.betti(job["n"], job["k"])
        return None if out == want else f"cokernel ranks {out} != basis counts {want}"
    if kind == "reduce":
        bad = [M for M, _ in out.terms if not M.is_standard]
        return f"nonstandard terms left: {bad}" if bad else None
    if kind == "skein":
        M = parse_matching(job["matching"])
        want = action.act_word(job["word"], HomClass.of(M))
        return None if out == want else f"skein {out} != action {want}"
    raise ValueError(f"unknown job kind {kind!r}")


#: Job kinds whose check is that the call does not raise: ``reduce_class(x,
#: check=True)`` raises when its linear and rewriting routes disagree.
MUST_NOT_RAISE = {"reduce"}


def raised(job: dict, exc: Exception) -> dict:
    """The failure record of a job that raised instead of returning.

    A failed internal cross-check, or any exception from a job whose check
    is that it does not raise, is a wrong answer; anything else is a job
    that gave no answer.
    """
    text = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, InternalCheckError) or job["kind"] in MUST_NOT_RAISE:
        return {"wrong": text}
    return {"error": text}


def digest_text(job: dict, out) -> str:
    """Canonical text of an output, compared across passes."""
    kind = job["kind"]
    if kind == "rep_matrix":
        return "\n".join(" ".join(map(str, row)) for row in out)
    if kind == "character":
        return repr((out.rows, out.coxeter_ok, out.failures))
    if kind == "modules_equal":
        return repr((out.equal, out.tableau_in_matching, out.matching_in_tableau))
    return str(out)


# --- expected CLI output -----------------------------------------------------------

def _lines(*lines) -> str:
    return "".join(line + "\n" for line in lines)


def expected_stdout(job: dict) -> str:
    """The stdout the CLI must print for this job, computed in-process."""
    argv = job["argv"]
    cmd = argv[0]
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("-")}
    if cmd == "betti":
        # Standard-basis counts; `--method both` prints cokernel ranks.
        return _lines(" ".join(map(str, homology.betti(int(opt["-n"]), int(opt["-k"])))))
    if cmd == "enumerate":
        ms = enumerate_matchings(int(opt["-n"]), int(opt["-k"]))
        return _lines("\n".join(format_matching(DottedMatching(m, ())) for m in ms))
    if cmd == "validate":
        M = parse_matching(argv[1])
        return _lines(f"valid: {format_matching(M)} type ({M.n - M.k},{M.k}) grading {M.m}")
    if cmd == "distance":
        return _lines(str(diagrams.distance(parse_matching(argv[1]).base,
                                            parse_matching(argv[2]).base)))
    if cmd == "glue":
        a, b = parse_matching(argv[1]).base, parse_matching(argv[2]).base
        glued = diagrams.glue(a, b)
        lines = []
        for c in glued.components:
            ends = " ".join(f"{v}:{d}" for v, d in c.ends)
            lines.append(f"{c.kind} vertices={','.join(map(str, sorted(c.vertices)))}"
                         + (f" ends={ends}" if ends else ""))
        lines.append(f"count={len(glued)} compatible={str(diagrams.compatible(a, b)).lower()}")
        return _lines(*lines)
    if cmd == "act":
        # The pole-flip route, independent of the tabloid route the CLI uses.
        M = parse_matching(opt["--class"])
        return _lines(format_class(action.act_via_gamma(parse_permutation(opt["--sigma"], M.n),
                                                        M)))
    if cmd == "reduce":
        # Rewriting; the CLI runs both routes and asserts agreement.
        return _lines(format_class(homology.reduce_class(as_class(job["terms"]), "rewrite")))
    if cmd == "skein":
        # The tabloid action, independent of skein evaluation.
        M = parse_matching(opt["--matching"])
        sigma = parse_permutation(opt["--sigma"], M.n)
        return _lines(format_class(action.act(sigma, HomClass.of(M))))
    if cmd == "character":
        report = action.character_table_check(int(opt["-n"]), int(opt["-k"]))
        lines = [
            f"m={m} class={','.join(map(str, mu))} trace={trace} character={expected} "
            f"{'ok' if trace == expected else 'FAIL'}"
            for m, mu, trace, expected in report.rows
        ]
        return _lines(*lines, f"coxeter={'ok' if report.coxeter_ok else 'FAIL'}")
    if cmd == "chart":
        chart = action.derive_chart(int(opt["-n"]), int(opt["-k"]))
        lines, seen = [], set()
        for row in chart.rows:
            key = (row.case, format_class(row.output) if row.case != 2 else "-input")
            if key not in seen:
                lines.append(f"case {row.case} [{action.CASE_LABELS[row.case]}] "
                             f"i={row.position} {format_matching(row.matching)} -> "
                             f"{format_class(row.output)}")
            seen.add(key)
        tail = "ok" if chart.ok else "FAIL: " + "; ".join(chart.anchor_failures)
        return _lines(*lines, "anchors=" + tail)
    if cmd == "verify":
        from springer_tworow import verify
        _, results = verify.run_all(int(opt["-nmax"]), seed=0)
        return _lines(*(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {msg}" if msg and not ok
                                                               else "")
                        for name, ok, msg in results))
    if cmd == "matrix":
        n, k, m = int(opt["-n"]), int(opt["-k"]), int(opt["-m"])
        matrix = action.rep_matrix(parse_permutation(opt["--sigma"], n), n, k, m)
        return _lines(*(" ".join(map(str, row)) for row in matrix))
    raise ValueError(f"no expected output for {argv!r}")
