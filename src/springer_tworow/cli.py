"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 domain error (invalid matching,
bad permutation, ...), 3 verification failure.  Output is deterministic:
identical invocations produce identical bytes.

Start-up is most of a small command's cost, so each subcommand imports
only what it uses: a new ``cmd_*`` function imports its modules inside
its own body.  Only what argument parsing and ``parse_class`` /
``format_class`` need stays at the top: ``homology``, ``matchings``,
``permutations`` and ``errors``.  No module of the package uses the
standard library's generated record classes, whose import alone brings
``inspect`` along: a record class is a ``__slots__`` class on the shared
base ``records.Record``, with its own ``__init__``.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from . import homology
from .errors import SpringerError
from .homology import HomClass, format_class, hom_class
from .matchings import (
    DottedMatching,
    StandardTableau,
    complete_dotted,
    enumerate_matchings,
    format_matching,
    matching_of,
    parse_matching,
    restrict_dotted,
    standard_dotted_matchings,
    tableau_of,
)
from .permutations import parse_permutation

USAGE_EXIT = 1
DOMAIN_EXIT = 2
VERIFY_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)\s*[·*]\s*)?\(([^()]*)\)")


def parse_class(text: str) -> HomClass:
    """Parse ``"(codec)"`` sums like ``1·(4: u1-2 u3-4) - 2·(4: u1-4 u2-3)"``.

    A bare codec string (no parentheses) is accepted as a single term.
    """
    text = text.strip()
    if "(" not in text:
        M = parse_matching(text)
        return HomClass.of(M)
    coeffs: dict[DottedMatching, int] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise SpringerError(f"unparseable class text at {text[pos:]!r}")
        sign_s, coeff_s, codec = m.groups()
        if sign_s is None and not first:
            raise SpringerError(f"missing sign before {codec!r}")
        sign = -1 if sign_s == "-" else 1
        coeff = int(coeff_s) if coeff_s else 1
        M = parse_matching(codec)
        coeffs[M] = coeffs.get(M, 0) + sign * coeff
        pos = m.end()
        first = False
    if not coeffs:
        raise SpringerError(f"empty class text {text!r}")
    types = {(M.n, M.k) for M in coeffs}
    if len(types) > 1:
        raise SpringerError(f"terms mix matching types {sorted(types)}")
    some = next(iter(coeffs))
    return hom_class(some.n, some.k, coeffs)


def _print_json(data) -> None:
    print(json.dumps(data, separators=(",", ":")))


def cmd_enumerate(args) -> int:
    ms = enumerate_matchings(args.n, args.k)
    lines = [format_matching(DottedMatching(m, ())) for m in ms]
    if args.json:
        _print_json({"matchings": lines})
    else:
        print("\n".join(lines))
    return 0


def cmd_validate(args) -> int:
    M = parse_matching(args.matching)
    print(f"valid: {format_matching(M)} type ({M.n - M.k},{M.k}) grading {M.m}")
    return 0


def cmd_complete(args) -> int:
    M = parse_matching(args.matching)
    print(format_matching(complete_dotted(M)))
    return 0


def cmd_restrict(args) -> int:
    M = parse_matching(args.matching)
    print(format_matching(restrict_dotted(M, args.pad)))
    return 0


def cmd_tableau(args) -> int:
    M = parse_matching(args.matching)
    T = tableau_of(M)
    if args.json:
        _print_json({"top": list(T.top), "bottom": list(T.bottom)})
    else:
        print("top:    " + " ".join(map(str, T.top)))
        print("bottom: " + " ".join(map(str, T.bottom)))
    return 0


def cmd_matching(args) -> int:
    try:
        top = tuple(int(x) for x in args.top.replace(",", " ").split())
        bottom = tuple(int(x) for x in args.bottom.replace(",", " ").split())
    except ValueError as exc:
        raise SpringerError(f"tableau rows take integers: {exc}") from None
    M = matching_of(StandardTableau(top, bottom), args.k)
    print(format_matching(M))
    return 0


def cmd_glue(args) -> int:
    from . import diagrams

    a = parse_matching(args.a).base
    b = parse_matching(args.b).base
    glued = diagrams.glue(a, b)
    data = {
        "components": [
            {
                "kind": c.kind,
                "vertices": sorted(c.vertices),
                "ends": [[v, d] for v, d in c.ends],
            }
            for c in glued.components
        ],
        "count": len(glued),
        "compatible": diagrams.compatible(a, b),
    }
    if args.json:
        _print_json(data)
    else:
        for c in data["components"]:
            ends = " ".join(f"{v}:{d}" for v, d in c["ends"])
            print(f"{c['kind']} vertices={','.join(map(str, c['vertices']))}"
                  + (f" ends={ends}" if ends else ""))
        print(f"count={data['count']} compatible={str(data['compatible']).lower()}")
    return 0


def cmd_distance(args) -> int:
    from . import diagrams

    a = parse_matching(args.a).base
    b = parse_matching(args.b).base
    print(diagrams.distance(a, b))
    return 0


def cmd_order(args) -> int:
    from . import diagrams

    for m in diagrams.linear_order(args.n, args.k, args.variant):
        print(format_matching(DottedMatching(m, ())))
    return 0


def cmd_sequence(args) -> int:
    from . import diagrams

    a = parse_matching(args.a).base
    b = parse_matching(args.b).base
    seq = diagrams.minimal_sequence(a, b)
    print(format_matching(DottedMatching(seq.steps[0], ())))
    for tag, step in zip(seq.tags, seq.steps[1:]):
        print(tag)
        print(format_matching(DottedMatching(step, ())))
    print(f"length={len(seq)} certified={str(seq.certified).lower()}")
    return 0


def cmd_meet(args) -> int:
    from . import diagrams

    a = parse_matching(args.a).base
    b = parse_matching(args.b).base
    print(format_matching(DottedMatching(diagrams.meet(a, b), ())))
    return 0


def cmd_intersect(args) -> int:
    from . import subspaces

    variant = "primed" if args.primed else "plain"
    space = None
    for text in args.matchings:
        s = subspaces.subspace_of(parse_matching(text).base, variant)
        space = s if space is None else space.intersect(s)
    if space.empty:
        print("empty")
        return 0
    pins = space.pin_vector()
    desc = []
    for i in range(1, space.n + 1):
        r, s = space.rep(i)
        if pins[i - 1] is not None:
            desc.append(f"x{i}={'+' if pins[i - 1] > 0 else '-'}p")
        elif r != i:
            desc.append(f"x{i}={'' if s > 0 else '-'}x{r}")
        else:
            desc.append(f"x{i} free")
    print("; ".join(desc))
    print(f"dimension={space.dimension}")
    return 0


def cmd_betti(args) -> int:
    standard = homology.betti(args.n, args.k)
    if args.method in ("cokernel", "both"):
        cok = homology.presentation_betti(args.n, args.k)
        if args.method == "both" and cok != standard:
            print(f"mismatch: standard={standard} cokernel={cok}", file=sys.stderr)
            return VERIFY_EXIT
        ranks = cok
    else:
        ranks = standard
    if args.json:
        _print_json({"ranks": ranks})
    else:
        print(" ".join(map(str, ranks)))
    return 0


def cmd_reduce(args) -> int:
    x = parse_class(args.cls)
    print(format_class(homology.reduce_class(x, check=True)))
    return 0


def cmd_relations(args) -> int:
    rels = homology.relation_instances(args.n, args.k, args.m)
    for rel in rels:
        print(format_class(rel))
    return 0


def cmd_act(args) -> int:
    from . import action

    x = parse_class(args.cls)
    sigma = parse_permutation(args.sigma, x.n)
    print(format_class(action.act(sigma, x)))
    return 0


def cmd_matrix(args) -> int:
    from . import action
    from .cache import RepMatrixCache

    sigma = parse_permutation(args.sigma, args.n)
    cache = RepMatrixCache(args.cache_dir) if args.cache_dir or args.cached else None
    mat = action.rep_matrix(sigma, args.n, args.k, args.m, cache)
    if args.json:
        basis = [format_matching(M) for M in standard_dotted_matchings(args.n, args.k, args.m)]
        _print_json({
            "n": str(args.n), "k": str(args.k), "m": str(args.m),
            "basis": basis,
            "matrix": [[str(v) for v in row] for row in mat],
        })
    else:
        for row in mat:
            print(" ".join(map(str, row)))
    return 0


def cmd_character(args) -> int:
    from . import action

    report = action.character_table_check(args.n, args.k)
    for m, mu, trace, expected in report.rows:
        status = "ok" if trace == expected else "FAIL"
        print(f"m={m} class={','.join(map(str, mu))} trace={trace} character={expected} {status}")
    print(f"coxeter={'ok' if report.coxeter_ok else 'FAIL'}")
    return 0 if report.ok else VERIFY_EXIT


def cmd_chart(args) -> int:
    from . import action

    chart = action.derive_chart(args.n, args.k)
    seen: set[tuple[int, str]] = set()
    for row in chart.rows:
        key = (row.case, format_class(row.output) if row.case != 2 else "-input")
        line = (
            f"case {row.case} [{action.CASE_LABELS[row.case]}] "
            f"i={row.position} {format_matching(row.matching)} -> {format_class(row.output)}"
        )
        if args.full or key not in seen:
            print(line)
        seen.add(key)
    print("anchors=" + ("ok" if chart.ok else "FAIL: " + "; ".join(chart.anchor_failures)))
    return 0 if chart.ok else VERIFY_EXIT


def cmd_skein(args) -> int:
    from . import skein

    x = parse_matching(args.matching)
    sigma = parse_permutation(args.sigma, x.n)
    print(format_class(skein.skein_act(sigma, x)))
    return 0


def cmd_calibrate(args) -> int:
    from . import skein

    convention = skein.calibrate(args.nmax)
    print(
        f"identity={convention.identity_coeff} "
        f"closure={convention.closure_coeff}:{convention.closure_dots} "
        f"merge={convention.merge_coeff}:{convention.merge_dots}"
    )
    return 0


def cmd_verify(args) -> int:
    from . import verify

    ok, results = verify.run_all(args.nmax, seed=args.seed, names=args.only or None)
    for name, passed, message in results:
        line = f"{'PASS' if passed else 'FAIL'} {name}"
        if message and not passed:
            line += f": {message}"
        print(line)
    return 0 if ok else VERIFY_EXIT


def cmd_render(args) -> int:
    from . import render

    x = parse_class(args.cls)
    single = len(x.terms) == 1 and x.terms[0][1] == 1
    if args.format == "svg":
        text = render.render_svg(x.terms[0][0]) if single else render.render_class_svg(x)
    else:
        text = render.render_ascii(x.terms[0][0]) if single else render.render_class_ascii(x)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="springer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("enumerate", cmd_enumerate, help="list all matchings of a type")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("validate", cmd_validate, help="check a matching string")
    p.add_argument("matching")

    p = add("complete", cmd_complete, help="anchor rays to new left vertices")
    p.add_argument("matching")

    p = add("restrict", cmd_restrict, help="remove a left prefix, cutting arcs to rays")
    p.add_argument("matching")
    p.add_argument("--pad", type=int, required=True)

    p = add("tableau", cmd_tableau, help="standard tableau of a standard matching")
    p.add_argument("matching")
    p.add_argument("--json", action="store_true")

    p = add("matching", cmd_matching, help="standard matching of a tableau")
    p.add_argument("--top", required=True)
    p.add_argument("--bottom", required=True)
    p.add_argument("-k", type=int, required=True)

    p = add("glue", cmd_glue, help="overlay two matchings")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")

    p = add("distance", cmd_distance, help="move distance between matchings")
    p.add_argument("a")
    p.add_argument("b")

    p = add("order", cmd_order, help="a linear extension of the arrow order")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--variant", type=int, default=0)

    p = add("sequence", cmd_sequence, help="a minimal move sequence")
    p.add_argument("a")
    p.add_argument("b")

    p = add("meet", cmd_meet, help="a common lower bound realizing the distance")
    p.add_argument("a")
    p.add_argument("b")

    p = add("intersect", cmd_intersect, help="intersect component subspaces")
    p.add_argument("matchings", nargs="+")
    p.add_argument("--primed", action="store_true")

    p = add("betti", cmd_betti, help="homology ranks by degree")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--method", choices=("standard", "cokernel", "both"), default="standard")
    p.add_argument("--json", action="store_true")

    p = add("reduce", cmd_reduce, help="express a class in the standard basis")
    p.add_argument("cls", metavar="class")

    p = add("relations", cmd_relations, help="list local relation instances")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-m", type=int, default=None)

    p = add("act", cmd_act, help="apply a permutation to a class")
    p.add_argument("--sigma", required=True)
    p.add_argument("--class", dest="cls", required=True)

    p = add("matrix", cmd_matrix, help="representation matrix on the standard basis")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--cached", action="store_true",
                   help="use the matrix cache (SPRINGER_CACHE_DIR or ./cache)")
    p.add_argument("--cache-dir", default=None)

    p = add("character", cmd_character, help="trace and Coxeter verification")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)

    p = add("chart", cmd_chart, help="derive the local action chart")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--full", action="store_true")

    p = add("skein", cmd_skein, help="act by skein evaluation")
    p.add_argument("--sigma", required=True)
    p.add_argument("--matching", required=True)

    p = add("calibrate", cmd_calibrate, help="search the resolution-convention family")
    p.add_argument("--nmax", type=int, default=4)

    p = add("verify", cmd_verify, help="run the module invariant suites")
    p.add_argument("--all", action="store_true",
                   help="no effect: every suite runs unless --only is given")
    p.add_argument("-nmax", "--nmax", dest="nmax", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", nargs="*", default=None)

    p = add("render", cmd_render, help="draw a matching or class")
    p.add_argument("cls", metavar="matching_or_class")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("-o", "--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpringerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
