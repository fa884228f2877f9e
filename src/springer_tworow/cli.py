"""Command-line surface; ``springer -h`` shows ``DESCRIPTION``, not this text.

Output is deterministic: identical invocations produce identical bytes.
Start-up is most of a small command's cost, so each ``cmd_*`` function
imports what it uses in its own body; only ``homology`` (with
``linalg``), ``matchings``, ``errors`` and ``records`` load at the top,
and ``main`` builds only the invoked command's subparser from the one
table ``COMMANDS``.  Record classes are ``__slots__`` classes on
``records.Record``: the standard library's generated ones import
``inspect``.  A new subcommand adds no size cap of its own: a cap lives in
the library beside the work it bounds, and ``main`` prints its refusal.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import homology
from .errors import CapExceeded, SpringerError
from .homology import HomClass, format_class, hom_class
from .matchings import (
    DottedMatching,
    StandardTableau,
    check_tabloid_route,
    complete_dotted,
    enumerate_matchings,
    format_matching,
    matching_of,
    parse_matching,
    restrict_dotted,
    standard_dotted_matchings,
    tableau_of,
)

USAGE_EXIT = 1
DOMAIN_EXIT = 2
VERIFY_EXIT = 3
BROKEN_PIPE_EXIT = 141  # 128 + SIGPIPE
DESCRIPTION = ("Two-row Springer varieties: noncrossing matchings, homology and the S_n action.  "
               "Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification failure.")


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
    lines = [str(m) for m in enumerate_matchings(args.n, args.k)]
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
    print(format_matching(complete_dotted(parse_matching(args.matching))))
    return 0


def cmd_restrict(args) -> int:
    print(format_matching(restrict_dotted(parse_matching(args.matching), args.pad)))
    return 0


def cmd_tableau(args) -> int:
    T = tableau_of(parse_matching(args.matching))
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
    print(format_matching(matching_of(StandardTableau(top, bottom), args.k)))
    return 0


def cmd_glue(args) -> int:
    from . import diagrams

    glued = diagrams.glue(parse_matching(args.a).base, parse_matching(args.b).base)
    data = {
        "components": [{"kind": c.kind, "vertices": sorted(c.vertices),
                        "ends": [[v, d] for v, d in c.ends]} for c in glued.components],
        "count": len(glued),
        "compatible": glued.compatible,
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

    print(diagrams.distance(parse_matching(args.a).base, parse_matching(args.b).base))
    return 0


def cmd_order(args) -> int:
    from . import diagrams

    for m in diagrams.linear_order(args.n, args.k, args.variant):
        print(m)
    return 0


def cmd_sequence(args) -> int:
    from . import diagrams

    seq = diagrams.minimal_sequence(parse_matching(args.a).base, parse_matching(args.b).base)
    print(seq.steps[0])
    for tag, step in zip(seq.tags, seq.steps[1:]):
        print(tag)
        print(step)
    print(f"length={len(seq)} certified={str(seq.certified).lower()}")
    return 0


def cmd_meet(args) -> int:
    from . import diagrams

    print(diagrams.meet(parse_matching(args.a).base, parse_matching(args.b).base))
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
    ranks = standard = homology.betti(args.n, args.k)
    if args.method in ("cokernel", "both"):
        ranks = homology.presentation_betti(args.n, args.k)
        if args.method == "both" and ranks != standard:
            print(f"mismatch: standard={standard} cokernel={ranks}", file=sys.stderr)
            return VERIFY_EXIT
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
    for rel in homology.relation_instances(args.n, args.k, args.m):
        print(format_class(rel))
    return 0


def cmd_act(args) -> int:
    from . import action
    from .permutations import parse_permutation

    x = parse_class(args.cls)
    check_tabloid_route(x.n, x.k, x.grading)  # a class past the caps is refused before sigma
    sigma = parse_permutation(args.sigma, x.n)
    print(format_class(action.act(sigma, x)))
    return 0


def cmd_matrix(args) -> int:
    from .permutations import parse_permutation

    sigma = parse_permutation(args.sigma, args.n)
    homology._check_grading(args.n, args.k, args.m)
    check_tabloid_route(args.n, args.k, args.m)  # before the cache, as rep_matrix does
    mat = cache = None
    if args.cache_dir or args.cached:
        # The one place the cache is consulted: a hit never loads the action layer.
        from .cache import RepMatrixCache

        cache = RepMatrixCache(args.cache_dir)
        mat = cache.load(sigma, args.n, args.k, args.m)
    if mat is None:
        from . import action

        mat = action.rep_matrix(sigma, args.n, args.k, args.m)
        if cache is not None:
            cache.store(sigma, args.n, args.k, args.m, mat)
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
    from .permutations import parse_permutation

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


def _arg(*flags, **kwargs):
    return flags, kwargs


_N, _K = _arg("-n", type=int, required=True), _arg("-k", type=int, required=True)
_JSON = _arg("--json", action="store_true")
_MATCHING, _A, _B = _arg("matching"), _arg("a"), _arg("b")
_SIGMA = _arg("--sigma", required=True)

#: The one command table: name -> (function, help, arguments).
COMMANDS = {
    "enumerate": (cmd_enumerate, "list all matchings of a type", (_N, _K, _JSON)),
    "validate": (cmd_validate, "check a matching string", (_MATCHING,)),
    "complete": (cmd_complete, "anchor rays to new left vertices", (_MATCHING,)),
    "restrict": (cmd_restrict, "remove a left prefix, cutting arcs to rays",
                 (_MATCHING, _arg("--pad", type=int, required=True))),
    "tableau": (cmd_tableau, "standard tableau of a standard matching", (_MATCHING, _JSON)),
    "matching": (cmd_matching, "standard matching of a tableau",
                 (_arg("--top", required=True), _arg("--bottom", required=True), _K)),
    "glue": (cmd_glue, "overlay two matchings", (_A, _B, _JSON)),
    "distance": (cmd_distance, "move distance between matchings", (_A, _B)),
    "order": (cmd_order, "a linear extension of the arrow order",
              (_N, _K, _arg("--variant", type=int, default=0))),
    "sequence": (cmd_sequence, "a minimal move sequence", (_A, _B)),
    "meet": (cmd_meet, "a common lower bound realizing the distance", (_A, _B)),
    "intersect": (cmd_intersect, "intersect component subspaces",
                  (_arg("matchings", nargs="+"), _arg("--primed", action="store_true"))),
    "betti": (cmd_betti, "homology ranks by degree",
              (_N, _K, _arg("--method", choices=("standard", "cokernel", "both"),
                            default="standard"), _JSON)),
    "reduce": (cmd_reduce, "express a class in the standard basis",
               (_arg("cls", metavar="class"),)),
    "relations": (cmd_relations, "list local relation instances",
                  (_N, _K, _arg("-m", type=int, default=None))),
    "act": (cmd_act, "apply a permutation to a class",
            (_SIGMA, _arg("--class", dest="cls", required=True))),
    "matrix": (cmd_matrix, "representation matrix on the standard basis",
               (_N, _K, _arg("-m", type=int, required=True), _SIGMA, _JSON,
                _arg("--cached", action="store_true",
                     help="use the matrix cache (SPRINGER_CACHE_DIR or ./cache)"),
                _arg("--cache-dir", default=None))),
    "character": (cmd_character, "trace and Coxeter verification", (_N, _K)),
    "chart": (cmd_chart, "derive the local action chart",
              (_N, _K, _arg("--full", action="store_true"))),
    "skein": (cmd_skein, "act by skein evaluation",
              (_SIGMA, _arg("--matching", required=True))),
    "calibrate": (cmd_calibrate, "search the resolution-convention family",
                  (_arg("--nmax", type=int, default=4),)),
    "verify": (cmd_verify, "run the module invariant suites",
               (_arg("--all", action="store_true",
                     help="no effect: every suite runs unless --only is given"),
                _arg("-nmax", "--nmax", dest="nmax", type=int, default=5),
                _arg("--seed", type=int, default=0),
                _arg("--only", nargs="*", default=None))),
    "render": (cmd_render, "draw a matching or class",
               (_arg("cls", metavar="matching_or_class"),
                _arg("--format", choices=("ascii", "svg"), default="ascii"),
                _arg("-o", "--out", default=None))),
}


def build_parser(command: str | None = None) -> _Parser:
    """The ``springer`` parser, or with COMMAND one holding only that subparser.

    The one-subparser parser answers every argument list that starts with
    COMMAND byte for byte as the full one does: its usage line still lists
    every command, and no error it can raise names the command argument.
    """
    parser = _Parser(prog="springer", description=DESCRIPTION)
    names = COMMANDS if command is None else (command,)
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        fn, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A known command needs only its own subparser; anything else gets the
    # full parser, whose usage and errors list every command.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        code = args.fn(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # a reader gone early shows here, not at interpreter exit
        return code
    except CapExceeded as exc:  # named by the flags that set its shape; m is in no refusal
        flags = {"n": "-n", "k": "-k", "depth": "--nmax"}
        shape = " ".join(f"{flags[key]} {exc.shape[key]}" for key in flags if key in exc.shape)
        print(f"error: {args.command} {shape} {exc.reason}", file=sys.stderr)
        return DOMAIN_EXIT
    except BrokenPipeError:
        # The reader closed stdout: stop quietly with the status a SIGPIPE
        # death gives, and point stdout at devnull so the exit flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    except (SpringerError, OSError) as exc:  # OSError: an unwritable output or cache path
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
