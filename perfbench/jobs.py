"""Seeded job lists for the four workloads.

Everything here is plain Python and never imports ``springer_tworow``:
the program receives only the generated inputs, written in its own text
forms (matching codec strings, permutation images, letter words).  The
same seed always gives the same list.

Each job is a JSON-able dict with an ``id`` (its position in the list), a
``kind`` and the arguments of that kind.  The shapes in each list are fixed;
the seed picks only the permutations, words, matchings and combinations
inside each shape, so the cost of a pass barely moves with the seed.
"""
from __future__ import annotations

import itertools
import random

WORKLOADS = ("action", "homology", "skein", "cli")


# --- an independent enumerator of matchings, in the program's codec ---------

def matchings(n: int, k: int) -> list[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
    """All noncrossing matchings with k arcs on 1..n, no ray under an arc."""
    out = []
    for support in itertools.combinations(range(1, n + 1), 2 * k):
        rays = tuple(v for v in range(1, n + 1) if v not in support)
        for arcs in _pairings(list(support)):
            if _noncrossing(arcs, rays):
                out.append((tuple(sorted(arcs)), rays))
    return sorted(out)


def _pairings(vs: list[int]):
    if not vs:
        yield []
        return
    first, rest = vs[0], vs[1:]
    for idx, other in enumerate(rest):
        for tail in _pairings(rest[:idx] + rest[idx + 1:]):
            yield [(first, other)] + tail


def _noncrossing(arcs, rays) -> bool:
    for (a, b), (c, d) in itertools.combinations(arcs, 2):
        if a < c < b < d or c < a < d < b:
            return False
    return not any(i < r < j for i, j in arcs for r in rays)


def _is_standard(arcs, rays, dotted) -> bool:
    for x, y in dotted:
        if any(i < x and y < j for i, j in arcs) or any(r > y for r in rays):
            return False
    return True


def dotted_matchings(n: int, k: int, m: int, standard: bool) -> list[str]:
    """Codec strings of the dotted matchings with m undotted arcs.

    ``standard`` selects the standard ones (True) or the nonstandard ones.
    """
    out = []
    for arcs, rays in matchings(n, k):
        for dotted in itertools.combinations(arcs, k - m):
            if _is_standard(arcs, rays, dotted) == standard:
                out.append(codec(n, arcs, rays, dotted))
    return out


def codec(n: int, arcs, rays, dotted=()) -> str:
    items = [(i, f"{'d' if (i, j) in dotted else 'u'}{i}-{j}") for i, j in arcs]
    items += [(r, f"r{r}") for r in rays]
    return f"{n}: " + " ".join(s for _, s in sorted(items)) if items else f"{n}:"


# --- permutations and words ----------------------------------------------------

def random_permutation(n: int, rng: random.Random) -> list[int]:
    images = list(range(1, n + 1))
    while images == sorted(images):
        rng.shuffle(images)
    return images


def reduced_word(images: list[int], rng: random.Random) -> list[int]:
    """A random reduced word w with s_{w1} ... s_{wl} = the permutation.

    Sorts the one-line form by swapping a random descent each step; the
    swaps, read in reverse, are the letters (rightmost letter acts first).
    """
    line = list(images)
    swaps = []
    while True:
        descents = [i for i in range(len(line) - 1) if line[i] > line[i + 1]]
        if not descents:
            return list(reversed(swaps))
        i = rng.choice(descents)
        line[i], line[i + 1] = line[i + 1], line[i]
        swaps.append(i + 1)


def cycle_text(images: list[int]) -> str:
    """Cycle notation accepted by the CLI, e.g. ``(1 3 2)(4 5)``."""
    seen, parts = set(), []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cyc, v = [start], images[start - 1]
        seen.add(start)
        while v != start:
            cyc.append(v)
            seen.add(v)
            v = images[v - 1]
        if len(cyc) > 1:
            parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def _shapes(n: int):
    return [(k, m) for k in range(n // 2 + 1) for m in range(k + 1)]


def _combination(rng, n, k, m, size) -> list[list]:
    pool = dotted_matchings(n, k, m, standard=False)
    picks = rng.sample(pool, min(size, len(pool)))
    return [[M, rng.choice((-3, -2, -1, 1, 2, 3))] for M in picks]


# --- workloads -------------------------------------------------------------------

def action_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"action-{seed}")
    jobs = []
    random_sigma = {}
    for n in (7, 8, 9):
        for k, m in _shapes(n):
            if n == 9 and m > 2:
                continue  # (9,3,3), (9,4,3), (9,4,4) cost 1.8-4.1 s each
            sigmas = [random_permutation(n, rng)]
            if n < 9:
                i = rng.randint(1, n - 1)
                sigmas.insert(0, [i + 1 if v == i else i if v == i + 1 else v
                                  for v in range(1, n + 1)])
            for sigma in sigmas:
                jobs.append({"kind": "rep_matrix", "sigma": sigma, "n": n, "k": k, "m": m})
            random_sigma[(n, k, m)] = len(jobs) - 1
    for n in (7, 8):
        for k, m in _shapes(n):
            if m == 0:
                continue
            pair = random_sigma[(n, k, m)]
            M = rng.choice(dotted_matchings(n, k, m, standard=True))
            jobs.append({"kind": "gamma", "sigma": jobs[pair]["sigma"], "matching": M,
                         "pair": pair})
    for n, k in ((6, 1), (6, 2), (6, 3), (7, 1), (7, 2)):
        jobs.append({"kind": "character", "n": n, "k": k})
    for n in (6, 7, 8):
        for k, m in _shapes(n):
            if m >= 1 and (n < 8 or m <= 2):
                jobs.append({"kind": "modules_equal", "n": n, "m": m, "k": k})
    return _number(jobs)


def homology_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"homology-{seed}")
    jobs = [{"kind": "presentation_betti", "n": n, "k": k}
            for n in range(4, 9) for k in range(n // 2 + 1)]
    jobs += [{"kind": "presentation_betti", "n": 9, "k": k} for k in (1, 2, 3)]
    # (9,3,1), (9,4,1), (9,4,2) are left out: their relation spans take
    # 1.3-4.1 s to echelonize cold.
    heavy = {(9, 3, 1), (9, 4, 1), (9, 4, 2)}
    for n in (7, 8, 9):
        for k, m in _shapes(n):
            if (n, k, m) in heavy or not dotted_matchings(n, k, m, standard=False):
                continue
            for size in (1, 2, 3):
                jobs.append({"kind": "reduce", "terms": _combination(rng, n, k, m, size)})
    return _number(jobs)


SKEIN_CELLS = (
    # (n, k, m, word length): each cell gets SKEIN_JOBS_PER_CELL jobs
    (6, 2, 1, 9), (6, 2, 2, 9), (6, 3, 1, 9), (6, 3, 2, 9), (6, 3, 3, 9),
    (7, 2, 1, 10), (7, 2, 2, 10), (7, 3, 1, 10), (7, 3, 2, 10), (7, 3, 3, 10),
    (8, 2, 2, 9), (8, 3, 1, 9), (8, 3, 2, 9), (8, 3, 3, 9), (8, 4, 2, 9),
    (8, 4, 3, 9), (8, 4, 4, 9),
)
SKEIN_JOBS_PER_CELL = 8
#: The reduced word ``Permutation.word()`` gives for the longest element of
#: S_6; on "6: u1-2 u3-4 u5-6" this is the 1.6 s longest-element job.
LONGEST_WORD_6 = [1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1]


def permutation_of_length(n: int, length: int, rng: random.Random) -> list[int]:
    """A random permutation with exactly ``length`` inversions."""
    while True:
        images = random_permutation(n, rng)
        if sum(a > b for i, a in enumerate(images) for b in images[i + 1:]) == length:
            return images


def skein_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"skein-{seed}")
    jobs = []
    for n, k, m, length in SKEIN_CELLS:
        pool = dotted_matchings(n, k, m, standard=True)
        for _ in range(SKEIN_JOBS_PER_CELL):
            # Reduced words of a fixed length keep the crossing count, and
            # so the cost of a cell, nearly independent of the seed.
            word = reduced_word(permutation_of_length(n, length, rng), rng)
            jobs.append({"kind": "skein", "matching": rng.choice(pool), "word": word})
    jobs.append({"kind": "skein", "matching": "6: u1-2 u3-4 u5-6", "word": LONGEST_WORD_6})
    return _number(jobs)


def _cli(argv: list[str], group: str, **extra) -> dict:
    return {"kind": "cli", "argv": argv, "group": group, **extra}


def _compatible_pair(rng, n, k):
    """Two matchings of one type whose overlay lines each join up to down."""
    ms = matchings(n, k)
    while True:
        a, b = rng.choice(ms), rng.choice(ms)
        if _lines_ok(a, b):
            return codec(n, *a), codec(n, *b)


def _lines_ok(a, b) -> bool:
    # Each ray of a must meet a ray of b on its component (no up-up lines).
    partner = {}
    for i, j in a[0] + b[0]:
        partner.setdefault(i, []).append(j)
        partner.setdefault(j, []).append(i)
    for r in a[1]:
        stack, comp = [r], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(partner.get(v, []))
        if len(comp & set(b[1])) != 1 or len(comp & set(a[1])) != 1:
            return False
    return True


def cache_jobs(rng: random.Random, keys: int, hits: int):
    """Matrix-cache jobs: each key misses once, then is hit ``hits`` times.

    ``{cache}`` in the arguments stands for the pass's fresh cache directory.
    """
    jobs = []
    for key in range(keys):
        sigma = cycle_text(random_permutation(8, rng))
        argv = ["matrix", "-n", "8", "-k", "4", "-m", "3", "--sigma", sigma,
                "--cached", "--cache-dir", "{cache}"]
        jobs.append(_cli(argv, "cache_miss", key=key))
        jobs += [_cli(argv, "cache_hit", key=key) for _ in range(hits)]
    return jobs


def cli_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"cli-{seed}")
    jobs = [_cli(["betti", "-n", "4", "-k", "1"], "trivial") for _ in range(8)]
    for _ in range(3):
        n = rng.randint(5, 7)
        jobs.append(_cli(["enumerate", "-n", str(n), "-k", str(rng.randint(1, n // 2))],
                         "trivial"))
        n = rng.randint(6, 8)
        k = rng.randint(1, n // 2)
        jobs.append(_cli(["validate", rng.choice(dotted_matchings(n, k, rng.randint(0, k),
                                                                   standard=True))],
                         "trivial"))
        a, b = _compatible_pair(rng, 7, rng.randint(1, 3))
        jobs.append(_cli(["distance", a, b], "trivial"))
        a, b = _compatible_pair(rng, 7, rng.randint(1, 3))
        jobs.append(_cli(["glue", a, b], "trivial"))
    for _ in range(2):
        k = rng.randint(1, 3)
        m = rng.randint(1, k)
        M = rng.choice(dotted_matchings(7, k, m, standard=True))
        jobs.append(_cli(["act", "--sigma", cycle_text(random_permutation(7, rng)),
                          "--class", M], "mid"))
        k, m = rng.choice([(k, m) for k, m in _shapes(7) if m < k])
        terms = _combination(rng, 7, k, m, 2)
        jobs.append(_cli(["reduce", class_text(terms)], "mid", terms=terms))
        word = [rng.randint(1, 5) for _ in range(6)]
        M = rng.choice(dotted_matchings(6, 3, rng.randint(1, 3), standard=True))
        jobs.append(_cli(["skein", "--sigma", " ".join(f"s{a}" for a in word),
                          "--matching", M], "mid"))
    jobs.append(_cli(["character", "-n", "6", "-k", "3"], "mid"))
    jobs.append(_cli(["chart", "-n", "6", "-k", "3"], "mid"))
    jobs.append(_cli(["betti", "-n", "8", "-k", "4", "--method", "both"], "mid"))
    jobs.append(_cli(["verify", "--all", "-nmax", "5"], "verify"))
    jobs += cache_jobs(rng, keys=3, hits=3)
    return _number(jobs)


PROBE_ROUNDS = 3


def probe_jobs(seed: int) -> list[list[dict]]:
    """The CLI start-up and cache probe of the in-process workloads, in rounds.

    A run spreads the rounds between its passes, so the probe samples the
    machine over the whole run.  Each round has its own cache directory:
    three trivial invocations, then two seeded keys (the same in every
    round), each missed once and hit twice.
    """
    keys = cache_jobs(random.Random(f"probe-{seed}"), keys=2, hits=2)
    rounds = [[_cli(["betti", "-n", "4", "-k", "1"], "trivial") for _ in range(3)]
              + [dict(job) for job in keys] for _ in range(PROBE_ROUNDS)]
    _number([job for jobs in rounds for job in jobs])  # ids unique across rounds
    return rounds


def class_text(terms: list[list]) -> str:
    """A formal sum in the CLI's class syntax, e.g. ``2·(4: ...) - 1·(4: ...)``."""
    text = ""
    for idx, (M, c) in enumerate(terms):
        sign = "-" if c < 0 else "+"
        text += (f" {sign} " if idx else sign.strip("+")) + f"{abs(c)}·({M})"
    return text


def _number(jobs: list[dict]) -> list[dict]:
    for idx, job in enumerate(jobs):
        job["id"] = idx
    return jobs


def jobs_for(workload: str, seed: int) -> list[dict]:
    return {"action": action_jobs, "homology": homology_jobs, "skein": skein_jobs,
            "cli": cli_jobs}[workload](seed)
