"""Seeded input generators for the gcb benchmark.

Every generator takes a ``random.Random`` built from the workload seed and
returns plain data (NFG text, received words, omega vectors), so gcb only
ever sees the generated inputs.  The same seed gives the same inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

RATIONAL_VALUES = (
    Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
    Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
)


def _format_value(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


MAX_FULL_DEGREE = 3


def random_nfg_text(rng: random.Random, n_full: int, *,
                    n_ternary: int, n_half: int, rational: bool) -> str:
    """A connected one-cycle NFG in the gcb text format.

    ``n_full`` factors are joined by a random spanning tree plus one more
    full edge, no factor carrying more than MAX_FULL_DEGREE full edges (the
    cost of a cover walk grows with the largest table); ``n_ternary``
    random edges get alphabet 3, the rest 2.  Every table is supported on
    the assignments of even symbol sum, as in a parity check, with a random
    weight on each, so the all-zero assignment is always valid and the
    valid configurations of a cover are set by the graph's cycle structure
    rather than by chance.
    """
    fids = [f"f{i}" for i in range(n_full)]
    degree = dict.fromkeys(fids, 0)
    ends = []

    def join(a, b):
        ends.append((a, b))
        degree[a] += 1
        degree[b] += 1

    for i in range(1, n_full):
        join(rng.choice([f for f in fids[:i] if degree[f] < MAX_FULL_DEGREE]), fids[i])
    join(*rng.sample([f for f in fids if degree[f] < MAX_FULL_DEGREE], 2))
    names = [f"e{k:02d}" for k in range(n_full)] + [f"h{k}" for k in range(n_half)]
    ternary = set(rng.sample(names, n_ternary))
    sizes = {e: 3 if e in ternary else 2 for e in names}
    incident = {f: [] for f in fids}
    lines = []
    for k, (a, b) in enumerate(ends):
        e = names[k]
        incident[a].append(e)
        incident[b].append(e)
        lines.append(f"fulledge {e} {a} {b}")
    for k in range(n_half):
        e = names[n_full + k]
        incident[rng.choice(fids)].append(e)
        lines.append(f"halfedge {e}")
    lines = [f"alphabet {e} {s}" for e, s in sizes.items()] + lines
    for f in fids:
        edges = incident[f]
        lines.append(f"factor {f} {' '.join(edges)}")
        space = itertools.product(*(range(sizes[e]) for e in edges))
        for row in (a for a in space if sum(a) % 2 == 0):
            value = rng.choice(RATIONAL_VALUES) if rational else rng.uniform(0.25, 2.0)
            lines.append(f"row {' '.join(map(str, row))} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def codewords(rows) -> list:
    """All binary words x with H x = 0 (mod 2), by direct enumeration."""
    n = len(rows[0])
    return [x for x in itertools.product((0, 1), repeat=n)
            if all(sum(h * s for h, s in zip(row, x)) % 2 == 0 for row in rows)]


def binomial_quantile(n: int, p: Fraction, u: float) -> int:
    """The smallest k with P(Binomial(n, p) <= k) > u."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * float(p) ** k * float(1 - p) ** (n - k)
        if u < cdf:
            return k
    return n


def bsc_flip_counts(rng: random.Random, n: int, p: Fraction, strata: int):
    """Endless numbers of bits a BSC(p) flips in an n-bit word, by
    stratified sampling: each block of ``strata`` draws takes one uniform
    from each 1/strata slice of [0, 1), in seeded random order, through the
    Binomial(n, p) inverse CDF.  Each draw is Binomial(n, p), as for the
    channel, but every block holds nearly the same mix of counts, so the
    mix of a run does not swing with the seed."""
    while True:
        order = list(range(strata))
        rng.shuffle(order)
        for j in order:
            yield binomial_quantile(n, p, (j + rng.random()) / strata)


def bsc_word(rng: random.Random, words, flips: int) -> str:
    """A uniform codeword with ``flips`` uniformly placed bits flipped:
    a BSC output given the number of bits the channel flipped."""
    x = rng.choice(words)
    where = set(rng.sample(range(len(x)), flips))
    return "".join(str(s ^ (i in where)) for i, s in enumerate(x))


def interior_omega(rng: random.Random, words) -> list:
    """Per-position probability of a one under positive log-normal weights
    on every codeword: a point strictly inside the codeword polytope."""
    weights = [rng.lognormvariate(0.0, 1.5) for _ in words]
    total = sum(weights)
    return [sum(w * x[i] for w, x in zip(weights, words)) / total for i in range(len(words[0]))]


def symmetric_grid(rng: random.Random) -> tuple:
    """(s_max, steps) for an s-grid on [-s_max, s_max] with s = 0 on it."""
    return rng.uniform(3.0, 6.0), rng.choice((401, 501, 601))
