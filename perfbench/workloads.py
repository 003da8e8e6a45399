"""The four benchmark workloads: inputs, one item's gcb calls, and checks.

Each workload is a closed loop with one caller.  ``stream`` yields the
seeded inputs already parsed by gcb, ``run`` makes one item's calls into
gcb's public API, and ``verify`` returns None for a correct output or a
reason string.  Calls go through ``gcb.<name>`` at call time, so the
wrappers that the traced run installs see them.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import gcb
import scipy.optimize  # noqa: F401  (imported during set-up, not on the first LP call)

import inputs

# bundled inputs, relative to the checkout root
DUMBBELL = "src/gcb/data/dumbbell.nfg"
FIG1 = "src/gcb/data/fig1.nfg"
EXAMPLE3 = "src/gcb/data/example3.pcm"

REL_TOL = 1e-12


class ExactCovers:
    """zbethe_m_enumeration and zbethe_m_typesum in exact mode at M = 2.

    Graphs have one cycle, one ternary edge and one half-edge, and their
    full-edge counts rotate through SIZES; item 0 is the bundled dumbbell
    (pre_root 10).  No two items share a graph.  The cost of an item
    roughly doubles with each full edge, so the rotation holds three 6s
    and two 7s out of seven: the median item falls inside the 6s and the
    tail item (ten beyond it, out of 45 to 90 per run) inside the 7s,
    rather than between two size classes.
    """

    name = "exact-covers"
    pool_size = 256
    m = 2
    SIZES = (4, 5, 6, 7, 6, 7, 6)
    cycle, offset = len(SIZES), 1  # item 0 is the anchor

    def __init__(self, root: Path):
        self.dumbbell = gcb.parse_nfg(str(root / DUMBBELL))
        self.warm = gcb.parse_nfg(str(root / FIG1))

    def texts(self, seed: int):
        rng = random.Random(seed)
        for i in itertools.count():
            n_full = self.SIZES[i % len(self.SIZES)]
            yield inputs.random_nfg_text(rng, n_full, n_ternary=1, n_half=1, rational=True)

    def stream(self, seed: int):
        yield {"nfg": self.dumbbell, "anchor": True}
        for text in self.texts(seed):
            yield {"nfg": gcb.parse_nfg_text(text), "anchor": False}

    def warmup_input(self):
        return {"nfg": self.warm, "anchor": False}

    def run(self, inp):
        nfg = inp["nfg"]
        enum = gcb.zbethe_m_enumeration(nfg, self.m, exact=True)
        typesum = gcb.zbethe_m_typesum(nfg, self.m, exact=True)
        return enum.pre_root, typesum.pre_root

    def verify(self, inp, out):
        enum, typesum = out
        if not (isinstance(enum, Fraction) and isinstance(typesum, Fraction)):
            return "pre_root is not an exact Fraction"
        if enum != typesum:
            return f"enumeration {enum} != type-sum {typesum}"
        if inp["anchor"] and enum != 10:
            return f"dumbbell pre_root {enum}, expected 10"
        return None


class FloatSweep:
    """zbethe_m_enumeration on the float path (the _kernels cover sweep).

    Cells (M, full edges) rotate through CELLS: M = 2 on 6, 7 and 8 full
    edges and M = 3 on 3, the last repeated to put the median item inside
    one cell rather than between two.  Every other rotation uses float
    tables at T = 1, the others rational tables at a seeded T in
    {0.5, 0.7, 2.0}.  Graphs are binary with one cycle and no half-edges.
    """

    name = "float-sweep"
    pool_size = 256
    CELLS = ((2, 6), (2, 7), (3, 3), (2, 8), (3, 3))
    cycle, offset = 2 * len(CELLS), 0
    temperatures = (0.5, 0.7, 2.0)

    def __init__(self, root: Path):
        self.warm = gcb.parse_nfg(str(root / FIG1))

    def texts(self, seed: int):
        rng = random.Random(seed)
        for i in itertools.count():
            m, n_full = self.CELLS[i % len(self.CELLS)]
            rational = (i // len(self.CELLS)) % 2 == 1
            temperature = rng.choice(self.temperatures) if rational else 1.0
            text = inputs.random_nfg_text(rng, n_full, n_ternary=0, n_half=0, rational=rational)
            yield m, temperature, text

    def stream(self, seed: int):
        for m, temperature, text in self.texts(seed):
            yield {"nfg": gcb.parse_nfg_text(text), "m": m, "T": temperature}

    def warmup_input(self):
        return {"nfg": self.warm, "m": 2, "T": 1.0}

    def run(self, inp):
        return gcb.zbethe_m_enumeration(inp["nfg"], inp["m"], temperature=inp["T"],
                                        exact=False, threads=1).pre_root

    def reference(self, inp):
        """The same average by an independent path: exact Fractions at T = 1,
        else gibbs_partition summed over every cover."""
        nfg, m, temperature = inp["nfg"], inp["m"], inp["T"]
        if temperature == 1:
            exact = gcb.Nfg(
                nfg.alphabet_sizes, nfg.half_edges,
                [gcb.Factor(f.id, f.edges, {k: Fraction(v) for k, v in f.table.items()})
                 for f in nfg.factors.values()],
            )
            return gcb.zbethe_m_enumeration(exact, m, exact=True).pre_root
        total = sum(gcb.gibbs_partition(gcb.build_cover(spec), temperature)
                    for spec in gcb.enumerate_covers(nfg, m))
        return total / gcb.count_covers(nfg, m)

    def verify(self, inp, out):
        if not isinstance(out, float):
            return f"float path returned {type(out).__name__}"
        want = float(self.reference(inp))
        err = abs(out - want) / abs(want)
        if not err <= REL_TOL:
            return f"relative error {err:.3g} against the reference"
        return None


def _read_pcm_rows(path: Path):
    rows = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append([int(t) for t in line.split()])
    return rows


class _Example3:
    """The bundled (3,6) length-10 code, parsed by gcb for the calls and
    enumerated here for input generation."""

    def __init__(self, root: Path):
        path = root / EXAMPLE3
        h = gcb.ParityCheckMatrix.from_dense_text(path.read_text(encoding="utf-8"))
        self.code_nfg = gcb.nfg_from_parity_check(h)
        self.codewords = inputs.codewords(_read_pcm_rows(path))


class DecodeBsc(_Example3):
    """attach_channel, bmapd, smapd, bgcd and damped sum-product per word.

    Received words are uniform codewords of example3 sent through a BSC
    with p rotating through 1/20, 1/10, 1/5; the number of flipped bits is
    drawn by stratified sampling (``inputs.bsc_flip_counts``), because an
    item's cost follows it (sum-product converges in about 55 sweeps on
    an unflipped codeword and often runs all SPA_SWEEPS otherwise).  sgcd is not called: at its
    defaults one word took 1.4 to 85 s on a 2-vCPU virtual machine (16
    sum-product runs of up to 4000 sweeps each), so the sum-product layer
    is exercised by one damped run capped at SPA_SWEEPS sweeps instead.
    """

    name = "decode-bsc"
    pool_size = 256
    crossovers = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))
    cycle, offset = len(crossovers), 0
    SPA_SWEEPS = 120
    FLIP_STRATA = 10
    SPA_DAMPING = 0.5

    def __init__(self, root: Path):
        super().__init__(root)
        self.channels = {p: gcb.Channel.bsc(p) for p in self.crossovers}

    def words(self, seed: int):
        rng = random.Random(seed)
        n = len(self.codewords[0])
        flips = {p: inputs.bsc_flip_counts(rng, n, p, self.FLIP_STRATA) for p in self.crossovers}
        for i in itertools.count():
            p = self.crossovers[i % len(self.crossovers)]
            yield p, inputs.bsc_word(rng, self.codewords, next(flips[p]))

    def stream(self, seed: int):
        for p, y in self.words(seed):
            yield {"p": p, "y": y}

    def warmup_input(self):
        return {"p": Fraction(1, 10), "y": "0" * len(self.codewords[0])}

    def run(self, inp):
        dec = gcb.attach_channel(self.code_nfg, self.channels[inp["p"]], inp["y"])
        out = {"dec": dec, "bmapd": gcb.bmapd(dec), "smapd": gcb.smapd(dec), "bgcd": gcb.bgcd(dec)}
        out["spa"] = gcb.sum_product(dec.nfg, max_iters=self.SPA_SWEEPS, damping=self.SPA_DAMPING)
        return out

    def verify(self, inp, out):
        dec, b, s, g = out["dec"], out["bmapd"], out["smapd"], out["bgcd"]
        if tuple(b.decisions) not in self.codewords:
            return f"bmapd decisions {b.decisions} are not a codeword"
        if not g.objective <= b.objective + 1e-9:
            return f"bgcd objective {g.objective} above bmapd objective {b.objective}"
        integral = all(abs(float(v) - round(float(v))) <= 1e-9
                       for d in g.beliefs.edge_dists.values() for v in d.values())
        if integral and not g.tie and g.decisions != b.decisions:
            return f"integral untied bgcd {g.decisions} differs from bmapd {b.decisions}"
        for e, dist in s.symbol_beliefs.items():
            if sum(dist.values()) != 1:
                return f"smapd beliefs on {e} sum to {sum(dist.values())}"
        state, beliefs = out["spa"]
        if state.converged:
            ok, bad = gcb.check_local_consistency(dec.nfg, beliefs, tol=1e-6)
            if not ok:
                return f"converged sum-product beliefs inconsistent: {bad[:2]}"
        return None


class EntropyCurves(_Example3):
    """bme_completion on interior omega vectors, and curve_scan.

    Seven of every eight items send a seeded omega (a convex combination
    of all example3 codewords with positive log-normal weights) to
    bme_completion; the eighth runs curve_scan on a symmetric s-grid,
    alternating (d_L, d_R) = (2,4) and (3,6).
    """

    name = "entropy-curves"
    pool_size = 2048
    CURVE_EVERY = 8
    curves = ((2, 4), (3, 6))
    cycle, offset = CURVE_EVERY * len(curves), 0

    def items(self, seed: int):
        rng = random.Random(seed)
        for i in itertools.count():
            if i % self.CURVE_EVERY == self.CURVE_EVERY - 1:
                d_l, d_r = self.curves[(i // self.CURVE_EVERY) % 2]
                yield ("curve", d_l, d_r) + inputs.symmetric_grid(rng)
            else:
                yield ("omega", inputs.interior_omega(rng, self.codewords))

    def stream(self, seed: int):
        half = self.code_nfg.half_edge_order
        for item in self.items(seed):
            if item[0] == "omega":
                yield {"kind": "omega", "omega": dict(zip(half, item[1]))}
            else:
                _, d_l, d_r, s_max, steps = item
                yield {"kind": "curve", "d": (d_l, d_r), "s_max": s_max, "steps": steps}

    def warmup_input(self):
        return {"kind": "omega", "omega": {e: 0.5 for e in self.code_nfg.half_edge_order}}

    def run(self, inp):
        if inp["kind"] == "omega":
            return gcb.bme_completion(self.code_nfg, inp["omega"])
        d_l, d_r = inp["d"]
        return gcb.curve_scan(d_l, d_r, -inp["s_max"], inp["s_max"], inp["steps"])

    def verify(self, inp, out):
        if inp["kind"] == "omega":
            ok, bad = gcb.check_local_consistency(self.code_nfg, out.beta, tol=1e-9)
            if not ok:
                return f"completion inconsistent: {bad[:2]}"
            for e, w in inp["omega"].items():
                if abs(float(out.beta.edge_weight(e, 1)) - w) > 1e-9:
                    return f"completion moved the marginal of {e}"
            return None
        if inp["d"] == (2, 4):
            if out.min_h_nats < -1e-12:
                return f"(2,4) curve negative: {out.min_h_nats}"
            if out.convex_intervals:
                return f"(2,4) curve not concave on {out.convex_intervals[:2]}"
            return None
        if not out.negative_near_zero:
            return "(3,6) curve not negative near zero"
        if abs(out.peak_omega - 0.5) > 1e-9 or abs(out.peak_h_nats - math.log(2) / 2) > 1e-9:
            return f"(3,6) peak at omega {out.peak_omega}, h {out.peak_h_nats}"
        return None


WORKLOADS = {w.name: w for w in (ExactCovers, FloatSweep, DecodeBsc, EntropyCurves)}
