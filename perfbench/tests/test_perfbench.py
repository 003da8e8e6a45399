"""Self-tests of the benchmark: seeded inputs, output checks, span tracing.

Run from the checkout root with ``python3 -m pytest perfbench/tests -q``.
"""

import math
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import clock  # noqa: E402
import gcb  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RAW = {
    "exact-covers": lambda wl, seed: wl.texts(seed),
    "float-sweep": lambda wl, seed: wl.texts(seed),
    "decode-bsc": lambda wl, seed: wl.words(seed),
    "entropy-curves": lambda wl, seed: wl.items(seed),
}


@pytest.fixture(scope="module")
def loaded():
    return {name: cls(run.ROOT) for name, cls in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(RAW))
def test_same_seed_same_inputs_other_seed_other_inputs(loaded, name):
    wl = loaded[name]
    first = list(islice(RAW[name](wl, 5), 24))
    assert first == list(islice(RAW[name](wl, 5), 24))
    assert first != list(islice(RAW[name](wl, 6), 24))


def _flip_first_bit(out):
    b = out["bmapd"]
    b.decisions = (1 - b.decisions[0],) + b.decisions[1:]
    return out


def _shift_edge_weight(res):
    e = sorted(res.beta.edge_dists)[0]
    res.beta.edge_dists[e][1] = res.beta.edge_dists[e].get(1, 0.0) + 1e-3
    return res


CORRUPT = {
    "exact-covers": (1, lambda out: (out[0], out[1] + Fraction(1, 10**9))),
    "float-sweep": (0, lambda out: out * (1 + 1e-9)),
    "decode-bsc": (0, _flip_first_bit),
    "entropy-curves": (0, _shift_edge_weight),
}


class Corrupted:
    """A workload whose outputs are damaged after gcb returns them."""

    def __init__(self, wl, damage):
        self.wl, self.damage = wl, damage
        self.cycle, self.offset = wl.cycle, wl.offset

    def run(self, inp):
        return self.damage(self.wl.run(inp))

    def verify(self, inp, out):
        return self.wl.verify(inp, out)


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_corrupted_result_counts_as_failure(loaded, name):
    wl = loaded[name]
    index, damage = CORRUPT[name]
    inp = next(islice(wl.stream(3), index, None))
    timed, attempted, failures = run.run_pass(wl, iter([inp]), 60, clock.Clock())
    assert (len(timed), attempted, failures) == (1, 1, [])
    timed, attempted, failures = run.run_pass(Corrupted(wl, damage), iter([inp]), 60, clock.Clock())
    assert (len(timed), attempted, len(failures)) == (1, 1, 1)


def test_corrupted_curve_counts_as_failure(loaded):
    wl = loaded["entropy-curves"]
    for d in wl.curves:
        inp = next(i for i in wl.stream(3) if i["kind"] == "curve" and i["d"] == d)
        out = wl.run(inp)
        assert wl.verify(inp, out) is None
        out.min_h_nats, out.peak_h_nats = -1.0, out.peak_h_nats + 1e-6
        assert wl.verify(inp, out) is not None


def test_tail_leaves_ten_items_beyond():
    summary = run.latency_summary([float(i) for i in range(1, 101)])
    assert summary["latency_tail_ms"] == 90_000.0
    assert summary["tail_percentile"] == 90.0


def test_tracer_wraps_every_binding_and_restores_it(loaded):
    originals = (gcb.gibbs.valid_tuples, gcb.bethe.valid_tuples, gcb.covers.valid_tuples,
                 gcb.coding.valid_tuples, gcb.zbethe_m_typesum)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert gcb.bethe.valid_tuples is gcb.covers.valid_tuples is not originals[0]
        tracer.item, tracer.recording = 0, True
        wl = loaded["exact-covers"]
        out = wl.run(next(islice(wl.stream(3), 1, None)))
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert (gcb.gibbs.valid_tuples, gcb.bethe.valid_tuples, gcb.covers.valid_tuples,
            gcb.coding.valid_tuples, gcb.zbethe_m_typesum) == originals
    assert out[0] == out[1]
    layers = tracer.layer_metrics()
    assert layers["gibbs.valid_tuples.calls"][0] == layers["covers.covers_built"][0] > 0
    assert 0 < layers["covers.census_dedup_ratio"][0] <= 1
    total = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(tracer.self_times().values()) == pytest.approx(total)


def test_clock_scales_by_the_probes_around_a_span():
    c = clock.Clock()
    c.starts = [0.0, 0.5, 1.0, 1.5, 2.0, 20.0, 20.5, 21.0, 21.5, 22.0, 22.5]
    c.seconds = [clock.REFERENCE_S] * 5 + [2 * clock.REFERENCE_S] * 6
    assert c.scale(1.0, 1.1) == 1.0
    assert c.scale(21.0, 21.1) == 0.5
    assert c.host_speed() == 0.5


def test_run_pass_probes_between_items(loaded):
    wl = loaded["decode-bsc"]
    c = clock.Clock()
    timed, attempted, failures = run.run_pass(wl, islice(wl.stream(3), 3), seconds=0, clock=c)
    assert (len(timed), attempted, failures) == (3, 3, [])
    assert len(c.seconds) >= 2 and c.starts == sorted(c.starts)
    assert all(c.scale(t, t + dt) > 0 for t, dt in timed)


def test_stratified_flip_counts_are_binomial():
    import random

    import inputs

    n, p = 10, Fraction(1, 5)
    counts = inputs.bsc_flip_counts(random.Random(7), n, p, strata=10)
    draws = list(islice(counts, 20000))
    for k in range(4):
        want = math.comb(n, k) * float(p) ** k * float(1 - p) ** (n - k)
        assert draws.count(k) / len(draws) == pytest.approx(want, abs=0.01)
    block = sorted(draws[:10])
    assert block[0] == 0 and block[-1] >= 4  # every block spans the distribution
