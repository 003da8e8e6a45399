"""The benchmark's traced run wraps gcb functions by (module, attribute).

``perfbench/spans.py`` lists them in ``TRACED`` and wraps
``gcb.covers.PreimageCensus`` besides.  A function renamed or moved out of
its module would make its per-layer metric read 0 without an error, so
every listed binding must resolve here.  The list is read from the file,
which is left unchanged.  Likewise every ``gcb.<name>(...)`` call in
``perfbench/workloads.py``, read with ``ast``, must bind to the current
signature, so dropping a keyword the benchmark passes fails here and not
in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


def traced_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.TRACED]


@pytest.mark.parametrize("module, attr", traced_bindings())
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_census_class_resolves():
    assert callable(importlib.import_module("gcb.covers").PreimageCensus.__init__)


def test_workload_calls_bind_to_the_current_signatures():
    """Each ``gcb.<name>(...)`` call, dotted names included, binds its
    argument count and keywords to the signature of what it names now."""
    import gcb

    calls, unbound = 0, []
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        names, func = [], getattr(node, "func", None)
        while isinstance(func, ast.Attribute):
            names.append(func.attr)
            func = func.value
        if not (isinstance(node, ast.Call) and names and isinstance(func, ast.Name) and func.id == "gcb"):
            continue
        calls += 1
        where = f"workloads.py:{node.lineno} gcb.{'.'.join(reversed(names))}"
        if any(isinstance(a, ast.Starred) for a in node.args) or any(kw.arg is None for kw in node.keywords):
            unbound.append(f"{where}: unpacked arguments cannot be bound statically")
            continue
        try:
            target = gcb
            for name in reversed(names):
                target = getattr(target, name)
            inspect.signature(target).bind(*[None] * len(node.args), **{kw.arg: None for kw in node.keywords})
        except (AttributeError, TypeError) as exc:
            unbound.append(f"{where}: {exc}")
    assert calls >= 20
    assert not unbound, unbound


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_kernel_metrics_count_a_traced_run():
    """A traced run's kernel metrics count the sweeps and plans that
    ``zbethe_m_enumeration`` (exact, float and Monte Carlo) and
    ``gibbs_partition`` make, so a kernel function moved or bypassed reads
    as a failure here, not as a metric of 0."""
    import scipy.optimize  # noqa: F401  (the tracer wraps linprog, as the benchmark imports it)

    from gcb import bethe, gibbs, parse_nfg

    nfg = parse_nfg(str(SPANS.parents[1] / "src" / "gcb" / "data" / "dumbbell.nfg"))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        tracer.recording = True
        bethe.zbethe_m_enumeration(nfg, 2)
        bethe.zbethe_m_enumeration(nfg, 2, temperature=0.7)
        bethe.zbethe_m_enumeration(nfg, 2, samples=2, seed=1)
        gibbs.gibbs_partition(nfg)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["kernels.cover_sweep.calls"][0] == 1 + 1 + 2 + 1
    assert metrics["kernels.covers_swept"][0] > 0
    assert metrics["kernels.build_plan.self_s"][0] > 0


def test_lp_calls_count_the_words_left_to_the_solver():
    """On a traced ``bgcd``, ``bethe.lp.calls`` reads 0 for a word that
    max-sum diffusion pins and 1 for a word with a fractional optimum, so
    the LP metric counts the words that still reach the solver."""
    from fractions import Fraction

    import scipy.optimize  # noqa: F401  (the tracer wraps linprog, as the benchmark imports it)

    import gcb
    from gcb import Channel, ParityCheckMatrix, attach_channel, nfg_from_parity_check

    pcm = SPANS.parents[1] / "src" / "gcb" / "data" / "example3.pcm"
    code = nfg_from_parity_check(ParityCheckMatrix.from_dense_text(pcm.read_text(encoding="utf-8")))
    for y, certified, lp_calls in (("0000000000", True, 0), ("0100100010", False, 1)):
        dec = attach_channel(code, Channel.bsc(Fraction(1, 10)), y)
        tracer = load_spans().Tracer()
        tracer.install()
        try:
            tracer.recording = True
            res = gcb.bgcd(dec)  # looked up at call time, as the benchmark does
        finally:
            tracer.uninstall()
        assert res.diagnostics["certified"] is certified
        assert tracer.calls["bgcd"] == tracer.calls["minimize_bethe"] == 1
        assert tracer.layer_metrics()["bethe.lp.calls"][0] == lp_calls


def test_bme_metrics_count_a_traced_completion(monkeypatch):
    """On a traced ``bme_completion``, ``bme.newton_iters`` is the sum of the
    tilt's ``steps`` over its calls (the codewords with bit 1 at 0 also
    have bit 8 at 0, which leaves checks with 0, 1 and 2 forced edges, all
    masked in one stack of the five checks), and ``bme.bme_completion.self_s``
    is above 0, so a completion or tilt that bypasses its binding reads as
    a failure here, not as a metric of 0."""
    import numpy as np
    import scipy.optimize  # noqa: F401  (the tracer wraps linprog, as the benchmark imports it)

    import gcb
    from gcb import ParityCheckMatrix, nfg_from_parity_check

    pcm = SPANS.parents[1] / "src" / "gcb" / "data" / "example3.pcm"
    h = ParityCheckMatrix.from_dense_text(pcm.read_text(encoding="utf-8"))
    code = nfg_from_parity_check(h)
    words = np.array([c for c in h.codewords() if c[0] == 0], dtype=float)
    omega = dict(zip(code.half_edge_order, words.mean(axis=0).tolist()))
    seen = []
    real = gcb.bme.tilt_factor_block
    monkeypatch.setattr(gcb.bme, "tilt_factor_block", lambda *args: seen.append(real(*args)) or seen[-1])
    gcb.bme_completion(code, omega)
    monkeypatch.undo()
    assert sorted(r.dist.shape for r in seen) == [(5, 32)]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        tracer.recording = True
        gcb.bme_completion(code, omega)  # looked up at call time, as the benchmark does
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["bme.newton_iters"][0] == sum(int(r.steps.sum()) for r in seen) > 0
    assert metrics["bme.bme_completion.self_s"][0] > 0
