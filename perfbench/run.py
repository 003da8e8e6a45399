#!/usr/bin/env python3
"""gcb benchmark: one workload, one seed, one measured run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-covers --seed 1 --seconds 20 --trace 0

``--trace 0`` makes the untraced run and prints the end-to-end metrics,
in calibrated time (``clock.py``), with the wall-clock figures beside them;
``--trace 1`` runs each item twice, untraced and traced, and prints the
per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with the environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import chain, islice
from pathlib import Path

from clock import Clock, calibrated_setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5  # this process plus four fresh ones
TAIL_BEYOND = 10   # the tail percentile leaves this many items above it
# the end-to-end metrics BENCHMARK.json gates, with their units
E2E = (("throughput_items_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    n = nproc()
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > n:
            os.environ[var] = str(n)


def import_gcb():
    """Import gcb from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "gcb" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gcb sources under {src}")
    sys.path.insert(0, str(src))
    import gcb

    if Path(gcb.__file__).resolve().parent != (src / "gcb").resolve():
        raise SystemExit(f"perfbench: imported gcb from {gcb.__file__}, not {src}")
    return gcb


def environment(gcb) -> dict:
    import numpy
    import scipy

    return {
        "kernel_backend": gcb.KERNEL_BACKEND,
        "GCB_PURE_KERNELS": os.environ.get("GCB_PURE_KERNELS"),
        "GCB_CONFIG_CAP": os.environ.get("GCB_CONFIG_CAP"),
        "GCB_COVER_CAP": os.environ.get("GCB_COVER_CAP"),
        "nproc": nproc(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup(name: str, seed: int, tracer=None):
    """Import, parse the bundled files, generate and parse the input pool,
    run one untimed item; then calibrate.  Returns (gcb, workload, items,
    calibrated seconds, wall seconds)."""

    def body():
        gcb = import_gcb()
        import workloads

        if tracer is not None:
            tracer.install()
            tracer.item, tracer.recording = "setup", True
        wl = workloads.WORKLOADS[name](ROOT)
        stream = wl.stream(seed)
        pool = list(islice(stream, wl.pool_size))
        if tracer is not None:
            tracer.recording = False
            tracer.uninstall()
        wl.verify(wl.warmup_input(), wl.run(wl.warmup_input()))
        return gcb, wl, chain(pool, stream)

    (gcb, wl, items), setup_s, wall_s = calibrated_setup(body)
    return gcb, wl, items, setup_s, wall_s


def _timed(wl, inp):
    """One item's calls, timed; returns (output, seconds) or raises."""
    t0 = time.perf_counter()
    out = wl.run(inp)
    return out, time.perf_counter() - t0


def _check(wl, inp, out):
    try:
        return wl.verify(inp, out)
    except Exception:  # a check that raises is a failed check
        return traceback.format_exc()


def run_pass(wl, items, seconds, clock: Clock):
    """Closed loop, one caller: each item's calls are timed, then checked
    outside the timed region, and the clock takes a reference probe
    between items every PROBE_EVERY_S.  Runs for ``seconds`` of wall time
    and then to the end of the current rotation of the workload's input
    cycle, so every run measures whole rotations; returns (the start and
    wall seconds of each item that returned, attempted, failures)."""
    timed, failures = [], []
    attempted = 0
    clock.probe()
    deadline = time.perf_counter() + seconds
    for i, inp in enumerate(items):
        attempted += 1
        start = time.perf_counter()
        try:
            out, dt = _timed(wl, inp)
        except Exception:  # an item that raises is a failed item; the loop goes on
            failures.append((i, traceback.format_exc()))
        else:
            timed.append((start, dt))
            reason = _check(wl, inp, out)
            if reason is not None:
                failures.append((i, reason))
        clock.maybe_probe()
        if (i + 1 - wl.offset) % wl.cycle == 0 and time.perf_counter() >= deadline:
            break
    clock.probe()
    return timed, attempted, failures


def run_paired(wl, items, seconds, tracer):
    """Each item runs once untraced and once traced, the order alternating
    from item to item so that warm caches favour neither side."""
    plain, traced, failures = [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    for i, inp in enumerate(items):
        if time.perf_counter() >= deadline:
            break
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            attempted += 1
            if traced_run:
                tracer.install()
                tracer.item, tracer.recording = i, True
            try:
                out, dt = _timed(wl, inp)
            except Exception:
                failures.append((i, traceback.format_exc()))
                continue
            finally:
                tracer.recording = False
                tracer.uninstall()
            (traced if traced_run else plain).append(dt)
            reason = _check(wl, inp, out)
            if reason is not None:
                failures.append((i, reason))
    return plain, traced, attempted, failures


def latency_summary(latencies) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    if n > TAIL_BEYOND:
        tail, pct = ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {
        "items": n,
        "throughput_items_per_s": n / sum(latencies),
        "latency_p50_ms": 1000.0 * statistics.median(ordered),
        "latency_tail_ms": 1000.0 * tail,
        "tail_percentile": pct,
    }


def measure_setup_in_fresh_processes(args) -> list:
    """(calibrated, wall) set-up seconds of SETUP_REPEATS - 1 fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((out["setup_s"], out["setup_wall_s"]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact-covers", "float-sweep", "decode-bsc", "entropy-curves"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_blas_threads()
    sys.path.insert(0, str(HERE))

    if args.setup_only:
        setup_s, wall_s = setup(args.workload, args.seed)[3:]
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": wall_s}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    gcb, wl, items, setup_s, setup_wall_s = setup(args.workload, args.seed, tracer)
    env = environment(gcb)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    OUT.mkdir(exist_ok=True)

    if tracer is None:
        clock = Clock()
        timed, attempted, failures = run_pass(wl, items, args.seconds, clock)
        summary = latency_summary([dt * clock.scale(t, t + dt) for t, dt in timed])
        wall = latency_summary([dt for _, dt in timed])
        setups = [(setup_s, setup_wall_s)] + measure_setup_in_fresh_processes(args)
        summary["setup_s"] = statistics.median(s for s, _ in setups)
        wall["setup_s"] = statistics.median(w for _, w in setups)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: (summary[name], unit) for name, unit in E2E}
        record.update(summary, wall=wall, host_speed=clock.host_speed(),
                      setup_samples_s=setups, items_start_wall_s=timed,
                      probes_start_s=clock.starts, probes_s=clock.seconds)
    else:
        plain, traced, attempted, failures = run_paired(wl, items, args.seconds, tracer)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0, "ratio")
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        record.update(untraced=latency_summary(plain), traced=latency_summary(traced),
                      span_file=str(span_file.relative_to(ROOT)))

    failed = len(failures)
    record["failed_frac"] = failed / attempted
    record["failures"] = [{"item": i, "reason": r} for i, r in failures[:20]]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for i, reason in failures[:5]:
        print(f"perfbench: item {i} failed: {reason.strip()}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} backend={env['kernel_backend']} "
          f"attempted={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    if tracer is None:
        # reported but not gated: see perfbench/README.md
        print(f"{'latency_p50_ms':40s} {record['latency_p50_ms']:16.6f} ms")
        print(f"{'latency_tail_ms':40s} {record['latency_tail_ms']:16.6f} ms")
        print(f"{'failed_frac':40s} {failed / attempted:16.6f} ratio")
        print(f"# latency_tail_ms is the p{record['tail_percentile']:.1f} latency "
              f"({TAIL_BEYOND} of {record['items']} items beyond it)")
        print(f"# times are calibrated (perfbench/clock.py); host speed "
              f"{record['host_speed']:.3f}; wall: "
              + ", ".join(f"{name} {wall[name]:.6g}" for name in
                          ("throughput_items_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s")))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
