"""Span recording around gcb's public functions, for the traced run only.

``Tracer.install`` replaces each traced function with a wrapper in every
gcb module that holds it by name (``gcb.bethe.valid_tuples``,
``gcb.covers.valid_tuples``, ``gcb.coding.minimize_bethe``, the package
re-exports, ...), and ``scipy.optimize.linprog``, which gcb imports inside
its LP routines at call time.  While ``recording`` is set, a wrapper
records a span (name, start, end, parent span, item id) and, where the
result carries a work count, adds it to a counter; output checks made
between items run with ``recording`` off.  Spans stay in memory until
``write``.  ``uninstall`` puts the original functions back, so untraced
calls run unwrapped code.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a span name of None counts calls and work
# without opening a span, for functions too small or too nested to time.
TRACED = [
    ("gcb._kernels", "cover_sweep", "_kernels.cover_sweep"),
    ("gcb._kernels", "build_plan", "_kernels.build_plan"),
    ("gcb.gibbs", "valid_tuples", "gibbs.valid_tuples"),
    ("gcb.gibbs", "gibbs_partition", "gibbs.gibbs_partition"),
    ("gcb.covers", "build_cover", "covers.build_cover"),
    ("gcb.covers", "build_cover_with_map", "covers.build_cover"),
    ("gcb.covers", "preimage_count_closedform", "covers.closedform"),
    ("gcb.bethe", "zbethe_m_enumeration", "bethe.zbethe_m_enumeration"),
    ("gcb.bethe", "zbethe_m_typesum", "bethe.zbethe_m_typesum"),
    ("gcb.bethe", "minimize_bethe", "bethe.minimize_bethe"),
    ("gcb.bethe", "bethe_terms", None),
    ("gcb.bethe", "tilt_factor_block", None),
    ("gcb.spa", "sum_product", "spa.sum_product"),
    ("gcb.coding", "attach_channel", "coding.attach_channel"),
    ("gcb.coding", "bmapd", "coding.bmapd"),
    ("gcb.coding", "smapd", "coding.smapd"),
    ("gcb.coding", "bgcd", "coding.bgcd"),
    ("gcb.coding", "sgcd", "coding.sgcd"),
    ("gcb.bme", "bme_completion", "bme.bme_completion"),
    ("gcb.ldpc_curves", "curve_scan", "ldpc_curves.curve_scan"),
    ("gcb.nfg", "parse_nfg", "nfg.parse"),
    ("gcb.nfg", "parse_nfg_text", "nfg.parse"),
    ("scipy.optimize", "linprog", "bethe.lp"),
]


def _count_work(tracer: "Tracer", attr: str, result) -> None:
    """Work counts read from a traced call's result."""
    c = tracer.counts
    if attr == "cover_sweep":
        c["kernels.covers_swept"] += result[2]
    elif attr == "valid_tuples":
        c["gibbs.configs_found"] += len(result)
    elif attr == "build_cover_with_map":
        c["covers.covers_built"] += 1
    elif attr == "sum_product":
        state = result[0]
        c["spa.iterations"] += state.iterations
        c["spa.converged"] += int(state.converged)
    elif attr == "sgcd":
        c["coding.sgcd_converged"] += int(bool(result.diagnostics.get("converged")))
    elif attr == "tilt_factor_block":
        c["bme.newton_iters"] += result.iterations
    elif attr == "curve_scan":
        c["ldpc_curves.points"] += len(result.points)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id]
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.item = None
        self.recording = False  # wrappers pass straight through while False
        self._stack = []
        self._plan = []  # (holder, attribute, original, wrapper)

    def _wrap(self, fn, attr, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.calls[attr] += 1
            if name is None:
                result = fn(*args, **kwargs)
            else:
                parent = tracer._stack[-1] if tracer._stack else -1
                span = [name, time.perf_counter(), None, parent, tracer.item]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    tracer._stack.pop()
            _count_work(tracer, attr, result)
            return result

        return traced

    def _wrap_census(self, cls):
        """PreimageCensus is a class: time its constructor as covers.census."""
        tracer = self
        init = cls.__init__

        def traced_init(obj, *args, **kwargs):
            if not tracer.recording:
                return init(obj, *args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = ["covers.census", time.perf_counter(), None, parent, tracer.item]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                init(obj, *args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer.counts["covers.census_distinct"] += len(obj.realizable())
            tracer.counts["covers.census_visited"] += obj.total_valid

        return init, traced_init

    def install(self):
        """Wrap every traced function at every gcb binding site."""
        if not self._plan:
            import gcb.covers

            modules = [m for n, m in sys.modules.items() if n == "gcb" or n.startswith("gcb.")]
            for modname, attr, name in TRACED:
                original = getattr(sys.modules[modname], attr)
                wrapper = self._wrap(original, attr, name)
                holders = {id(m): m for m in [sys.modules[modname]] + modules
                           if getattr(m, attr, None) is original}
                self._plan += [(m, attr, original, wrapper) for m in holders.values()]
            cls = gcb.covers.PreimageCensus
            self._plan.append((cls, "__init__") + self._wrap_census(cls))
        for holder, attr, _, wrapper in self._plan:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original, _ in self._plan:
            setattr(holder, attr, original)

    def self_times(self) -> dict:
        """Seconds per span name, each span's duration less its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, from spans and counts."""
        st = self.self_times()
        c, n = self.counts, self.calls

        def ratio(a, b):
            return a / b if b else 0.0

        sweep_s = st["_kernels.cover_sweep"]
        return {
            "kernels.cover_sweep.self_s": (sweep_s, "s"),
            "kernels.cover_sweep.calls": (n["cover_sweep"], "count"),
            "kernels.covers_swept": (c["kernels.covers_swept"], "count"),
            "kernels.covers_per_s": (ratio(c["kernels.covers_swept"], sweep_s), "1/s"),
            "kernels.build_plan.self_s": (st["_kernels.build_plan"], "s"),
            "gibbs.valid_tuples.self_s": (st["gibbs.valid_tuples"], "s"),
            "gibbs.valid_tuples.calls": (n["valid_tuples"], "count"),
            "gibbs.configs_found": (c["gibbs.configs_found"], "count"),
            "gibbs.gibbs_partition.self_s": (st["gibbs.gibbs_partition"], "s"),
            "covers.build_cover.self_s": (st["covers.build_cover"], "s"),
            "covers.covers_built": (c["covers.covers_built"], "count"),
            "covers.census.self_s": (st["covers.census"], "s"),
            "covers.census_dedup_ratio": (
                ratio(c["covers.census_distinct"], c["covers.census_visited"]), "ratio"),
            "covers.closedform.self_s": (st["covers.closedform"], "s"),
            "covers.closedform.calls": (n["preimage_count_closedform"], "count"),
            "bethe.zbethe_m_enumeration.self_s": (st["bethe.zbethe_m_enumeration"], "s"),
            "bethe.zbethe_m_typesum.self_s": (st["bethe.zbethe_m_typesum"], "s"),
            "bethe.minimize_bethe.self_s": (st["bethe.minimize_bethe"], "s"),
            "bethe.lp.self_s": (st["bethe.lp"], "s"),
            "bethe.lp.calls": (n["linprog"], "count"),
            "bethe.bethe_terms.calls": (n["bethe_terms"], "count"),
            "spa.sum_product.self_s": (st["spa.sum_product"], "s"),
            "spa.runs": (n["sum_product"], "count"),
            "spa.iterations": (c["spa.iterations"], "count"),
            "spa.converged_frac": (ratio(c["spa.converged"], n["sum_product"]), "ratio"),
            "coding.attach_channel.self_s": (st["coding.attach_channel"], "s"),
            "coding.bmapd.self_s": (st["coding.bmapd"], "s"),
            "coding.smapd.self_s": (st["coding.smapd"], "s"),
            "coding.bgcd.self_s": (st["coding.bgcd"], "s"),
            "coding.sgcd.self_s": (st["coding.sgcd"], "s"),
            "coding.sgcd_converged_frac": (ratio(c["coding.sgcd_converged"], n["sgcd"]), "ratio"),
            "bme.bme_completion.self_s": (st["bme.bme_completion"], "s"),
            "bme.newton_iters": (c["bme.newton_iters"], "count"),
            "ldpc_curves.curve_scan.self_s": (st["ldpc_curves.curve_scan"], "s"),
            "ldpc_curves.points": (c["ldpc_curves.points"], "count"),
            "nfg.parse.self_s": (st["nfg.parse"], "s"),
        }
