#!/usr/bin/env python3
"""Hash gcb's outputs on the benchmark's seed-1 inputs, one line per group.

    python3 tools/output_hashes.py --root <tree> --words N [--items K] [--covers K]

imports gcb from ``<tree>/src`` and feeds it the inputs of perfbench's
seed-1 generators (``perfbench/workloads.py`` of this checkout, so two
trees get the same inputs).  Each line is ``<group> <outputs> <sha256
prefix>``, hashing every field of every output with each float written
exactly (``float.hex``), so two trees whose outputs are bit-identical print
the same lines:

- ``bmapd``, ``smapd``, ``bgcd`` and ``spa-T1`` (the damped sum-product run
  of the benchmark) on the first N ``decode-bsc`` words;
- ``spa-T0.002``, a 200-sweep damped run at T = 0.002, where channel rows
  underflow, on the same words;
- ``sgcd`` on the first ceil(N / 4) of them;
- ``bme`` on the omegas among the first K ``entropy-curves`` items
  (K = N unless given);
- ``enum-exact`` and ``typesum-exact``, the ``ZBetheM`` of the exact
  degree-2 enumeration and type-sum, on the first K ``exact-covers``
  graphs, and ``enum-float`` and ``typesum-float``, the float sums at
  each item's M and T, on the first K ``float-sweep`` graphs (K from
  ``--covers``, N unless given).

An output that raises is hashed as its exception's type and message.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from fractions import Fraction
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SEED = 1
COLD = {"max_iters": 200, "damping": 0.5, "temperature": 0.002}


def canon(value):
    """A nested plain form of an output: floats as ``float.hex``, arrays as
    their dtype and bytes, objects with ``__slots__`` field by field."""
    import numpy as np

    if isinstance(value, (np.bool_, np.integer)):
        return value.item()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, np.ndarray):
        return [str(value.dtype), value.shape, value.tobytes().hex()]
    if isinstance(value, dict):
        return [[canon(k), canon(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    slots = [s for cls in type(value).__mro__ for s in getattr(cls, "__slots__", ())]
    if not slots:
        raise TypeError(f"no plain form for {type(value).__name__}")
    return [type(value).__name__] + [[s, canon(getattr(value, s))] for s in slots]


def outcome(call, *args, **kwargs):
    try:
        return canon(call(*args, **kwargs))
    except Exception as exc:  # a raised error is an output too
        return ["raised", type(exc).__name__, str(exc)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", type=Path, default=CHECKOUT, help="tree whose src/gcb is hashed")
    parser.add_argument("--words", type=int, required=True, help="decode-bsc words")
    parser.add_argument("--items", type=int, default=None, help="entropy-curves items (default: --words)")
    parser.add_argument("--covers", type=int, default=None,
                        help="exact-covers and float-sweep graphs (default: --words)")
    args = parser.parse_args(argv)
    items = args.words if args.items is None else args.items
    n_covers = args.words if args.covers is None else args.covers

    sys.path[:0] = [str(args.root.resolve() / "src"), str(CHECKOUT / "perfbench")]
    import gcb
    import workloads

    if not Path(gcb.__file__).resolve().is_relative_to(args.root.resolve()):
        parser.error(f"gcb imported from {gcb.__file__}, not from {args.root}")

    names = ("bmapd", "smapd", "bgcd", "spa-T1", "spa-T0.002", "sgcd", "bme",
             "enum-exact", "typesum-exact", "enum-float", "typesum-float")
    groups = {name: [] for name in names}
    decode = workloads.DecodeBsc(CHECKOUT)
    for i, inp in enumerate(itertools.islice(decode.stream(SEED), args.words)):
        out = decode.run(inp)
        for name in ("bmapd", "smapd", "bgcd"):
            groups[name].append(canon(out[name]))
        groups["spa-T1"].append(canon(out["spa"]))
        groups["spa-T0.002"].append(outcome(gcb.sum_product, out["dec"].nfg, **COLD))
        if 4 * i < args.words:
            groups["sgcd"].append(outcome(gcb.sgcd, out["dec"]))
    curves = workloads.EntropyCurves(CHECKOUT)
    for inp in itertools.islice(curves.stream(SEED), items):
        if inp["kind"] == "omega":
            groups["bme"].append(outcome(gcb.bme_completion, curves.code_nfg, inp["omega"]))
    exact = workloads.ExactCovers(CHECKOUT)
    for inp in itertools.islice(exact.stream(SEED), n_covers):
        groups["enum-exact"].append(outcome(gcb.zbethe_m_enumeration, inp["nfg"], exact.m, exact=True))
        groups["typesum-exact"].append(outcome(gcb.zbethe_m_typesum, inp["nfg"], exact.m, exact=True))
    for inp in itertools.islice(workloads.FloatSweep(CHECKOUT).stream(SEED), n_covers):
        nfg, m, temperature = inp["nfg"], inp["m"], inp["T"]
        groups["enum-float"].append(outcome(gcb.zbethe_m_enumeration, nfg, m, temperature, exact=False))
        groups["typesum-float"].append(outcome(gcb.zbethe_m_typesum, nfg, m, temperature, exact=False))
    for name, outputs in groups.items():
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]
        print(f"{name} {len(outputs)} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
