"""Command-line surface: deterministic reports over the library operations.

Exit codes: 0 success, 2 enumeration cap exceeded, 3 usage, parse or input
error (a value past the float range included), 4 solver non-convergence.  Primary output is line-oriented key=value
(CSV for curves and traces); diagnostics go to stderr.  A subcommand takes
``--config-cap`` / ``--cover-cap`` only where it reads them, and refuses
them (exit 3) in the modes that do not read them.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .bethe import (
    bethe_terms,
    emit_beta,
    minimize_bethe,
    parse_beta,
    zbethe_m_enumeration,
    zbethe_m_typesum,
)
from .bme import bme_completion
from .coding import (
    Channel,
    ParityCheckMatrix,
    attach_channel,
    bgcd,
    bmapd,
    check_represents_code,
    nfg_from_parity_check,
    sgcd,
    smapd,
)
from .covers import (
    count_covers,
    cover_perm_inv,
    emit_cover_spec,
    enumerate_covers,
    parse_cover_spec,
    phi_m,
    preimage_count_bruteforce,
    preimage_count_closedform,
)
from .errors import CapExceeded, GcbError, NonConvergence, ParseError
from .gibbs import cover_partitions, enumerate_configurations, gibbs_partition
from .ldpc_curves import curve_csv, curve_scan
from .nfg import parse_nfg, parse_number, read_lines
from .spa import sum_product

EXIT_OK = 0
EXIT_CAP = 2
EXIT_PARSE = 3
EXIT_NONCONV = 4


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_beta(args, beta):
    """Write beta to ``--dump-beta``'s file, when the option is given."""
    if args.dump_beta:
        with open(args.dump_beta, "w", encoding="utf-8") as fh:
            fh.write(emit_beta(beta))


def _load_assignment(text: str) -> dict:
    out = {}

    def read(parts):
        if len(parts) != 2:
            raise ParseError("expected '<edge> <symbol>'")
        out[parts[0]] = int(parts[1])
        return parts[0]

    read_lines(text, read)
    return out


def _load_pcm(args) -> ParityCheckMatrix:
    if args.alist:
        with open(args.alist, "r", encoding="utf-8") as fh:
            return ParityCheckMatrix.from_alist_text(fh.read())
    if args.pcm:
        with open(args.pcm, "r", encoding="utf-8") as fh:
            return ParityCheckMatrix.from_dense_text(fh.read())
    raise ParseError("need --pcm or --alist")


# -- subcommands ----------------------------------------------------------------


def _config_lines(nfg, configs) -> list:
    """One ``config=<symbols in edge order> value=<value>`` line per
    (configuration, value) of ``enumerate_configurations``."""
    return [f"config={''.join(str(config[e]) for e in nfg.edge_order)} value={_fmt(value)}"
            for config, value in configs]


def cmd_enumerate(args):
    nfg = parse_nfg(args.nfg)
    lines = _config_lines(nfg, enumerate_configurations(nfg, cap=args.config_cap))
    lines.append(f"count={len(lines)}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_zgibbs(args):
    nfg = parse_nfg(args.nfg)
    m, perm_inv = 1, None
    if args.cover:
        with open(args.cover, "r", encoding="utf-8") as fh:
            spec = parse_cover_spec(nfg, fh.read())
        m, perm_inv = spec.m, cover_perm_inv(spec)
    (z,) = cover_partitions(nfg, m, [perm_inv], args.temperature, cap=args.config_cap)
    _write(args, f"zgibbs={_fmt(z)}\n")
    return EXIT_OK


def cmd_zbethe_m(args):
    nfg = parse_nfg(args.nfg)
    if args.samples is not None and args.method == "typesum":
        raise ParseError("--samples needs --method enum")
    if args.samples is not None and args.seed is None:
        raise ParseError("Monte Carlo mode requires --seed")
    if args.cover_cap is not None and (args.method == "typesum" or args.samples is not None):
        raise ParseError("--cover-cap needs --method enum without --samples")
    exact = {"exact": True, "float": False, "auto": None}[args.precision]
    if args.method == "typesum":
        res = zbethe_m_typesum(nfg, args.m, args.temperature, exact=exact,
                               config_cap=args.config_cap)
    else:
        res = zbethe_m_enumeration(
            nfg, args.m, args.temperature, exact=exact, cap=args.cover_cap,
            config_cap=args.config_cap, samples=args.samples, seed=args.seed,
        )
    lines = [f"m={res.m}", f"pre_root={_fmt(res.pre_root)}", f"zbethe_m={_fmt(res.value)}"]
    if res.stderr is not None:
        lines.append(f"samples={res.samples}")
        lines.append(f"stderr={_fmt(res.stderr)}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_zbethe_min(args):
    nfg = parse_nfg(args.nfg)
    res = minimize_bethe(nfg, args.temperature, n_starts=args.starts, seed=args.seed)
    lines = [f"f_min={_fmt(res.f_min)}"]
    if res.z_bethe is not None:
        lines.append(f"zbethe={_fmt(res.z_bethe)}")
    lines.append(f"converged={str(res.converged).lower()}")
    lines.append(f"tie={str(res.tie).lower()}")
    _write(args, "\n".join(lines) + "\n")
    _dump_beta(args, res.beta)
    return EXIT_OK if res.converged else EXIT_NONCONV


def cmd_preimage_count(args):
    nfg = parse_nfg(args.nfg)
    if args.method == "closed" and (args.cover_cap is not None or args.config_cap is not None):
        raise ParseError("--method closed reads no cap")
    with open(args.beta, "r", encoding="utf-8") as fh:
        beta = parse_beta(nfg, fh.read())
    lines = []
    if args.method in ("closed", "both"):
        c = preimage_count_closedform(nfg, args.m, beta)
        lines.append(f"closedform={_fmt(c)}")
    if args.method in ("brute", "both"):
        c = preimage_count_bruteforce(nfg, args.m, beta, cap=args.cover_cap,
                                      config_cap=args.config_cap)
        lines.append(f"bruteforce={_fmt(c)}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_covers(args):
    nfg = parse_nfg(args.nfg)
    if args.count_only and (args.cover_cap is not None or args.config_cap is not None):
        raise ParseError("--count-only reads no cap")
    if args.count_only and args.zgibbs:
        raise ParseError("--count-only reports no --zgibbs")
    if args.config_cap is not None and not args.zgibbs:
        raise ParseError("--config-cap needs --zgibbs")
    if args.count_only:
        _write(args, f"count={count_covers(nfg, args.m)}\n")
        return EXIT_OK
    specs = list(enumerate_covers(nfg, args.m, cap=args.cover_cap))
    chunks = [emit_cover_spec(spec) for spec in specs]
    if args.zgibbs:
        zs = cover_partitions(nfg, args.m, map(cover_perm_inv, specs), 1, cap=args.config_cap)
        chunks = [chunk + f"zgibbs={_fmt(z)}\n" for chunk, z in zip(chunks, zs)]
    _write(args, "".join(chunks))
    return EXIT_OK


def cmd_spa(args):
    nfg = parse_nfg(args.nfg)
    state, beliefs = sum_product(
        nfg, max_iters=args.max_iters, damping=args.damping, tol=args.tol,
        temperature=args.temperature, collect_trace=args.trace is not None,
    )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(state.trace_csv())
    lines = [
        f"converged={str(state.converged).lower()}",
        f"iterations={state.iterations}",
        f"residual={_fmt(state.residual)}",
    ]
    try:
        ev = bethe_terms(nfg, beliefs, args.temperature, tol=1e-6)
        lines.append(f"f_bethe={_fmt(ev.f_bethe)}")
    except GcbError:
        pass
    _write(args, "\n".join(lines) + "\n")
    _dump_beta(args, beliefs)
    return EXIT_OK if state.converged else EXIT_NONCONV


def cmd_bme(args):
    nfg = parse_nfg(args.nfg)
    half = nfg.half_edge_order
    values = [parse_number(tok) for tok in args.omega.split(",")]
    if len(values) != len(half):
        raise ParseError(f"omega has {len(values)} entries, graph has {len(half)} half-edges")
    res = bme_completion(nfg, dict(zip(half, values)))
    lines = [f"h_induced={_fmt(res.h_induced)}"]
    for f in sorted(res.check_duals):
        for e in sorted(res.check_duals[f]):
            lines.append(f"dual_{f}_{e}={_fmt(res.check_duals[f][e])}")
    _write(args, "\n".join(lines) + "\n")
    _dump_beta(args, res.beta)
    return EXIT_OK


def cmd_decode(args):
    if args.degree is not None and args.decoder in ("bmapd", "smapd"):
        raise ParseError(f"--degree needs --decoder bgcd or sgcd, not {args.decoder}")
    if args.cover_cap is not None and args.degree is None:
        raise ParseError("--cover-cap needs --degree")
    h = _load_pcm(args)
    nfg_code = nfg_from_parity_check(h)
    with open(args.channel, "r", encoding="utf-8") as fh:
        channel = Channel.from_table_text(fh.read())
    with open(args.y, "r", encoding="utf-8") as fh:
        y = fh.read().split()
    dec = attach_channel(nfg_code, channel, y, cap=args.config_cap)
    decoder = {"bmapd": bmapd, "smapd": smapd, "bgcd": bgcd, "sgcd": sgcd}[args.decoder]
    if args.decoder in ("bmapd", "smapd"):
        result = decoder(dec, cap=args.config_cap)
    else:
        result = decoder(dec, degree=args.degree, cap=args.cover_cap, config_cap=args.config_cap)
    lines = [
        f"decision={''.join(str(s) for s in result.decisions)}",
        f"tie={str(result.tie).lower()}",
    ]
    if result.objective is not None:
        lines.append(f"objective={_fmt(result.objective)}")
    # bgcd without --degree: whether diffusion pinned the optimum, and its sweeps
    if "certified" in result.diagnostics:
        lines.append(f"certified={str(result.diagnostics['certified']).lower()}")
        lines.append(f"sweeps={result.diagnostics['sweeps']}")
    for e in dec.symbol_edges:
        d = result.symbol_beliefs[e]
        belief = " ".join(f"{s}:{_fmt(d.get(s, 0))}" for s in range(nfg_code.alphabet_sizes[e]))
        lines.append(f"belief_{e}={belief}")
    _write(args, "\n".join(lines) + "\n")
    if result.beliefs is not None:
        _dump_beta(args, result.beliefs)
    # sgcd without --degree reports whether the gap read off its messages certified it
    return EXIT_OK if result.diagnostics.get("converged", True) else EXIT_NONCONV


def cmd_ldpc_curve(args):
    report = curve_scan(args.dl, args.dr, args.smin, args.smax, args.steps)
    _write(args, curve_csv(report))
    shape = [
        f"negative_near_zero={str(report.negative_near_zero).lower()}",
        f"min_h_nats={_fmt(report.min_h_nats)}",
        f"peak_omega={_fmt(report.peak_omega)}",
        f"peak_h_nats={_fmt(report.peak_h_nats)}",
        f"convex_intervals={report.convex_intervals}",
        f"concave_intervals={report.concave_intervals}",
    ]
    print("\n".join(shape), file=sys.stderr)
    return EXIT_OK


def _data_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "data", name)


def _case_fig1_enumerate() -> str:
    nfg = parse_nfg(_data_path("fig1.nfg"))
    configs = enumerate_configurations(nfg)
    lines = _config_lines(nfg, configs)
    chalf = sorted({(c["e1"], c["e4"]) for c, _ in configs})
    lines.append("chalf=" + " ".join("".join(map(str, x)) for x in chalf))
    ok, t, _ = check_represents_code(nfg, chalf)
    lines.append(f"represents={str(ok).lower()}")
    lines.append(f"t_n={t}")
    return "\n".join(lines) + "\n"


def _case_fig5_phi2() -> str:
    nfg = parse_nfg(_data_path("fig1.nfg"))
    with open(_data_path("fig5.cover"), "r", encoding="utf-8") as fh:
        spec = parse_cover_spec(nfg, fh.read())
    with open(_data_path("fig5.config"), "r", encoding="utf-8") as fh:
        config = _load_assignment(fh.read())
    beta = phi_m(spec, config)
    return emit_beta(beta)


def _case_dumbbell_zbethe2() -> str:
    nfg = parse_nfg(_data_path("dumbbell.nfg"))
    res = zbethe_m_enumeration(nfg, 2)
    res_t = zbethe_m_typesum(nfg, 2)
    lines = [
        f"zgibbs={_fmt(gibbs_partition(nfg))}",
        f"pre_root={_fmt(res.pre_root)}",
        f"pre_root_typesum={_fmt(res_t.pre_root)}",
        f"match={str(res.pre_root == res_t.pre_root).lower()}",
        f"Z_B,2 = sqrt({_fmt(res.pre_root)}) = {res.value:.8f}...",
    ]
    return "\n".join(lines) + "\n"


EXAMPLE_CASES = {
    "fig1-enumerate": _case_fig1_enumerate,
    "fig5-phi2": _case_fig5_phi2,
    "dumbbell-zbethe2": _case_dumbbell_zbethe2,
}


def cmd_examples(args):
    cases = [args.case] if args.case else sorted(EXAMPLE_CASES)
    failures = 0
    out_lines = []
    for name in cases:
        if name not in EXAMPLE_CASES:
            raise ParseError(f"unknown case {name!r}; have {sorted(EXAMPLE_CASES)}")
        produced = EXAMPLE_CASES[name]()
        golden_path = _data_path(os.path.join("goldens", f"{name}.txt"))
        if args.regen:
            with open(golden_path, "w", encoding="utf-8") as fh:
                fh.write(produced)
            out_lines.append(f"{name}: regenerated")
            continue
        with open(golden_path, "r", encoding="utf-8") as fh:
            golden = fh.read()
        if produced == golden:
            out_lines.append(f"{name}: ok")
        else:
            failures += 1
            out_lines.append(f"{name}: MISMATCH")
            print(f"--- {name} expected ---\n{golden}", file=sys.stderr)
            print(f"--- {name} produced ---\n{produced}", file=sys.stderr)
        if args.show:
            out_lines.append(produced.rstrip("\n"))
    _write(args, "\n".join(out_lines) + "\n")
    return EXIT_OK if failures == 0 else 1


# -- argument wiring --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 3; 2 means a cap was exceeded."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _add_common(p, config_cap=False, cover_cap=False):
    p.add_argument("--out", help="write the primary report here instead of stdout")
    if config_cap:
        p.add_argument("--config-cap", type=int, default=None,
                       help="configuration cap override (per cover; for zbethe-m --method typesum, "
                            "the count vectors of each factor and the entries of each table the "
                            "elimination builds)")
    if cover_cap:
        p.add_argument("--cover-cap", type=int, default=None, help="cover cap override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcb",
        description="Bethe entropy and partition functions via finite graph covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list valid configurations")
    p.add_argument("--nfg", required=True)
    _add_common(p, config_cap=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("zgibbs", help="Gibbs partition sum")
    p.add_argument("--nfg", required=True)
    p.add_argument("-T", "--temperature", type=float, default=1)
    p.add_argument("--cover", help="evaluate on the cover built from this spec file")
    _add_common(p, config_cap=True)
    p.set_defaults(func=cmd_zgibbs)

    p = sub.add_parser("zbethe-m", help="degree-M Bethe partition function")
    p.add_argument("--nfg", required=True)
    p.add_argument("-M", "--m", type=int, required=True)
    p.add_argument("-T", "--temperature", type=float, default=1)
    p.add_argument("--method", choices=["enum", "typesum"], default="enum")
    p.add_argument("--precision", choices=["exact", "float", "auto"], default="auto")
    p.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=None)
    _add_common(p, config_cap=True, cover_cap=True)
    p.set_defaults(func=cmd_zbethe_m)

    p = sub.add_parser("zbethe-min", help="minimize the Bethe free energy")
    p.add_argument("--nfg", required=True)
    p.add_argument("-T", "--temperature", type=float, default=1)
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-beta")
    _add_common(p)
    p.set_defaults(func=cmd_zbethe_min)

    p = sub.add_parser("preimage-count", help="average pre-image count of a beta")
    p.add_argument("--nfg", required=True)
    p.add_argument("-M", "--m", type=int, required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--method", choices=["closed", "brute", "both"], default="closed")
    _add_common(p, config_cap=True, cover_cap=True)
    p.set_defaults(func=cmd_preimage_count)

    p = sub.add_parser("covers", help="enumerate cover specifications")
    p.add_argument("--nfg", required=True)
    p.add_argument("-M", "--m", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--zgibbs", action="store_true", help="also report each cover's partition sum")
    _add_common(p, config_cap=True, cover_cap=True)
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("spa", help="run the sum-product algorithm")
    p.add_argument("--nfg", required=True)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("-T", "--temperature", type=float, default=1)
    p.add_argument("--dump-beta")
    p.add_argument("--trace", help="write a CSV convergence trace here")
    _add_common(p)
    p.set_defaults(func=cmd_spa)

    p = sub.add_parser("bme", help="max-entropy completion of half-edge marginals")
    p.add_argument("--nfg", required=True)
    p.add_argument("--omega", required=True, help="comma-separated marginals of symbol 1")
    p.add_argument("--dump-beta")
    _add_common(p)
    p.set_defaults(func=cmd_bme)

    p = sub.add_parser("decode", help="decode a received vector")
    p.add_argument("--decoder", choices=["bmapd", "smapd", "bgcd", "sgcd"], required=True)
    p.add_argument("--pcm", help="dense 0/1 parity-check matrix file")
    p.add_argument("--alist", help="alist parity-check matrix file")
    p.add_argument("--channel", required=True, help="'W <y> <x> <prob>' table file")
    p.add_argument("--y", required=True, help="received vector file")
    p.add_argument("--degree", type=int, default=None, help="literal degree-M decoder")
    p.add_argument("--dump-beta")
    _add_common(p, config_cap=True, cover_cap=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("ldpc-curve", help="regular-code diagonal entropy curve")
    p.add_argument("--dl", type=int, required=True)
    p.add_argument("--dr", type=int, required=True)
    p.add_argument("--smin", type=float, default=-3.0)
    p.add_argument("--smax", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=601)
    _add_common(p)
    p.set_defaults(func=cmd_ldpc_curve)

    p = sub.add_parser("examples", help="replay bundled case studies against goldens")
    p.add_argument("--case", default=None)
    p.add_argument("--show", action="store_true")
    p.add_argument("--regen", action="store_true", help="rewrite the goldens")
    _add_common(p)
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OverflowError as exc:
        print(f"error: a value left the float range: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except GcbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
