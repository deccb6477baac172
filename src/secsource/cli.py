"""Command-line front end: argument parsing, one handler per subcommand, CSV output.

Subcommands
-----------
compute-region    trace the lossy boundary over distortion targets
lossless-region   evaluate the lossless bounds for a fixed V scheme
gaussian          sweep the closed-form Gaussian boundary over an alpha grid
simulate          run the random-binning codec and report empirical measures
check-channel     degradedness certificate / less-noisy falsification

All randomized commands take an explicit ``--seed`` (default 2022) so every
CSV artifact is reproducible.  CSV columns are fixed per command:
regions -> (d, rw_bits, rs_bits, rl_bits, regime),
gaussian -> (alpha, rw_bits, rs_bits, rl_bits, d),
simulate -> (n, error_rate, distortion, leak_secrecy_bits, leak_privacy_bits).

Each handler imports only the layers its command runs, so ``--help`` and an
argparse error load no numpy, and ``check-channel`` never loads ``regions``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Optional, Sequence

DEFAULT_SEED = 2022

REGION_HEADER = ["d", "rw_bits", "rs_bits", "rl_bits", "regime"]
GAUSSIAN_HEADER = ["alpha", "rw_bits", "rs_bits", "rl_bits", "d"]
SIMULATE_HEADER = ["n", "error_rate", "distortion", "leak_secrecy_bits", "leak_privacy_bits"]


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _run_compute_region(args: argparse.Namespace) -> int:
    from . import modelio, regions
    model = modelio.parse_model(args.model)
    metric = regions.DistortionMetric.hamming(model.xtilde_size)
    search = regions.SearchConfig(
        seed=args.seed,
        u_size=args.u_size,
        v_size=args.v_size,
        q_size=args.q_size,
        method="grid" if args.grid else "lp",
        grid_step=args.grid_step,
    )
    points = regions.trace_region(model, args.r0, metric, args.targets, search)
    rows = [
        [p.rates.d, p.rates.rw, p.rates.rs, p.rates.rl, p.report.regime]
        for p in points
    ]
    _write_csv(args.output, REGION_HEADER, rows)
    print(f"compute-region: {len(rows)} point(s) written to {args.output}")
    return 0


def _run_lossless_region(args: argparse.Namespace) -> int:
    from . import modelio, regions
    from .probability import ModelError, StochasticMatrix, build_joint
    model = modelio.parse_model(args.model)
    joint = build_joint(model)
    if args.aux is not None:
        scheme = modelio.parse_aux(args.aux)
        aux_v = scheme.p_v_given_u
        if aux_v.input_size != model.xtilde_size:
            raise ModelError("lossless aux file must give P(V|Xt): rows over Xt")
    else:
        aux_v = StochasticMatrix.constant(model.xtilde_size, 1)
    report = regions.lossless_point(joint, aux_v, args.r0)
    rows = [[0.0, report.bounds.rw, report.bounds.rs, report.bounds.rl, report.regime]]
    _write_csv(args.output, REGION_HEADER, rows)
    print(
        f"lossless-region: rw={_fmt(report.bounds.rw)} rs={_fmt(report.bounds.rs)} "
        f"rl={_fmt(report.bounds.rl)} regime={report.regime} -> {args.output}"
    )
    return 0


def _run_gaussian(args: argparse.Namespace) -> int:
    from . import gaussian
    model = gaussian.GaussianModel(args.rho_x, args.rho_y, args.rho_z)
    trace = gaussian.gaussian_trace(model, args.alphas)
    rows = [[a, p.rw, p.rs, p.rl, p.d] for a, p in trace]
    _write_csv(args.output, GAUSSIAN_HEADER, rows)
    if args.samples > 0:
        checks = []
        for a, p in trace:
            emp, ana = gaussian.gaussian_mmse_check(model, a, args.samples, args.seed)
            checks.append(f"alpha={_fmt(a)}: empirical={emp:.6f} analytic={ana:.6f}")
        print(
            f"gaussian: {len(rows)} point(s) -> {args.output}; "
            f"MMSE check ({args.samples} samples): " + "; ".join(checks)
        )
    else:
        print(f"gaussian: {len(rows)} point(s) written to {args.output}")
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
    from . import binning, modelio, regions
    from .probability import build_joint
    model = modelio.parse_model(args.model)
    scheme = modelio.parse_aux(args.aux)
    full = regions.extend_with_auxiliaries(build_joint(model), scheme)
    code = binning.design_code(
        full,
        n=args.n,
        epsilon=args.epsilon,
        r0=args.r0,
        seed=args.seed,
        reconstruction=scheme.reconstruction,
        metric=None
        if scheme.reconstruction is not None
        else regions.DistortionMetric.hamming(model.xtilde_size),
    )
    report = binning.run_experiment(code, model, args.trials, seed=args.seed)
    rows = [
        [
            report.n,
            report.error_rate,
            report.distortion,
            report.leak_secrecy,
            report.leak_privacy,
        ]
    ]
    _write_csv(args.output, SIMULATE_HEADER, rows)
    print(
        f"simulate: n={report.n} engine={report.engine} "
        f"error_rate={_fmt(report.error_rate)} -> {args.output}"
    )
    return 0


def _run_check_channel(args: argparse.Namespace) -> int:
    from . import channels, modelio
    if args.channel_pair is not None:
        p_y, p_z = modelio.parse_channel_pair(args.channel_pair)
    else:
        model = modelio.parse_model(args.model)
        p_y, p_z = model.p_y_given_x(), model.p_z_given_x()
    verdict = channels.less_noisy_falsify(p_y, p_z, trials=args.trials, seed=args.seed)
    cert = verdict.certificate
    if cert.feasible:
        print("degraded: yes (decoder channel = eavesdropper channel + post-processing)")
        print(f"residual: {cert.residual:.3e}")
        for i, row in enumerate(cert.witness.rows):
            print(f"witness[{i}]: " + " ".join(_fmt(v) for v in row))
        print("less-noisy: implied by degradedness certificate")
        return 0
    print(f"degraded: no (best residual {cert.residual:.3e})")
    if verdict.falsified:
        print(
            f"less-noisy: falsified after {verdict.trials_run} candidate(s): "
            f"I(L;Y)={_fmt(verdict.i_l_y)} > I(L;Z)={_fmt(verdict.i_l_z)}"
        )
        print("witness p_x: " + " ".join(_fmt(v) for v in verdict.witness_px.probs))
        for i, row in enumerate(verdict.witness_channel.rows):
            print(f"witness p_l_given_x[{i}]: " + " ".join(_fmt(v) for v in row))
    else:
        print(
            f"less-noisy: not falsified in {verdict.trials_run} candidate(s) "
            "(not a proof of the ordering)"
        )
    return 0


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secsource",
        description="Secure/private source-coding rate regions and binning simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cr = sub.add_parser("compute-region", help="trace the lossy region boundary")
    cr.add_argument("--model", type=Path, required=True)
    cr.add_argument("--r0", type=float, default=0.0)
    cr.add_argument("--targets", type=_float_list, required=True,
                    help="comma-separated distortion targets")
    cr.add_argument("--output", type=Path, required=True)
    cr.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="has no effect on this command: its storage search (the "
                         "linear program, or the grid oracle) draws no random numbers")
    cr.add_argument("--u-size", type=int, default=None)
    cr.add_argument("--v-size", type=int, default=None,
                    help="checked against 1 and the sufficient bound, and otherwise "
                         "read by nothing: every search reports a one-symbol V")
    cr.add_argument("--q-size", type=int, default=None,
                    help="refused below 1 and otherwise read by nothing: no bound "
                         "depends on Q")
    cr.add_argument("--grid", action="store_true",
                    help="use the exhaustive simplex-grid oracle")
    cr.add_argument("--grid-step", type=float, default=0.05)
    cr.set_defaults(run=_run_compute_region)

    lr = sub.add_parser("lossless-region", help="evaluate the lossless bounds")
    lr.add_argument("--model", type=Path, required=True)
    lr.add_argument("--r0", type=float, default=0.0)
    lr.add_argument("--aux", type=Path, default=None,
                    help="aux file; p_v_given_u is read as P(V|Xt)")
    lr.add_argument("--output", type=Path, required=True)
    lr.set_defaults(run=_run_lossless_region)

    ga = sub.add_parser("gaussian", help="closed-form Gaussian boundary sweep")
    ga.add_argument("--rho-x", type=float, required=True)
    ga.add_argument("--rho-y", type=float, required=True)
    ga.add_argument("--rho-z", type=float, required=True)
    ga.add_argument("--alphas", type=_float_list, required=True)
    ga.add_argument("--samples", type=int, default=0,
                    help="when > 0, run the Monte-Carlo MMSE check per alpha")
    ga.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ga.add_argument("--output", type=Path, required=True)
    ga.set_defaults(run=_run_gaussian)

    si = sub.add_parser("simulate", help="random-binning codec experiment")
    si.add_argument("--model", type=Path, required=True)
    si.add_argument("--aux", type=Path, required=True)
    si.add_argument("--n", type=int, required=True)
    si.add_argument("--epsilon", type=float, required=True)
    si.add_argument("--r0", type=float, default=0.0)
    si.add_argument("--trials", type=int, required=True)
    si.add_argument("--seed", type=int, default=DEFAULT_SEED)
    si.add_argument("--output", type=Path, required=True)
    si.set_defaults(run=_run_simulate)

    cc = sub.add_parser("check-channel", help="degradedness / less-noisy check")
    group = cc.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", type=Path)
    group.add_argument("--channels", type=Path, dest="channel_pair")
    cc.add_argument("--trials", type=int, default=200)
    cc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cc.set_defaults(run=_run_check_channel)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .probability import ModelError  # after parsing: --help loads no numpy
    try:
        for flag in ("seed", "samples"):  # refused before any work or output
            if getattr(args, flag, 0) < 0:
                raise ModelError(f"--{flag} must be >= 0, got {getattr(args, flag)}")
        return args.run(args)
    except (ValueError, RuntimeError) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
