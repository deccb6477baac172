"""secsource benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout (the package is
imported from ./src) as a closed loop with one client: whole rounds of a
fixed list of operations, one after another, until S seconds have passed.
It checks every output against bench/oracles.py and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy loads; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}

# name -> unit; every traced run prints all of them, 0 where the workload
# does not exercise the layer.
PER_LAYER = {
    "regions.trace_region.s_per_target.u3": "s",
    "regions.trace_region.s_per_target.udefault": "s",
    "regions.grid_minimum_storage.s": "s",
    "regions.trace_region.s_per_target.generic": "s",
    "regions.lossy_point.calls": "count",
    "regions.lossy_point.us_per_call": "us",
    "regions.extend_with_auxiliaries.calls": "count",
    "regions.extend_with_auxiliaries.us_per_call": "us",
    "regions.rw_gap_bits.u3": "bits",
    "regions.rw_gap_bits.udefault": "bits",
    "probability.mutual_information.calls": "count",
    "probability.mutual_information.us_per_call": "us",
    "binning.log2_competitor_count.calls": "count",
    "binning.log2_competitor_count.ms_per_call": "ms",
    "binning.collision.ms_per_trial": "ms",
    "binning.explicit.ms_per_trial": "ms",
    "binning.exact_message_table.s": "s",
    "binning.exact_leakage.self_s": "s",
    "binning.exact_leakage.s.n10": "s",
    "binning.exact_leakage.s.n12": "s",
    "binning.design_code.ms": "ms",
    "binning.error_rate_z": "sigma",
    "gaussian.gaussian_mmse_check.ms": "ms",
    "channels.check_stochastic_degraded.ms": "ms",
    "channels.less_noisy_falsify.ms": "ms",
    "modelio.parse_model.ms": "ms",
    "cli.import_s": "s",
    "cli.compute_region.s": "s",
    "cli.lossless_region.s": "s",
    "cli.gaussian.s": "s",
    "cli.simulate.s": "s",
    "cli.check_channel.s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    """Import secsource from ./src of this checkout, and nowhere else."""
    src = ROOT / "src"
    if not (src / "secsource" / "__init__.py").is_file():
        _fail(f"no package source at {src}/secsource; run from a secsource checkout")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    import secsource

    if Path(secsource.__file__).resolve().parent != (src / "secsource").resolve():
        _fail(f"secsource imported from {secsource.__file__}, not from {src}")


def _machine() -> str:
    import numpy
    import scipy

    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"machine={platform.machine()} system={platform.system()}")


def _setup_seconds(code: str) -> list[float]:
    """Wall time of fresh interpreters running the workload's set-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            _fail(f"set-up exited {proc.returncode}:\n{proc.stderr}")
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    traced = bool(args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    print(f"machine: {_machine()}", flush=True)

    tracer, setup_tracer = Tracer(), Tracer()
    work = WORKLOADS[args.workload](ROOT, args.seed, OUT / args.workload, tracer)
    if traced:
        with setup_tracer.patched():
            work.setup()
    else:
        work.setup()
    setup_samples = _setup_seconds(work.setup_snippet or work.setup_code())

    # Closed loop, one client.  A traced run alternates traced and untraced
    # rounds; the difference of their medians is the tracing overhead.
    plain, with_spans = [], []
    start = time.perf_counter()
    index = 0
    while True:
        traced_round = traced and index % 2 == 1
        t0 = time.perf_counter()
        if traced_round:
            with tracer.patched():
                work.round(index, True)
        else:
            work.round(index, False)
        (with_spans if traced_round else plain).append(time.perf_counter() - t0)
        index += 1
        if time.perf_counter() - start >= args.seconds and (not traced or (plain and with_spans)):
            break
    peak_rss_mb = _peak_rss_mb(children=args.workload == "cli_readme")

    work.run_checks()
    for message in work.failures:
        print(f"check failed: {message}", file=sys.stderr)
    correct = not work.failures

    if traced:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(work.layer_metrics(tracer.summary(), setup_tracer.summary(),
                                         len(with_spans)))
        if args.workload == "cli_readme":
            values["cli.import_s"] = statistics.median(setup_samples)
        overhead = statistics.median(with_spans) - statistics.median(plain)
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json.gz")
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "round_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    info = work.info(len(plain) + len(with_spans))
    print(f"workload: {args.workload} seed={args.seed} rounds={len(plain)} "
          f"traced_rounds={len(with_spans)} attempted={work.attempted} failed={work.failed} "
          f"correct={correct}")
    print("rounds_s: " + " ".join(f"{t:.4f}" for t in plain)
          + ("  traced: " + " ".join(f"{t:.4f}" for t in with_spans) if traced else ""))
    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_samples))
    for key, value in info.items():
        print(f"{key}: {value:.6g}")
    result = {"correct": correct, "attempted": work.attempted, "failed": work.failed,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "info": info, "rounds_s": plain, "traced_rounds_s": with_spans,
                    "setup_samples_s": setup_samples, "check_failures": work.failures},
                   indent=1))
    print(json.dumps(result))
    return 0


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


if __name__ == "__main__":
    sys.exit(main())
