"""Benchmark of the periplectic library, its codec and its CLI.

Run from the repository root:

    python3 perfbench/run.py --workload endo_dense --seed 1 --seconds 30 --trace 0

Workloads: endo_dense, classify_mix, cli_roundtrip (see README.md).  The
run repeats its workload's fixed batch, in whole rounds, until --seconds
of wall time have passed, checks every output, and prints as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
library is wrapped in spans and counters and the metrics are per layer.
The line before it records the machine, the raw ms of one ref and the raw
timings.  Run records and traces go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("endo_dense", "classify_mix", "cli_roundtrip")
# operation CPU between ref passes; cli_roundtrip also runs one pass between
# consecutive children.  Ref passes take 3% to 7% of a run's CPU.
REF_EVERY_S = {"endo_dense": 0.0, "classify_mix": 0.15, "cli_roundtrip": 0.0}
SETUP_PROBES = 9
# setup_s is wall time scaled to a machine on which one ref pass takes this
# long: the host here changed speed by 2.7x within half an hour, which
# moved the raw set-up median of a workload by 2.4x between two sets of runs
REF_SCALE_S = 0.010
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"op_p50_ref": "ref", "work_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric: (unit, tracer key); values are per round of the batch
PER_LAYER = {
    "linalg.GaussRat.mul_calls": ("count", "linalg.GaussRat.mul_calls"),
    "linalg.GaussRat.add_calls": ("count", "linalg.GaussRat.add_calls"),
    "linalg.GaussRat.div_calls": ("count", "linalg.GaussRat.div_calls"),
    "linalg.as_gauss.calls": ("count", "linalg.as_gauss.calls"),
    "linalg.Mat.mul_calls": ("count", "linalg.Mat.__mul__.calls"),
    "linalg.Mat.mul_self_s": ("s", "linalg.Mat.__mul__.self_s"),
    "linalg.rank.calls": ("count", "linalg.rank.calls"),
    "linalg.rank.cells": ("count", "linalg.rank.cells"),
    "linalg.rank.self_s": ("s", "linalg.rank.self_s"),
    "linalg.kernel_and_pivots.calls": ("count", "linalg.kernel_and_pivots.calls"),
    "linalg.kernel_and_pivots.cells": ("count", "linalg.kernel_and_pivots.cells"),
    "linalg.kernel_and_pivots.self_s": ("s", "linalg.kernel_and_pivots.self_s"),
    "linalg.commutant_basis.self_s": ("s", "linalg.commutant_basis.self_s"),
    "linalg.commutant_basis.eq_cells": ("count", "linalg.commutant_basis.eq_cells"),
    "linalg.max_entry_bits": ("bits", "linalg.max_entry_bits"),
    "algebra.verify_periplectic.self_s": ("s", "algebra.verify_periplectic.self_s"),
    "algebra.rep_to_json.self_s": ("s", "algebra.rep_to_json.self_s"),
    "algebra.rep_from_json.self_s": ("s", "algebra.rep_from_json.self_s"),
    "algebra.rep_json.bytes": ("bytes", "algebra.rep_json.bytes"),
    "reps.build_rep.self_s": ("s", "reps.build_rep.self_s"),
    "reps.seed_from_json.self_s": ("s", "reps.seed_from_json.self_s"),
    "rhizome.analyze.calls": ("count", "rhizome.analyze.calls"),
    "rhizome.analyze.self_s": ("s", "rhizome.analyze.self_s"),
    "rhizome.bipartite_components.calls": ("count", "rhizome.bipartite_components.calls"),
    "rhizome.bipartite_components.self_s": ("s", "rhizome.bipartite_components.self_s"),
    "rhizome.scaling_normalize.calls": ("count", "rhizome.scaling_normalize.calls"),
    "rhizome.scaling_normalize.self_s": ("s", "rhizome.scaling_normalize.self_s"),
    "classify.endo_report.self_s": ("s", "classify.endo_report.self_s"),
    "classify.indecomposable.self_s": ("s", "classify.indecomposable.self_s"),
    "classify.indecomposable.rank_calls": ("count", "classify.indecomposable.rank_calls"),
    "classify.canonical_form.self_s": ("s", "classify.canonical_form.self_s"),
    "classify.isomorphic.self_s": ("s", "classify.isomorphic.self_s"),
    "classify.isomorphic.analyze_calls": ("count/call", "classify.isomorphic.analyze_calls_total"),
    "classify.split_weight_blocks.self_s": ("s", "classify.split_weight_blocks.self_s"),
    "classify.split_core.self_s": ("s", "classify.split_core.self_s"),
    "cli.startup_s": ("s", "cli.startup_s"),
    "cli.construct.self_s": ("s", "cli.construct.self_s"),
    "cli.verify.self_s": ("s", "cli.verify.self_s"),
    "cli.split.self_s": ("s", "cli.split.self_s"),
    "cli.indecomposable.self_s": ("s", "cli.indecomposable.self_s"),
    "cli.canonical.self_s": ("s", "cli.canonical.self_s"),
    "cli.stdout_bytes": ("bytes", "cli.stdout_bytes"),
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up as a run would, report when the first operation could start, exit
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _prepare(args: argparse.Namespace, tracer, workdir: Path, tick):
    """The workload's set-up: imports, then its inputs decoded or written."""
    if args.workload == "cli_roundtrip":
        import cliwork

        return cliwork.cli_roundtrip(args.seed, tracer, ROOT, workdir, tick)
    import inproc

    if tracer is not None:
        import tracing

        tracing.install(tracer)
    return getattr(inproc, args.workload)(args.seed, tracer)


def _setup_s(args: argparse.Namespace) -> tuple[float, float]:
    """Set-up time over fresh processes, from spawn to the point where the
    first operation would start: (median in seconds at REF_SCALE_S per ref,
    median raw wall seconds).  Each probe's wall time is divided by the
    mean of the ref passes timed just before and after it."""
    from meter import ref_pass_s

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        refs = [ref_pass_s(), ref_pass_s()]
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            if probe.wait(timeout=PROBE_TIMEOUT_S) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        refs += [ref_pass_s(), ref_pass_s()]
        raw.append(ready - start)
        scaled.append((ready - start) / statistics.mean(refs) * REF_SCALE_S)
    return statistics.median(scaled), statistics.median(raw)


def _layer_metrics(stats: dict, rounds: int) -> dict:
    metrics = {}
    for name, (unit, key) in PER_LAYER.items():
        value = stats.get(key, 0)
        if name == "classify.isomorphic.analyze_calls":
            calls = stats.get("classify.isomorphic.calls", 0)
            value = value / calls if calls else 0
        elif name != "linalg.max_entry_bits":
            value = value / rounds
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "periplectic" / "__init__.py").is_file():
        print(f"perfbench: no periplectic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args: argparse.Namespace, workdir: Path) -> int:
    tracer = None
    if args.trace and not args.setup_probe:
        import tracing

        tracer = tracing.Tracer()
    from meter import Meter

    meter = Meter(REF_EVERY_S[args.workload])
    ops = _prepare(args, tracer, workdir, meter.tick)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    from checks import CheckFailed

    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + args.seconds
    round_no = 0
    while True:
        for op in ops:
            meter.before_op()
            attempted += 1
            if tracer is not None:
                tracer.op = attempted - 1
            try:
                start = time.perf_counter()
                cpu, out = op.run()
                meter.record(round_no, op.kind, cpu, start, time.perf_counter())
                op.check(out, round_no == 0)
            except CheckFailed as exc:
                failed += 1
                correct = False
                print(f"perfbench: wrong {op.kind} output: {exc}", file=sys.stderr)
            except Exception:
                failed += 1
                print(f"perfbench: {op.kind} operation failed", file=sys.stderr)
                traceback.print_exc()
        round_no += 1
        if time.perf_counter() >= deadline:
            break

    if args.workload == "cli_roundtrip":
        import cliwork

        peak_rss_mb = cliwork.children_peak_rss_mb()
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = meter.summary() if meter.ops else {}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "ops_per_round": len(ops),
        **summary,
    }
    if tracer is None:
        setup_s, info["raw_setup_s"] = _setup_s(args)
        values = {
            "op_p50_ref": summary.get("op_p50_ref", 0.0),
            "work_ref": summary.get("work_ref", 0.0),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    else:
        metrics = _layer_metrics(tracer.stats, round_no)
        tracer.dump(str(OUT / f"trace-{args.workload}-s{args.seed}.json"))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json"
    samples = {"refs": meter.refs, "ops": meter.ops}
    record.write_text(json.dumps({"info": info, "result": result, "samples": samples}), encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
