"""ssfgw benchmark: engine calls, flows and large-n evaluations, end to end
and layer by layer.

    python3 perfbench/run.py --workload engines-small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds ``src/ssfgw``; the benchmark
imports ssfgw from there. Every workload runs in fresh worker processes
(``worker.py``) with the BLAS/OpenMP thread counts pinned to 1. One caller
runs the workload's op cycle back to back (a closed loop).

``--trace 0`` measures the end-to-end metrics:

  setup_s       interpreter start to the first timed op: ``import ssfgw``,
                input generation and one untimed warm-up call of every op
                kind. Median of five fresh processes.
  peak_rss_mb   peak RSS of the timed process, read before the output check.
  cycle_probes  median time of one cycle of the workload's op mix, with each
                op's time divided by the time of a fixed probe run next to it
                (``worker.make_probe``: numpy and Python work shaped like the
                workload's slices that uses no ssfgw code).

Why probe units: this shared 2-core VM changes speed by up to 2x within
seconds and by tens of percent between minutes. Wall-clock medians of 10-15 s
runs spread 15-20% (quartile distance over median, across seeds) on the
engines-small and flow workloads; the probe-scaled cycle spreads 2-6%. The
wall-clock figures are still printed, as information: the median time of
every op kind with its sample count and tail, ops per second, the raw cycle
time, the probe's own time and the failed-op ratio, together with the
machine, the build and a digest of the first cycle's results.

``--trace 1`` runs the workload untraced for ``--seconds``, then replays
exactly the same ops with the span tracer installed. It reports the traced
run's per-layer metrics, per cycle of the op mix, and the traced run's extra
time over the untraced one (probe-scaled) as ``trace.overhead``. Both runs
must return bit-identical results.

Either way the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Output checks: every
op's result is checked (finite, non-negative values, decreasing flow trace,
negative convergence slope) and, after the timed window, the batched slice
evaluation is compared with the O(n^2) reference on the workload's inputs and
on the states its ops reached. Records and spans are written under
``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = "1"
    # no .pyc files in the checkout, and the same compile work in every process
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(args, mode: str, extra=()) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    launched = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["setup_end"] - launched
    return record


# -- machine and build record ----------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    parts = []
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            parts.append(f"L{level} {size} (cpus {shared})")
    return ", ".join(parts) or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def machine_record(versions: dict, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _caches(),
        **versions,
        "blas_threads": 1,
        "commit": _commit(),
        "seed": seed,
    }


# -- statistics -------------------------------------------------------------


def tail(values):
    """(label, value) of the highest of p90/p99/p99.9 with at least ten
    samples beyond it, or None when there are fewer than 100 samples."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for label, q in (("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999)):
        if n * (1.0 - q) >= 10:
            best = (label, ordered[min(n - 1, int(q * n))])
    return best


def probe_scaled(record) -> list:
    """Every op's time divided by the median of the three probes around its
    end: the one before it, the one after it and the one after the next op."""
    probes = record["probes"]
    return [t / statistics.median(probes[i : i + 3]) for i, t in enumerate(record["seconds"])]


def cycle_probes(record) -> float:
    """Median over cycles of the cycle's probe-scaled op times."""
    scaled = probe_scaled(record)
    m = len(record["op_names"])
    return statistics.median(sum(scaled[i : i + m]) for i in range(0, len(scaled), m))


def per_kind_lines(record) -> list:
    lines = []
    scaled = probe_scaled(record)
    for kind, (metric, unit, steps) in enumerate(record["op_metrics"]):
        times = [s for s, k in zip(record["seconds"], record["kinds"]) if k == kind]
        in_probes = statistics.median(x for x, k in zip(scaled, record["kinds"]) if k == kind)
        med = statistics.median(times)
        t = tail(times)
        if unit == "ms":
            text = f"{metric:<20} {med * 1e3:12.4f} ms   median of {len(times)}"
            if t:
                text += f", {t[0]} {t[1] * 1e3:.4f} ms"
        else:
            text = f"{metric:<20} {steps / med:12.2f} {unit}   median of {len(times)}"
            if t:
                text += f", {t[0]} {steps / t[1]:.2f} {unit}"
        text += "" if t else ", no tail (n < 100)"
        lines.append(text + f"; {in_probes:.4g} probes")
    return lines


# -- modes ------------------------------------------------------------------


def end_to_end(args) -> tuple:
    setups = [_worker(args, "setup")]
    timed = _worker(args, "timed")
    setups.append(timed)
    setups += [_worker(args, "setup") for _ in range(SETUP_SAMPLES - 2)]
    ops = len(timed["seconds"])
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "cycle_probes": (cycle_probes(timed), "probe"),
    }
    info = per_kind_lines(timed)
    info += [
        f"{'ops_per_s':<20} {ops / timed['window_s']:12.4f} 1/s  (wall clock, probes included)",
        f"{'cycle_ms':<20} {statistics.median(timed['cycle_s']) * 1e3:12.4f} ms   median of {timed['cycles']}",
        f"{'probe_ms':<20} {statistics.median(timed['probes']) * 1e3:12.4f} ms   median of {len(timed['probes'])}",
        f"{'failed_ratio':<20} {timed['failed'] / ops:12.4f}      of {ops} ops",
    ]
    info.append(f"setup samples s: {[round(r['setup_s'], 4) for r in setups]}")
    return timed, metrics, info, []


def per_layer(args) -> tuple:
    untraced = _worker(args, "timed")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-spans.json"
    ops = len(untraced["seconds"])
    traced = _worker(args, "traced", ("--ops", str(ops), "--spans", str(spans)))
    problems = [f"untraced run: {p}" for p in untraced["problems"]]
    traced["reference"] = untraced["reference"]
    if traced["digests"] != untraced["digests"]:
        problems.append("traced results differ from untraced results")
    layers = dict(traced["layers"])
    layers["trace.overhead"] = sum(probe_scaled(traced)) / sum(probe_scaled(untraced)) - 1.0
    units = {name: unit for name, unit, _ in metric_specs()}
    metrics = {name: (layers[name], units[name]) for name in units}
    info = [
        f"untraced window {untraced['window_s']:.4f} s, traced {traced['window_s']:.4f} s "
        f"for the same {ops} ops; spans in {spans.relative_to(ROOT)}",
    ]
    return traced, metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ssfgw benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ssfgw" / "__init__.py").is_file():
        print(f"error: no ssfgw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, metrics, info, problems = (per_layer if args.trace else end_to_end)(args)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = record["problems"] + problems
    attempted = len(record["seconds"])
    machine = machine_record(record["versions"], args.seed)
    result_digest = record["digests"][: len(record["op_names"])]
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# workload {args.workload}: {record['cycles']} cycles of {record['op_names']}, "
          f"{attempted} ops in {record['window_s']:.3f} s, one caller (closed loop)")
    for case in record["reference"]:
        print(f"# reference check on {case['case']}: cost rel err {case['cost_rel_err']:.3e}, "
              f"grad rel err {case['grad_rel_err']:.3e}")
    print(f"# result_digest (first cycle, not gated): {' '.join(result_digest)}")
    for line in info:
        print("# " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:.6g} {unit}")
    for problem in problems:
        print(f"# problem: {problem}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"machine": machine, "metrics": metrics, "info": info, "problems": problems,
                   "reference": record["reference"], "result_digest": result_digest}, fh, indent=1)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
