"""One workload in one fresh process; started by ``run.py``, not by hand.

Modes:
  setup   import ssfgw, make the inputs, warm up every op kind, report when
          that finished, and exit.
  timed   setup, then one caller runs the op cycle back to back (closed loop)
          until ``--seconds`` have passed at a cycle boundary, or for exactly
          ``--ops`` ops when given; then the reference check.
  traced  as timed, with the span tracer installed around the timed ops only,
          and without the reference check.

Prints one JSON object as its last stdout line. The end of set-up is given
on ``time.monotonic``, a clock shared by all processes of the machine, so
that ``run.py`` can measure set-up from the moment it started the process.
"""

import argparse
import dataclasses
import enum
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_ssfgw():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ssfgw

    if Path(ssfgw.__file__).resolve().parent != src / "ssfgw":
        raise ImportError(f"imported ssfgw from {ssfgw.__file__}, not from {src}")
    return ssfgw


def _feed(h, obj) -> None:
    """Hash a returned value: arrays by dtype, shape and bytes; dataclasses by
    their fields; containers element by element."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            _feed(h, getattr(obj, field.name))
    elif isinstance(obj, (tuple, list)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}".encode())
        for key in sorted(obj, key=str):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, enum.Enum):
        _feed(h, obj.value)
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode())
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def make_probe(n: int, reps: int):
    """A fixed piece of work that uses no ssfgw code, shaped like the
    workload's slices: project 50 directions of an n-point cloud, stable-sort
    each row, take centered moments and scatter back, plus a Python-level
    loop, ``reps`` times. The returned callable gives the seconds it took.
    Run next to every op, it tracks how fast the shared machine is running."""
    import numpy as np

    rng = np.random.default_rng(12345)
    X = rng.standard_normal((n, 3))
    thetas = rng.standard_normal((50, 3))

    def probe() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(reps):
            values = thetas @ X.T
            order = np.argsort(values, axis=1, kind="stable")
            ordered = np.take_along_axis(values, order, axis=1)
            centered = ordered - ordered.mean(axis=1, keepdims=True)
            sq = centered * centered
            acc += float(np.sum(sq * sq) + np.sum(sq))
            back = np.empty_like(ordered)
            np.put_along_axis(back, order, centered, axis=1)
            for j in range(16):
                acc += j * 0.5
        return time.perf_counter() - t0

    return probe


def _run_op(op, rng):
    """(result, problems) of one op; an exception is a failed op."""
    try:
        result = op.run(rng)
    except Exception:  # the loop must go on and count the failure
        traceback.print_exc(file=sys.stderr)
        return None, [f"{op.name} raised"]
    return result, op.check(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = parser.parse_args(argv)

    ssfgw = _import_ssfgw()
    import numpy as np
    import scipy

    import workloads
    from tracer import Tracer

    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    ops = workload.ops
    problems = []
    for kind, op in enumerate(ops):
        _, found = _run_op(op, workloads.warmup_rng(args.seed, kind))
        problems += [f"warm-up: {p}" for p in found]
    setup_end = time.monotonic()
    out = {"setup_end": setup_end}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    probe = make_probe(workload.probe_n, workload.probe_reps)
    probe()
    probes = [probe()]  # one before the first op, then one after each op
    seconds = []
    kinds = []
    digests = []
    failed = 0
    cycle_s = []
    last = {}
    index = 0
    window_start = time.perf_counter()
    try:
        while True:
            cycle_start = time.perf_counter()
            for kind, op in enumerate(ops):
                rng = workloads.op_rng(args.seed, index)
                if tracer is not None:
                    tracer.op_id = index
                t0 = time.perf_counter()
                result, found = _run_op(op, rng)
                seconds.append(time.perf_counter() - t0)
                kinds.append(kind)
                probes.append(probe())
                digests.append(digest(result))
                if found:
                    failed += 1
                    problems += [f"op {index}: {p}" for p in found]
                else:
                    last[op.name] = result
                index += 1
            now = time.perf_counter()
            cycle_s.append(now - cycle_start)
            if args.ops is not None:
                if index >= args.ops:
                    break
            elif now - window_start >= args.seconds:
                break
        window = time.perf_counter() - window_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    # ru_maxrss is in KiB on Linux; read before the reference check allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = []
    # a traced run is compared bit for bit with the untraced run instead
    if args.mode == "timed" and len(last) < len(ops):
        problems.append("no successful op of some kind; reference check skipped")
    elif args.mode == "timed":
        for label, X, Y, thetas in workload.reference_cases(last):
            cost_err, grad_err = workloads.reference_errors(X, Y, thetas)
            reference.append({"case": label, "cost_rel_err": cost_err, "grad_rel_err": grad_err})
            if not max(cost_err, grad_err) <= workloads.REL_TOL:
                problems.append(f"reference check failed on {label}")

    out.update(
        window_s=window,
        cycles=len(cycle_s),
        cycle_s=cycle_s,
        op_names=[op.name for op in ops],
        op_metrics=[[op.metric, op.unit, op.steps] for op in ops],
        kinds=kinds,
        seconds=seconds,
        probes=probes,
        digests=digests,
        failed=failed,
        problems=problems,
        reference=reference,
        peak_rss_mb=peak_rss_mb,
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "ssfgw": ssfgw.__version__,
            "backend": ssfgw.backend_name(),
            "numba_imports": bool(ssfgw.NUMBA_AVAILABLE),
        },
    )
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(len(cycle_s))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
