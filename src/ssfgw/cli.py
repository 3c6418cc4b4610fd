"""Command-line front end.

Subcommands: ``discrepancy``, ``sweep-kappa``, ``convergence``, ``flow``,
``gmm-fit``. Results go to a long-format CSV (metric, parameter, value,
std_error) plus a JSON metadata sidecar echoing the configuration and seed;
with no ``--output`` the CSV goes to stdout and no sidecar is written. Floats
are serialized with their shortest round-trip representation so reruns diff
cleanly. Exit codes: 0 success, 1 input error (including unknown flags), 2
numeric divergence while computing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .discrepancies import (
    KINDS,
    OptimizerConfig,
    max_sfg,
    mssfg,
    pssfg,
    sfg,
    ssfg,
)
from .experiments import (
    DivergenceError,
    FlowObjective,
    convergence_rate,
    gmm_fit,
    kappa_sweep,
    particle_flow,
)
from .fgw import FgwConfig, as_point_cloud
from .sampling import SamplingError
from .sphere_opt import GradientMethod

_DEFAULT_KAPPA_GRID = (1.0, 5.0, 10.0, 50.0, 100.0)


class CliInputError(ValueError):
    """Bad flags, paths, or file contents; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # divergence exit code; raise instead and let main() map it to 1.
    def error(self, message):
        raise CliInputError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# point cloud I/O
# ---------------------------------------------------------------------------


def _cell(text: str):
    """A CSV cell as a float, or None if it is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def parse_point_cloud(path) -> np.ndarray:
    """Read a CSV point cloud: one point per row, comma-separated finite
    decimals, optional single header line (a first line none of whose cells
    is a number); trailing whitespace-only lines are ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror or exc}") from exc
    lines = text.splitlines()
    if all(not line.strip() for line in lines):
        raise CliInputError(f"{path}: empty input, no point rows")
    while not lines[-1].strip():
        lines.pop()
    rows = []
    for lineno, line in enumerate(lines, start=1):
        cells = [cell.strip() for cell in line.split(",")]
        row = [_cell(cell) for cell in cells]
        if lineno == 1 and all(value is None for value in row):
            continue  # a header
        where = f"{path}: line {lineno}"
        for col, (cell, value) in enumerate(zip(cells, row), start=1):
            if value is None:
                raise CliInputError(f"{where}, column {col}: cannot parse {cell!r} as a number")
            if not np.isfinite(value):
                raise CliInputError(f"{where}, column {col}: non-finite value")
        if rows and len(row) != len(rows[0]):
            raise CliInputError(f"{where}: expected {len(rows[0])} columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise CliInputError(f"{path}: empty input, no point rows")
    try:
        return as_point_cloud(np.asarray(rows, dtype=np.float64))
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def write_point_cloud(path, cloud) -> None:
    """Write a cloud in the same CSV dialect parse_point_cloud reads; values
    round-trip to identical doubles."""
    arr = as_point_cloud(cloud)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in arr:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _list_parser(convert, noun: str):
    """An argparse type for a comma-separated list of ``convert`` values."""

    def parse(text: str):
        try:
            return tuple(convert(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated {noun} list: {text!r}")

    return parse


_float_list = _list_parser(float, "number")
_int_list = _list_parser(int, "integer")


def _add_ascent_flags(sub):
    # every command's slicing ascent: the fused weight, the batch and Adam
    sub.add_argument("--beta", type=float, default=0.1, help="fused weight in [0,1]")
    sub.add_argument("--L", type=int, default=50, dest="L", help="projections per iteration")
    sub.add_argument("--learning-rate", type=float, default=0.001)
    sub.add_argument("--adam-beta1", type=float, default=0.5)
    sub.add_argument("--adam-beta2", type=float, default=0.999)


def _add_engine_flags(sub):
    # what only the engines read: a flow takes one pathwise r = 2 ascent step
    # per flow step
    _add_ascent_flags(sub)
    sub.add_argument("--exponent", type=int, default=2, help="ground cost exponent r")
    sub.add_argument("--max-iter", type=int, default=10)
    sub.add_argument(
        "--gradient-method",
        choices=("pathwise", "finite-difference"),
        default="pathwise",
    )


def _add_slicing_flags(sub, kappa: float):
    sub.add_argument("--kind", choices=tuple(k.replace("_", "-") for k in KINDS), default="ssfg")
    sub.add_argument("--kappa", type=float, default=kappa)
    sub.add_argument("--kappas", type=_float_list, default=None, help="mssfg concentrations")
    sub.add_argument("--alphas", type=_float_list, default=None, help="mssfg weights")


def _add_common_flags(sub):
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--output", default=None, help="results CSV path (stdout if omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssfgw", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    disc = commands.add_parser("discrepancy", help="one discrepancy between two clouds")
    disc.add_argument("source", help="CSV point cloud")
    disc.add_argument("target", help="CSV point cloud")
    _add_slicing_flags(disc, kappa=10.0)
    disc.add_argument("--restarts", type=int, default=8, help="max-sfg restarts")
    _add_engine_flags(disc)
    _add_common_flags(disc)

    sweep = commands.add_parser("sweep-kappa", help="ssfg across a concentration grid")
    sweep.add_argument("source")
    sweep.add_argument("target")
    sweep.add_argument("--kappas", type=_float_list, default=_DEFAULT_KAPPA_GRID)
    sweep.add_argument("--trials", type=int, default=5)
    _add_engine_flags(sweep)
    _add_common_flags(sweep)

    conv = commands.add_parser("convergence", help="sample-size decay of the discrepancy")
    conv.add_argument("--d", type=int, default=5)
    conv.add_argument("--sizes", type=_int_list, default=(10, 20, 40, 80, 160, 320, 640))
    conv.add_argument("--trials", type=int, default=20)
    conv.add_argument("--kappa", type=float, default=10.0)
    conv.add_argument("--metric", choices=("ssfg", "w1-control"), default="ssfg")
    _add_engine_flags(conv)
    _add_common_flags(conv)

    flow = commands.add_parser("flow", help="particle gradient flow toward a target cloud")
    flow.add_argument("target")
    _add_slicing_flags(flow, kappa=1000.0)
    flow.add_argument("--num-particles", type=int, default=None, help="defaults to target size")
    flow.add_argument("--steps", type=int, default=3000)
    flow.add_argument("--step-size", type=float, default=0.01)
    flow.add_argument("--snapshot-every", type=int, default=100)
    flow.add_argument("--particles-out", default=None, help="write final particles as CSV")
    _add_ascent_flags(flow)
    _add_common_flags(flow)

    gmm = commands.add_parser("gmm-fit", help="fit a diagonal GMM to a cloud")
    gmm.add_argument("target")
    gmm.add_argument("--components", type=int, default=10)
    _add_slicing_flags(gmm, kappa=10.0)
    gmm.add_argument("--steps", type=int, default=1000)
    gmm.add_argument("--step-size", type=float, default=0.01)
    gmm.add_argument("--batch", type=int, default=128)
    _add_ascent_flags(gmm)
    _add_common_flags(gmm)

    return parser


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _opt_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(
        learning_rate=args.learning_rate,
        adam_beta1=args.adam_beta1,
        adam_beta2=args.adam_beta2,
        max_iter=args.max_iter,
        num_projections=args.L,
        gradient_method=GradientMethod(args.gradient_method.replace("-", "_")),
        seed=args.seed,
    )


def _kind_kappas(args):
    """The kind in the library's spelling and the mssfg concentrations: by
    default a mixture of 10 components, all at --kappa."""
    kind = args.kind.replace("-", "_")
    if kind == "mssfg" and args.kappas is None:
        return kind, (float(args.kappa),) * 10
    return kind, args.kappas


def _cmd_discrepancy(args):
    X = parse_point_cloud(args.source)
    Y = parse_point_cloud(args.target)
    cfg = FgwConfig(beta=args.beta, exponent=args.exponent)
    opt = _opt_from_args(args)
    rng = np.random.default_rng(args.seed)
    kind, kappas = _kind_kappas(args)
    if kind == "sfg":
        report = sfg(X, Y, cfg, L=args.L, rng=rng)
        param = ""
    elif kind == "max_sfg":
        report = max_sfg(X, Y, cfg, opt, rng=rng, num_restarts=args.restarts)
        param = ""
    elif kind in ("ssfg", "pssfg"):
        report = (ssfg if kind == "ssfg" else pssfg)(X, Y, cfg, args.kappa, opt, rng=rng)
        param = repr(float(args.kappa))
    else:
        report = mssfg(X, Y, cfg, kappas, args.alphas, opt, rng=rng)
        param = ",".join(repr(float(k)) for k in kappas)
    rows = [(kind, param, report.value, report.std_error)]
    for iteration, value in report.trace:
        rows.append(("trace", str(iteration), value, 0.0))
    rows.append(("num_projections_used", "", float(report.num_projections_used), 0.0))
    return rows


def _table_rows(result):
    """The CSV rows of an experiment's long-format table."""
    return [(r.metric, r.parameter, r.value, r.std_error) for r in result.table]


def _cmd_sweep(args):
    X = parse_point_cloud(args.source)
    Y = parse_point_cloud(args.target)
    cfg = FgwConfig(beta=args.beta, exponent=args.exponent)
    result = kappa_sweep(
        X,
        Y,
        cfg,
        args.kappas,
        _opt_from_args(args),
        trials=args.trials,
        rng=np.random.default_rng(args.seed),
    )
    return _table_rows(result)


def _cmd_convergence(args):
    cfg = FgwConfig(beta=args.beta, exponent=args.exponent)
    result = convergence_rate(
        args.d,
        args.sizes,
        args.trials,
        cfg,
        args.kappa,
        _opt_from_args(args),
        rng=np.random.default_rng(args.seed),
        metric=args.metric.replace("-", "_"),
    )
    return _table_rows(result)


def _flow_objective(args) -> FlowObjective:
    kind, kappas = _kind_kappas(args)
    return FlowObjective(
        kind=kind,
        beta=args.beta,
        kappa=args.kappa,
        kappas=kappas,
        alphas=args.alphas,
        num_projections=args.L,
        learning_rate=args.learning_rate,
        adam_beta1=args.adam_beta1,
        adam_beta2=args.adam_beta2,
    )


def _cmd_flow(args):
    Y = parse_point_cloud(args.target)
    objective = _flow_objective(args)
    num_particles = args.num_particles if args.num_particles is not None else Y.shape[0]
    if num_particles != Y.shape[0]:
        raise CliInputError(
            f"--num-particles must equal the target size {Y.shape[0]} "
            "(slices pair clouds point by point)"
        )
    result = particle_flow(
        Y,
        num_particles,
        objective,
        steps=args.steps,
        step_size=args.step_size,
        rng=np.random.default_rng(args.seed),
        snapshot_every=args.snapshot_every,
    )
    if args.particles_out is not None:
        write_point_cloud(args.particles_out, result.particles)
    rows = [
        ("discrepancy", "initial", float(result.trace[0]), 0.0),
        ("discrepancy", "final", float(result.trace[-1]), 0.0),
    ]
    for step in result.snapshot_steps:
        if step >= 1:
            rows.append(("trace", str(step), float(result.trace[step - 1]), 0.0))
    return rows


def _cmd_gmm(args):
    Y = parse_point_cloud(args.target)
    params = gmm_fit(
        Y,
        args.components,
        _flow_objective(args),
        steps=args.steps,
        step_size=args.step_size,
        batch=args.batch,
        rng=np.random.default_rng(args.seed),
    )
    rows = []
    k, d = params.means.shape
    for c in range(k):
        rows.append(("weight", str(c), float(params.weights[c]), 0.0))
    for c in range(k):
        for j in range(d):
            rows.append(("mean", f"{c},{j}", float(params.means[c, j]), 0.0))
    for c in range(k):
        for j in range(d):
            rows.append(("log_std", f"{c},{j}", float(params.log_std_devs[c, j]), 0.0))
    return rows


_DISPATCH = {
    "discrepancy": _cmd_discrepancy,
    "sweep-kappa": _cmd_sweep,
    "convergence": _cmd_convergence,
    "flow": _cmd_flow,
    "gmm-fit": _cmd_gmm,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _format_rows(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("metric", "parameter", "value", "std_error"))
    for metric, parameter, value, std_error in rows:
        writer.writerow((metric, parameter, repr(float(value)), repr(float(std_error))))
    return buf.getvalue()


def _sidecar_path(output: str) -> str:
    return output.removesuffix(".csv") + ".meta.json"


def _emit(args, rows) -> None:
    text = _format_rows(rows)
    if args.output is None:
        sys.stdout.write(text)
        return
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    config = {k: v for k, v in vars(args).items() if k != "command"}
    meta = {"command": args.command, "seed": args.seed, "config": config}
    with open(_sidecar_path(args.output), "w", encoding="utf-8", newline="") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        # overflow reaches the user as DivergenceError (exit 2); numpy's
        # floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            rows = _DISPATCH[args.command](args)
        _emit(args, rows)
        return 0
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, SamplingError) as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
