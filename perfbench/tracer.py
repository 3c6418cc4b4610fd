"""Span tracer that wraps ssfgw's layer boundaries from outside the package.

Each boundary is a function of one ssfgw module. Several are also imported by
name into other modules (``_eval_slices`` into ``experiments``, ``adam_step``
into ``discrepancies`` ...), so ``Tracer.install`` rebinds every module global
of the package that is the same object as the boundary, and ``uninstall``
puts the originals back. The wrappers only time and count; they pass
arguments and results through untouched, so a traced run returns bit-identical
values.

Spans (boundary, start, end, parent, op id) are kept in memory in flat lists
and written out by ``write_spans`` when the run ends. Self time is a span's
duration minus the durations of its direct children.

Work counts for the kernels and the projection are computed from array sizes;
they ignore cache misses and are labelled ``bytes_computed`` for that reason.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import numpy as np


def _kernel_cost_counts(args, kwargs, result):
    A, B = args[0], args[1]
    costs, orients = result
    return {
        "rows": A.shape[0],
        "points": A.size,
        "bytes_computed": A.nbytes + B.nbytes + costs.nbytes + orients.nbytes,
    }


def _kernel_grad_counts(args, kwargs, result):
    A, B, orients = args[0], args[1], np.asarray(args[3])
    GA, GB = result
    return {
        "rows": A.shape[0],
        "points": A.size,
        "bytes_computed": A.nbytes + B.nbytes + orients.nbytes + GA.nbytes + GB.nbytes,
    }


def _project_counts(args, kwargs, result):
    X, thetas = args[0], args[1]
    return {"rows": thetas.shape[0], "points": thetas.shape[0] * X.shape[0]}


def _eval_slices_counts(args, kwargs, result):
    return {"rows": np.shape(args[2])[0]}


def _engine_counts(args, kwargs, result):
    return {"slices": result.num_projections_used}


def _radial_counts(args, kwargs, result):
    return {"draws": result.size}


def _steps_from(param, fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        return {"steps": int(signature.bind(*args, **kwargs).arguments[param])}

    return count


def _convergence_counts(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        return {"steps": len(tuple(bound["sample_sizes"])) * int(bound["trials"])}

    return count


# (module, function, counter factory or None, counted measures)
BOUNDARIES = (
    ("_kernels", "cost_batch", lambda fn: _kernel_cost_counts, ("rows", "points", "bytes_computed")),
    ("_kernels", "grad_batch", lambda fn: _kernel_grad_counts, ("rows", "points", "bytes_computed")),
    ("discrepancies", "_project_sorted", lambda fn: _project_counts, ("rows", "points")),
    ("discrepancies", "_eval_slices", lambda fn: _eval_slices_counts, ("rows",)),
    ("discrepancies", "sfg", lambda fn: _engine_counts, ("slices",)),
    ("discrepancies", "max_sfg", lambda fn: _engine_counts, ("slices",)),
    ("discrepancies", "ssfg", lambda fn: _engine_counts, ("slices",)),
    ("discrepancies", "pssfg", lambda fn: _engine_counts, ("slices",)),
    ("discrepancies", "mssfg", lambda fn: _engine_counts, ("slices",)),
    ("sampling", "_vmf_omega", lambda fn: _radial_counts, ("draws",)),
    ("sampling", "_ps_omega", lambda fn: _radial_counts, ("draws",)),
    ("sampling", "_uniform_sphere", None, ()),
    ("sphere_opt", "assemble_directions", None, ()),
    ("sphere_opt", "reflection_location_grads", None, ()),
    ("sphere_opt", "adam_step", None, ()),
    ("experiments", "particle_flow", lambda fn: _steps_from("steps", fn), ("steps",)),
    ("experiments", "gmm_fit", lambda fn: _steps_from("steps", fn), ("steps",)),
    ("experiments", "convergence_rate", _convergence_counts, ("steps",)),
)

# Proposal counter for the vMF acceptance ratio: each ``_beta_draw`` call is
# charged to the radial sampler span that is open when it runs.
_PROPOSAL_SOURCE = ("sampling", "_beta_draw")
_RADIAL = ("sampling.vmf_omega", "sampling.ps_omega")

_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "rows": ("count", "lower"),
    "points": ("count", "lower"),
    "bytes_computed": ("B", "lower"),
    "rows_per_call": ("count", "higher"),
    "slices": ("count", "lower"),
    "draws": ("count", "lower"),
    "accept_ratio": ("ratio", "higher"),
    "steps": ("count", "higher"),
}

OVERHEAD_METRICS = (
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)


def boundary_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function.lstrip('_')}"


def _measures(name: str, counted) -> list:
    measures = ["calls", "self_s", "total_s", *counted]
    if name == "discrepancies.eval_slices":
        measures.append("rows_per_call")
    if name in _RADIAL:
        measures.append("accept_ratio")
    return measures


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, function, _, counted in BOUNDARIES:
        name = boundary_name(module, function)
        for measure in _measures(name, counted):
            unit, better = _UNITS[measure]
            specs.append((f"{name}.{measure}", unit, better))
    specs.extend(OVERHEAD_METRICS)
    return specs


class Tracer:
    """In-memory span recorder over ssfgw's boundary functions."""

    def __init__(self):
        self.names = [boundary_name(m, f) for m, f, _, _ in BOUNDARIES]
        self.span_boundary = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.span_op = []
        self.counts = {name: {} for name in self.names}
        self.op_id = -1
        self._stack = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every alias of every boundary in the loaded ssfgw modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = sys.modules["ssfgw"]
        modules = [m for key, m in sys.modules.items() if key == "ssfgw" or key.startswith("ssfgw.")]
        replacements = {}
        for index, (module, function, factory, _) in enumerate(BOUNDARIES):
            original = getattr(getattr(package, module), function)
            counter = factory(original) if factory else None
            replacements[id(original)] = (original, self._wrap(index, original, counter))
        module, function = _PROPOSAL_SOURCE
        original = getattr(getattr(package, module), function)
        replacements[id(original)] = (original, self._wrap_proposals(original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []

    def _wrap(self, index, fn, counter):
        boundary = self.span_boundary
        start = self.span_start
        end = self.span_end
        parent = self.span_parent
        op = self.span_op
        stack = self._stack
        counts = self.counts[self.names[index]]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(boundary)
            boundary.append(index)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_proposals(self, fn):
        def counted(alpha, beta, rng, m):
            if self._stack:
                owner = self.names[self.span_boundary[self._stack[-1]]]
                counts = self.counts[owner]
                counts["proposals"] = counts.get("proposals", 0) + int(m)
            return fn(alpha, beta, rng, m)

        counted.__wrapped__ = fn
        return counted

    # -- results ------------------------------------------------------------

    def layer_metrics(self, cycles: int) -> dict:
        """Per-layer metrics per cycle of the workload's op mix."""
        which = np.asarray(self.span_boundary, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        duration = np.asarray(self.span_end) - np.asarray(self.span_start)
        child = np.zeros(duration.size)
        nested = parents >= 0
        if duration.size:
            child = np.bincount(parents[nested], weights=duration[nested], minlength=duration.size)
        self_time = duration - child
        k = len(self.names)
        calls = np.bincount(which, minlength=k)
        total = np.bincount(which, weights=duration, minlength=k)
        own = np.bincount(which, weights=self_time, minlength=k)
        out = {}
        for i, (_, _, _, counted) in enumerate(BOUNDARIES):
            name = self.names[i]
            counts = self.counts[name]
            values = {
                "calls": calls[i] / cycles,
                "self_s": own[i] / cycles,
                "total_s": total[i] / cycles,
            }
            for measure in counted:
                values[measure] = counts.get(measure, 0) / cycles
            if name == "discrepancies.eval_slices":
                values["rows_per_call"] = counts.get("rows", 0) / calls[i] if calls[i] else 0.0
            if name in _RADIAL:
                proposals = counts.get("proposals", 0)
                values["accept_ratio"] = counts.get("draws", 0) / proposals if proposals else 0.0
            for measure in _measures(name, counted):
                out[f"{name}.{measure}"] = float(values[measure])
        out["trace.spans"] = duration.size / cycles
        return out

    def write_spans(self, path) -> None:
        """Write all spans as one JSON object of parallel columns."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "boundaries": self.names,
                    "boundary": self.span_boundary,
                    "start": self.span_start,
                    "end": self.span_end,
                    "parent": self.span_parent,
                    "op": self.span_op,
                },
                fh,
            )
