"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ssfgw  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import digest  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digests(workload, count, seed):
    return [
        digest(workload.ops[i % len(workload.ops)].run(workloads.op_rng(seed, i)))
        for i in range(count)
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_is_bit_identical(name):
    workload = workloads.build(name, seed=5, tiny=True)
    count = 2 * len(workload.ops)
    plain = _digests(workload, count, 5)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = _digests(workload, count, 5)
    finally:
        spans.uninstall()
    assert traced == plain
    assert len(spans.span_start) > 0


def test_tracer_rebinds_every_alias_and_restores_it():
    from ssfgw import discrepancies, experiments, sampling, sphere_opt

    aliases = [
        (discrepancies, "_eval_slices"), (experiments, "_eval_slices"),
        (sampling, "_uniform_sphere"), (sphere_opt, "_uniform_sphere"), (experiments, "_uniform_sphere"),
        (sphere_opt, "adam_step"), (discrepancies, "adam_step"), (experiments, "adam_step"),
        (discrepancies, "assemble_directions"), (experiments, "reflection_location_grads"),
        (sampling, "_vmf_omega"), (sphere_opt, "_vmf_omega"), (sphere_opt, "_ps_omega"),
        (experiments, "ssfg"), (ssfgw, "sfg"),
    ]
    before = [getattr(mod, attr) for mod, attr in aliases]
    spans = tracer.Tracer()
    spans.install()
    try:
        for (mod, attr), original in zip(aliases, before):
            assert getattr(mod, attr) is not original
            assert getattr(mod, attr).__wrapped__ is original
    finally:
        spans.uninstall()
    assert [getattr(mod, attr) for mod, attr in aliases] == before


def test_self_time_excludes_children():
    spans = tracer.Tracer()
    spans.span_boundary = [0, 1, 1]
    spans.span_start = [0.0, 1.0, 3.0]
    spans.span_end = [10.0, 2.0, 5.0]
    spans.span_parent = [-1, 0, 0]
    spans.span_op = [0, 0, 0]
    layers = spans.layer_metrics(cycles=1)
    assert layers["kernels.cost_batch.total_s"] == 10.0
    assert layers["kernels.cost_batch.self_s"] == 7.0
    assert layers["kernels.grad_batch.self_s"] == 3.0
    assert layers["kernels.grad_batch.calls"] == 2.0


def test_benchmark_json_lists_what_the_benchmark_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layer_specs = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert layer_specs == tracer.metric_specs()


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_runs_at_tiny_size(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "flow", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
