"""The benchmark's own tests: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mereoml import cli, dataset, geometry, granulation, inclusion, logic, net  # noqa: E402


@pytest.mark.parametrize("seed", [0, 5])
def test_generators_are_deterministic(seed):
    assert gen.prototype_table(seed, 200) == gen.prototype_table(seed, 200)
    assert gen.warehouse_world(seed) == gen.warehouse_world(seed)
    assert gen.fusion_net(seed) == gen.fusion_net(seed)
    assert gen.prototype_table(seed, 200) != gen.prototype_table(seed + 1, 200)
    assert gen.warehouse_world(seed) != gen.warehouse_world(seed + 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_canonical_inputs_match_recorded_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = workloads.WORKLOADS[name].setup(
        workloads.CANONICAL_SEED, workloads.FULL, ROOT / "data"
    )
    assert job.input_digest() == workloads.DIGESTS[name]["inputs"]


SPANS = {
    "credit-sweep": {
        "cli.op", "dataset.load", "dataset.discretize", "dataset.subset",
        "granulation.folds", "inclusion.matrix", "granulation.granules",
        "granulation.covering", "granulation.mirror", "granulation.classify",
    },
    "bulk-logic": {
        "cli.op", "dataset.load", "dataset.discretize", "inclusion.matrix",
        "granulation.granules", "granulation.covering", "logic.parse",
        "logic.extension", "logic.truth", "logic.valid",
    },
    "agents": {
        "cli.op", "net.load", "net.propagate", "geometry.load",
        "geometry.potential", "geometry.navigate", "geometry.write",
    },
}


def _unwrapped():
    """True when every attribute the spans wrap is the package's own again."""
    funcs = [
        cli.load_csv, cli.discretize, dataset.DecisionSystem.subset,
        granulation.stratified_folds, granulation.all_granules,
        granulation.irreducible_covering, granulation.granular_mirror,
        granulation.classify_many, logic.parse_formula, logic.extension,
        logic.is_true_at, logic.is_valid, logic.meaning, net.load_network,
        net.propagate, geometry.load_world, geometry.parse_formation,
        geometry.build_potential, geometry.navigate,
        geometry.write_trajectory_csv, geometry.write_trajectory_svg,
        inclusion.LukasiewiczInclusion.dis_counts.func,
    ]
    return all(f.__module__.startswith("mereoml.") for f in funcs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_op_is_the_cli_op_and_layer_spans_cover_it(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = run.Runner(workloads.WORKLOADS[name], 3, workloads.FULL, canonical=False)
    runner.setup()  # an untraced op; its bytes are the reference
    tracer = spans.Tracer()
    outs, wall, error = runner.op(tracer)
    runner.verify(outs, error)
    assert runner.failed == 0, runner.problems
    assert _unwrapped()
    assert {span[0] for span in tracer.spans} == SPANS[name]
    assert all(end >= start for _, start, end, _ in tracer.spans)
    values = run.layer_values(tracer, wall)
    assert values["trace.coverage_pct"] >= 90
    assert values["cli.self_s"] < 0.1 * wall


def test_coverage_leaves_out_the_root_span():
    t = spans.Tracer()
    t.spans = [["cli.op", 0.0, 9.0, None], ["dataset.load", 1.0, 4.0, 0]]
    values = run.layer_values(t, 10.0)
    assert values["cli.self_s"] == 6.0 and values["dataset.load_s"] == 3.0
    assert values["trace.coverage_pct"] == 30.0


def test_self_times_subtract_children():
    t = spans.Tracer()
    t.spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
    assert dict(t.self_times()) == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_op_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert run.op_tail(samples) == (30.0, 75.0, 10)
    assert run.op_tail([3.0, 1.0, 2.0, 5.0]) == (2.5, 50.0, 2)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    for name in run.WORKLOAD_NAMES:
        proc = _bench(
            ROOT, "--workload", name, "--seed", "2", "--seconds", "0.2",
            "--trace", str(trace), "--smoke",
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert set(result["metrics"]) == wanted


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "agents", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
