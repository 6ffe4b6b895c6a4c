"""Self-tests of the benchmark: tiny runs of every workload.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace, seed=7, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_and_meta(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result, json.loads(lines[-2])["meta"]


@pytest.mark.parametrize("workload", tracing.WORKLOADS)
def test_end_to_end_metrics(workload):
    result, meta = result_and_meta(run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["error_ratio"] == 0
    for key in ("nproc", "python", "src_lines", "seed", "tail_percentile", "report_digest"):
        assert key in meta


@pytest.mark.parametrize("workload", tracing.WORKLOADS)
def test_traced_metrics(workload):
    result, meta = result_and_meta(run(workload, 1))
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    untraced = [t.name for t in tracing.TARGETS if workload in t.workloads and not metrics[f"{t.name}.calls"]["value"]]
    assert untraced == []
    assert meta["trace_overhead"] > 0


def test_benchmark_json_matches_the_code():
    import workloads

    assert SPEC["per_layer"] == tracing.per_layer_spec()
    assert [w["name"] for w in SPEC["workloads"]] == list(tracing.WORKLOADS) == list(workloads.WORKLOADS)


def test_tracer_wraps_every_import_site():
    modules = [importlib.import_module("hho2")] + [importlib.import_module(f"hho2.{m}") for m in tracing.MODULES]
    holders = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]

    def sites(fn):
        return [(h, name) for h in holders for name, v in list(vars(h).items()) if v is fn]

    originals = {}
    for target in tracing.TARGETS:
        module, path = target.home.split(":")
        owner = importlib.import_module(f"hho2.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        originals[target.name] = vars(owner)[attr]
    before = {name: sites(fn) for name, fn in originals.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, fn in originals.items():
            assert sites(fn) == [], f"{name} left unwrapped"
            for holder, attr in before[name]:
                assert vars(holder)[attr].__wrapped__ is fn
    finally:
        tracer.uninstall()
    assert {name: sites(fn) for name, fn in originals.items()} == before


def test_same_seed_gives_the_same_report_digest():
    first = result_and_meta(run("transform-sl", 0, seed=3))[1]
    second = result_and_meta(run("transform-sl", 0, seed=3))[1]
    assert first["report_digest"] == second["report_digest"]
    assert first["digest_tasks"] == second["digest_tasks"] >= 1


def test_fails_without_the_program():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run("transform-sl", 0, root=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
