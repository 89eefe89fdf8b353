"""Self-test of the benchmark at small size: `python3 -m pytest bench`.

Runs every workload once untraced and once traced through run.py, and
checks that its output checks pass and that it emits exactly the metrics
BENCHMARK.json names, with their units.  Not part of the package's test
suite (pytest's testpaths is tests/); it takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_checks_and_emits_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        wall, unattributed = values["trace.wall_s"], values["trace.unattributed_s"]
        assert 0.0 <= unattributed < 0.5 * wall
    else:
        assert all(values[m["name"]] > 0 for m in SPEC["end_to_end"])


def test_tracer_patches_names_imported_by_other_modules():
    # The sweep reaches run_sweep, nme_wire_cut and estimate_cut_expectation
    # only through names that cli and experiment imported directly.
    proc = run("cli_sweep", 1)
    values = {k: m["value"] for k, m in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert values["cli.main.calls"] == 2  # experiment, then plot --assert
    assert values["experiment.run_sweep.calls"] == 1
    assert values["qpd.nme_wire_cut.calls"] == 6  # one decomposition per f
    assert values["estimator.estimate.calls"] == 6 * 3 * 100  # f x budgets x states
    assert values["estimator.prob_reuse"] == pytest.approx(1 / 3)  # three budgets share each triple


def test_tracer_treats_missing_names_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import tracer

    layers = dict(tracer.LAYERS, **{"estimator.gone": ("nmecut.estimator", "deleted_function")})
    monkeypatch.setattr(tracer, "LAYERS", layers)
    with tracer.Tracer() as tr:
        pass
    assert tr.stats["estimator.gone"].calls == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = run("exact_oracle", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
