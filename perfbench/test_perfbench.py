"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import client
import run
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.fixture
def tiny_inputs(tmp_path):
    return client.Inputs(WORKLOADS["stieltjes-seq"], 3, str(tmp_path), tiny=True)


def scaled(fn, factor=1.5):
    return lambda *args: factor * fn(*args)


def test_solve_pass_rejects_corrupted_engine(tiny_inputs):
    assert not any(r["check_failures"] for r in client.solve_pass(tiny_inputs, client.plain_api()))
    api = client.plain_api()
    api["engines"]["v2"] = scaled(api["engines"]["v2"])
    records = client.solve_pass(tiny_inputs, api)
    assert all(any("v2" in f for f in r["check_failures"]) for r in records)


def test_cli_pass_rejects_corrupted_engine(tiny_inputs, monkeypatch):
    wl, cfg = tiny_inputs.wl, tiny_inputs.cfg
    _, rows, _ = client.cli_pass(tiny_inputs)
    assert client.summarize_cli_rows(wl, cfg, rows)["check_failures"] == []
    monkeypatch.setitem(client.cli.ENGINES, "v2", scaled(client.cli.ENGINES["v2"]))
    _, rows, _ = client.cli_pass(tiny_inputs)
    summary = client.summarize_cli_rows(wl, cfg, rows)
    assert summary["bad_problems"] == cfg.n_problems
    assert all("v2" in f for f in summary["check_failures"])


def test_cli_checks_catch_nondeterminism_and_error_mismatch():
    a = dict(check_failures=[], fingerprint=[[1, "v2", 0.5]], error_rows=[[3, "v3", "error:X"]])
    b = dict(a, fingerprint=[[1, "v2", 0.6]])
    assert run.cli_checks([a, a]) == []
    assert run.cli_checks([a, b])
    solve = [dict(problem=3, errors={"v3": "X"})]
    assert run.solve_vs_cli(solve, a) == []
    assert run.solve_vs_cli([dict(problem=3, errors={})], a)


def test_tail_has_ten_samples_above():
    samples = list(range(40))
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("stieltjes-seq", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
