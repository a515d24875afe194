"""The benchmark's own test, at reduced sizes.

Run from the repository root: python -m pytest -q perfbench/test_bench.py

Each workload runs at workloads.SMALL against a reference made by a first
run of the same tree, so the test checks the harness, not the stored
full-size reference.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import make_reference
import run
from workloads import SMALL, WORKLOADS, plan

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5
# counts that depend only on the inputs, never on timing
DETERMINISTIC = ("zeta.z_evals", "zeta.zeta_evals", "dirichlet.eval_exps",
                 "dirichlet.pair_kernels", "moments.report_calls", "cli.mv_campaign_calls")


@pytest.fixture(scope="module", params=WORKLOADS)
def small(request):
    p = plan(request.param, SEED, SMALL)
    return request.param, p, make_reference.collect(p, {})


def _units(line: dict) -> dict:
    return {k: v["unit"] for k, v in line["metrics"].items()}


def test_end_to_end_metrics_emitted(small):
    workload, p, ref = small
    line, _ = run.run_workload(workload, SEED, 0, False, SMALL, ref)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(p["steps"])
    assert _units(line) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_per_layer_metrics_emitted_and_counts_repeat(small):
    workload, _, ref = small
    first, _ = run.run_workload(workload, SEED, 0, True, SMALL, ref)
    second, _ = run.run_workload(workload, SEED, 0, True, SMALL, ref)
    assert first["correct"] and second["correct"]
    assert _units(first) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _first_leaf(ref: dict, kinds: tuple) -> tuple:
    for key, dig in ref.items():
        for leaf, value in dig.items():
            if type(value) in kinds:
                return key, leaf
    raise AssertionError(f"no leaf of type {kinds}")


@pytest.mark.parametrize("kinds", [(float,), (int, bool)], ids=["float", "exact"])
def test_perturbed_reference_fails_one_step(small, kinds):
    workload, _, ref = small
    bad = copy.deepcopy(ref)
    key, leaf = _first_leaf(bad, kinds)
    value = bad[key][leaf]
    bad[key][leaf] = value * (1.0 + 1e-4) + 1e-6 if kinds == (float,) else (
        not value if isinstance(value, bool) else value + 1)
    line, detail = run.run_workload(workload, SEED, 0, False, SMALL, bad)
    assert not line["correct"] and line["failed"] == 1
    assert detail["failures"][0]["key"] == key


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "repro-1e4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
