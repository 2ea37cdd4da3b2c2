"""The benchmark's own tests: tiny runs print every metric, and every output
check fails when its reference is corrupted.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402
import run  # noqa: E402
from checks import CHECKS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = sorted(WORKLOADS)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_contract_workloads_match_the_harness():
    assert sorted(w["name"] for w in _spec()["workloads"]) == WORKLOAD_NAMES


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "lp_awgn", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_timed_parts_exclude_the_kernel_and_scale_by_its_speed():
    record = {}
    with calibration.timed(record):
        t_end = calibration.time.perf_counter() + 0.1
        while calibration.time.perf_counter() < t_end:
            pass
    assert record["kernel_samples"] >= 2 * calibration.EDGE_SAMPLES + 1
    assert 0.0 < record["seconds"] < 0.1
    assert record["speed"] > 0.0
    assert calibration.scaled(record) == record["seconds"] * record["speed"]


@pytest.fixture(scope="module")
def tiny_passes():
    """One tiny untraced pass of every workload, run once for all corruptions."""
    args = SimpleNamespace(seed=5, size="tiny")
    return {name: [run.run_pass(WORKLOADS[name], args, 0, 0)] for name in WORKLOAD_NAMES}


def _first(mapping):
    return next(iter(mapping))


def _bump_count(ref):
    code = _first(ref["counts"])
    ref["counts"][code]["lp_errors"] += ref["counts"][code]["trials"] + 5


def _bump_objective(ref):
    ref["certificate"][0]["best_objective"] += 10.0


def _swap_ml_word(ref):
    ref["certificate"][0]["ml_word"] = list(reversed(ref["certificate"][0]["ml_word"]))
    ref["certificate"][0]["tie"] = False


def _bad_fingerprint(ref):
    ref["codes"][_first(ref["codes"])]["fingerprint"] = "0" * 64


def _bad_size(ref):
    ref["codes"][_first(ref["codes"])]["size"] += 1


def _bump_ml_errors(ref):
    entry = ref["errors"][_first(ref["errors"])]
    entry["ml_errors"] += entry["near_ties"] + 1


def _bump_sample(ref):
    ref["card"][0]["samples"][0] += 1


def _bad_cardinality_formula(ref):
    ref["card"][0]["formula"] *= 1.001


def _bump_weight_mean(ref):
    ref["weight"][0]["means"][-1] += 0.01


def _bad_weight_formula(ref):
    ref["weight"][0]["formula"][-1] *= 1.001


def _bad_vertex_count(ref):
    inst = ref["instances"][_first(ref["instances"])]
    inst["counts"] = (inst["counts"][0] + 1, inst["counts"][1])


def _invalid_vertices(ref):
    ref["instances"][_first(ref["instances"])]["invalid"] = "not doubly stochastic"


def _bad_mpd(ref):
    ref["instances"][_first(ref["instances"])]["mpd"] *= 1.001


def _bad_lp_report(ref):
    ref["lp_reports"][_first(ref["lp_reports"])][0] *= 1.001


def _bad_ml_report(ref):
    ref["ml_reports"][_first(ref["ml_reports"])][0] *= 1.001


CORRUPTIONS = {
    "lp_awgn": [_bump_count, _bump_objective, _swap_ml_word],
    "ml_codebook_n9": [_bad_fingerprint, _bad_size, _bump_ml_errors],
    "ensemble_n10": [_bump_sample, _bad_cardinality_formula, _bump_weight_mean,
                     _bad_weight_formula],
    "vertex_geometry": [_bad_vertex_count, _invalid_vertices, _bad_mpd, _bad_lp_report,
                        _bad_ml_report],
}


@pytest.mark.parametrize("workload,corrupt", [(w, c) for w, cs in CORRUPTIONS.items() for c in cs],
                         ids=lambda v: getattr(v, "__name__", v))
def test_each_check_fails_on_a_corrupted_reference(tiny_passes, workload, corrupt):
    checks = CHECKS[workload]
    passes = tiny_passes[workload]
    ref = checks.reference(passes)
    assert all(c.ok for c in checks.check(passes, ref)), workload
    bad = copy.deepcopy(ref)
    corrupt(bad)
    assert not all(c.ok for c in checks.check(passes, bad))
