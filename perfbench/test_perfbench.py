"""Tests of the benchmark itself: its generators, ground truth and metric names.

Run with the package on the path, as the repository's tests are:
    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
from chinese_monoid import core

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", ["battery", "normalize", "embed_eq", "leaves"])
def test_inputs_are_deterministic_per_seed(workload):
    first = gen.inputs(workload, 3, 1)
    assert first == gen.inputs(workload, 3, 1)
    if workload != "battery":
        assert first != gen.inputs(workload, 4, 1)
        assert first != gen.inputs(workload, 3, 2)


def test_normalize_inputs_are_banded_with_earlier_repeats():
    queries = gen.inputs("normalize", 5, 0)["queries"]
    lo, hi = gen.CLASS_BAND
    assert all(lo <= q["class"] <= hi for q in queries)
    repeats = [q for q in queries if q.get("repeat")]
    text_queries = [q for q in queries if q["op"] == "nf"]
    assert len(repeats) == round(gen.REPEAT_SHARE * len(text_queries))
    for q in repeats:
        earlier = queries[:queries.index(q)]
        assert any(e["k"] == q["k"] and not e.get("repeat") for e in earlier if e["op"] == "nf")


def test_class_size_and_walk_agree_with_the_oracle():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(3, 4)
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(3, 7)))
        cls = core.congruence_class(word)
        assert gen.class_size(word, 10 ** 6) == len(cls)
        assert gen.walk(word, 20, rng) in cls
        if len(cls) > 1:
            assert gen.class_size(word, len(cls) - 1) is None


def test_triangles_expand_like_the_package():
    rng = random.Random(2)
    for _ in range(30):
        n, weight = rng.randint(3, 5), rng.randint(0, 7)
        k = gen.random_triangle(n, weight, rng)
        form = core.StaircaseForm(n, tuple(map(tuple, k)))
        assert form.weight() == weight
        assert gen.expand(k) == form.expand()
        assert core.to_staircase(gen.scramble(gen.expand(k), rng), n).k == form.k


def test_built_pairs_agree_with_the_oracle():
    rng = random.Random(3)
    checked = 0
    while checked < 30:
        n, weight = rng.randint(3, 4), rng.randint(3, 7)
        k = gen.random_triangle(n, weight, rng)
        other = gen.shifted(k, rng)
        if other is None:
            continue
        base = gen.expand(k)
        w, v, u = gen.scramble(base, rng), gen.scramble(base, rng), gen.scramble(gen.expand(other), rng)
        assert core.eq_oracle(w, v)
        assert sorted(w) == sorted(u) and not core.eq_oracle(w, u)
        checked += 1


def test_end_to_end_metric_names_match_benchmark_json():
    reps = [{"setup_s": 0.1 + i, "peak_rss_mb": 20.0, "traced": False, "scale": 1.0,
             "probe_s": [0.04], "probe_pre_import_s": 0.04,
             "ops": [[0.01 * (j + 1), 1, 0, None] for j in range(15)]} for i in range(3)]
    metrics, samples = run.end_to_end(reps)
    assert set(metrics) == _names("end_to_end")
    assert all(value > 0 for value in metrics.values())
    assert samples["latency_samples"] == 45
    assert samples["tail_percentile"] == round(100 * 35 / 45, 2)


def test_per_layer_times_are_scaled_and_counts_are_not():
    spans_ = [["tree.enumerate_leaves", 1.0, 1.5, -1, 81]]
    reps = [{"traced": traced, "scale": 2.0, "ops": [[0.5, 1, 0, None]], "spans": spans_,
             "inputs": run._input_counts("leaves", {})} for traced in (False, True)]
    metrics = run.per_layer(reps, {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    assert metrics["tree.enumerate_leaves.busy_s"] == 1.0
    assert metrics["layer.tree.self_s"] == 1.0
    assert metrics["tree.leaves"] == 81
    assert metrics["tree.leaves_per_s"] == 81.0
    assert metrics["trace.overhead_frac"] == 0.0


def test_traced_run_reports_every_per_layer_metric():
    """A real traced run, smallest seconds: run.py itself refuses a metric
    set that differs from BENCHMARK.json, and every output must check."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "embed_eq", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["representation.eq.calls"]["value"] == result["attempted"] // 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leaves", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
