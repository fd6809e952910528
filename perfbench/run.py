"""Benchmark of the chinese_monoid package: one workload, one seed, one run.

    python3 perfbench/run.py --workload normalize --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run is a closed loop with one client:
repetitions follow one another, each in a fresh interpreter (worker.py), so
every repetition starts from the same empty program caches.  Inputs come
from the seed and the repetition index (gen.py); the program sees only the
generated inputs.  Every output is checked outside the timed interval.

With --trace 0 the last line of stdout holds the end-to-end metrics, taken
over the repetitions.  With --trace 1 each input set runs twice, untraced
and then traced, and the last line holds the per-layer metrics derived from
the spans, plus the tracing overhead; the spans go to .perfbench/.  The line
before the last records the Python version, CPU count, seed, commit and
sample counts.  Metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("battery", "normalize", "embed_eq", "leaves")
# Identical work drifts by +-20% over tens of seconds on a shared 2-vCPU VM.
# Every time a repetition reports is scaled to a CPU on which the worker's
# speed probe takes REFERENCE_PROBE_S, from the mean probe time over the
# repetition and its two neighbours: one repetition's probes alone are too
# few, and the drift is slower than three repetitions.
REFERENCE_PROBE_S = 0.04
MIN_REPS = 3            # untraced repetitions per run, for the set-up median
TAIL_REPS = 6           # repetitions pooled for the tail latency
HARD_LIMIT_S = 150.0    # no repetition starts after this, whatever the minimum


class BenchmarkError(Exception):
    """The benchmark could not measure (missing program, crashed worker)."""


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _spawn(workload: str, inputs: dict, trace: bool, timeout: float) -> dict:
    payload = json.dumps({"workload": workload, "inputs": inputs, "trace": trace})
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), repr(started)]
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(payload, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchmarkError(f"{workload} worker ran past {timeout:.0f} s") from None
        except BaseException:  # interrupted: stop the worker before leaving
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out)


def _input_counts(workload: str, inputs: dict) -> dict[str, float]:
    """Input properties of a repetition: congruence-class sizes and the
    repeat share of the breadth-first workload, 0 elsewhere."""
    queries = inputs.get("queries", []) if workload == "normalize" else []
    fresh = [q["class"] for q in queries if not q.get("repeat")]
    text_queries = [q for q in queries if q["op"] == "nf"]
    repeats = sum(bool(q.get("repeat")) for q in text_queries)
    return {
        "core.class_words": sum(fresh),
        "core.class_words_max": max(fresh, default=0),
        "core.repeat_share": repeats / len(text_queries) if text_queries else 0.0,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions until `seconds` is spent; return their raw records."""
    reps: list[dict] = []
    start = time.monotonic()
    index = 0
    while True:
        inputs = gen.inputs(workload, seed, index)
        for traced in ((False, True) if trace else (False,)):
            timeout = max(HARD_LIMIT_S + 20 - (time.monotonic() - start), 10.0)
            record = _spawn(workload, inputs, traced, timeout)
            record.update(traced=traced, inputs=_input_counts(workload, inputs))
            reps.append(record)
        index += 1
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / index
        enough = trace or index >= MIN_REPS
        if (enough and next_end > seconds) or next_end > HARD_LIMIT_S:
            break
    for i, rep in enumerate(reps):
        probes = [t for r in reps[max(i - 1, 0):i + 2] for t in r["probe_s"]]
        rep["scale"] = REFERENCE_PROBE_S * len(probes) / sum(probes)
    return {"reps": reps, "elapsed": elapsed}


def _check_battery_stdout(reps: list[dict]) -> None:
    """Every repetition of the battery must print the same bytes."""
    digests = [r["stdout_sha256"] for r in reps if r["stdout_sha256"]]
    for rep in reps:
        if digests and rep["stdout_sha256"] not in (None, digests[0]):
            for op in rep["ops"]:
                op[2] = op[1]
                op[3] = "stdout differs between repetitions"


def _raw_run_s(rep: dict) -> float:
    return sum(op[0] for op in rep["ops"])


def _run_s(rep: dict) -> float:
    """Operation time of a repetition, scaled to the reference CPU speed."""
    return _raw_run_s(rep) * rep["scale"]


def _latencies(reps: list[dict]) -> list[float]:
    return [op[0] * rep["scale"] for rep in reps for op in rep["ops"]]


def end_to_end(reps: list[dict]) -> tuple[dict[str, float], dict]:
    latencies = _latencies(reps)
    # Operation times form clusters (one per rank and size), and the tail's
    # rank moves with the sample count; a fixed count of repetitions keeps
    # it inside the same cluster however many repetitions fit in the run.
    tail_value, tail_pct = spans.tail(_latencies(reps[:TAIL_REPS]))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in reps),
        "run_s": statistics.median(map(_run_s, reps)),
        "ops_per_s": statistics.median(sum(op[1] for op in r["ops"]) / _run_s(r) for r in reps),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return metrics, {"latency_samples": len(latencies), "tail_percentile": round(tail_pct, 2),
                     "tail_samples": sum(len(r["ops"]) for r in reps[:TAIL_REPS]),
                     "raw_run_s": [round(_raw_run_s(r), 4) for r in reps],
                     "probe_heap_ratio": round(statistics.median(
                         statistics.fmean(r["probe_s"]) / r["probe_pre_import_s"]
                         for r in reps), 4),
                     "scale": [round(r["scale"], 4) for r in reps]}


# Per-layer units whose values scale with CPU speed, and the power of the
# repetition's factor that takes them to the reference speed.
SCALED_UNITS = {"s": 1, "ms": 1, "us": 1, "1/s": -1}


def per_layer(reps: list[dict], units: dict[str, str]) -> dict[str, float]:
    """Medians over the traced repetitions; times scaled like run_s."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    rows = []
    for rep in traced:
        row = spans.layer_metrics(rep["spans"])
        for name in row:
            row[name] *= rep["scale"] ** SCALED_UNITS.get(units[name], 0)
        row.update(rep["inputs"])
        row["core.cap_hits"] = sum((op[3] or "").startswith("ClassCapExceeded")
                                   for op in rep["ops"])
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    ops = [op for rep in reps for op in rep["ops"]]
    metrics["ops_failed_frac"] = sum(op[2] for op in ops) / sum(op[1] for op in ops)

    # Each input set runs untraced and then traced, back to back: the ratio
    # within a pair shares its inputs and most of the drift in CPU speed.
    metrics["trace.overhead_frac"] = statistics.median(
        _run_s(t) / _run_s(p) for p, t in zip(plain, traced)) - 1
    return metrics


def _write_spans(workload: str, seed: int, reps: list[dict]) -> Path:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    traced = [r["spans"] for r in reps if r["traced"]]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "note"],
                                "repetitions": traced}))
    return path


def _units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "chinese_monoid" / "__init__.py").is_file():
        print(f"error: no chinese_monoid package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        raw = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reps = raw["reps"]
    if args.workload == "battery":
        _check_battery_stdout(reps)
    ops = [op for rep in reps for op in rep["ops"]]
    attempted = sum(op[1] for op in ops)
    failed = sum(op[2] for op in ops)
    for op in ops:
        if op[2]:
            print(f"failed operation: {op[3] or 'wrong output'}", file=sys.stderr)
    context = {
        "workload": args.workload, "seed": args.seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": _commit(), "elapsed_s": round(raw["elapsed"], 2),
        "repetitions": sum(not r["traced"] for r in reps),
        "traced_repetitions": sum(r["traced"] for r in reps),
        "ops_failed_frac": failed / attempted,
    }
    if args.trace:
        units = _units("per_layer")
        metrics = per_layer(reps, units)
        context["spans_file"] = str(_write_spans(args.workload, args.seed, reps).relative_to(ROOT))
    else:
        metrics, samples = end_to_end(reps)
        context.update(samples)
        units = _units("end_to_end")
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
