"""One repetition of a workload, in a fresh interpreter.

run.py starts `python3 perfbench/worker.py <start time>` for every
repetition, so each one begins with the package's caches empty, and writes
the job (workload, generated inputs, whether to trace) as JSON on stdin.
The start time is read from the system-wide monotonic clock, so the two
processes' readings compare.  The worker imports the package from `src/`,
runs each operation under its own timer, checks each output outside the
timed interval and prints one JSON object.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import gen
import spans

ROOT = Path(__file__).resolve().parents[1]


# Identical work drifts by +-20% over tens of seconds on a shared 2-vCPU VM,
# in CPU time as much as in wall time, so run-to-run medians moved by 20%.
# A fixed breadth-first probe (the benchmark's own class-size search on one
# 3995-word class) is timed before the first operation, after every
# PROBE_EVERY_S of operation time, before every suite of the battery and
# after the last operation; its time is taken out of the operation it fell
# in.  run.py scales the repetition's times by the probe (see there).  The
# probe runs without garbage collection, so that its time does not grow with
# the program's heap.  It also runs twice before the package is imported,
# outside set-up time; the second of these, on the benchmark's heap alone,
# shows whether the program's heap moves the probe (run.py's context line).
PROBE_WORD = (3, 1, 2, 4, 1, 3, 2, 4, 1, 3)
PROBE_EVERY_S = 0.4


class Probe:
    """Times of the speed probe within one repetition."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def __call__(self) -> None:
        gc.disable()
        try:
            start = time.perf_counter()
            gen.class_size(PROBE_WORD, 10 ** 6)
            self.times.append(time.perf_counter() - start)
        finally:
            gc.enable()

    @property
    def total(self) -> float:
        return sum(self.times)


class Op:
    """A timed call plus the check of its output.

    `units` is what the operation counts as in `attempted`; `check` returns
    how many of them failed.
    """

    def __init__(self, call, check, units: int = 1) -> None:
        self.call, self.check, self.units = call, check, units


def _normalize(inputs: dict, tracer: spans.Tracer, probe: Probe) -> list[Op]:
    from chinese_monoid import core, representation

    def agrees(n: int, out: dict, word: tuple[int, ...]) -> bool:
        # Independent of the breadth-first path: the leaf-product embedding.
        return representation.eq_via_embedding(n, gen.expand(out["k"]), word)

    ops = []
    for q in inputs["queries"]:
        n = q["n"]
        if q["op"] == "nf":
            def call(text=q["text"], n=n):
                return core.to_staircase(core.parse_word(text, n), n).as_dict()

            def check(out, q=q, n=n):
                if q["k"] is not None:
                    return out == {"n": n, "k": q["k"]}
                return agrees(n, out, tuple(map(int, q["text"].split())))
        else:
            f = core.StaircaseForm.from_dict({"n": n, "k": q["f"]})
            g = core.StaircaseForm.from_dict({"n": n, "k": q["g"]})

            def call(f=f, g=g):
                return core.multiply(f, g).as_dict()

            def check(out, q=q, n=n):
                return agrees(n, out, gen.expand(q["f"]) + gen.expand(q["g"]))
        ops.append(Op(call, lambda out, check=check: 0 if check(out) else 1))
    return ops


def _embed_eq(inputs: dict, tracer: spans.Tracer, probe: Probe) -> list[Op]:
    from chinese_monoid import representation
    for n in inputs["ranks"]:
        representation.leaf_representations(n)
    ops = []
    for p in inputs["pairs"]:
        w, v = tuple(p["w"]), tuple(p["v"])
        ops.append(Op(lambda n=p["n"], w=w, v=v: representation.eq_via_embedding(n, w, v),
                      lambda out, want=p["equal"]: 0 if out is want else 1))
    return ops


def _leaves(inputs: dict, tracer: spans.Tracer, probe: Probe) -> list[Op]:
    from chinese_monoid import representation, tree

    def enumerate_and_build(n):
        return [representation.build_representation(leaf) for leaf in tree.enumerate_leaves(n)]

    def leaves_ok(reps, n):
        return len(reps) == gen.tribonacci(n) and all(r.c + 2 * r.d == n for r in reps)

    def dot_ok(text, n):
        lines = text.splitlines()
        nodes = sum(" [label=" in line for line in lines)
        edges = sum(" -> " in line for line in lines)
        leaves = sum("style=bold" in line for line in lines)
        return (lines[0] == "digraph diagram_tree {" and lines[-1] == "}"
                and leaves == gen.tribonacci(n) and edges == nodes - 1)

    def witness_ok(found, r1, r2):
        if found is None:
            return False
        w, v = found
        image = representation.image
        return image(r1, w) == image(r1, v) and image(r2, w) != image(r2, v)

    ops = []
    for n in inputs["leaves"]:
        ops.append(Op(lambda n=n: enumerate_and_build(n),
                      lambda out, n=n: 0 if leaves_ok(out, n) else 1))
    for n in inputs["render"]:
        ops.append(Op(lambda n=n: tree.render(tree.Diagram(n), "dot"),
                      lambda out, n=n: 0 if dot_ok(out, n) else 1))
    with tracer.paused():
        leaf_lists = {n: tree.enumerate_leaves(n) for n in {p["n"] for p in inputs["witness"]}}
        for p in inputs["witness"]:
            leaves = leaf_lists[p["n"]]
            r1 = representation.build_representation(leaves[p["a"]])
            r2 = representation.build_representation(leaves[p["b"]])
            ops.append(Op(lambda r1=r1, r2=r2: representation.incomparability_witness(
                              r1, r2, inputs["max_len"]),
                          lambda out, r1=r1, r2=r2: 0 if witness_ok(out, r1, r2) else 1))
    return ops


def _battery(inputs: dict, tracer: spans.Tracer, probe: Probe) -> list[Op]:
    from chinese_monoid import cli, harness

    suites = len(harness.DEFAULT_BATTERY)
    if not tracer.active:  # probes inside a traced call would count as cli time
        run_suite = harness.run_suite

        def probed_suite(*args, **kwargs):
            probe()
            return run_suite(*args, **kwargs)
        harness.run_suite = probed_suite

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "all", "--seed", str(inputs["seed"])])
        return code, out.getvalue()

    def check(out):
        code, text = out
        reports = [json.loads(line) for line in text.splitlines()]
        passed = sum(r.get("pass") is True for r in reports)
        if code != 0 or len(reports) != suites:
            return suites
        return suites - passed

    return [Op(call, check, units=suites)]


WORKLOADS = {
    "battery": _battery,
    "normalize": _normalize,
    "embed_eq": _embed_eq,
    "leaves": _leaves,
}


def run(job: dict, tracer: spans.Tracer) -> dict:
    probe = Probe()
    ops = WORKLOADS[job["workload"]](job["inputs"], tracer, probe)
    setup_s = time.monotonic() - job["started"] - job["pre_import"].total
    records = []
    stdout_digest = None
    probe()
    since_probe = 0.0
    for op in ops:
        probed = probe.total
        start = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a failed operation is counted, never fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start - (probe.total - probed)
        if error is None:
            with tracer.paused():
                try:
                    failed = op.check(out)
                except Exception as exc:  # a malformed output fails its check
                    failed, error = op.units, f"check: {type(exc).__name__}: {exc}"
        else:
            failed = op.units
        if job["workload"] == "battery" and out is not None:
            stdout_digest = hashlib.sha256(out[1].encode()).hexdigest()
        records.append([latency, op.units, failed, error])
        since_probe += latency
        if since_probe >= PROBE_EVERY_S:
            probe()
            since_probe = 0.0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe()
    return {"setup_s": setup_s, "ops": records, "peak_rss_mb": rss_kb / 1024,
            "probe_s": probe.times, "probe_pre_import_s": job["pre_import"].times[-1],
            "stdout_sha256": stdout_digest, "spans": tracer.spans}


def main() -> int:
    job = json.load(sys.stdin)
    job["started"] = float(sys.argv[1])
    job["pre_import"] = Probe()
    job["pre_import"]()  # the first call fills gen's relation cache
    job["pre_import"]()
    sys.path.insert(0, str(ROOT / "src"))
    import chinese_monoid  # noqa: F401  (the package import is part of set-up)
    tracer = spans.Tracer()
    if job["trace"]:
        tracer.install()
    else:
        tracer.active = False
    result_stream, sys.stdout = sys.stdout, sys.stderr  # stray prints must not corrupt the result
    json.dump(run(job, tracer), result_stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
