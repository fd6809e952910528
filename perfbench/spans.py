"""Spans around the package's public calls, recorded from outside the package.

`Tracer.install` rebinds each traced function, in every module of the
package that holds it, to a wrapper that appends a span (name, start, end,
parent, note) to an in-memory list.  The package's code is not changed; a
call from one traced function to another nests because the callee is looked
up through the rebound module name.  `layer_metrics` derives the per-layer
figures from the spans of one repetition.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time

from gen import tribonacci

LAYERS = ("core", "tree", "bicyclic", "representation", "harness", "cli")

SUITES = ("counts", "faithfulness_n3", "faithfulness_n4", "boxplus", "identity",
          "centrality", "incomparability", "schema")


def _suite_name(args, kwargs) -> str:
    name = args[0] if args else kwargs["name"]
    if name == "faithfulness":
        name += f"_n{kwargs.get('n', 3)}"
    return f"harness.{name}"


# (module, attribute, span name, note taken from (args, result))
TARGETS = (
    ("core", "parse_word", "core.parse_word", None),
    ("core", "to_staircase", "core.to_staircase", None),
    ("core", "multiply", "core.multiply", None),
    ("core", "eq_oracle", "core.eq_oracle", None),
    ("tree", "enumerate_leaves", "tree.enumerate_leaves", lambda a, r: len(r)),
    ("tree", "render_dot", "tree.render_dot", None),
    ("representation", "build_representation", "representation.build", None),
    ("representation", "leaf_representations", "representation.leaf_representations", None),
    ("representation", "eq_via_embedding", "representation.eq",
     lambda a, r: [a[0], len(a[1]) + len(a[2]), bool(r)]),
    ("representation", "incomparability_witness", "representation.witness", None),
    ("harness", "run_suite", _suite_name, lambda a, r: r.instances),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []

    def _wrap(self, func, label, note):
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            index = len(self.spans)
            span = [label(args, kwargs) if callable(label) else label, 0.0, 0.0,
                    self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(f"chinese_monoid.{name}") for name in LAYERS}
        for module, attr, label, note in TARGETS:
            original = getattr(modules[module], attr)
            wrapper = self._wrap(original, label, note)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (input set-up, output checks) record no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was


def _outermost(spans: list[list], pick) -> list[list]:
    """Spans chosen by `pick` that have no chosen ancestor (no double count)."""
    chosen = [pick(s) for s in spans]
    out = []
    for i, span in enumerate(spans):
        if not chosen[i]:
            continue
        parent = span[3]
        while parent >= 0 and not chosen[parent]:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span)
    return out


def _busy(spans: list[list], pick) -> float:
    return sum(s[2] - s[1] for s in _outermost(spans, pick))


def _p50_ms(durations: list[float]) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; with fewer than eleven samples, the maximum."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one repetition from its spans."""
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def durations(name):
        return [s[2] - s[1] for s in by_name.get(name, [])]

    def busy(name):
        return _busy(spans, lambda s: s[0] == name)

    m: dict[str, float] = {}
    nf = durations("core.to_staircase")
    m["core.to_staircase.calls"] = len(nf)
    m["core.to_staircase.busy_s"] = busy("core.to_staircase")
    m["core.to_staircase.p50_ms"] = _p50_ms(nf)
    m["core.to_staircase.tail_ms"] = tail(nf)[0] * 1e3
    mul = durations("core.multiply")
    m["core.multiply.calls"] = len(mul)
    m["core.multiply.busy_s"] = busy("core.multiply")
    m["core.multiply.p50_ms"] = _p50_ms(mul)
    m["core.parse_word.busy_s"] = busy("core.parse_word")
    m["core.eq_oracle.busy_s"] = busy("core.eq_oracle")

    enum_busy = busy("tree.enumerate_leaves")
    leaves = sum(s[4] or 0 for s in by_name.get("tree.enumerate_leaves", []))
    m["tree.enumerate_leaves.busy_s"] = enum_busy
    m["tree.leaves"] = leaves
    m["tree.leaves_per_s"] = leaves / enum_busy if enum_busy else 0.0
    m["tree.render_dot.busy_s"] = busy("tree.render_dot")

    builds = by_name.get("representation.build", [])
    build_busy = busy("representation.build")
    m["representation.build.busy_s"] = build_busy
    m["representation.build.per_leaf_us"] = build_busy / len(builds) * 1e6 if builds else 0.0
    m["representation.leaf_representations.busy_s"] = busy("representation.leaf_representations")
    eqs = [s for s in by_name.get("representation.eq", []) if s[4] is not None]
    m["representation.eq.calls"] = len(eqs)
    m["representation.eq.busy_s"] = busy("representation.eq")
    m["representation.eq.equal_p50_ms"] = _p50_ms([s[2] - s[1] for s in eqs if s[4][2]])
    m["representation.eq.unequal_p50_ms"] = _p50_ms([s[2] - s[1] for s in eqs if not s[4][2]])
    m["representation.eq.leaf_letters"] = sum(
        tribonacci(s[4][0]) * s[4][1] for s in eqs if s[4][2])
    wit = durations("representation.witness")
    m["representation.witness.calls"] = len(wit)
    m["representation.witness.busy_s"] = busy("representation.witness")
    m["representation.witness.p50_ms"] = _p50_ms(wit)

    for suite in SUITES:
        name = f"harness.{suite}"
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.instances"] = sum(s[4] or 0 for s in by_name.get(name, []))

    children: dict[int, float] = {}
    for span in spans:
        if span[3] >= 0:
            children[span[3]] = children.get(span[3], 0.0) + span[2] - span[1]
    for layer in LAYERS:
        if layer == "bicyclic":
            continue  # no public entry point of its own; all its calls run inside image()
        m[f"layer.{layer}.busy_s"] = _busy(spans, lambda s, layer=layer: layer_of(s[0]) == layer)
        m[f"layer.{layer}.self_s"] = sum(
            s[2] - s[1] - children.get(i, 0.0)
            for i, s in enumerate(spans) if layer_of(s[0]) == layer)
    return m

