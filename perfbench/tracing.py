"""Spans around the calls into each contamest layer, and the per-layer
metrics derived from them.

Only traced runs use this module.  ``Tracer.install`` replaces public
functions at the module attributes their callers look up (for example
``contamest.estimator.solve``, which ``estimate_alpha_lower`` calls), so the
package itself is not modified.  Each span records its name, layer, start,
end, parent span and op id; spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

# Layer of every wrapped function, keyed by function name.
LAYER = {
    "run_command": "cli",
    "ingest_counts": "cli",
    "load_model_spec": "cli",
    "align_with_model": "cli",
    "estimate_alpha_lower": "estimator",
    "is_contaminated": "estimator",
    "two_sample_test": "estimator",
    "solve": "solver",
    "solve_singleton": "solver",
    "solve_mixture": "solver",
    "solve_klball": "solver",
    "empirical": "distributions",
}

# Module attributes to wrap: the names each module's code resolves at call
# time.  Missing attributes are skipped, so a refactor that removes one
# leaves the trace running with that boundary unrecorded.
WRAPPED = {
    "contamest.cli": (
        "run_command", "ingest_counts", "load_model_spec", "align_with_model",
        "estimate_alpha_lower", "is_contaminated", "two_sample_test", "empirical",
    ),
    "contamest.estimator": (
        "estimate_alpha_lower", "is_contaminated", "two_sample_test",
        "solve", "solve_mixture", "empirical",
    ),
    "contamest.solver": ("solve_singleton", "solve_mixture", "solve_klball", "empirical"),
}

# Keyword arguments through which the estimator hands a solver a threshold.
# A solver call with none of them set is a full solve.
THRESHOLD_KWARGS = ("stop_below", "stop_above", "threshold")

SOLVER_KINDS = {
    "solve_singleton": "singleton",
    "solve_mixture": "mixture",
    "solve_klball": "klball",
}


def _info(name: str, kwargs: dict, result) -> dict:
    if LAYER[name] == "solver":
        return {
            "iterations": int(getattr(result, "iterations", 0)),
            "converged": bool(getattr(result, "converged", True)),
            "full": all(kwargs.get(k) is None for k in THRESHOLD_KWARGS),
        }
    if name == "ingest_counts":
        return {"categories": int(result.n)}
    return {}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str, layer: str, start: float | None = None) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter() if start is None else start,
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """Add a finished span measured outside a wrapped call."""
        self.close(self.open(name, layer, start))
        self.spans[-1]["end"] = end

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        layer = LAYER[name]

        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.update(_info(name, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is not None:
                    setattr(module, attr, self._wrap(attr, fn))
                    self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def adopt(self, path: Path) -> None:
        """Append spans another process dumped, under the current open span."""
        offset = len(self.spans)
        root = self._stack[-1] if self._stack else None
        with open(path) as fh:
            for line in fh:
                span = json.loads(line)
                span["id"] += offset
                span["parent"] = root if span["parent"] is None else span["parent"] + offset
                span["op"] = self.op
                self.spans.append(span)

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def cycle_counts(spans: list[dict]) -> dict:
    """Work counts of a set of spans; these must repeat exactly per cycle."""
    by_id = {s["id"]: s for s in spans}
    counts = Counter()
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["name"] == "estimate_alpha_lower":
            counts["estimates"] += 1
        if s["name"] == "ingest_counts":
            counts["ingest_calls"] += 1
            counts["categories"] += s["categories"]
        if s["layer"] != "solver":
            continue
        if s["name"] in SOLVER_KINDS:
            counts[SOLVER_KINDS[s["name"]] + "_iterations"] += s["iterations"]
        if parent is not None and parent["layer"] == "solver":
            continue  # solve() dispatching to solve_<kind>: one solver call
        counts["cap_hits"] += not s["converged"]
        if parent is not None and parent["name"] == "estimate_alpha_lower":
            counts["probes"] += 1
            counts["full_solves"] += s["full"]
    return dict(counts)


def layer_metrics(spans: list[dict], n_ops: int, n_cycles: int) -> dict:
    """Per-layer metrics over whole traced cycles: name -> (value, unit).

    Times are per op unless the name says otherwise; ``estimator.probes`` and
    ``estimator.full_solves`` are per estimate, ``solver.cap_hits`` is per
    cycle and ``cli.categories`` is per ingested file.
    """
    by_id = {s["id"]: s for s in spans}
    child_s = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def total(name=None, layer=None, self_time=False):
        out = 0.0
        for s in spans:
            if (name is None or s["name"] == name) and (layer is None or s["layer"] == layer):
                out += dur(s) - (child_s[s["id"]] if self_time else 0.0)
        return out

    def per_op_ms(seconds):
        return seconds * 1e3 / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    counts = Counter(cycle_counts(spans))
    solver_top = [
        s for s in spans
        if s["layer"] == "solver" and by_id.get(s["parent"], {}).get("layer") != "solver"
    ]
    solver_s = sum(dur(s) for s in solver_top)
    full_s = sum(dur(s) for s in solver_top if s["full"])
    ingest_s = total("ingest_counts")
    empirical_calls = sum(1 for s in spans if s["name"] == "empirical")
    metrics = {
        "cli.startup_ms": (per_op_ms(total("cli.startup")), "ms"),
        "cli.ingest_ms": (per_op_ms(ingest_s), "ms"),
        "cli.model_spec_ms": (per_op_ms(total("load_model_spec")), "ms"),
        "cli.align_ms": (per_op_ms(total("align_with_model")), "ms"),
        "cli.self_ms": (per_op_ms(total("run_command", self_time=True)), "ms"),
        "cli.categories": (ratio(counts["categories"], counts["ingest_calls"]), "count"),
        "cli.ingest_us_per_category": (ratio(ingest_s * 1e6, counts["categories"]), "us"),
        "estimator.self_ms": (per_op_ms(total(layer="estimator", self_time=True)), "ms"),
        "estimator.probes": (ratio(counts["probes"], counts["estimates"]), "count"),
        "estimator.full_solves": (ratio(counts["full_solves"], counts["estimates"]), "count"),
        "solver.full_solve_share": (100.0 * ratio(full_s, solver_s), "%"),
        "solver.cap_hits": (counts["cap_hits"] / n_cycles, "count"),
        "distributions.empirical_calls": (empirical_calls / n_ops, "count"),
        "distributions.empirical_ms": (per_op_ms(total("empirical")), "ms"),
    }
    for fn, kind in SOLVER_KINDS.items():
        kind_s = total(fn)
        metrics[f"solver.{kind}.ms"] = (per_op_ms(kind_s), "ms")
        if kind == "singleton":
            calls = sum(1 for s in spans if s["name"] == fn)
            metrics["solver.singleton.us_per_call"] = (ratio(kind_s * 1e6, calls), "us")
        else:
            iterations = counts[f"{kind}_iterations"]
            metrics[f"solver.{kind}.iterations"] = (iterations / n_ops, "count")
            metrics[f"solver.{kind}.us_per_iteration"] = (ratio(kind_s * 1e6, iterations), "us")
    return metrics
