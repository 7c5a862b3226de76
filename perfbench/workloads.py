"""The benchmark's four workloads.

``build(seed, workdir)`` makes a workload's inputs from the seed and returns
its cycle of ops in canonical order.  One op is one unit of work a user
waits for: one ``contamest`` process on ``cli_wide``, one library call on
the others.  ``Op.run(tracer)`` performs it and returns its output;
``Op.check(output)`` returns ``None`` when the output is right for the
generated input and a one-line reason otherwise.  ``Op.canon(output)`` is
the part of an output that must repeat exactly every time the op runs.

Each cycle has an odd number of ops and the timed loop runs whole cycles,
so the median op is the same op in every run.  Why each workload exists,
and which layers it loads, is in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import contamest.estimator as estimator
from contamest.distributions import (
    Distribution,
    EmpiricalCounts,
    KlBall,
    Mixture,
    Singleton,
    empirical,
    klball_radius,
)
from contamest.oracle import exact_cstar

EPSILON = 0.05
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass
class Op:
    key: str
    run: Callable[[object], object]
    check: Callable[[object], str | None]
    canon: Callable[[object], object] = lambda out: out


def _check_estimate(result, p: int, contaminated: bool | None) -> str | None:
    if result.c_lower != math.floor(p * result.alpha_lower):
        return f"c_lower {result.c_lower} != floor(p * alpha_lower)"
    if not 0.0 <= result.alpha_lower < 1.0:
        return f"alpha_lower {result.alpha_lower} outside [0, 1)"
    # The generated inputs are far from the decision boundary, so a
    # contaminated one has a positive bound and a clean one none.
    if contaminated is not None and (
        result.contaminated != contaminated or (result.alpha_lower > 0.0) != contaminated
    ):
        return (f"contaminated={result.contaminated}, alpha_lower={result.alpha_lower} "
                f"for a {'contaminated' if contaminated else 'clean'} input")
    return None


def _estimate_op(key, counts, model, contaminated) -> Op:
    # The function is looked up at call time so a traced run sees the wrapper.
    return Op(
        key,
        lambda tracer: estimator.estimate_alpha_lower(counts, model, EPSILON),
        lambda out: _check_estimate(out, counts.total, contaminated),
    )


# ---------------------------------------------------------------------------
# singleton_wide: water-filling at n = 1e4 .. 1e5


def _contaminated_singleton(rng, n: int):
    q = rng.dirichlet(np.full(n, 5.0))
    target = 0.9 * q
    target[rng.choice(n, size=5, replace=False)] += 0.02
    counts = EmpiricalCounts(rng.multinomial(300 * n, target))
    return counts, Singleton(Distribution(q))


def _verdict_op(key, counts, model) -> Op:
    def check(out):
        verdict, margin = out
        if not (verdict and margin > 0):
            return f"is_contaminated returned {out}, the input is contaminated"
        return None

    return Op(key, lambda tracer: estimator.is_contaminated(counts, model, EPSILON), check)


def build_singleton_wide(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    inst = {n: _contaminated_singleton(rng, n) for n in (10_000, 20_000, 40_000, 100_000)}
    return [
        _estimate_op("estimate n=10000", *inst[10_000], True),
        _estimate_op("estimate n=20000", *inst[20_000], True),
        _estimate_op("estimate n=40000", *inst[40_000], True),
        _verdict_op("is_contaminated n=40000", *inst[40_000]),
        _verdict_op("is_contaminated n=100000", *inst[100_000]),
    ]


# ---------------------------------------------------------------------------
# mixture_k10: the acceptance criterion-5 instances

MIXTURE_INSTANCES = 15


def build_mixture_k10(seed: int, workdir: Path) -> list[Op]:
    # The first instances of acceptance criterion 5's generator, the same in
    # every run.  An instance's cost depends chaotically on its sampled counts
    # (redrawing the counts of one mixture and truth moved it from 262 to 888
    # ms), so freshly drawn instances would make the median depend on the
    # seed.  The seed orders the cycle.
    rng = np.random.default_rng(20240005)
    ops = []
    for i in range(MIXTURE_INSTANCES):
        components = tuple(Distribution(rng.dirichlet(np.ones(50))) for _ in range(10))
        truth = rng.dirichlet(np.ones(50))
        counts = EmpiricalCounts(rng.multinomial(100_000, truth))
        ops.append(_estimate_op(f"instance {i}", counts, Mixture(components), None))
    return ops


# ---------------------------------------------------------------------------
# klball_twosample: two_sample_test, contaminated and clean pairs


def _pair(rng, n: int, contaminated: bool):
    q = rng.dirichlet(np.full(n, 5.0))
    baseline = EmpiricalCounts(rng.multinomial(5000 * n, q))
    target = q
    if contaminated:
        target = 0.8 * q
        target[rng.choice(n, size=3, replace=False)] += 0.2 / 3
    return EmpiricalCounts(rng.multinomial(5000 * n, target)), baseline


def build_klball_twosample(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    # Eighteen contaminated pairs, two at each size, and seven clean ones.  A
    # clean pair costs one solve (under 1 ms) and a contaminated one a whole
    # bisection (30 to 120 ms, depending on how fast the alternating solver
    # converges on that pair), so the median op is a contaminated pair, and
    # with eighteen of them the median moves little from seed to seed.
    plan = [(n, True) for n in (20, 40, 80, 150, 300, 600, 1000, 1500, 2000) * 2]
    plan += [(n, False) for n in (30, 60, 120, 300, 700, 1200, 2000)]
    ops = []
    for i, (n, contaminated) in enumerate(plan):
        data, baseline = _pair(rng, n, contaminated)
        ops.append(Op(
            f"pair {i}: {'contaminated' if contaminated else 'clean'}, n={n}",
            lambda tracer, d=data, b=baseline: estimator.two_sample_test(d, b, EPSILON),
            lambda out, p=data.total, c=contaminated: _check_estimate(out, p, c),
        ))
    return ops


# ---------------------------------------------------------------------------
# cli_wide: one contamest process per op on labelled files

CLI_CATEGORIES = 3000
CLI_EXTRA = 30  # model-only categories, zero-extended on the data side
CLI_ENTRY = "from contamest.cli import main; main()"  # the console script
_WALL_TIME = re.compile(rb'\n *"wall_time_ms": [^\n]*')


def _write_counts(path: Path, labels, counts) -> None:
    rows = "".join(f"{label},{int(c)}\n" for label, c in zip(labels, counts))
    path.write_text("category,count\n" + rows)


def _aligned(data_labels, data_counts, model_labels, values, dtype):
    """Data and model vectors over the union of labels, data labels first.

    This is the alignment the CLI documents, written independently of it so
    the CLI's reports can be checked against library calls.
    """
    seen = set(data_labels)
    union = list(data_labels) + [l for l in model_labels if l not in seen]
    index = {l: i for i, l in enumerate(union)}
    data = np.zeros(len(union), dtype=np.int64)
    data[[index[l] for l in data_labels]] = data_counts
    model = np.zeros(len(union), dtype=dtype)
    model[[index[l] for l in model_labels]] = values
    return EmpiricalCounts(data), model


def _estimate_payload(result) -> dict:
    return {
        "alpha_lower": result.alpha_lower,
        "kappa": result.kappa,
        "c_lower": result.c_lower,
        "threshold_at_alpha": result.threshold_at_alpha,
        "objective_at_alpha": result.objective_at_alpha,
        "contaminated": result.contaminated,
        "bisection_width": result.bisection_width,
    }


def _cli_op(key, argv, env, workdir, exit_code, expected) -> Op:
    """One CLI process; ``expected()`` gives the report's library-derived part."""
    reference = {}

    def run(tracer):
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            spans = workdir / f"spans-{tracer.op}.jsonl"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans),
                   repr(time.perf_counter()), *argv]
        try:
            proc = subprocess.run(cmd, capture_output=True, env=env, cwd=workdir, timeout=120)
        except subprocess.TimeoutExpired:
            return (None, b"", b"timed out")
        if tracer is not None and proc.returncode in (0, 2):
            tracer.adopt(spans)
        return (proc.returncode, proc.stdout, proc.stderr)

    def check(out):
        code, stdout, stderr = out
        if code != exit_code:
            return f"exit code {code}, expected {exit_code}"
        if stderr:
            return f"stderr not empty: {stderr[:200]!r}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "report does not parse"
        result = report.get("result", {})
        if "c_lower" in result and result["c_lower"] != math.floor(
            report["data"]["p"] * result["alpha_lower"]
        ):
            return "c_lower != floor(p * alpha_lower)"
        if not reference:
            reference.update(expected())
        for field, value in reference.items():
            if report.get(field) != value:
                return f"report field {field!r} differs from the library result"
        return None

    return Op(key, run, check, lambda out: (out[0], _WALL_TIME.sub(b"", out[1]), out[2]))


def build_cli_wide(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    n, extra = CLI_CATEGORIES, CLI_EXTRA
    labels = [f"c{v:07d}" for v in rng.choice(10**7, size=n + extra, replace=False)]
    data_labels = labels[:n]
    q = rng.dirichlet(np.full(n + extra, 5.0))

    q_data = q[:n] / q[:n].sum()
    clean = rng.multinomial(500 * n, q_data)
    target = 0.85 * q_data
    target[rng.choice(n, size=4, replace=False)] += 0.15 / 4
    dirty = rng.multinomial(500 * n, target)

    # Singleton spec: every data category plus 20 model-only ones.
    single_labels = labels[: n + 20]
    single_probs = [float(v) for v in q[: n + 20]]
    # KL-ball spec and twosample baseline: drop 10 data categories, add all
    # model-only ones, in shuffled order.
    ball_labels = [labels[i] for i in rng.permutation(np.arange(10, n + extra))]
    position = {l: i for i, l in enumerate(labels)}
    ball_q = q[[position[l] for l in ball_labels]]
    ball_q = ball_q / ball_q.sum()
    ball_counts = rng.multinomial(2000 * n, ball_q)
    baseline_counts = rng.multinomial(2000 * n, ball_q)

    files = {name: workdir / name for name in
             ("dirty.csv", "clean.csv", "baseline.csv", "singleton.json", "klball.json")}
    _write_counts(files["dirty.csv"], data_labels, dirty)
    _write_counts(files["clean.csv"], data_labels, clean)
    _write_counts(files["baseline.csv"], ball_labels, baseline_counts)
    files["singleton.json"].write_text(json.dumps(
        {"kind": "singleton", "probs": dict(zip(single_labels, single_probs))}))
    files["klball.json"].write_text(json.dumps(
        {"kind": "klball", "counts": {l: int(c) for l, c in zip(ball_labels, ball_counts)},
         "epsilon": EPSILON}))

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)

    def singleton_input(data):
        counts, vec = _aligned(data_labels, data, single_labels, single_probs, float)
        return counts, Singleton(Distribution(vec))

    def expect_test(data):
        def expected():
            counts, model = singleton_input(data)
            verdict, margin = estimator.is_contaminated(counts, model, EPSILON)
            threshold = estimator.gof_threshold(counts.total, counts.n, EPSILON)
            objective = math.inf if math.isinf(margin) else margin + threshold
            return {
                "data": {"p": counts.total, "n": counts.n},
                "result": {"contaminated": verdict, "margin": margin,
                           "objective": objective, "threshold": threshold},
            }
        return expected

    def expect_singleton():
        counts, model = singleton_input(dirty)
        result = estimator.estimate_alpha_lower(counts, model, EPSILON)
        return {"data": {"p": counts.total, "n": counts.n},
                "result": _estimate_payload(result)}

    def expect_klball():
        counts, vec = _aligned(data_labels, dirty, ball_labels, ball_counts, np.int64)
        model_counts = EmpiricalCounts(vec)
        model = KlBall(empirical(model_counts), klball_radius(model_counts, EPSILON))
        result = estimator.estimate_alpha_lower(counts, model, EPSILON)
        return {"data": {"p": counts.total, "n": counts.n},
                "result": _estimate_payload(result)}

    def expect_twosample():
        counts, vec = _aligned(data_labels, dirty, ball_labels, baseline_counts, np.int64)
        baseline = EmpiricalCounts(vec)
        result = estimator.two_sample_test(counts, baseline, EPSILON)
        return {"data": {"p": counts.total, "p_model": baseline.total, "n": counts.n},
                "radius": klball_radius(baseline, EPSILON),
                "result": _estimate_payload(result)}

    d = {k: str(v) for k, v in files.items()}
    return [
        _cli_op("test dirty", ["test", "--model", d["singleton.json"], "--data", d["dirty.csv"]],
                env, workdir, 2, expect_test(dirty)),
        _cli_op("test clean", ["test", "--model", d["singleton.json"], "--data", d["clean.csv"]],
                env, workdir, 0, expect_test(clean)),
        _cli_op("estimate singleton",
                ["estimate", "--model", d["singleton.json"], "--data", d["dirty.csv"]],
                env, workdir, 0, expect_singleton),
        _cli_op("estimate klball",
                ["estimate", "--model", d["klball.json"], "--data", d["dirty.csv"]],
                env, workdir, 0, expect_klball),
        _cli_op("twosample", ["twosample", "--data", d["dirty.csv"], "--baseline",
                              d["baseline.csv"]], env, workdir, 0, expect_twosample),
    ]


WORKLOADS = {
    "cli_wide": build_cli_wide,
    "singleton_wide": build_singleton_wide,
    "mixture_k10": build_mixture_k10,
    "klball_twosample": build_klball_twosample,
}


# ---------------------------------------------------------------------------
# brute-force soundness check, run once per benchmark run


def oracle_violations(seed: int) -> list[str]:
    """``c_lower <= exact_cstar`` on six tiny singleton instances (p <= 14, n <= 3)."""
    rng = np.random.default_rng([seed, 14])
    out = []
    for _ in range(6):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(4, 15))
        q = Distribution(rng.dirichlet(np.ones(n)))
        target = 0.2 * q.probs
        target[int(np.argmin(q.probs))] += 0.8
        counts = EmpiricalCounts(rng.multinomial(p, target))
        c_lower = estimator.estimate_alpha_lower(counts, Singleton(q), EPSILON).c_lower
        c_star = exact_cstar(counts, q, EPSILON)
        if c_lower > c_star:
            out.append(f"counts {counts.counts.tolist()}: c_lower {c_lower} > exact {c_star}")
    return out
