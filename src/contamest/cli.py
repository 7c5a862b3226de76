"""Command-line front end: data ingestion, model specs, and reports.

Commands
--------
test       contamination verdict for a dataset against a model
estimate   certified lower bound on the contaminated fraction
twosample  test one dataset against another dataset as the model
sweep      deterministic grid experiment, CSV rows
oracle     exact brute-force values for tiny instances (debugging)

Count files are CSV (``category,count``, header optional) or a JSON mapping
of category to count.  Every count, in a count file or in a KL-ball spec's
``counts``, must be a finite non-negative integer (an integer literal is
read exactly), and each mapping's total must be positive and fit in int64;
a JSON boolean is not a number anywhere.  Input files are UTF-8, with or
without a byte-order mark.  Model specs are JSON with a ``kind`` field; see
the README for the schema.  Categories are aligned
between data and model by label: the dimension is the union, missing
categories get count 0 on the data side and mass 0 on the model side.
``twosample`` is ``estimate`` against the spec ``{"kind": "klball",
"counts": <baseline>, "epsilon": <epsilon>}``.

Exit codes: 0 success, 2 contaminated verdict (``test`` only), 1 any error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .distributions import (
    Distribution,
    EmpiricalCounts,
    KlBall,
    Mixture,
    ModelSet,
    Singleton,
    _MAX_TOTAL,
    empirical,
    kl_divergence,
    klball_radius,
)
from .estimator import (
    DEFAULT_BISECT_TOL,
    SweepConfig,
    estimate_alpha_lower,
    gof_threshold,
    is_contaminated,
    sweep,
)
from .oracle import exact_cstar, exact_typicality

SCHEMA_VERSION = 1

_CSV_HEADER = ("category", "count")


class CliError(ValueError):
    """User-facing error; printed as one line on stderr, exit code 1."""


@dataclass(frozen=True)
class ModelSpec:
    """Parsed model description prior to label alignment."""

    kind: str
    distributions: tuple[dict[str, float], ...]
    radius: float | None = None
    counts: dict[str, int] | None = None
    epsilon: float | None = None
    digest: str = ""


# ---------------------------------------------------------------------------
# ingestion


def _read_text(path: Path) -> str:
    """Text of an input file; a UTF-8 byte-order mark is dropped."""
    if not path.exists():
        raise CliError(f"no such file: {path}")
    return path.read_text(encoding="utf-8-sig")


def _read_json(path: Path):
    """Decoded JSON of an input file."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CliError(f"unparseable file: {path}: {exc}") from exc


def _mapping(node, message: str) -> dict:
    """``node`` if it is a non-empty JSON object; ``CliError(message)`` otherwise."""
    if not isinstance(node, dict) or not node:
        raise CliError(message)
    return node


def _number(value, message: str) -> float:
    """``float(value)`` for a JSON number or numeric string.  Anything else,
    a JSON boolean (a Python ``int``) included, raises ``CliError`` with
    ``message`` and the value."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise CliError(f"{message}: {value!r}")


def _count_map(pairs, source) -> dict[str, int]:
    """Validate labelled counts: unique labels, finite non-negative integers,
    and a total that is positive and fits in int64.  Integer literals are
    exact, as JSON numbers or as strings."""
    out: dict[str, int] = {}
    for label, value in pairs:
        if label in out:
            raise CliError(f"duplicate category: {label}")
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:  # "3.0", "1e3": parsed as floats below
                pass
        if type(value) is not int:
            as_float = _number(value, f"unparseable count for category {label}")
            if not math.isfinite(as_float) or as_float != int(as_float):
                raise CliError(f"non-integer count for category {label}: {value!r}")
            value = int(as_float)
        if value < 0:
            raise CliError(f"negative count for category {label}: {value}")
        out[label] = value
    total = sum(out.values())
    if total > _MAX_TOTAL:
        raise CliError(f"counts in {source} sum to more than 2**63 - 1")
    if total == 0:
        raise CliError(f"empty dataset: {source}")
    return out


def ingest_counts(path: str | Path) -> EmpiricalCounts:
    """Read a count file into first-appearance category order.

    The file is JSON if its suffix is ``.json`` and CSV otherwise.  Rejects
    duplicate categories and counts that break the rule of ``_count_map``.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        message = f"unparseable file: {path}: expected a category->count mapping"
        pairs = _mapping(_read_json(path), message).items()
    else:
        pairs = []
        try:
            for row in csv.reader(io.StringIO(_read_text(path))):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != 2:
                    raise CliError(f"unparseable file: {path}: expected 2 columns")
                if tuple(c.strip().lower() for c in row) == _CSV_HEADER:
                    continue
                pairs.append((row[0].strip(), row[1].strip()))
        except csv.Error as exc:
            raise CliError(f"unparseable file: {path}: {exc}") from exc
        if not pairs:
            raise CliError(f"unparseable file: {path}: no data rows")
    counts = _count_map(pairs, path)
    return EmpiricalCounts(np.array(list(counts.values()), dtype=np.int64), tuple(counts))


# ---------------------------------------------------------------------------
# model specs


def _probs_mapping(node, base: Path, what: str) -> dict[str, float]:
    """Masses of a ``probs``/``center``/component mapping: each finite and
    non-negative, at least one positive."""
    if isinstance(node, str):
        node = _read_json(base / node)
    node = _mapping(node, f"model spec: {what} must be a category->mass mapping or file path")
    masses = {}
    for k, v in node.items():
        message = f"model spec: bad mass for category {k}"
        mass = _number(v, message)
        if not 0 <= mass < math.inf:  # NaN fails both comparisons
            raise CliError(f"{message}: {v!r}")
        masses[k] = mass
    if not any(masses.values()):
        raise CliError(f"model spec: {what} has no positive mass")
    return masses


def load_model_spec(path: str | Path) -> ModelSpec:
    path = Path(path)
    raw = _read_json(path)
    if not isinstance(raw, dict) or "kind" not in raw:
        raise CliError(f"model spec: missing 'kind' in {path}")
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    kind = str(raw["kind"])
    base = path.parent
    if kind == "singleton":
        probs = _probs_mapping(raw.get("probs"), base, "probs")
        return ModelSpec(kind=kind, distributions=(probs,), digest=digest)
    if kind == "mixture":
        comps = raw.get("components")
        if not isinstance(comps, list) or len(comps) < 2:
            raise CliError("model spec: mixture needs a list of >= 2 components")
        dists = tuple(_probs_mapping(c, base, "component") for c in comps)
        return ModelSpec(kind=kind, distributions=dists, digest=digest)
    if kind == "klball":
        if "center" in raw and "radius" in raw:
            center = _probs_mapping(raw["center"], base, "center")
            radius = _number(raw["radius"], "model spec: radius must be a number")
            if radius <= 0:
                raise CliError("model spec: radius must be positive")
            if not math.isfinite(radius):
                raise CliError("model spec: radius must be finite")
            return ModelSpec(kind=kind, distributions=(center,), radius=radius, digest=digest)
        if "counts" in raw and "epsilon" in raw:
            message = "model spec: counts must be a category->count mapping"
            counts = _count_map(_mapping(raw["counts"], message).items(), path)
            epsilon = _number(raw["epsilon"], "model spec: epsilon must be a number")
            if not 0 < epsilon < 1:  # NaN fails both comparisons
                raise CliError("model spec: epsilon must be in (0, 1)")
            return ModelSpec(
                kind=kind, distributions=(), counts=counts, epsilon=epsilon, digest=digest
            )
        raise CliError("model spec: klball needs center+radius or counts+epsilon")
    raise CliError(f"model spec: unknown kind {kind!r}")


def align_with_model(
    counts: EmpiricalCounts, spec: ModelSpec
) -> tuple[EmpiricalCounts, ModelSet]:
    """Align data and model by category label and build the model set.

    The common dimension is the union of the categories: data categories in
    first-appearance order, then model-only categories.  Missing entries are
    zero-extended on both sides.
    """
    index: dict[str, int] = {}
    for mapping in (counts.labels, *spec.distributions, spec.counts or ()):
        for label in mapping:
            index.setdefault(label, len(index))
    labels = tuple(index)

    def embed(mapping: dict, dtype=float) -> np.ndarray:
        vec = np.zeros(len(labels), dtype=dtype)
        vec[[index[l] for l in mapping]] = list(mapping.values())
        return vec

    values = np.zeros(len(labels), dtype=np.int64)
    values[: counts.n] = counts.counts  # data labels come first in the union
    aligned_counts = EmpiricalCounts(values, labels=labels)
    if spec.kind == "singleton":
        model: ModelSet = Singleton(Distribution(embed(spec.distributions[0])))
    elif spec.kind == "mixture":
        model = Mixture(tuple(Distribution(embed(d)) for d in spec.distributions))
    elif spec.counts is not None:
        model_counts = EmpiricalCounts(embed(spec.counts, np.int64))
        model = KlBall(empirical(model_counts), klball_radius(model_counts, spec.epsilon))
    else:
        model = KlBall(Distribution(embed(spec.distributions[0])), spec.radius)
    return aligned_counts, model


# ---------------------------------------------------------------------------
# reports


def _flatten(node: dict, prefix: str = "") -> dict:
    """Nested report fields as dotted columns, in field order."""
    flat: dict = {}
    for k, v in node.items():
        if isinstance(v, dict):
            flat.update(_flatten(v, f"{prefix}{k}."))
        else:
            flat[f"{prefix}{k}"] = v
    return flat


def _emit_report(report: dict | list[dict], fmt: str, out_path: str | None) -> None:
    """Write one report, or a list of rows, to stdout and to ``out_path``.

    JSON keeps the nesting; CSV has one line per row under the first row's
    columns.
    """
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        rows = [report] if isinstance(report, dict) else report
        flat_rows = [_flatten(row) for row in rows]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(list(flat_rows[0]))
        writer.writerows([_csv_cell(v) for v in flat.values()] for flat in flat_rows)
        text = buf.getvalue()
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# commands


def _run(args, compute, load_spec=lambda args: load_model_spec(args.model)) -> int:
    """Ingest, align, time ``compute`` and emit its report; returns the exit code.

    ``compute(args, counts, spec, model)`` returns the command's own report
    fields, ``result`` at least, and its exit code.  A returned field that
    the runner also sets (``data``) replaces it in place, so CSV columns keep
    their order.
    """
    counts = ingest_counts(args.data)
    spec = load_spec(args)
    counts, model = align_with_model(counts, spec)
    start = time.perf_counter()
    fields, code = compute(args, counts, spec, model)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    report = {"schema_version": SCHEMA_VERSION, "command": args.command}
    report["epsilon"] = args.epsilon
    if "tol" in args:
        report["bisect_tol"] = args.tol
    report["model_digest"] = spec.digest
    report["data"] = {"p": counts.total, "n": counts.n}
    report.update(fields)
    report["wall_time_ms"] = elapsed_ms
    report["version"] = __version__
    _emit_report(report, args.format, args.out)
    return code


def _test(args, counts, spec, model):
    verdict, margin = is_contaminated(counts, model, args.epsilon)
    threshold = gof_threshold(counts.total, counts.n, args.epsilon)
    result = {
        "contaminated": verdict,
        "margin": margin,
        "objective": math.inf if math.isinf(margin) else margin + threshold,
        "threshold": threshold,
    }
    return {"result": result}, 2 if verdict else 0


def _estimate(args, counts, spec, model):
    bound = estimate_alpha_lower(counts, model, args.epsilon, args.tol)
    return {"result": asdict(bound)}, 0


def _baseline_spec(args) -> ModelSpec:
    """The baseline counts as a KL-ball spec: the model ``two_sample_test`` uses."""
    baseline = ingest_counts(args.baseline)
    counts = dict(zip(baseline.labels, baseline.counts.tolist()))
    return ModelSpec(kind="klball", distributions=(), counts=counts, epsilon=args.epsilon)


def _twosample(args, counts, spec, model):
    fields, code = _estimate(args, counts, spec, model)
    data = {"p": counts.total, "p_model": sum(spec.counts.values()), "n": counts.n}
    return {"data": data, "radius": model.radius, **fields}, code


def _oracle(args, counts, spec, model):
    if not isinstance(model, Singleton):
        raise CliError("oracle supports singleton models only")
    typical, tail = exact_typicality(counts, model.q0, args.epsilon)
    result = {
        "typical": typical,
        "tail_probability": tail,
        "c_star": exact_cstar(counts, model.q0, args.epsilon),
        "divergence": kl_divergence(empirical(counts), model.q0),
    }
    return {"result": result}, 0


def _cmd_sweep(args) -> int:
    try:
        p_grid = tuple(int(x) for x in args.p.split(","))
        pi_grid = tuple(float(x) for x in args.pi.split(","))
    except ValueError as exc:
        raise CliError(f"bad grid value: {exc}") from exc
    config = SweepConfig(
        p_grid=p_grid,
        pi_grid=pi_grid,
        family=args.family,
        n=args.n,
        epsilon=args.epsilon,
        bisect_tol=args.tol,
    )
    _emit_report([asdict(r) for r in sweep(config)], args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on bad usage, per the contract
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contamest", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, tol=True):
        if model:
            p.add_argument("--model", required=True, help="model spec JSON")
        p.add_argument("--data", required=True, help="count file (CSV or JSON)")
        p.add_argument("--epsilon", type=float, default=0.05)
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_BISECT_TOL)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="also write the report here")

    p_test = sub.add_parser("test", help="contamination verdict at alpha = 0")
    common(p_test, tol=False)
    p_test.set_defaults(func=partial(_run, compute=_test))

    p_est = sub.add_parser("estimate", help="certified contaminated-fraction bound")
    common(p_est)
    p_est.set_defaults(func=partial(_run, compute=_estimate))

    p_two = sub.add_parser("twosample", help="dataset-vs-dataset contamination bound")
    common(p_two, model=False)
    p_two.add_argument("--baseline", required=True, help="model-side count file")
    p_two.set_defaults(func=partial(_run, compute=_twosample, load_spec=_baseline_spec))

    p_sweep = sub.add_parser("sweep", help="deterministic grid experiment")
    p_sweep.add_argument("--family", choices=("dip", "spike"), required=True)
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--p", required=True, help="comma-separated sample sizes")
    p_sweep.add_argument("--pi", required=True, help="comma-separated proportions")
    p_sweep.add_argument("--epsilon", type=float, default=0.05)
    p_sweep.add_argument("--tol", type=float, default=DEFAULT_BISECT_TOL)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="exact brute-force values (tiny instances)")
    common(p_oracle, tol=False)
    p_oracle.set_defaults(func=partial(_run, compute=_oracle))

    return parser


def run_command(argv: Sequence[str]) -> int:
    """Parse and run one command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        return args.func(args)
    except (ValueError, OSError) as exc:  # CliError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
