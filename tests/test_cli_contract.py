"""CLI contract under generated input: exit 0 or 2, or exit 1 with one stderr line."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from contamest.cli import run_command

labels = st.text(alphabet='abc ,"é', max_size=3)

# Half the mappings are valid and half may hold hostile values, so that a
# fair share of examples gets past validation to the estimator.
hostile_counts = st.one_of(
    st.integers(-3, 60),
    st.integers(2**60, 2**64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["7", "2.0", "1.5", "x", "", "1e30", "4e18", None, True, [1]]),
)

count_maps = st.one_of(
    st.dictionaries(labels, st.integers(1, 60), min_size=1, max_size=4),
    st.dictionaries(labels, st.integers(0, 60) | hostile_counts, min_size=1, max_size=4),
)

hostile_masses = st.sampled_from([-1, "x", None, float("inf"), float("nan"), 10**400, "0.5"])

prob_maps = st.one_of(
    st.dictionaries(labels, st.floats(0.01, 10), min_size=1, max_size=4),
    st.dictionaries(labels, st.floats(0, 10) | hostile_masses, min_size=1, max_size=4),
)

scalars = st.one_of(
    st.floats(0.01, 0.5),
    st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(["inf", "x", [1], None]),
)

specs = st.one_of(
    st.fixed_dictionaries({"kind": st.just("singleton"), "probs": prob_maps}),
    st.fixed_dictionaries(
        {"kind": st.just("mixture"), "components": st.lists(prob_maps, min_size=1, max_size=3)}
    ),
    st.fixed_dictionaries({"kind": st.just("klball"), "center": prob_maps, "radius": scalars}),
    st.fixed_dictionaries({"kind": st.just("klball"), "counts": count_maps, "epsilon": scalars}),
    st.dictionaries(st.sampled_from(["kind", "probs", "counts"]), scalars, max_size=2),
)


def write_counts(path: Path, mapping: dict) -> None:
    if path.suffix == ".json":
        path.write_text(json.dumps(mapping))
    else:
        buf = io.StringIO()
        csv.writer(buf).writerows((k, "" if v is None else v) for k, v in mapping.items())
        path.write_text(buf.getvalue())


@settings(max_examples=60, deadline=None)
@example(  # oracle, p = 101, n = 4, 83 samples where the model has no mass
    command="oracle",
    data={"baé": 6, "a": 35, "": 18, ",": 42},
    data_suffix=".csv",
    spec={"kind": "singleton", "probs": {"": 0.01}},
    baseline={"a": 1},
    epsilon="0.05",
)
@given(
    command=st.sampled_from(["test", "estimate", "twosample", "oracle"]),
    data=count_maps,
    data_suffix=st.sampled_from([".csv", ".json"]),
    spec=specs,
    baseline=count_maps,
    epsilon=st.sampled_from(["0.05", "0.3", "0.05", "0.3", "1.5", "nan", "x"]),
)
def test_exit_code_and_stderr_contract(command, data, data_suffix, spec, baseline, epsilon):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_counts(tmp / f"data{data_suffix}", data)
        write_counts(tmp / "baseline.json", baseline)
        (tmp / "model.json").write_text(json.dumps(spec))
        argv = [command, "--data", str(tmp / f"data{data_suffix}"), "--epsilon", epsilon]
        if command == "twosample":
            argv += ["--baseline", str(tmp / "baseline.json")]
        else:
            argv += ["--model", str(tmp / "model.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
    else:
        assert err.getvalue() == ""
        assert out.getvalue()


def mostly(valid, hostile):
    """Seven draws in eight from ``valid``, so that a fair share of examples
    passes every check and runs the sweep."""
    return st.sampled_from([valid] * 7 + [hostile]).flatmap(lambda strategy: strategy)


def grid(values):
    return st.lists(values, min_size=1, max_size=2).map(lambda xs: ",".join(map(str, xs)))


hostile_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(["x", ""])


@settings(max_examples=60, deadline=None)
@example(  # the float cast of 2**63 - 1 overflowed with a numpy warning on stderr
    family="spike", n="3", p="9223372036854775807", pi="1.0", tol="3.7e-09", epsilon="0.05"
)
@example(  # the rounded masses summed past p = 2**53
    family="dip", n="2", p="9007199254740992", pi="0.2", tol="3.7e-09", epsilon="0.05"
)
@example(  # a tolerance below the float spacing at alpha_lower stalled the bisection
    family="spike", n="3", p="1000", pi="0.5", tol="1e-20", epsilon="0.05"
)
@given(
    family=st.sampled_from(["dip", "spike"]),
    n=mostly(st.integers(2, 30), st.integers(-2, 1) | st.sampled_from(["x", "2.5", ""])),
    p=grid(
        mostly(
            st.integers(1, 500) | st.integers(2**52, 2**53),
            st.integers(-2, 0) | st.integers(2**53 + 1, 2**64) | st.sampled_from(["", "x", "1e3"]),
        )
    ),
    pi=grid(mostly(st.floats(0, 1), hostile_floats)),
    tol=mostly(st.floats(1e-12, 0.1) | st.floats(5e-324, 1e-12), hostile_floats),
    epsilon=mostly(st.floats(0.01, 0.5), hostile_floats),
)
def test_sweep_exit_code_and_stderr_contract(family, n, p, pi, tol, epsilon):
    argv = ["sweep", f"--family={family}", f"--n={n}", f"--p={p}", f"--pi={pi}"]
    argv += [f"--tol={tol}", f"--epsilon={epsilon}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        assert out.getvalue()
