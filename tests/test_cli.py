import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from contamest.cli import (
    CliError,
    align_with_model,
    ingest_counts,
    load_model_spec,
    run_command,
)
from contamest.distributions import (
    Distribution,
    EmpiricalCounts,
    KlBall,
    Mixture,
    Singleton,
    klball_radius,
)
from contamest.estimator import estimate_alpha_lower, is_contaminated, two_sample_test

BAD_JSON = "{oops"


def decode_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)


def run_in(tmp_path, capsys, files, argv):
    """Write ``files`` under ``tmp_path``, run ``argv`` with each file name in
    it replaced by the file's path, and return the exit code, stdout and
    stderr."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = run_command([str(tmp_path / a) if a in files else a for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def uniform3_model(tmp_path):
    path = tmp_path / "uniform3.json"
    path.write_text(json.dumps({"kind": "singleton", "probs": {"a": 1, "b": 1, "c": 1}}))
    return path


@pytest.fixture
def spike_data(tmp_path):
    path = tmp_path / "spike.csv"
    path.write_text("category,count\na,900\nb,50\nc,50\n")
    return path


class TestIngest:
    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("category,count\na,3\nb,1\n")
        c = ingest_counts(path)
        np.testing.assert_array_equal(c.counts, [3, 1])
        assert c.labels == ("a", "b")

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,3\nb,1\n")
        c = ingest_counts(path)
        np.testing.assert_array_equal(c.counts, [3, 1])
        assert c.labels == ("a", "b")

    def test_json_mapping(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": 0, "b": 10}')
        c = ingest_counts(path)
        np.testing.assert_array_equal(c.counts, [0, 10])
        assert c.labels == ("a", "b")

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,-1\n")
        with pytest.raises(CliError, match="negative count"):
            ingest_counts(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,1.5\n")
        with pytest.raises(CliError, match="non-integer"):
            ingest_counts(path)

    def test_duplicate_category_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,1\na,2\n")
        with pytest.raises(CliError, match="duplicate category"):
            ingest_counts(path)

    def test_unparseable_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(CliError, match="unparseable"):
            ingest_counts(path)
        path2 = tmp_path / "y.csv"
        path2.write_text("a,b,c,d\n")
        with pytest.raises(CliError, match="unparseable"):
            ingest_counts(path2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError, match="no such file"):
            ingest_counts(tmp_path / "absent.csv")

    def test_count_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,1e30\nb,1\n")
        with pytest.raises(CliError, match="more than 2\\*\\*63 - 1"):
            ingest_counts(path)

    def test_total_beyond_int64_rejected(self, capsys, uniform3_model, tmp_path):
        # each count fits in int64, the sum would wrap
        path = tmp_path / "x.csv"
        path.write_text("".join(f"{c},4e18\n" for c in "abcde"))
        code = run_command(["test", "--model", str(uniform3_model), "--data", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_integer_literals_read_exactly(self, tmp_path):
        # 2**53 + 1 is not a double; a float() read rounds it to 2**53
        big = 2**53 + 1
        files = {
            "x.csv": f"a,{big}\nb,1\n",
            "x.json": json.dumps({"a": big, "b": 1}),
            "strings.json": json.dumps({"a": str(big), "b": "1"}),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
            assert ingest_counts(tmp_path / name).counts.tolist() == [big, 1], name

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_identity(self, tmp_path, fmt):
        src = tmp_path / "src.csv"
        src.write_text("category,count\nx,7\ny,0\nz,12\n")
        first = ingest_counts(src)
        pairs = dict(zip(first.labels, (int(n) for n in first.counts)))
        out = tmp_path / f"copy.{fmt}"
        if fmt == "csv":
            out.write_text("category,count\n" + "".join(f"{k},{n}\n" for k, n in pairs.items()))
        else:
            out.write_text(json.dumps(pairs))
        second = ingest_counts(out)
        np.testing.assert_array_equal(first.counts, [7, 0, 12])
        np.testing.assert_array_equal(first.counts, second.counts)
        assert first.labels == second.labels == ("x", "y", "z")


class TestModelSpecs:
    def test_singleton(self, uniform3_model):
        spec = load_model_spec(uniform3_model)
        assert spec.kind == "singleton"
        assert spec.digest

    def test_mixture(self, tmp_path):
        path = tmp_path / "mix.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "mixture",
                    "components": [{"a": 0.6, "b": 0.4}, {"a": 0.1, "b": 0.9}],
                }
            )
        )
        spec = load_model_spec(path)
        assert spec.kind == "mixture"
        assert len(spec.distributions) == 2

    def test_klball_explicit_radius(self, tmp_path):
        path = tmp_path / "ball.json"
        path.write_text(
            json.dumps({"kind": "klball", "center": {"a": 0.5, "b": 0.5}, "radius": 0.25})
        )
        spec = load_model_spec(path)
        assert spec.radius == 0.25

    def test_klball_from_counts(self, tmp_path):
        path = tmp_path / "ball.json"
        path.write_text(
            json.dumps({"kind": "klball", "counts": {"a": 120, "b": 80}, "epsilon": 0.05})
        )
        spec = load_model_spec(path)
        assert spec.counts == {"a": 120, "b": 80}

    def test_probs_by_file_reference(self, tmp_path):
        (tmp_path / "q.json").write_text('{"a": 0.5, "b": 0.5}')
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "singleton", "probs": "q.json"}))
        spec = load_model_spec(path)
        assert spec.distributions[0] == {"a": 0.5, "b": 0.5}

    @pytest.mark.parametrize(
        "counts, message",
        [({"a": 3, "b": 1.5}, "non-integer count"), ({"a": 1e30}, "more than 2")],
    )
    def test_klball_counts_follow_count_rule(self, tmp_path, counts, message):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps({"kind": "klball", "counts": counts, "epsilon": 0.05}))
        with pytest.raises(CliError, match=message):
            load_model_spec(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"center": {"a": 1}, "radius": "inf"}, "radius must be finite"),
            ({"center": {"a": 1}, "radius": float("nan")}, "radius must be finite"),
            ({"center": {"a": 1}, "radius": [1]}, "radius must be a number"),
            ({"counts": {"a": 1}, "epsilon": [1]}, "epsilon must be a number"),
            ({"center": {"a": 1}, "radius": 0}, "radius must be positive"),
            ({"center": {"a": 1}, "radius": -1}, "radius must be positive"),
        ],
    )
    def test_klball_scalars_rejected(self, tmp_path, fields, message):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps({"kind": "klball", **fields}))
        with pytest.raises(CliError, match=message):
            load_model_spec(path)

    @pytest.mark.parametrize(
        "spec, message",
        [
            pytest.param({"kind": "gaussian"}, "unknown kind", id="unknown-kind"),
            pytest.param({"probs": {"a": 1}}, "missing 'kind'", id="no-kind"),
            pytest.param([1], "missing 'kind'", id="not-object"),
        ],
    )
    def test_unknown_kind(self, tmp_path, spec, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(CliError, match=message):
            load_model_spec(path)


class TestAlignment:
    def test_union_by_label(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("b,5\na,3\nd,2\n")
        model = tmp_path / "m.json"
        model.write_text(
            json.dumps({"kind": "singleton", "probs": {"a": 0.5, "b": 0.3, "c": 0.2}})
        )
        counts, model_set = align_with_model(ingest_counts(data), load_model_spec(model))
        assert counts.labels == ("b", "a", "d", "c")
        np.testing.assert_array_equal(counts.counts, [5, 3, 2, 0])
        assert isinstance(model_set, Singleton)
        np.testing.assert_allclose(model_set.q0.probs, [0.3, 0.5, 0.0, 0.2], atol=1e-15)

    def test_mixture_components_extended(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,5\nz,5\n")
        model = tmp_path / "m.json"
        model.write_text(
            json.dumps(
                {
                    "kind": "mixture",
                    "components": [{"a": 0.7, "b": 0.3}, {"b": 1.0}],
                }
            )
        )
        counts, model_set = align_with_model(ingest_counts(data), load_model_spec(model))
        assert isinstance(model_set, Mixture)
        assert counts.labels == ("a", "z", "b")
        for comp in model_set.components:
            assert comp.n == 3

    def test_klball_counts_aligned(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,10\n")
        model = tmp_path / "m.json"
        model.write_text(
            json.dumps({"kind": "klball", "counts": {"b": 100}, "epsilon": 0.05})
        )
        counts, model_set = align_with_model(ingest_counts(data), load_model_spec(model))
        assert isinstance(model_set, KlBall)
        assert counts.labels == ("a", "b")
        np.testing.assert_allclose(model_set.center.probs, [0.0, 1.0])


class TestCommands:
    def test_estimate_json_report(self, capsys, uniform3_model, spike_data):
        code = run_command(
            ["estimate", "--model", str(uniform3_model), "--data", str(spike_data)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert report["command"] == "estimate"
        result = report["result"]
        assert result["contaminated"] is True
        assert 0 < result["alpha_lower"] < result["kappa"] + 1e-9
        assert result["c_lower"] == math.floor(1000 * result["alpha_lower"])

    def test_test_exit_codes(self, capsys, uniform3_model, spike_data, tmp_path):
        # contaminated data: exit 2
        assert (
            run_command(["test", "--model", str(uniform3_model), "--data", str(spike_data)])
            == 2
        )
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["contaminated"] is True
        # data matching the model: exit 0
        clean = tmp_path / "clean.csv"
        clean.write_text("a,100\nb,100\nc,100\n")
        assert (
            run_command(["test", "--model", str(uniform3_model), "--data", str(clean)]) == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["contaminated"] is False
        assert report["result"]["margin"] < 0

    def test_subnormal_model_mass(self, capsys, tmp_path):
        # the water level and P_b / q_b overflow; no warning, finite objective
        data = tmp_path / "data.csv"
        data.write_text("a,5\nb,5\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "singleton", "probs": {"a": 1.0, "b": 1e-320}}))
        argv = ["--model", str(model), "--data", str(data)]
        assert run_command(["test", *argv]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert math.isfinite(json.loads(out)["result"]["objective"])
        assert run_command(["estimate", *argv]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert math.isfinite(json.loads(out)["result"]["objective_at_alpha"])

    def test_water_level_near_overflow(self, capsys, tmp_path):
        # the level is about 1e300, so c * q_b / cap_b would overflow in the duals
        data = tmp_path / "data.csv"
        data.write_text("a,1000000000000000\nb,1\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "singleton", "probs": {"a": 1e-300, "b": 1}}))
        assert run_command(["test", "--model", str(model), "--data", str(data)]) == 2
        assert capsys.readouterr().err == ""

    def test_error_exit_code_and_stderr(self, capsys, uniform3_model, tmp_path):
        assert (
            run_command(
                ["estimate", "--model", str(uniform3_model), "--data", str(tmp_path / "no.csv")]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" not in err.strip()
        # bad usage also exits 1, not argparse's default 2
        assert run_command(["estimate", "--model", "x"]) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_non_finite_tol_rejected(self, capsys, uniform3_model, spike_data, tol):
        argv = ["estimate", "--model", str(uniform3_model), "--data", str(spike_data)]
        assert run_command([*argv, f"--tol={tol}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "data, spec, message",
        [
            pytest.param(
                {"a": True, "b": 3},
                {"kind": "singleton", "probs": {"a": 0.5, "b": 0.5}},
                "unparseable count for category a: True",
                id="count-file",
            ),
            pytest.param(
                {"a": 1, "b": 3},
                {"kind": "klball", "counts": {"a": True, "b": 9}, "epsilon": 0.05},
                "unparseable count for category a: True",
                id="klball-counts",
            ),
            pytest.param(
                {"a": 1, "b": 3},
                {"kind": "singleton", "probs": {"a": True, "b": 0.5}},
                "bad mass for category a: True",
                id="mass",
            ),
            pytest.param(
                {"a": 1, "b": 3},
                {"kind": "klball", "center": {"a": 0.5, "b": 0.5}, "radius": True},
                "radius must be a number: True",
                id="radius",
            ),
        ],
    )
    def test_json_boolean_rejected(self, capsys, tmp_path, data, spec, message):
        # bool is an int subclass, and float(True) is 1.0
        (tmp_path / "d.json").write_text(json.dumps(data))
        (tmp_path / "m.json").write_text(json.dumps(spec))
        argv = ["--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "d.json")]
        assert run_command(["estimate", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "data_name, bom_files",
        [
            pytest.param("d.csv", ["d.csv"], id="csv-data"),
            pytest.param("d.json", ["d.json"], id="json-data"),
            pytest.param("d.csv", ["m.json", "q.json"], id="spec"),
        ],
    )
    def test_utf8_byte_order_mark_accepted(self, capsys, tmp_path, data_name, bom_files):
        files = {
            "d.csv": "category,count\na,900\nb,50\nc,50\n",
            "d.json": '{"a": 900, "b": 50, "c": 50}',
            "m.json": json.dumps({"kind": "singleton", "probs": "q.json"}),
            "q.json": '{"a": 0.4, "b": 0.3, "c": 0.3}',
        }

        def report(directory, marked):
            directory.mkdir()
            for name, text in files.items():
                (directory / name).write_text(("\ufeff" if name in marked else "") + text)
            argv = ["--model", str(directory / "m.json"), "--data", str(directory / data_name)]
            code = run_command(["estimate", *argv])
            out, err = capsys.readouterr()
            assert (code, err) == (0, "")
            result = json.loads(out)
            result.pop("wall_time_ms")
            return result

        assert report(tmp_path / "bom", bom_files) == report(tmp_path / "plain", [])

    @pytest.mark.parametrize(
        "files, argv, empty",
        [
            pytest.param(
                {"a.csv": "a,5\nb,5\n", "b.csv": "a,0\nb,0\n"},
                ["twosample", "--data", "a.csv", "--baseline", "b.csv"],
                "b.csv",
                id="twosample-baseline",
            ),
            pytest.param(
                {
                    "d.csv": "a,5\nb,5\n",
                    "m.json": json.dumps(
                        {"kind": "klball", "counts": {"a": 0, "b": 0}, "epsilon": 0.05}
                    ),
                },
                ["estimate", "--model", "m.json", "--data", "d.csv"],
                "m.json",
                id="klball-counts",
            ),
            pytest.param(
                {
                    "d.csv": "a,0\nb,0\n",
                    "m.json": json.dumps({"kind": "singleton", "probs": {"a": 1, "b": 1}}),
                },
                ["test", "--model", "m.json", "--data", "d.csv"],
                "d.csv",
                id="data",
            ),
        ],
    )
    def test_empty_dataset_names_its_file(self, capsys, tmp_path, files, argv, empty):
        code, out, err = run_in(tmp_path, capsys, files, argv)
        assert (code, out) == (1, "")
        assert err == f"error: empty dataset: {tmp_path / empty}\n"

    @pytest.mark.parametrize(
        "files, data_name, culprit, message",
        [
            pytest.param(
                {"d.json": "[1, 2]"}, "d.json", "d.json",
                "expected a category->count mapping", id="count-file-list",
            ),
            pytest.param(
                {"d.csv": "category,count\n"}, "d.csv", "d.csv", "no data rows",
                id="header-only-csv",
            ),
            pytest.param(
                {"d.csv": "a," + "1" * 131_073 + "\n"}, "d.csv", "d.csv",
                "field larger than field limit (131072)", id="csv-field-limit",
            ),
            pytest.param(
                {"m.json": BAD_JSON}, "d.csv", "m.json", decode_error(BAD_JSON),
                id="spec-json",
            ),
            pytest.param(
                {"m.json": json.dumps({"kind": "singleton", "probs": "q.json"}),
                 "q.json": BAD_JSON},
                "d.csv", "q.json", decode_error(BAD_JSON), id="probs-file-json",
            ),
            pytest.param(
                {"m.json": json.dumps({"kind": "singleton", "probs": [0.5, 0.5]})},
                "d.csv", None,
                "model spec: probs must be a category->mass mapping or file path",
                id="probs-not-object",
            ),
            pytest.param(
                {"m.json": json.dumps({"kind": "klball", "counts": [5, 5], "epsilon": 0.05})},
                "d.csv", None, "model spec: counts must be a category->count mapping",
                id="klball-counts-not-object",
            ),
            pytest.param(
                {"m.json": json.dumps({"kind": "klball", "center": {"a": 1}, "epsilon": 0.05})},
                "d.csv", None, "model spec: klball needs center+radius or counts+epsilon",
                id="klball-neither-pair",
            ),
        ],
    )
    def test_input_error_messages(self, capsys, tmp_path, files, data_name, culprit, message):
        defaults = {
            "d.csv": "a,5\nb,5\n",
            "m.json": json.dumps({"kind": "singleton", "probs": {"a": 1, "b": 1}}),
        }
        argv = ["estimate", "--model", "m.json", "--data", data_name]
        code, out, err = run_in(tmp_path, capsys, {**defaults, **files}, argv)
        if culprit is not None:
            message = f"unparseable file: {tmp_path / culprit}: {message}"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_blank_csv_line_skipped(self, capsys, tmp_path):
        model = json.dumps({"kind": "singleton", "probs": {"a": 1, "b": 1}})

        def report(data):
            files = {"d.csv": data, "m.json": model}
            argv = ["estimate", "--model", "m.json", "--data", "d.csv"]
            code, out, err = run_in(tmp_path, capsys, files, argv)
            assert (code, err) == (0, "")
            result = json.loads(out)
            result.pop("wall_time_ms")
            return result

        assert report("a,9\n\n ,  \nb,1\n") == report("a,9\nb,1\n")

    @pytest.mark.parametrize(
        "spec, message",
        [
            pytest.param(
                {"kind": "singleton", "probs": {"a": -1, "b": 1}},
                "model spec: bad mass for category a: -1", id="negative",
            ),
            pytest.param(
                {"kind": "singleton", "probs": {"a": 1, "b": "nan"}},
                "model spec: bad mass for category b: 'nan'", id="nan",
            ),
            pytest.param(
                {"kind": "klball", "center": {"a": "inf", "b": 1}, "radius": 0.1},
                "model spec: bad mass for category a: 'inf'", id="center-inf",
            ),
            pytest.param(
                {"kind": "singleton", "probs": {"a": 0, "b": 0.0}},
                "model spec: probs has no positive mass", id="probs-all-zero",
            ),
            pytest.param(
                {"kind": "mixture", "components": [{"a": 1}, {"a": 0, "b": 0}]},
                "model spec: component has no positive mass", id="component-all-zero",
            ),
        ],
    )
    def test_bad_model_mass_named(self, capsys, tmp_path, spec, message):
        files = {"d.csv": "a,5\nb,5\n", "m.json": json.dumps(spec)}
        argv = ["estimate", "--model", "m.json", "--data", "d.csv"]
        code, out, err = run_in(tmp_path, capsys, files, argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_overflowing_model_masses(self, capsys, tmp_path):
        # The masses are finite but their sum overflows.
        argv = ["estimate", "--model", "m.json", "--data", "d.csv"]
        results = []
        for probs in ({"a": 1e308, "b": 1e308}, {"a": 1, "b": 1}):
            spec = {"kind": "singleton", "probs": probs}
            files = {"d.csv": "a,30\nb,10\n", "m.json": json.dumps(spec)}
            code, out, err = run_in(tmp_path, capsys, files, argv)
            assert (code, err) == (0, "")
            results.append(json.loads(out)["result"])
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "spec, argv, message",
        [
            pytest.param(
                {"kind": "klball", "counts": {"a": 1, "b": 2}, "epsilon": 2},
                ["estimate", "--model", "m.json", "--data", "d.csv", "--epsilon", "0.05"],
                "model spec: epsilon must be in (0, 1)", id="spec",
            ),
            pytest.param(
                {"kind": "klball", "counts": {"a": 1, "b": 2}, "epsilon": "nan"},
                ["estimate", "--model", "m.json", "--data", "d.csv"],
                "model spec: epsilon must be in (0, 1)", id="spec-nan",
            ),
            pytest.param(
                {"kind": "singleton", "probs": {"a": 1, "b": 1}},
                ["estimate", "--model", "m.json", "--data", "d.csv", "--epsilon", "2"],
                "epsilon must be in (0, 1)", id="option",
            ),
            pytest.param(
                None,
                ["twosample", "--data", "d.csv", "--baseline", "d.csv", "--epsilon", "2"],
                "epsilon must be in (0, 1)", id="twosample-option",
            ),
        ],
    )
    def test_epsilon_error_names_its_source(self, capsys, tmp_path, spec, argv, message):
        files = {"d.csv": "a,5\nb,5\n"}
        if spec is not None:
            files["m.json"] = json.dumps(spec)
        code, out, err = run_in(tmp_path, capsys, files, argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["test", "estimate"])
    def test_klball_center_radius_matches_library(self, capsys, tmp_path, command):
        center = {"b": 0.4, "a": 0.3, "d": 0.2, "c": 0.1}
        files = {
            "d.csv": "a,700\nb,200\nc,100\n",
            "m.json": json.dumps({"kind": "klball", "center": center, "radius": 0.05}),
        }
        argv = [command, "--model", "m.json", "--data", "d.csv"]
        code, out, err = run_in(tmp_path, capsys, files, argv)
        assert err == ""
        report = json.loads(out)
        # the library call on the same inputs aligned by hand: a, b, c, then d
        counts = EmpiricalCounts(np.array([700, 200, 100, 0]))
        ball = KlBall(Distribution([0.3, 0.4, 0.1, 0.2]), 0.05)
        assert report["data"] == {"p": 1000, "n": 4}
        if command == "estimate":
            assert code == 0
            assert report["result"] == asdict(estimate_alpha_lower(counts, ball, 0.05))
        else:
            verdict, margin = is_contaminated(counts, ball, 0.05)
            assert verdict and code == 2
            assert report["result"]["contaminated"] is True
            assert report["result"]["margin"] == margin

    def test_twosample_command(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("x,1000\ny,0\n")
        b = tmp_path / "b.csv"
        b.write_text("x,0\ny,1000\n")
        code = run_command(
            ["twosample", "--data", str(a), "--baseline", str(b), "--epsilon", "0.05"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["contaminated"] is True
        assert report["result"]["alpha_lower"] >= 0.5

    def test_twosample_matches_library(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("x,700\ny,200\nz,100\n")
        b = tmp_path / "b.json"
        b.write_text('{"w": 40, "y": 500, "x": 460}')
        code = run_command(["twosample", "--data", str(a), "--baseline", str(b)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # the library call on the same counts aligned by hand
        p = EmpiricalCounts(np.array([700, 200, 100, 0]), labels=("x", "y", "z", "w"))
        q = EmpiricalCounts(np.array([460, 500, 0, 40]), labels=("x", "y", "z", "w"))
        expected = two_sample_test(p, q, 0.05)
        assert report["data"] == {"p": 1000, "p_model": 1000, "n": 4}
        assert report["radius"] == klball_radius(q, 0.05)
        for field in (
            "alpha_lower", "kappa", "c_lower", "threshold_at_alpha",
            "objective_at_alpha", "contaminated", "bisection_width",
        ):
            assert report["result"][field] == getattr(expected, field)

    def test_sweep_rows(self, capsys):
        code = run_command(
            [
                "sweep", "--family", "spike", "--n", "5", "--epsilon", "0.05",
                "--p", "50,100,200", "--pi", "0.2,0.6",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,pi,family,alpha_lower,kappa,ratio,threshold,objective,wall_time_ms"
        assert len(lines) == 7  # header + 3 p-values x 2 pi-values

    def test_oracle_command(self, capsys, tmp_path):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"kind": "singleton", "probs": {"a": 0.5, "b": 0.5}}))
        data = tmp_path / "d.csv"
        data.write_text("a,10\nb,0\n")
        code = run_command(["oracle", "--model", str(model), "--data", str(data)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["typical"] is False
        assert report["result"]["c_star"] > 0

    def test_oracle_rejects_non_singleton(self, capsys, tmp_path):
        model = tmp_path / "m.json"
        model.write_text(
            json.dumps(
                {"kind": "mixture", "components": [{"a": 1.0}, {"a": 0.5, "b": 0.5}]}
            )
        )
        data = tmp_path / "d.csv"
        data.write_text("a,5\nb,5\n")
        assert run_command(["oracle", "--model", str(model), "--data", str(data)]) == 1

    def test_report_determinism_modulo_wall_time(self, capsys, uniform3_model, spike_data):
        def run_once():
            run_command(
                ["estimate", "--model", str(uniform3_model), "--data", str(spike_data)]
            )
            report = json.loads(capsys.readouterr().out)
            report.pop("wall_time_ms")
            return json.dumps(report, sort_keys=True)

        assert run_once() == run_once()

    def test_out_file_written(self, tmp_path, capsys, uniform3_model, spike_data):
        out = tmp_path / "report.json"
        run_command(
            [
                "estimate", "--model", str(uniform3_model), "--data", str(spike_data),
                "--out", str(out),
            ]
        )
        on_stdout = capsys.readouterr().out
        assert out.read_text() == on_stdout

    def test_csv_format_report(self, capsys, uniform3_model, spike_data):
        code = run_command(
            [
                "test", "--model", str(uniform3_model), "--data", str(spike_data),
                "--format", "csv",
            ]
        )
        assert code == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "result.contaminated" in header

    @pytest.mark.parametrize("command", ["test", "estimate", "twosample", "oracle"])
    def test_csv_header_pinned(self, capsys, tmp_path, command):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"kind": "singleton", "probs": {"a": 0.5, "b": 0.5}}))
        data = tmp_path / "d.csv"
        data.write_text("a,6\nb,2\n")
        side = ["--baseline", str(data)] if command == "twosample" else ["--model", str(model)]
        run_command([command, "--data", str(data), *side, "--format", "csv"])
        header = capsys.readouterr().out.splitlines()[0]
        estimate = (
            "result.alpha_lower,result.kappa,result.c_lower,result.threshold_at_alpha,"
            "result.objective_at_alpha,result.contaminated,result.bisection_width"
        )
        expected = {
            "test": "epsilon,model_digest,data.p,data.n,result.contaminated,"
            "result.margin,result.objective,result.threshold",
            "estimate": f"epsilon,bisect_tol,model_digest,data.p,data.n,{estimate}",
            "twosample": "epsilon,bisect_tol,model_digest,data.p,data.p_model,data.n,"
            f"radius,{estimate}",
            "oracle": "epsilon,model_digest,data.p,data.n,result.typical,"
            "result.tail_probability,result.c_star,result.divergence",
        }[command]
        assert header == f"schema_version,command,{expected},wall_time_ms,version"
