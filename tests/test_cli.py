"""End-to-end command-line behavior: exit codes, artifacts, manifests, and
byte-level reproducibility."""

import argparse
import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from lrdforecast import (
    CvConfig,
    GenSpec,
    TransformSpec,
    fit,
    forecast,
    generate,
    ingest_csv,
    rebind,
    rolling_cv,
    transform,
)
from lrdforecast.cli import (
    _build_parser,
    _jsonify,
    _model_doc,
    _model_from_doc,
    _write_json,
    main,
)


def run(*argv):
    return main(list(argv))


# a well-formed ARIMA(1,1,0) model document; malformed cases edit one key. It
# is in the 0.1.0 format, whose include_mean and transform "applied" keys the
# reader now ignores
_ARIMA_DOC = {
    "family": "arima", "p": 1, "d": 1, "q": 0, "include_mean": False,
    "phi": [0.3], "theta": [], "mean": 0.0, "sigma2": 0.01, "aicc": -100.0,
    "loglik": 52.0, "n": 1024, "transform": {"lambda": 0.0, "applied": True},
}
# the same coefficients under a fractional d, which estimates a mean
_ARFIMA_DOC = {**_ARIMA_DOC, "family": "arfima", "d": 0.3, "include_mean": True}


@pytest.fixture()
def sim_csv(tmp_path):
    out = tmp_path / "s.csv"
    rc = run("simulate", "--kind", "arfima", "--d", "0.3", "--n", "1024",
             "--seed", "1", "--out", str(out))
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_csv_and_manifest(self, sim_csv):
        lines = sim_csv.read_text().splitlines()
        assert lines[0] == "timestamp,value"
        assert len(lines) == 1025
        manifest = json.loads((sim_csv.parent / "s.csv.manifest.json").read_text())
        assert manifest["tool"] == "lrdforecast"
        assert manifest["subcommand"] == "simulate"

    def test_auto_offset_keeps_values_positive(self, sim_csv):
        vals = [float(line.split(",")[1]) for line in sim_csv.read_text().splitlines()[1:]]
        assert min(vals) > 0

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--kind", "fgn", "--hurst", "0.8", "--n", "512",
                       "--seed", "7", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_offset_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run("simulate", "--kind", "fgn", "--n", "10", "--offset", "abc",
                 "--out", str(out))
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "validation", "message": "bad offset 'abc'"}
        assert not out.exists()

    def test_fgn_sigma_with_infinite_square_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run("simulate", "--kind", "fgn", "--n", "8", "--sigma", "1e200", "--out", str(out))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [json.dumps({
            "error": "InvalidSpec",
            "message": "fGn needs a sigma whose square is finite, got 1e+200"})]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--kind", "white_noise", "--n", "100", "--sigma", "1e308"],
         "sigma 1e+308 with offset 0.0 overflows the series"),
        (["--kind", "arfima", "--n", "100", "--d", "0.45", "--sigma", "1e306"],
         "sigma 1e+306 with offset 0.0 overflows the series"),
        # the draws are finite, but not once the automatic offset lifts them
        (["--kind", "white_noise", "--n", "10", "--sigma", "1e308"],
         "sigma 1e+308 with offset 1.2654214710460525e+308 overflows the series"),
    ], ids=["white-noise", "arfima", "auto-offset"])
    def test_overflowing_spec_is_one_error_line(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no raw numpy warning before the error
            rc = run("simulate", *flags, "--out", str(out))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [json.dumps({"error": "InvalidSpec",
                                                         "message": message})]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run("simulate", "--kind", "white_noise", "--n", "10", "--seed", "-1",
                 "--out", str(out))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [json.dumps({
            "error": "InvalidSpec", "message": "seed must be non-negative, got -1"})]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_fractional_interval_analyzes(self, tmp_path):
        out = tmp_path / "half.csv"
        assert run("simulate", "--kind", "fgn", "--hurst", "0.7", "--n", "512",
                   "--interval", "0.5", "--out", str(out)) == 0
        stamps = [line.split(",")[0] for line in out.read_text().splitlines()[1:4]]
        assert stamps == ["0", "0.5", "1"]
        assert run("analyze", str(out), "--out", str(tmp_path / "r.json")) == 0

    def test_subnormal_theta_simulates(self, tmp_path):
        # np.roots once overflowed on a subnormal coefficient in the
        # admissibility check and raised a raw LinAlgError
        out = tmp_path / "x.csv"
        assert run("simulate", "--kind", "arma", "--phi", "0.5", "--theta", "1e-313",
                   "--n", "50", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 51

    @pytest.mark.parametrize("interval", ["inf", "nan"])
    def test_non_finite_interval_is_one_error_line(self, tmp_path, capsys, interval):
        out = tmp_path / "x.csv"
        rc = run("simulate", "--kind", "white_noise", "--n", "4", "--interval", interval,
                 "--offset", "5", "--out", str(out))
        assert rc == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "MalformedInput"
        assert captured.out == ""
        assert not out.exists()

    def test_bad_kind_is_validation_error(self, tmp_path, capsys):
        rc = run("simulate", "--kind", "pink", "--n", "10",
                 "--out", str(tmp_path / "x.csv"))
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validation"


class TestAnalyze:
    def test_lrd_pipeline(self, sim_csv, tmp_path):
        report = tmp_path / "rep.json"
        assert run("analyze", str(sim_csv), "--out", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["verdict"] == "LRD"
        assert set(doc["hurst"]) == {"aggregated_variance", "rescaled_range", "periodogram"}
        # exact key sets: a new result field shows up as a format change
        for entry in doc["hurst"].values():
            assert set(entry) == {"h", "slope", "r_squared", "points", "clamped"}
        assert set(doc["adf"]) == {"statistic", "lags_used", "critical_values",
                                   "stationary_at_5pct"}

    def test_unknown_flag_exits_1_without_output(self, sim_csv, tmp_path, capsys):
        report = tmp_path / "never.json"
        rc = run("analyze", str(sim_csv), "--bogus", "--out", str(report))
        assert rc == 1
        assert not report.exists()

    def test_missing_input_exits_1(self, tmp_path, capsys):
        rc = run("analyze", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "r.json"))
        assert rc == 1

    def test_short_series_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,value\n" + "\n".join(f"{i},{10 + i}" for i in range(30)))
        rc = run("analyze", str(path), "--out", str(tmp_path / "r.json"))
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "SeriesTooShort"

    @pytest.mark.parametrize("flags, error", [
        (["--interval", "nan"], "MalformedInput"),
        (["--interval", "1e-310"], "IrregularGrid"),
        (["--interval", "1e-300", "--fill", "locf"], "IrregularGrid"),
    ], ids=["nan", "overflowing-count", "unfillable-gap"])
    def test_bad_interval_hint_is_one_error_line(self, sim_csv, tmp_path, capsys, flags,
                                                 error):
        report = tmp_path / "r.json"
        rc = run("analyze", str(sim_csv), *flags, "--out", str(report))
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not report.exists()

    def test_gap_too_large_to_fill_is_one_error_line(self, tmp_path, capsys):
        # about 1e12 points once filled, which an allocation refuses at once
        path, report = tmp_path / "hugegap.csv", tmp_path / "r.json"
        path.write_text("timestamp,value\n0,1.5\n3600,1.6\n3600000000000000,1.7\n")
        rc = run("analyze", str(path), "--fill", "locf", "--interval", "3600",
                 "--out", str(report))
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "IrregularGrid"
        assert not report.exists()

    def test_byte_identical_reruns(self, sim_csv, tmp_path):
        a, b = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run("analyze", str(sim_csv), "--out", str(a)) == 0
        assert run("analyze", str(sim_csv), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFitForecast:
    def test_model_document_schema(self, sim_csv, tmp_path):
        model = tmp_path / "model.json"
        assert run("fit", str(sim_csv), "--family", "arfima", "--out", str(model)) == 0
        doc = json.loads(model.read_text())
        assert doc["family"] == "arfima"
        assert 0.0 <= doc["d"] < 0.5
        assert doc["transform"] == {"lambda": 0.0}
        assert doc["sigma2"] > 0
        assert "include_mean" not in doc  # ModelSpec derives it from family and d

    def test_forecast_csv(self, sim_csv, tmp_path):
        model = tmp_path / "model.json"
        fc = tmp_path / "fc.csv"
        run("fit", str(sim_csv), "--family", "arfima", "--out", str(model))
        assert run("forecast", "--model", str(model), "--series", str(sim_csv),
                   "--steps", "8", "--out", str(fc)) == 0
        lines = fc.read_text().splitlines()
        assert lines[0] == "horizon,point,lower,upper"
        assert len(lines) == 9
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(rows[:, 2] <= rows[:, 1]) and np.all(rows[:, 1] <= rows[:, 3])
        assert np.all(rows[:, 2] > 0)

    def test_bound_past_the_box_cox_pole_is_infinite(self, tmp_path):
        # under lambda = -1 the upper bounds of the last horizons have no
        # preimage; they read inf, without a warning, not nan or a value
        # below the lower bound
        sim, model, fc = tmp_path / "s.csv", tmp_path / "m.json", tmp_path / "fc.csv"
        assert run("simulate", "--kind", "arfima", "--d", "0.45", "--n", "400", "--seed", "1",
                   "--sigma", "3", "--out", str(sim)) == 0
        assert run("fit", str(sim), "--family", "arfima", "--lambda=-1", "--out", str(model)) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("forecast", "--model", str(model), "--series", str(sim),
                       "--steps", "48", "--level", "0.99", "--out", str(fc)) == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in fc.read_text().splitlines()[1:]])
        assert np.all(rows[:, 2] <= rows[:, 1]) and np.all(rows[:, 1] <= rows[:, 3])
        assert np.isinf(rows[-1, 3]) and np.isfinite(rows[:, :3]).all()

    def test_non_finite_floats_are_null(self):
        # strict JSON has no NaN or Infinity
        assert _jsonify({"x": [np.nan, np.inf, -np.inf, 1.5]}) == {"x": [None, None, None, 1.5]}

    def test_overflowing_lambda_is_one_error_line(self, sim_csv, tmp_path, capsys):
        # the simulated values exceed 1, so y ** 1e308 overflows
        model = tmp_path / "model.json"
        rc = run("fit", str(sim_csv), "--family", "naive", "--lambda", "1e308",
                 "--out", str(model))
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "MalformedInput", "message": "Box-Cox lambda 1e+308 overflows on these values"}
        assert not model.exists()

    @pytest.mark.parametrize("steps", [2**62, 2**63 - 1])
    def test_unaddressable_horizon_is_one_error_line(self, sim_csv, tmp_path, capsys, steps):
        model, fc = tmp_path / "model.json", tmp_path / "fc.csv"
        assert run("fit", str(sim_csv), "--family", "arima", "--out", str(model)) == 0
        capsys.readouterr()
        rc = run("forecast", "--model", str(model), "--series", str(sim_csv),
                 "--steps", str(steps), "--out", str(fc))
        assert rc == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "MalformedInput" and str(steps) in err["message"]
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["model.json", "model.json.manifest.json",
                                                "s.csv", "s.csv.manifest.json"]

    def test_naive_family(self, sim_csv, tmp_path):
        model = tmp_path / "naive.json"
        assert run("fit", str(sim_csv), "--family", "naive", "--out", str(model)) == 0
        assert json.loads(model.read_text())["family"] == "naive"

    def test_naive_fit_on_three_rows_has_no_aicc(self, tmp_path):
        # two differences leave no degrees of freedom, and the NaN AICc is
        # written as null
        path, model = tmp_path / "three.csv", tmp_path / "m.json"
        path.write_text("timestamp,value\n0,5.0\n60,6.0\n120,5.5\n")
        assert run("fit", str(path), "--family", "naive", "--out", str(model)) == 0
        doc = json.loads(model.read_text())
        assert doc["aicc"] is None and doc["n"] == 3

    def test_raw_scale_model_round_trip(self, sim_csv, tmp_path):
        # --lambda none fits the values as they are: the document's transform
        # is null, and forecast reads it back and forecasts on the raw scale
        model, fc = tmp_path / "model.json", tmp_path / "fc.csv"
        assert run("fit", str(sim_csv), "--family", "arima", "--lambda", "none",
                   "--out", str(model)) == 0
        doc = json.loads(model.read_text())
        assert doc["transform"] is None
        assert run("forecast", "--model", str(model), "--series", str(sim_csv),
                   "--steps", "4", "--out", str(fc)) == 0
        series = ingest_csv(str(sim_csv))
        expected = forecast(rebind(_model_from_doc(doc), series), 4)
        rows = [line.split(",") for line in fc.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == [f"{v:.9g}" for v in expected.point]

    def test_bad_family(self, sim_csv, tmp_path):
        rc = run("fit", str(sim_csv), "--family", "ets", "--out", str(tmp_path / "m.json"))
        assert rc == 1

    @pytest.mark.parametrize("family", ["naive", "mean", "arima", "arfima"])
    def test_model_document_round_trip(self, sim_csv, tmp_path, family):
        first, second = tmp_path / "m1.json", tmp_path / "m2.json"
        fc = tmp_path / "fc.csv"
        assert run("fit", str(sim_csv), "--family", family, "--out", str(first)) == 0
        model = _model_from_doc(json.loads(first.read_text()))
        _write_json(second, _model_doc(model))
        assert first.read_bytes() == second.read_bytes()

        series = transform(ingest_csv(str(sim_csv)), TransformSpec(lmbda=0.0))
        reread = _model_from_doc(json.loads(second.read_text()))
        expected = forecast(rebind(model, series), 8)
        got = forecast(rebind(reread, series), 8)
        for name in ("point", "lower", "upper"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))
        assert run("forecast", "--model", str(second), "--series", str(sim_csv),
                   "--steps", "8", "--out", str(fc)) == 0
        rows = [line.split(",") for line in fc.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == [f"{v:.9g}" for v in expected.point]

        # the document keeps 9 significant digits of the in-memory fit
        direct = forecast(rebind(fit(series, family), series), 8)
        np.testing.assert_allclose(got.point, direct.point, rtol=1e-6)

    @pytest.mark.parametrize("content", [
        '{"family": "arfima"}',
        "not json",
        "[1, 2]",
        # ARIMA(1,1,0) coefficients under a document that claims p = 3
        pytest.param(json.dumps({**_ARIMA_DOC, "p": 3}), id="p-disagrees-with-phi"),
        pytest.param(json.dumps({**_ARIMA_DOC, "sigma2": -1}), id="negative-sigma2"),
        pytest.param(json.dumps({**_ARIMA_DOC, "sigma2": float("inf")}),
                     id="non-finite-sigma2"),
        pytest.param(json.dumps({**_ARIMA_DOC, "phi": [1.5]}), id="non-causal-phi"),
        pytest.param(json.dumps({**_ARIMA_DOC, "q": 1, "theta": [-1.0]}),
                     id="non-invertible-theta"),
        # the decoders take JSON integers only, not what casts to them
        pytest.param(json.dumps({**_ARIMA_DOC, "q": 0.5}), id="fractional-q"),
        pytest.param(json.dumps({**_ARIMA_DOC, "n": "300"}), id="string-n"),
        pytest.param(json.dumps({**_ARIMA_DOC, "n": 2.5}), id="fractional-n"),
        pytest.param(json.dumps({**_ARIMA_DOC, "transform": {"lambda": "0.5"}}),
                     id="string-lambda"),
        pytest.param(json.dumps({**_ARIMA_DOC, "transform": [0.5, True]}),
                     id="list-transform"),
        # Python's json writes and reads NaN and Infinity
        pytest.param(json.dumps({**_ARIMA_DOC, "transform": {"lambda": float("nan")}}),
                     id="nan-lambda"),
        pytest.param(json.dumps({**_ARIMA_DOC, "transform": {"lambda": float("inf")}}),
                     id="infinite-lambda"),
        pytest.param(json.dumps({**_ARIMA_DOC, "mean": "1e3"}), id="string-mean"),
        pytest.param(json.dumps({**_ARIMA_DOC, "mean": float("inf")}), id="infinite-mean"),
        pytest.param(json.dumps({**_ARIMA_DOC, "sigma2": True}), id="boolean-sigma2"),
        pytest.param(json.dumps({**_ARIMA_DOC, "phi": ["0.5"]}), id="string-phi"),
        pytest.param(json.dumps({**_ARIMA_DOC, "phi": 0.5}), id="scalar-phi"),
        pytest.param(json.dumps({**_ARIMA_DOC, "aicc": "3"}), id="string-aicc"),
        pytest.param(json.dumps({**_ARIMA_DOC, "loglik": False}), id="boolean-loglik"),
    ])
    def test_malformed_model_document(self, sim_csv, tmp_path, capsys, content):
        model, out = tmp_path / "bad.json", tmp_path / "fc.csv"
        model.write_text(content)
        rc = run("forecast", "--model", str(model), "--series", str(sim_csv),
                 "--steps", "4", "--out", str(out))
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validation"
        assert not out.exists()

    @pytest.mark.parametrize("doc", [_ARIMA_DOC, _ARFIMA_DOC], ids=["arima", "arfima"])
    def test_well_formed_model_document_forecasts(self, sim_csv, tmp_path, doc):
        # the malformed cases above differ from these in one key each; the
        # 0.1.0 document forecasts the same bytes as the current one
        current = {k: v for k, v in doc.items() if k != "include_mean"}
        current["transform"] = {"lambda": doc["transform"]["lambda"]}
        tables = []
        for i, content in enumerate([doc, current]):
            model, out = tmp_path / f"good{i}.json", tmp_path / f"fc{i}.csv"
            model.write_text(json.dumps(content))
            assert run("forecast", "--model", str(model), "--series", str(sim_csv),
                       "--steps", "4", "--out", str(out)) == 0
            tables.append(out.read_bytes())
        assert len(tables[0].splitlines()) == 5
        assert tables[0] == tables[1]


class TestCrossval:
    @pytest.fixture()
    def series_dir(self, tmp_path):
        d = tmp_path / "series"
        d.mkdir()
        for seed in (1, 2):
            rc = run("simulate", "--kind", "arfima", "--d", "0.3", "--n", "300",
                     "--seed", str(seed), "--offset", "50", "--out", str(d / f"s{seed}.csv"))
            assert rc == 0
        return d

    def test_directory_protocol(self, series_dir, tmp_path):
        out = tmp_path / "out"
        rc = run("crossval", str(series_dir), "--window", "96", "--horizon", "8",
                 "--step", "40", "--methods", "naive,mean,arima",
                 "--out-dir", str(out))
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["series"]) == 2
        assert doc["series"][0]["analysis"]["verdict"] in ("LRD", "SRD")
        agg = doc["aggregate"]
        assert set(agg["metrics"]) == {"naive", "mean", "arima"}
        # boxplot quantiles are written for the pooled errors only
        assert all("boxplot" not in entry["cv"] for entry in doc["series"])
        assert set(agg["boxplot"]) == {"naive", "mean", "arima"}
        assert len(agg["improvements"]) == 6
        assert set(doc["config"]) == {"window", "max_horizon", "step", "methods", "transform"}
        assert all(set(imp) == {"per_horizon", "mean", "max"}
                   for imp in agg["improvements"].values())
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "method,horizon,mae,mape,count"
        assert len(metrics) == 1 + 3 * 8
        box = (out / "boxplot.csv").read_text().splitlines()
        assert box[0] == "method,horizon,min,q1,median,q3,max"
        imp = (out / "improvements.csv").read_text().splitlines()
        assert imp[0] == "pair,horizon,improvement_pct"
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert len(manifest["inputs"]) == 2
        # the manifest's options are the report's config, the input paths and
        # the options that no config records
        inputs = [str(series_dir / "s1.csv"), str(series_dir / "s2.csv")]
        assert manifest["options"] == {**doc["config"], "inputs": inputs,
                                       "interval": None, "fill": None, "config": None}
        assert all(set(entry["cv"]) == {"metrics", "improvements", "excluded_origins"}
                   for entry in doc["series"])

    def test_config_file_with_flag_override(self, series_dir, tmp_path):
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps({"window": 96, "horizon": 4, "step": 50,
                                   "methods": "naive,mean", "lambda": 0}))
        out = tmp_path / "out2"
        rc = run("crossval", str(series_dir), "--config", str(cfg),
                 "--horizon", "6", "--out-dir", str(out))
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["max_horizon"] == 6  # flag wins
        assert doc["config"]["window"] == 96
        assert doc["config"]["methods"] == ["naive", "mean"]
        # the run read the config file: its path is an option, its digest an input
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["options"]["config"] == str(cfg)
        assert manifest["inputs"][str(cfg)] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert len(manifest["inputs"]) == 3

    def test_raw_scale_protocol(self, series_dir, tmp_path):
        # --lambda none scores the raw values: the config's transform, which the
        # manifest repeats, is null, and the metrics are the library's
        out = tmp_path / "raw"
        assert run("crossval", str(series_dir), "--window", "96", "--horizon", "4",
                   "--step", "40", "--methods", "naive,mean", "--lambda", "none",
                   "--out-dir", str(out)) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["transform"] is None
        assert json.loads((out / "run-manifest.json").read_text())["options"]["transform"] is None
        config = CvConfig(window=96, max_horizon=4, step=40, methods=("naive", "mean"),
                          transform=None)
        report = rolling_cv(ingest_csv(str(series_dir / "s1.csv")), config)
        for m in config.methods:
            expected = [float(f"{v:.9g}") for v in report.per_method[m].mape]
            assert doc["series"][0]["cv"]["metrics"][m]["mape"] == expected

    @pytest.mark.parametrize("bad", [
        {"window": "abc"}, {"horizon": "4"}, {"methods": 5},
        # JSON integers only, not what casts to them
        {"window": 96.7}, {"step": True}, {"window": "96"},
    ])
    def test_config_value_of_wrong_type_is_validation_error(self, series_dir, tmp_path,
                                                             capsys, bad):
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "out3"
        rc = run("crossval", str(series_dir), "--config", str(cfg), "--out-dir", str(out))
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validation"
        assert not out.exists()

    def test_worker_env_parallelism_matches_serial(self, series_dir, tmp_path, monkeypatch,
                                                   workers):
        # report.json is the same bytes for one process, two and the
        # default, the usable cores
        args = ("crossval", str(series_dir), "--window", "64", "--horizon", "4",
                "--step", "30", "--methods", "naive,mean,arima")
        reports = []
        for i, value in enumerate(["1", "2", None]):
            if value is None:
                monkeypatch.delenv("LRDFORECAST_WORKERS", raising=False)
            else:
                monkeypatch.setenv("LRDFORECAST_WORKERS", value)
            workers()
            assert run(*args, "--out-dir", str(tmp_path / str(i))) == 0
            reports.append((tmp_path / str(i) / "report.json").read_bytes())
        assert all(r == reports[0] for r in reports[1:])

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_worker_env_is_validation_error(self, series_dir, tmp_path, capsys,
                                                monkeypatch, value):
        monkeypatch.setenv("LRDFORECAST_WORKERS", value)
        out = tmp_path / "out4"
        rc = run("crossval", str(series_dir), "--out-dir", str(out))
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        err = json.loads(err[0])
        assert err["error"] == "validation"
        assert "LRDFORECAST_WORKERS" in err["message"]
        assert not out.exists()

    def test_too_small_series_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("timestamp,value\n" + "\n".join(f"{i},{5 + i % 3}" for i in range(40)))
        rc = run("crossval", str(path), "--window", "96", "--horizon", "8",
                 "--out-dir", str(tmp_path / "o"))
        assert rc == 2

    def test_every_origin_excluded_is_one_error_line(self, tmp_path, capsys):
        # every ARIMA fit of a constant series fails, so no origin is scored
        path = tmp_path / "const.csv"
        path.write_text("timestamp,value\n" + "\n".join(f"{3600 * i},5.0" for i in range(200)))
        out = tmp_path / "out"
        rc = run("crossval", str(path), "--window", "96", "--horizon", "4", "--step", "20",
                 "--methods", "arima", "--out-dir", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "NoScoredOrigins"
        assert doc["message"] == "all 6 origins were excluded (SingularRegression: 6)"
        assert not out.exists()

    def test_no_subcommand(self, capsys):
        assert run() == 1


def _dests(subcommand) -> set:
    """The names the subcommand's parser sets, outputs aside."""
    sub = next(a for a in _build_parser()._actions if a.dest == "subcommand")
    return {a.dest for a in sub.choices[subcommand]._actions
            if a.default is not argparse.SUPPRESS} - {"out", "out_dir"}


class TestManifest:
    @pytest.fixture()
    def gappy_csv(self, tmp_path):
        # 400 hourly rows with three removed: the grid needs --fill locf
        values = generate(GenSpec(kind="arfima", n=400, seed=2, d=0.3, offset=50.0)).values
        path = tmp_path / "gappy.csv"
        rows = (f"{3600 * i},{v!r}\n" for i, v in enumerate(values.tolist())
                if i not in (100, 200, 300))
        path.write_text("timestamp,value\n" + "".join(rows))
        return path

    # each subcommand's argv, its manifest, and the values it resolves that
    # no flag sets
    @pytest.mark.parametrize("argv, manifest, resolved", [
        (["simulate", "--kind", "white_noise", "--n", "10", "--out", "{tmp}/w.csv"],
         "w.csv.manifest.json", {"applied_offset"}),
        (["analyze", "{csv}", "--out", "{tmp}/a.json"], "a.json.manifest.json", set()),
        (["fit", "{csv}", "--family", "naive", "--out", "{tmp}/m2.json"],
         "m2.json.manifest.json", set()),
        (["forecast", "--model", "{tmp}/m.json", "--series", "{csv}", "--steps", "2",
          "--out", "{tmp}/f.csv"], "f.csv.manifest.json", set()),
        (["crossval", "{csv}", "--window", "96", "--horizon", "4", "--step", "100",
          "--methods", "naive,mean", "--out-dir", "{tmp}/cv"], "cv/run-manifest.json", set()),
    ], ids=["simulate", "analyze", "fit", "forecast", "crossval"])
    def test_options_are_every_parsed_name(self, sim_csv, tmp_path, argv, manifest,
                                           resolved):
        if argv[0] == "forecast":
            assert run("fit", str(sim_csv), "--family", "naive",
                       "--out", str(tmp_path / "m.json")) == 0
        assert run(*(a.format(tmp=tmp_path, csv=sim_csv) for a in argv)) == 0
        options = json.loads((tmp_path / manifest).read_text())["options"]
        assert set(options) == _dests(argv[0]) | resolved

    @pytest.mark.parametrize("argv, manifest", [
        (["fit", "{csv}", "--family", "arima", "--out", "{tmp}/m.json"],
         "m.json.manifest.json"),
        (["forecast", "--model", "{tmp}/m.json", "--series", "{csv}", "--steps", "3",
          "--out", "{tmp}/f.csv"], "f.csv.manifest.json"),
        (["crossval", "{csv}", "--window", "96", "--horizon", "4", "--step", "100",
          "--methods", "naive,mean", "--out-dir", "{tmp}/cv"], "cv/run-manifest.json"),
    ], ids=["fit", "forecast", "crossval"])
    def test_fill_is_recorded(self, gappy_csv, tmp_path, capsys, argv, manifest):
        argv = [a.format(tmp=tmp_path, csv=gappy_csv) for a in argv]
        if argv[0] == "fit":  # the gaps fail the run without the fill
            assert run(*argv) == 2
            assert "IrregularGrid" in capsys.readouterr().err
        else:
            assert run("fit", str(gappy_csv), "--family", "arima", "--fill", "locf",
                       "--out", str(tmp_path / "m.json")) == 0
        assert run(*argv, "--fill", "locf") == 0
        options = json.loads((tmp_path / manifest).read_text())["options"]
        assert options["fill"] == "locf"
        assert options["interval"] is None

    def test_options_rerun_the_run(self, gappy_csv, tmp_path):
        # fit and forecast again from nothing but the manifests' options
        model, table = tmp_path / "m.json", tmp_path / "f.csv"
        assert run("fit", str(gappy_csv), "--family", "arima", "--fill", "locf",
                   "--lambda", "0.5", "--max-p", "2", "--out", str(model)) == 0
        assert run("forecast", "--model", str(model), "--series", str(gappy_csv),
                   "--fill", "locf", "--steps", "6", "--out", str(table)) == 0
        for out in (model, table):
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            options = manifest["options"]
            argv = [manifest["subcommand"]]
            if argv[0] == "fit":  # its series is a positional argument
                argv.append(options.pop("series"))
            for key, value in options.items():
                if value is not None:
                    argv += [f"--{key.replace('_', '-')}", str(value)]
            again = tmp_path / f"again-{out.name}"
            assert run(*argv, "--out", str(again)) == 0
            assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["forecast", "--model", "{tmp}/m.json", "--series", "{tmp}/s.csv",
                  "--steps", "0", "--out", "{out}"], "--steps must be >= 1", id="steps-0"),
    pytest.param(["forecast", "--model", "{tmp}/m.json", "--series", "{tmp}/s.csv",
                  "--steps", "4", "--level", "1.5", "--out", "{out}"],
                 "--level must lie in (0, 1)", id="level-1.5"),
    pytest.param(["crossval", "{tmp}/empty", "--out-dir", "{out}"],
                 "no .csv series in directory {tmp}/empty", id="empty-directory"),
    # the interval level changes no cross-validation score, so crossval has no flag for it
    pytest.param(["crossval", "{tmp}/s.csv", "--level", "0.9", "--out-dir", "{out}"],
                 "unrecognized arguments: --level 0.9", id="crossval-level"),
    pytest.param(["crossval", "{tmp}/absent.csv", "--out-dir", "{out}"],
                 "input not found: {tmp}/absent.csv", id="missing-input"),
    pytest.param(["simulate", "--kind", "arma", "--phi", "0.5,x", "--n", "10", "--out", "{out}"],
                 "bad coefficient list '0.5,x'", id="bad-phi"),
    # 86400 / 5e-324 overflows, so the daily lag cannot be counted
    pytest.param(["analyze", "{tmp}/subnormal-step.csv", "--out", "{out}"],
                 "sampling interval 5e-324s is too short to count the observations in a day",
                 id="subnormal-interval"),
    # a non-finite Box-Cox lambda fails before the series is read
    pytest.param(["fit", "{tmp}/s.csv", "--family", "naive", "--lambda", "nan", "--out", "{out}"],
                 "Box-Cox lambda must be finite, got nan", id="fit-nan-lambda"),
    pytest.param(["fit", "{tmp}/s.csv", "--family", "naive", "--lambda=-inf", "--out", "{out}"],
                 "Box-Cox lambda must be finite, got -inf",
                 id="fit-infinite-lambda"),
    pytest.param(["crossval", "{tmp}/s.csv", "--lambda", "inf", "--out-dir", "{out}"],
                 "Box-Cox lambda must be finite, got inf", id="crossval-infinite-lambda"),
    # Python's json reads NaN
    pytest.param(["crossval", "{tmp}/s.csv", "--config", "{tmp}/nan-lambda.json",
                  "--out-dir", "{out}"], "Box-Cox lambda must be finite, got nan",
                 id="config-nan-lambda"),
])
def test_validation_error(tmp_path, capsys, argv, message):
    (tmp_path / "s.csv").write_text("timestamp,value\n0,1.0\n")
    (tmp_path / "subnormal-step.csv").write_text(
        "timestamp,value\n" + "".join(f"{i * 5e-324!r},{1 + i % 7}\n" for i in range(300)))
    (tmp_path / "nan-lambda.json").write_text('{"lambda": NaN}')
    (tmp_path / "empty").mkdir()
    out = tmp_path / "out"
    rc = run(*(a.format(tmp=tmp_path, out=out) for a in argv))
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "validation", "message": message.format(tmp=tmp_path)}
    assert not out.exists()
