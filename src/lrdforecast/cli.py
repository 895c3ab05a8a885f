"""Command-line entry point.

Subcommands: simulate (emit a synthetic series CSV), analyze (long-range
dependence report), fit (fit one model, emit a JSON model document),
forecast (forecast from a model document), and crossval (rolling-origin
comparison over one or many series). Every run writes a run-manifest JSON
recording the tool version, the options, and digests of the inputs, so
runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from ._pool import worker_count
from .errors import LrdForecastError, MalformedInput
from .evaluation import CvConfig, aggregate_reports, rolling_cv
from .lrd import adf_test, classify_memory, seasonal_peak_diagnostic
from .models import FAMILIES, FittedModel, ModelSpec, fit, forecast, rebind
from .operators import causal_invertible
from .series import TimeSeries, TransformSpec, acf, ingest_csv, transform, write_csv
from .synthgen import KINDS, GenSpec, generate


class CliValidationError(Exception):
    """Bad flags, paths, or bounds; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with code 2
        raise CliValidationError(message)


def _err_line(code: str, message: str) -> None:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)


def _sig9(x: float):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return float(f"{float(x):.9g}")


def _jsonify(obj):
    """Make a document JSON-safe: 9-significant-digit floats, lists for
    arrays, None for NaN."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _sig9(float(obj))
    return obj


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonify(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, header: str, rows) -> None:
    """Write a CSV: the header line, then one line per row of cells."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(cell) for cell in row) + "\n")


def _write_manifest(path, subcommand: str, options: dict, inputs) -> None:
    doc = {
        "tool": "lrdforecast",
        "version": __version__,
        "subcommand": subcommand,
        "options": options,
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    _write_json(path, doc)


def _require_file(path) -> None:
    if not os.path.isfile(path):
        raise CliValidationError(f"input file not found: {path}")


def _read_json_object(path, what: str) -> dict:
    _require_file(path)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise CliValidationError(f"bad {what} file: {exc}") from None
    if not isinstance(doc, dict):
        raise CliValidationError(f"{what} file must hold a JSON object")
    return doc


def _to_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CliValidationError(f"bad {what} {text!r}") from None


def _parse_lambda(text: str):
    if text.lower() in ("none", "off"):
        return None
    return _to_float(text, "lambda")


def _parse_floats(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise CliValidationError(f"bad coefficient list {text!r}") from None


# ---------------------------------------------------------------------------
# document builders


def _fields(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _analysis_doc(series: TimeSeries) -> dict:
    per_day = 86400.0 / series.interval
    if per_day == math.inf:  # an interval below about 4.8e-304 s
        raise CliValidationError(f"sampling interval {series.interval}s is too short "
                                 f"to count the observations in a day")
    daily_lag = int(round(per_day))
    cls = classify_memory(series)
    adf = adf_test(series)
    seasonal = None
    if daily_lag >= 2 and len(series) > 2 * daily_lag:
        max_lag = min(len(series) - 1, 4 * daily_lag)
        present, peaks = seasonal_peak_diagnostic(acf(series, max_lag), daily_lag)
        seasonal = {"daily_lag": daily_lag, "present": present, "peak_lags": peaks}
    return {
        "label": series.label,
        "n": len(series),
        "interval": series.interval,
        "hurst": {name: _fields(est, "h", "slope", "r_squared", "clamped", "points")
                  for name, est in cls.h_by_method.items()},
        "h_median": cls.h_median,
        "verdict": cls.verdict,
        "adf": _fields(adf, "statistic", "lags_used", "critical_values",
                       "stationary_at_5pct"),
        "seasonal_peaks": seasonal,
    }


def _transform_doc(spec: TransformSpec | None, applied: bool):
    # "applied" is a format constant: true for a model, false for a config
    if spec is None:
        return None
    return {"lambda": spec.lmbda, "applied": applied}


def _exactly(kind):
    """A decoder that passes only values of this JSON type: no true for an
    integer, no 0.5 or "300" for one, no "false" for a boolean."""
    def decode(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value
    return decode


def _number(value):
    # keeps the JSON type, so ARIMA's integer d reads back as an integer
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _real(value) -> float:
    return float(_number(value))


def _float_or_nan(value) -> float:
    return float("nan") if value is None else _real(value)


def _floats(value) -> np.ndarray:
    if type(value) is not list:
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return np.array([_real(v) for v in value])


def _transform_from_doc(doc):
    if doc is None:
        return None
    if type(doc) is not dict:
        raise TypeError(f"expected null or an object, got {doc!r}")
    if doc["applied"] is not True:  # a model's values are on its transform's scale
        raise TypeError(f"expected applied true, got {doc['applied']!r}")
    return TransformSpec(lmbda=_real(doc["lambda"]))


# The model document: (key, decoder) for each ModelSpec attribute, then for each
# fitted quantity a forecast needs. Writer and reader both follow these lists.
_SPEC_FIELDS = (
    ("family", str),
    ("p", _exactly(int)),
    ("d", _number),
    ("q", _exactly(int)),
    ("include_mean", _exactly(bool)),
)
_FIT_FIELDS = (
    ("phi", _floats),
    ("theta", _floats),
    ("mean", _real),
    ("sigma2", _real),
    ("aicc", _float_or_nan),
    ("loglik", _float_or_nan),
    ("n", _exactly(int)),
    ("transform", _transform_from_doc),
)


def _model_doc(model: FittedModel) -> dict:
    doc = _fields(model.spec, *(key for key, _ in _SPEC_FIELDS))
    doc.update(_fields(model, *(key for key, _ in _FIT_FIELDS)))
    doc["transform"] = _transform_doc(model.transform, applied=True)
    return doc


def _model_from_doc(doc: dict) -> FittedModel:
    try:
        given = {key: decode(doc[key]) for key, decode in _SPEC_FIELDS}
        include_mean = given.pop("include_mean")
        spec = ModelSpec(**given)
        fitted = {key: decode(doc[key]) for key, decode in _FIT_FIELDS}
    except KeyError as exc:
        raise CliValidationError(f"model document lacks {exc}") from None
    except (TypeError, ValueError) as exc:  # MalformedInput is a ValueError too
        raise CliValidationError(f"bad model document: {exc}") from None
    phi, theta, mean, sigma2 = (fitted[key] for key in ("phi", "theta", "mean", "sigma2"))
    if include_mean != spec.include_mean:
        problem = f"include_mean={include_mean} contradicts {spec.family} with d={spec.d}"
    elif (spec.p, spec.q) != (phi.size, theta.size):
        problem = (f"p={spec.p}, q={spec.q} but {phi.size} phi and "
                   f"{theta.size} theta coefficients")
    elif not math.isfinite(mean):
        problem = f"mean must be finite, got {mean}"
    elif not (math.isfinite(sigma2) and sigma2 >= 0.0):
        problem = f"sigma2 must be finite and non-negative, got {sigma2}"
    elif not causal_invertible(phi, theta):
        problem = "phi or theta has a root on or inside the unit circle"
    else:
        return FittedModel(spec=spec, history=np.zeros(1), **fitted)
    raise CliValidationError(f"bad model document: {problem}")


def _config_doc(config: CvConfig) -> dict:
    doc = _fields(config, "window", "max_horizon", "step", "methods", "level")
    doc["transform"] = _transform_doc(config.transform, applied=False)
    return doc


def _cv_doc(report) -> dict:
    return {
        "series_label": report.series_label,
        "metrics": {m: _fields(ms, "mae", "mape", "count")
                    for m, ms in report.per_method.items()},
        "improvements": {f"{b}_over_{a}": _fields(imp, "per_horizon", "mean", "max")
                         for (a, b), imp in report.improvements.items()},
        "excluded_origins": report.excluded_origins,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    auto = args.offset == "auto"
    offset = 0.0 if auto else _to_float(args.offset, "offset")
    spec = GenSpec(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        phi=_parse_floats(args.phi),
        theta=_parse_floats(args.theta),
        d=args.d,
        hurst=args.hurst,
        sigma=args.sigma,
        offset=offset,
        interval=args.interval,
    )
    series = generate(spec)
    values = series.values
    shift = 0.0
    if auto and values.min() <= 0:
        shift = float(np.ceil(1.0 - values.min()))
        series = dataclasses.replace(series, values=values + shift)
    write_csv(series, args.out)
    _write_manifest(
        args.out + ".manifest.json",
        "simulate",
        {**_fields(args, "kind", "n", "seed", "phi", "theta", "d", "hurst", "sigma",
                   "offset", "interval"),
         "applied_offset": shift if auto else offset},
        [],
    )
    print(f"wrote {args.out} ({len(series)} observations, kind={args.kind})")
    return 0


def _cmd_analyze(args) -> int:
    _require_file(args.series)
    series = ingest_csv(args.series, interval_hint=args.interval, fill=args.fill)
    doc = _analysis_doc(series)
    _write_json(args.out, doc)
    _write_manifest(
        args.out + ".manifest.json",
        "analyze",
        _fields(args, "series", "interval", "fill"),
        [args.series],
    )
    med = doc["h_median"]
    print(f"{series.label}: verdict={doc['verdict']} (median H={med:.4f}), "
          f"adf={doc['adf']['statistic']:.3f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_fit(args) -> int:
    _require_file(args.series)
    series = ingest_csv(args.series, interval_hint=args.interval, fill=args.fill)
    lmbda = _parse_lambda(args.lmbda)
    if lmbda is not None:
        series = transform(series, TransformSpec(lmbda=lmbda))
    model = fit(series, args.family, args.max_p, args.max_q, args.max_d)
    _write_json(args.out, _model_doc(model))
    _write_manifest(
        args.out + ".manifest.json",
        "fit",
        {**_fields(args, "series", "family", "max_p", "max_q", "max_d"),
         "lambda": args.lmbda},
        [args.series],
    )
    s = model.spec
    print(f"fitted {s.family}(p={s.p}, d={s.d:g}, q={s.q}) "
          f"aicc={model.aicc:.3f} sigma2={model.sigma2:.6g}")
    print(f"wrote {args.out}")
    return 0


def _cmd_forecast(args) -> int:
    _require_file(args.series)
    if args.steps < 1:
        raise CliValidationError("--steps must be >= 1")
    if not 0.0 < args.level < 1.0:
        raise CliValidationError("--level must lie in (0, 1)")
    model = _model_from_doc(_read_json_object(args.model, "model"))
    series = ingest_csv(args.series, interval_hint=args.interval, fill=args.fill)
    if model.transform is not None:
        series = transform(series, model.transform)
    model = rebind(model, series)
    result = forecast(model, args.steps, level=args.level)
    columns = (result.point, result.lower, result.upper)
    _write_table(args.out, "horizon,point,lower,upper", (
        [h, *(f"{c[i]:.9g}" for c in columns)] for i, h in enumerate(result.horizons)
    ))
    _write_manifest(
        args.out + ".manifest.json",
        "forecast",
        _fields(args, "model", "series", "steps", "level"),
        [args.model, args.series],
    )
    print(f"wrote {args.out} ({args.steps} horizons at level {args.level})")
    return 0


def _collect_series_paths(inputs) -> list:
    paths = []
    for item in inputs:
        if os.path.isdir(item):
            found = sorted(
                os.path.join(item, name)
                for name in os.listdir(item)
                if name.endswith(".csv")
            )
            if not found:
                raise CliValidationError(f"no .csv series in directory {item}")
            paths.extend(found)
        elif os.path.isfile(item):
            paths.append(item)
        else:
            raise CliValidationError(f"input not found: {item}")
    return paths


def _methods(value) -> tuple:
    if isinstance(value, str):
        return tuple(m.strip() for m in value.split(",") if m.strip())
    return tuple(value)


def _transform_of_lambda(value):
    lmbda = _parse_lambda(str(value))
    return None if lmbda is None else TransformSpec(lmbda=lmbda)


# crossval options: flag dest, config-file key, CvConfig field, decoder. An
# option given neither way keeps CvConfig's default.
_CV_OPTIONS = (
    ("lmbda", "lambda", "transform", _transform_of_lambda),
    ("methods", "methods", "methods", _methods),
    ("window", "window", "window", _exactly(int)),
    ("horizon", "horizon", "max_horizon", _exactly(int)),
    ("step", "step", "step", _exactly(int)),
    ("level", "level", "level", _number),
)


def _crossval_config(args) -> CvConfig:
    given = {} if args.config is None else _read_json_object(args.config, "config")
    for dest, key, _, _ in _CV_OPTIONS:
        if getattr(args, dest) is not None:  # a flag beats the config file
            given[key] = getattr(args, dest)
    try:
        return CvConfig(**{field: decode(given[key])
                           for _, key, field, decode in _CV_OPTIONS if key in given})
    except (TypeError, ValueError) as exc:  # MalformedInput is a ValueError too
        raise CliValidationError(f"bad crossval config: {exc}") from None


def _cmd_crossval(args) -> int:
    paths = _collect_series_paths(args.inputs)
    config = _crossval_config(args)
    try:
        worker_count()  # a bad value fails here, before any work
    except MalformedInput as exc:
        raise CliValidationError(str(exc)) from None

    results = []
    for path in paths:
        series = ingest_csv(path, interval_hint=args.interval, fill=args.fill)
        try:
            analysis = _analysis_doc(series)
        except LrdForecastError as exc:
            analysis = {"label": series.label, "error": f"{type(exc).__name__}: {exc}"}
        results.append((analysis, rolling_cv(series, config)))

    pooled = aggregate_reports([r for _, r in results])
    boxplot = pooled.boxplot  # NoScoredOrigins, before --out-dir is made, if none scored
    os.makedirs(args.out_dir, exist_ok=True)

    doc = {
        "config": _config_doc(config),
        "series": [
            {"path": str(p), "analysis": a, "cv": _cv_doc(r)}
            for p, (a, r) in zip(paths, results)
        ],
        "aggregate": {**_cv_doc(pooled), "boxplot": boxplot},
    }
    report_path = os.path.join(args.out_dir, "report.json")
    _write_json(report_path, doc)

    horizons = range(config.max_horizon)
    _write_table(
        os.path.join(args.out_dir, "metrics.csv"), "method,horizon,mae,mape,count",
        ([m, i + 1, f"{ms.mae[i]:.9g}", f"{ms.mape[i]:.9g}", ms.count]
         for m, ms in pooled.per_method.items() for i in horizons),
    )
    _write_table(
        os.path.join(args.out_dir, "improvements.csv"), "pair,horizon,improvement_pct",
        ([f"{b}_over_{a}", i + 1, f"{v:.9g}" if np.isfinite(v) else ""]
         for (a, b), imp in pooled.improvements.items()
         for i, v in enumerate(imp.per_horizon)),
    )
    _write_table(
        os.path.join(args.out_dir, "boxplot.csv"), "method,horizon,min,q1,median,q3,max",
        ([m, i + 1, *(f"{v:.9g}" for v in q[i])]
         for m, q in boxplot.items() for i in horizons),
    )

    _write_manifest(
        os.path.join(args.out_dir, "run-manifest.json"),
        "crossval",
        {
            "inputs": [str(p) for p in paths],
            "window": config.window,
            "horizon": config.max_horizon,
            "step": config.step,
            "methods": list(config.methods),
            "level": config.level,
            "lambda": config.transform.lmbda if config.transform else None,
        },
        paths,
    )
    for m, ms in pooled.per_method.items():
        print(f"{m}: mean MAPE {ms.mape.mean():.3f}% over {ms.count} origins")
    print(f"wrote {report_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_io_flags(p):
    p.add_argument("--interval", type=float, default=None,
                   help="sampling period in seconds (default: inferred)")
    p.add_argument("--fill", choices=["locf"], default=None,
                   help="fill whole-interval gaps by carrying the last value forward")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lrdforecast",
                     description="Long-range dependence analysis and forecasting "
                                 "for response-time series.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND",
                                parser_class=_Parser)

    p = sub.add_parser("simulate",
                       help="generate a synthetic series CSV")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int, required=True, help="series length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi", default="", help="comma-separated AR coefficients")
    p.add_argument("--theta", default="", help="comma-separated MA coefficients")
    p.add_argument("--d", type=float, default=0.0, help="fractional exponent")
    p.add_argument("--hurst", type=float, default=0.5, help="fGn Hurst exponent")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--offset", default="auto",
                   help="additive shift; 'auto' lifts the series above zero")
    p.add_argument("--interval", type=float, default=3600.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze",
                       help="Hurst estimates, stationarity test, memory verdict")
    p.add_argument("series")
    _add_io_flags(p)
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fit", help="fit one forecasting model")
    p.add_argument("series")
    _add_io_flags(p)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--lambda", dest="lmbda", default="0",
                   help="Box-Cox lambda, or 'none' to fit on the raw scale")
    p.add_argument("--max-p", type=int, default=None,
                   help="AR order bound (default 5 for arima, 2 for arfima)")
    p.add_argument("--max-q", type=int, default=None,
                   help="MA order bound (default 5 for arima, 2 for arfima)")
    p.add_argument("--max-d", type=int, default=2)
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("forecast",
                       help="forecast from a fitted model document")
    p.add_argument("--model", required=True, help="model JSON from 'fit'")
    p.add_argument("--series", required=True, help="series CSV the model applies to")
    _add_io_flags(p)
    p.add_argument("--steps", type=int, required=True, help="forecast horizon")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", required=True, help="output CSV horizon,point,lower,upper")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("crossval",
                       help="rolling-origin comparison over one or many series")
    p.add_argument("inputs", nargs="+", help="series CSVs and/or directories of them")
    _add_io_flags(p)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--step", type=int, default=None)
    p.add_argument("--methods", default=None, help="comma-separated subset of methods")
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--lambda", dest="lmbda", default=None,
                   help="Box-Cox lambda, or 'none' for the raw scale")
    p.add_argument("--config", default=None, help="flat JSON config file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_crossval)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliValidationError as exc:
        _err_line("validation", str(exc))
        return 1
    if not getattr(args, "subcommand", None):
        _err_line("validation", "a subcommand is required (see --help)")
        return 1
    try:
        return args.func(args)
    except CliValidationError as exc:
        _err_line("validation", str(exc))
        return 1
    except (LrdForecastError, OSError) as exc:
        _err_line(type(exc).__name__, str(exc))
        return 2

