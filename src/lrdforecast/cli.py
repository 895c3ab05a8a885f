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
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .errors import LrdForecastError
from .evaluation import CvConfig, aggregate_reports, rolling_cv
from .lrd import adf_test, classify_memory, seasonal_peak_diagnostic
from .models import FAMILIES, FittedModel, ModelSpec, fit, forecast, rebind
from .series import TimeSeries, TransformSpec, acf, ingest_csv, transform, write_csv
from .synthgen import KINDS, GenSpec, generate

THREADS_ENV = "LRDFORECAST_THREADS"


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
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonify(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _parse_lambda(text: str):
    if text.lower() in ("none", "off"):
        return None
    try:
        return float(text)
    except ValueError:
        raise CliValidationError(f"bad lambda {text!r}") from None


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


def _hurst_doc(est) -> dict:
    return {
        "h": est.h,
        "slope": est.slope,
        "r_squared": est.r_squared,
        "clamped": est.clamped,
        "points": est.points,
    }


def _adf_doc(res) -> dict:
    return {
        "statistic": res.statistic,
        "lags_used": res.lags_used,
        "critical_values": res.critical_values,
        "stationary_at_5pct": res.stationary_at_5pct,
    }


def _analysis_doc(series: TimeSeries) -> dict:
    cls = classify_memory(series)
    adf = adf_test(series)
    daily_lag = int(round(86400.0 / series.interval)) if series.interval else 0
    seasonal = None
    if daily_lag >= 2 and len(series) > 2 * daily_lag:
        max_lag = min(len(series) - 1, 4 * daily_lag)
        present, peaks = seasonal_peak_diagnostic(acf(series, max_lag), daily_lag)
        seasonal = {"daily_lag": daily_lag, "present": present, "peak_lags": peaks}

    return {
        "label": series.label,
        "n": len(series),
        "interval": series.interval,
        "hurst": {name: _hurst_doc(est) for name, est in cls.h_by_method.items()},
        "h_median": cls.h_median,
        "verdict": cls.verdict,
        "adf": _adf_doc(adf),
        "seasonal_peaks": seasonal,
    }


def _transform_doc(spec: TransformSpec | None):
    if spec is None:
        return None
    return {"lambda": spec.lmbda, "applied": spec.applied}


def _transform_from_doc(doc):
    if doc is None:
        return None
    return TransformSpec(lmbda=float(doc["lambda"]), applied=bool(doc["applied"]))


def _number(value):
    # keeps the JSON type, so ARIMA's integer d reads back as an integer
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _float_or_nan(value) -> float:
    return float("nan") if value is None else float(value)


def _floats(value) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"expected a list of numbers, got {value!r}")
    return out


# The model document: (key, decoder) for each ModelSpec field, then for each
# fitted quantity a forecast needs. Writer and reader both follow these lists.
_SPEC_FIELDS = (
    ("family", str),
    ("p", int),
    ("d", _number),
    ("q", int),
    ("include_mean", bool),
)
_FIT_FIELDS = (
    ("phi", _floats),
    ("theta", _floats),
    ("mean", float),
    ("sigma2", float),
    ("aicc", _float_or_nan),
    ("loglik", _float_or_nan),
    ("n", int),
    ("transform", _transform_from_doc),
)


def _model_doc(model: FittedModel) -> dict:
    doc = {key: getattr(model.spec, key) for key, _ in _SPEC_FIELDS}
    doc.update((key, getattr(model, key)) for key, _ in _FIT_FIELDS)
    doc["transform"] = _transform_doc(model.transform)
    return doc


def _model_from_doc(doc: dict) -> FittedModel:
    try:
        spec = ModelSpec(**{key: decode(doc[key]) for key, decode in _SPEC_FIELDS})
        fitted = {key: decode(doc[key]) for key, decode in _FIT_FIELDS}
    except KeyError as exc:
        raise CliValidationError(f"model document lacks {exc}") from None
    except (TypeError, ValueError, LrdForecastError) as exc:
        raise CliValidationError(f"bad model document: {exc}") from None
    return FittedModel(spec=spec, residuals=np.zeros(0), history=np.zeros(1), **fitted)


def _config_doc(config: CvConfig) -> dict:
    return {
        "window": config.window,
        "max_horizon": config.max_horizon,
        "step": config.step,
        "methods": list(config.methods),
        "level": config.level,
        "transform": _transform_doc(config.transform),
    }


def _cv_doc(report) -> dict:
    pair_docs = {}
    for (a, b), imp in report.improvements.items():
        pair_docs[f"{b}_over_{a}"] = {
            "per_horizon": imp.per_horizon,
            "mean": imp.mean,
            "max": imp.max,
        }
    doc = {
        "series_label": report.series_label,
        "metrics": {
            m: {"mae": ms.mae, "mape": ms.mape, "count": ms.count}
            for m, ms in report.per_method.items()
        },
        "improvements": pair_docs,
        "excluded_origins": [list(x) for x in report.excluded_origins],
    }
    if report.boxplot is not None:
        doc["boxplot"] = {m: q for m, q in report.boxplot.items()}
    return doc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    if args.kind not in KINDS:
        raise CliValidationError(f"unknown kind {args.kind!r}; choose from {KINDS}")
    spec = GenSpec(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        phi=_parse_floats(args.phi),
        theta=_parse_floats(args.theta),
        d=args.d,
        hurst=args.hurst,
        sigma=args.sigma,
        offset=0.0 if args.offset == "auto" else float(args.offset),
        interval=args.interval,
    )
    series = generate(spec)
    values = series.values
    shift = 0.0
    if args.offset == "auto" and values.min() <= 0:
        shift = float(np.ceil(1.0 - values.min()))
        series = dataclasses.replace(series, values=values + shift)
    write_csv(series, args.out)
    _write_manifest(
        args.out + ".manifest.json",
        "simulate",
        {
            "kind": args.kind,
            "n": args.n,
            "seed": args.seed,
            "phi": args.phi,
            "theta": args.theta,
            "d": args.d,
            "hurst": args.hurst,
            "sigma": args.sigma,
            "offset": args.offset,
            "applied_offset": shift if args.offset == "auto" else float(args.offset),
            "interval": args.interval,
        },
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
        {"series": args.series, "interval": args.interval, "fill": args.fill},
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
        {
            "series": args.series,
            "family": args.family,
            "lambda": args.lmbda,
            "max_p": args.max_p,
            "max_q": args.max_q,
            "max_d": args.max_d,
        },
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
    if model.transform is not None and model.transform.applied:
        series = transform(series, TransformSpec(lmbda=model.transform.lmbda))
    model = rebind(model, series)
    result = forecast(model, args.steps, level=args.level)
    with open(args.out, "w", newline="") as fh:
        fh.write("horizon,point,lower,upper\n")
        for i in range(args.steps):
            fh.write(f"{result.horizons[i]},{result.point[i]:.9g},"
                     f"{result.lower[i]:.9g},{result.upper[i]:.9g}\n")
    _write_manifest(
        args.out + ".manifest.json",
        "forecast",
        {"model": args.model, "series": args.series, "steps": args.steps,
         "level": args.level},
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


def _cv_worker(task):
    path, interval_hint, fill, config = task
    series = ingest_csv(path, interval_hint=interval_hint, fill=fill)
    try:
        analysis = _analysis_doc(series)
    except LrdForecastError as exc:
        analysis = {"label": series.label, "error": f"{type(exc).__name__}: {exc}"}
    report = rolling_cv(series, config)
    return analysis, report


def _crossval_config(args) -> CvConfig:
    file_cfg = {} if args.config is None else _read_json_object(args.config, "config")

    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return file_cfg[key]
        return fallback

    methods = pick(args.methods, "methods", "naive,mean,arima,arfima")
    if isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(",") if m.strip())
    else:
        methods = tuple(methods)
    lmbda = pick(args.lmbda, "lambda", "0")
    lmbda = _parse_lambda(str(lmbda))
    tspec = None if lmbda is None else TransformSpec(lmbda=lmbda)
    try:
        return CvConfig(
            window=int(pick(args.window, "window", 96)),
            max_horizon=int(pick(args.horizon, "horizon", 48)),
            step=int(pick(args.step, "step", 1)),
            methods=methods,
            level=float(pick(args.level, "level", 0.95)),
            transform=tspec,
        )
    except LrdForecastError as exc:
        raise CliValidationError(str(exc)) from None


def _cmd_crossval(args) -> int:
    paths = _collect_series_paths(args.inputs)
    config = _crossval_config(args)
    os.makedirs(args.out_dir, exist_ok=True)

    tasks = [(p, args.interval, args.fill, config) for p in paths]
    workers = int(os.environ.get(THREADS_ENV, "1") or "1")
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_cv_worker, tasks))
    else:
        results = [_cv_worker(t) for t in tasks]

    analyses = [a for a, _ in results]
    reports = [r for _, r in results]
    pooled = aggregate_reports(reports)

    doc = {
        "config": _config_doc(config),
        "series": [
            {"path": str(p), "analysis": a, "cv": _cv_doc(r)}
            for p, (a, r) in zip(paths, results)
        ],
        "aggregate": _cv_doc(pooled),
    }
    report_path = os.path.join(args.out_dir, "report.json")
    _write_json(report_path, doc)

    with open(os.path.join(args.out_dir, "metrics.csv"), "w", newline="") as fh:
        fh.write("method,horizon,mae,mape,count\n")
        for m, ms in pooled.per_method.items():
            for i in range(config.max_horizon):
                fh.write(f"{m},{i + 1},{ms.mae[i]:.9g},{ms.mape[i]:.9g},{ms.count}\n")
    with open(os.path.join(args.out_dir, "improvements.csv"), "w", newline="") as fh:
        fh.write("pair,horizon,improvement_pct\n")
        for (a, b), imp in pooled.improvements.items():
            for i in range(config.max_horizon):
                v = imp.per_horizon[i]
                text = f"{v:.9g}" if np.isfinite(v) else ""
                fh.write(f"{b}_over_{a},{i + 1},{text}\n")
    with open(os.path.join(args.out_dir, "boxplot.csv"), "w", newline="") as fh:
        fh.write("method,horizon,min,q1,median,q3,max\n")
        for m, q in pooled.boxplot.items():
            for i in range(config.max_horizon):
                row = ",".join(f"{v:.9g}" for v in q[i])
                fh.write(f"{m},{i + 1},{row}\n")

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
    p.add_argument("--kind", required=True, help=f"one of {', '.join(KINDS)}")
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
    except LrdForecastError as exc:
        _err_line(type(exc).__name__, str(exc))
        return 2
    except OSError as exc:
        _err_line(type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
