#!/usr/bin/env python3
"""lrdforecast benchmark: runs one workload and prints one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload cv-window96 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed. Inputs come from ``--seed``. Each run sets up ``setup_reps``
times (one set-up is a fresh interpreter's import of the package plus
input generation and a warm-up; set-up time is their median CPU time),
then runs passes over every input item in a closed loop: as many passes
as fit in ``--seconds`` of unit time judging by the first, and at least
one. The first pass scores the outputs.

Unit times are scaled to reference speed (see reference.py): the reference
computation runs between units, and a unit's time counts as its wall
(or CPU) time times ``REF_S`` over the mean reference time just before
and just after it. An item's time is the median of its scaled times over
the passes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half of
``--seconds`` on the same untraced phase, sets up again and spends the
other half on a traced phase in which the calls into each layer are
wrapped in spans; it prints the per-layer metrics and, as
``overhead.<metric>``, each end-to-end metric's traced value minus its
untraced value. Human-readable lines go first; the last line of standard
output is the JSON result. Any failed output check makes the exit code 1.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Both workloads state one OpenBLAS thread, set before numpy loads (the
# reference below imports it). At the default (one thread per core,
# spinning between calls) a single busy core elsewhere on a 2-vCPU
# machine made the same rolling_cv call 2.6 times slower, which no bound
# can absorb. The default-thread cost is measured apart, in a child with
# the thread variables as found: the per-layer metrics default_blas.*.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1"}
FOUND_ENV = dict(os.environ)
os.environ.update(PINNED_ENV)

from reference import REF_S, reference, timed_reference  # noqa: E402
from spans import Tracer, quantile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

E2E_UNITS = {
    "setup_s": "s",
    "origins_per_s": "1/s",
    "cpu_s_per_origin": "s",
    "mape_arfima_pct": "%",
    "mape_arima_pct": "%",
    "trace_s_p50": "s",
    "peak_rss_mb": "MiB",
}

# The keys of workloads.WORKLOADS, known before the package is imported.
WORKLOAD_NAMES = ("cv-window96", "pipeline-long")


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.startswith("overhead."):
        return E2E_UNITS[name.split(".", 1)[1]]
    last = name.rsplit(".", 1)[1]
    if last in ("calls", "excluded_origins"):
        return "count"
    if last.endswith("_pct"):
        return "%"
    if last == "busy_share":
        return "share"
    if last == "s_per_krow":
        return "s/krow"
    return "s"


class Phase:
    """Totals over one measured phase. Wall and CPU times are kept per
    item and pass, scaled to reference speed; raw wall times are kept
    beside them for the comment lines."""

    def __init__(self, n_items: int):
        self.passes = 0
        self.unit_time = 0.0  # raw wall seconds of the units
        self.walls = [[] for _ in range(n_items)]
        self.cpus = [[] for _ in range(n_items)]
        self.raw_walls = [[] for _ in range(n_items)]
        self.refs = []  # every reference time of the phase
        self.origins = [0] * n_items
        self.traces = [0] * n_items
        self.attempted = self.failed = self.excluded = 0
        self.traces_run = 0
        self.origin_mape = {}  # method -> MAPE of each origin of every item
        self.problems = []
        self.peak_rss_mb = 0.0

    @staticmethod
    def _total(per_item) -> float:
        return sum(statistics.median(xs) for xs in per_item)

    @property
    def wall(self) -> float:
        return self._total(self.walls)

    @property
    def cpu(self) -> float:
        return self._total(self.cpus)

    @property
    def raw_wall(self) -> float:
        return self._total(self.raw_walls)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_s() -> float:
    """CPU seconds of this process and of its children waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def setup_once(workloads, wl, seed: int, workdir, tracer) -> tuple:
    """One set-up in CPU seconds, unscaled: a fresh interpreter that
    imports lrdforecast and its CLI (the start-up cost every CLI call
    pays), then input generation and warm-up here. Returns (seconds,
    items). CPU, not wall: in nine repeats of seven set-ups, the median's
    wall time ranged over 26% and its CPU time over 16%, and neither
    followed the reference."""
    c0 = cpu_s()
    code = "import sys; sys.path.insert(0, sys.argv[1]); import lrdforecast.cli"
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, timeout=120)
    items = workloads.prepare(wl, seed, workdir, tracer)
    return cpu_s() - c0, items


def measure(wl, items, seconds: float, tracer) -> Phase:
    """Run passes over every item: as many as fit in ``seconds`` of unit
    time judging by the first, and at least one. The reference runs after
    every unit, outside the unit's timing."""
    ph = Phase(len(items))
    before = timed_reference()
    ph.refs.append(before)
    n_passes = None
    units = 0
    while n_passes is None or ph.passes < n_passes:
        for k, item in enumerate(items):
            c0 = time.process_time()
            t0 = time.perf_counter()
            out = wl.run(item, tracer)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            after = timed_reference()
            ph.refs.append(after)
            scale = REF_S / ((before + after) / 2)
            before = after
            o = wl.check(item, out, tracer, wl.replays(units, tracer.enabled))
            units += 1
            ph.unit_time += wall
            ph.attempted += o.attempted
            ph.failed += o.failed
            ph.excluded += o.excluded
            ph.traces_run += o.traces
            ph.problems += o.problems
            if ph.passes == 0:
                for m, mapes in o.origin_mape.items():
                    ph.origin_mape.setdefault(m, []).extend(mapes)
                ph.origins[k], ph.traces[k] = o.origins, o.traces
            ph.walls[k].append(wall * scale)
            ph.cpus[k].append(cpu * scale)
            ph.raw_walls[k].append(wall)
        ph.passes += 1
        if n_passes is None:
            n_passes = max(1, round(seconds / ph.unit_time))
    ph.peak_rss_mb = peak_rss_mb()
    return ph


def e2e_metrics(ph: Phase, setup_s: float) -> dict:
    origins = sum(ph.origins)
    return {
        "setup_s": setup_s,
        "origins_per_s": origins / ph.wall,
        "cpu_s_per_origin": ph.cpu / origins,
        "mape_arfima_pct": statistics.median(ph.origin_mape["arfima"]),
        "mape_arima_pct": statistics.median(ph.origin_mape["arima"]),
        "trace_s_p50": quantile(trace_times(ph), 0.5),
        "peak_rss_mb": ph.peak_rss_mb,
    }


def trace_times(ph: Phase) -> list:
    """One sample per trace: its item's scaled wall time per trace."""
    return [statistics.median(w) / n for w, n in zip(ph.walls, ph.traces) for _ in range(n)]


def default_blas_probe(wl, seed: int, workdir: Path, env: dict) -> dict:
    """Raw wall and CPU seconds per origin of the first item at the thread
    variables in ``env``, from a child interpreter."""
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
            "print(json.dumps(workloads.default_blas_child(*sys.argv[3:])))")
    argv = [sys.executable, "-c", code, str(HERE), str(SRC), wl.name, str(seed),
            str(workdir / "default-blas"), json.dumps(dataclasses.asdict(wl.sizes))]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True,
                          timeout=150)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(tracer, ph: Phase, generate_s: float) -> dict:
    d = tracer.durations
    selfs = tracer.self_times()

    def total(key, attr):
        """Duration, self time and the summed attribute of the key's spans."""
        spans = [(s, t) for s, t in zip(tracer.spans, selfs) if s.key == key]
        dur = sum(s.duration for s, _ in spans)
        self_t = sum(t for _, t in spans)
        return dur, self_t, sum(s.attrs.get(attr, 0) for s, _ in spans)

    out = {}
    for fam in ("arfima", "arima"):
        xs = d(f"models.fit_{fam}")
        out[f"models.fit_{fam}.s_p50"] = quantile(xs, 0.5)
        out[f"models.fit_{fam}.s_p90"] = quantile(xs, 0.9)
        out[f"models.fit_{fam}.calls"] = len(xs)
    for key in ("models.fit_naive", "models.fit_mean", "models.forecast", "series.transform",
                "lrd.classify_memory", "lrd.hurst_aggregated_variance",
                "lrd.hurst_rescaled_range", "lrd.hurst_periodogram", "lrd.adf_test",
                "series.acf", "cli.analyze", "cli.fit", "cli.forecast"):
        out[f"{key}.s_p50"] = quantile(d(key), 0.5)
    dur, _, rows = total("series.ingest_csv", "rows")
    out["series.ingest_csv.s_per_krow"] = dur / (rows / 1000.0) if rows else 0.0
    out["series.ingest_csv.calls"] = len(d("series.ingest_csv"))
    dur, self_t, origins = total("evaluation.rolling_cv", "origins")
    out["evaluation.rolling_cv.s_per_origin"] = dur / origins if origins else 0.0
    out["evaluation.self_s_per_origin"] = self_t / origins if origins else 0.0
    out["evaluation.excluded_origins"] = ph.excluded
    for fam in ("arfima", "arima"):
        out[f"evaluation.pooled_mape_{fam}_pct"] = statistics.fmean(ph.origin_mape[fam])
    cli_self = sum(t for s, t in zip(tracer.spans, selfs) if s.layer == "cli")
    out["cli.self_s_per_trace"] = cli_self / ph.traces_run
    out["synthgen.generate.s"] = generate_s
    for layer, share in tracer.busy_share().items():
        out[f"{layer}.busy_share"] = share
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lrdforecast" / "__init__.py").is_file():
        print(f"perfbench: no lrdforecast sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lrdforecast

    if Path(lrdforecast.__file__).resolve().parent != SRC / "lrdforecast":
        print(f"perfbench: imported lrdforecast from {lrdforecast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](sizes or workloads.FULL)
    workdir = WORKDIR / f"{wl.name}-{os.getpid()}"
    # A traced run splits its time between an untraced and a traced phase.
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        reference()  # warm-up: the reference's first call loads code
        reps = []
        for _ in range(wl.sizes.setup_reps):
            t_setup, items = setup_once(workloads, wl, args.seed, workdir, Tracer(False))
            reps.append(t_setup)
        untraced = measure(wl, items, seconds, Tracer(False))
        metrics = e2e_metrics(untraced, statistics.median(reps))
        phases = [untraced]
        if args.trace:
            tracer = Tracer(True)
            t_setup, items = setup_once(workloads, wl, args.seed, workdir, tracer)
            generate_s = sum(tracer.durations("synthgen.generate"))
            traced = measure(wl, items, seconds, tracer)
            phases.append(traced)
            traced_e2e = e2e_metrics(traced, t_setup)
            layers = layer_metrics(tracer, traced, generate_s)
            for k, v in metrics.items():
                layers[f"overhead.{k}"] = traced_e2e[k] - v
            layers.update(default_blas_probe(wl, args.seed, workdir, FOUND_ENV))
            metrics = layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [x for p in phases for x in p.problems]
    origins, n = sum(untraced.origins), sum(untraced.traces)
    print(f"# workload {args.workload} seed {args.seed}: {len(items)} items ({origins} origins, "
          f"{n} traces), {untraced.passes} passes in {untraced.unit_time:.2f} s of units; "
          f"times are per-item medians over the passes, scaled to reference speed")
    print(f"# reference: median {statistics.median(untraced.refs):.6g} s over "
          f"{len(untraced.refs)} calls, scaled to REF_S = {REF_S} s; unscaled "
          f"origins_per_s = {origins / untraced.raw_wall:.6g} 1/s")
    print(f"# failed_share = {failed / attempted:.6g} share ({failed} of {attempted} attempted)")
    # p90 is a metric only with at least 10 samples beyond it (n >= 100).
    print(f"# trace_s_p90 = {quantile(trace_times(untraced), 0.9):.6g} s from {n} samples, "
          f"{'valid' if n >= 100 else 'indicative only: fewer than 10 samples lie beyond it'}")
    for k, v in metrics.items():
        print(f"# {k} = {v:.6g} {unit_of(k)}")
    for x in problems:
        print(f"perfbench: check failed: {x}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
