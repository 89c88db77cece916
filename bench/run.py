#!/usr/bin/env python3
"""Benchmark of pairsim: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a pairsim source checkout: the program is imported
from ``src/``, never from an installed copy, and nothing outside the
checkout is read or written (scratch files go to ``.bench_out/``).

Workloads (the reasons are in NOTES.md and BENCHMARK.json):
  curves        all six ``reproduce`` figures through ``cli.main``, warm
  mc-sparse     ``montecarlo.simulate`` at the preset operating points
  mc-saturated  ``montecarlo.sweep`` over pump power with a 1-gate dead time

A run repeats the workload's cycle for ``--seconds`` after one warm-up
cycle and reports, per metric, the median over cycles.  Every workload
reports every end-to-end metric: a cycle also runs a small fixed probe of
the paths its own work does not reach (the curves cycle simulates 1M pulses
on wg-i and awg; the Monte Carlo cycles reproduce all six figures and
mc-saturated also simulates 1M awg pulses).  Probes are timed apart from
the workload's own calls.  Every timed call runs between two runs of a
fixed calibration kernel, and times are reported at a reference host speed
(see hostspeed.py and NOTES.md).

With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics, from a run that
alternates traced and untraced cycles and then replays each inner layer's
public calls on the workload's own inputs.  ``failed / attempted`` is the
failed-operation fraction: an operation fails on a nonzero exit code, an
exception or a failed correctness check (see checks.py).
"""

from __future__ import annotations

import os

# One thread unless a metric says otherwise; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import replace
from functools import partial
from pathlib import Path

import checks
import hostspeed
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference_curves.json"

WORKLOADS = ("curves", "mc-sparse", "mc-saturated")
FILTER_FIGURES = ("3a", "3b", "3c", "3d")
AWG_FIGURES = ("5a", "5b")

SPARSE_PULSES = 2_000_000  # whole 1M-pulse blocks
PROBE_PULSES = 1_000_000
SATURATED_PULSES = 250_000  # per sweep point
SATURATED_GRID = (0.05, 1.0, 6)  # log grid of pump peak power, W
SATURATED_DEAD_TIME_US = 0.01  # one gate at 100 MHz
SETUP_REPEATS = 4  # before the cycles, and again after them
IMPORTTIME_REPEATS = 3
MC_LAYER_REPEATS = 3
SMOKE_PULSES = 100_000

END_TO_END = {
    "setup_s": "s",
    "filter_points_per_s": "rows/s",
    "awg_points_per_s": "rows/s",
    "mc_filter_mpulse_per_s": "Mpulse/s",
    "mc_awg_mpulse_per_s": "Mpulse/s",
    "peak_rss_mb": "MB",
}

TRACED_LAYERS = ("setup", "config", "awg", "chainmodel", "montecarlo", "fitting", "cli", "bench")
CHAIN_CALLS = ("collection_bandwidths", "predict", "car_estimate", "expected_gate_statistics")
MC_RUNS = ("wg-i", "wg-i-thermal", "awg", "sat-1w")

PER_LAYER = {
    "setup.import_s": "s",
    "setup.import_scipy_integrate_s": "s",
    "config.build_experiment_us": "us",
    "config.validate_config_us": "us",
    "awg.effective_pair_bandwidth_us": "us",
    **{f"chainmodel.{call}_us.{fam}": "us" for call in CHAIN_CALLS for fam in ("wg-i", "awg")},
    "chainmodel.singles_rate_us.wg-i": "us",
    **{f"cli.reproduce_ms.{fig}": "ms" for fig in FILTER_FIGURES + AWG_FIGURES},
    **{f"montecarlo.simulate_mpulse_per_s.{run}": "Mpulse/s" for run in MC_RUNS},
    "montecarlo.dead_time_share.wg-i": "ratio",
    "montecarlo.dead_time_share.sat-1w": "ratio",
    "montecarlo.thread_speedup.wg-i": "ratio",
    "montecarlo.thread_speedup.awg": "ratio",
    "montecarlo.clicks_per_gate.wg-i": "clicks/gate",
    "montecarlo.clicks_per_gate.awg": "clicks/gate",
    "montecarlo.clicks_per_gate.sat-1w": "clicks/gate",
    "fitting.fit_sio2_decay_ms": "ms",
    "fitting.fit_gamma_alpha_ms": "ms",
    "fitting.fit_singles_poly_ms": "ms",
    "fitting.n_evaluations.decay": "count",
    "fitting.n_evaluations.gamma_alpha": "count",
    **{f"trace.self_s.{layer}": "s" for layer in TRACED_LAYERS},
    "trace.overhead_ratio": "ratio",
    "host.calibration_ms": "ms",
}

# Which end-to-end metric each per-layer metric should move, and where it
# should not.  Later changes cite these rows by metric name.
_CURVES_BOTH = ("filter_points_per_s and awg_points_per_s", "curves", "the mc_* metrics")
PREDICTIONS = {
    "setup.import_s": ("setup_s", "all workloads", "none"),
    "setup.import_scipy_integrate_s": ("setup_s", "all workloads", "none"),
    "config.build_experiment_us": ("setup_s", "all workloads", "none"),
    "config.validate_config_us": ("setup_s", "all workloads", "none"),
    "awg.effective_pair_bandwidth_us": ("awg_points_per_s", "curves", "the mc_* metrics"),
    **{f"chainmodel.{call}_us.{fam}": _CURVES_BOTH for call in CHAIN_CALLS[:3] for fam in ("wg-i", "awg")},
    "chainmodel.singles_rate_us.wg-i": ("filter_points_per_s (figure 3c)", "curves", "the mc_* metrics"),
    "chainmodel.expected_gate_statistics_us.wg-i": (
        "none today; feeds the correctness checks and the single chain record", "-", "-"),
    "chainmodel.expected_gate_statistics_us.awg": (
        "none today; feeds the correctness checks and the single chain record", "-", "-"),
    **{f"cli.reproduce_ms.{fig}": ("filter_points_per_s", "curves", "the mc_* metrics") for fig in FILTER_FIGURES},
    **{f"cli.reproduce_ms.{fig}": ("awg_points_per_s", "curves", "the mc_* metrics") for fig in AWG_FIGURES},
    "montecarlo.simulate_mpulse_per_s.wg-i": ("mc_filter_mpulse_per_s", "mc-sparse", "curves"),
    "montecarlo.simulate_mpulse_per_s.wg-i-thermal": ("mc_filter_mpulse_per_s", "mc-sparse", "curves"),
    "montecarlo.simulate_mpulse_per_s.awg": ("mc_awg_mpulse_per_s", "mc-sparse", "curves"),
    "montecarlo.simulate_mpulse_per_s.sat-1w": ("mc_filter_mpulse_per_s", "mc-saturated", "curves"),
    "montecarlo.dead_time_share.wg-i": (
        "mc_filter_mpulse_per_s (share about 0: vectorised dead time should not move it)", "mc-sparse", "curves"),
    "montecarlo.dead_time_share.sat-1w": (
        "mc_filter_mpulse_per_s (share large: vectorised dead time should move it)", "mc-saturated", "curves"),
    "montecarlo.thread_speedup.wg-i": ("gates nothing; informs deleting `threads`", "-", "-"),
    "montecarlo.thread_speedup.awg": ("gates nothing; informs deleting `threads`", "-", "-"),
    "montecarlo.clicks_per_gate.wg-i": ("headroom of sparse sampling on mc_filter_mpulse_per_s", "mc-sparse", "-"),
    "montecarlo.clicks_per_gate.awg": ("headroom of sparse sampling on mc_awg_mpulse_per_s", "mc-sparse", "-"),
    "montecarlo.clicks_per_gate.sat-1w": ("headroom of sparse sampling (small)", "mc-saturated", "-"),
    "fitting.fit_sio2_decay_ms": ("none; no item optimises the fitters", "-", "-"),
    "fitting.fit_gamma_alpha_ms": ("none; no item optimises the fitters", "-", "-"),
    "fitting.fit_singles_poly_ms": ("none; no item optimises the fitters", "-", "-"),
    "fitting.n_evaluations.decay": ("none; no item optimises the fitters", "-", "-"),
    "fitting.n_evaluations.gamma_alpha": ("none; no item optimises the fitters", "-", "-"),
    **{f"trace.self_s.{layer}": ("the end-to-end metric of the layer's rows above", "this workload", "-")
       for layer in TRACED_LAYERS},
    "trace.overhead_ratio": ("none; traced cycle time over untraced cycle time", "this workload", "-"),
    "host.calibration_ms": ("none; the host's speed, not the program's", "-", "-"),
}

# Set-up ends at "ready"; the calibrations after it give the child's own
# host speed, which can differ from the parent's on another core.
SETUP_CODE = """\
import json, sys, time
import pairsim
from pairsim import config
for document in json.loads(sys.argv[1]):
    config.build_experiment(document)
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
import hostspeed
print(ready, *(hostspeed.calibration_kernel() for _ in range(3)), flush=True)
"""


def load_pairsim():
    """Import pairsim from this checkout's src/, or exit without a result."""
    if not (SRC / "pairsim" / "__init__.py").is_file():
        sys.exit(f"bench: no pairsim sources under {SRC}; run from the root of a pairsim checkout")
    sys.path.insert(0, str(SRC))
    import pairsim

    if Path(pairsim.__file__).resolve().parent != (SRC / "pairsim").resolve():
        sys.exit(f"bench: imported pairsim from {pairsim.__file__}, not from {SRC}")
    return pairsim


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.

    Linux carries ``ru_maxrss`` across exec, so it is at least the resident
    size of whatever process started this one; VmHWM is the high-water mark
    of this process's own address space.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    """One benchmark process: the workload's inputs, operations, checks and spans."""

    def __init__(self, workload: str, seed: int, smoke: bool, tracer: Tracer):
        import numpy as np
        from pairsim import awg, chainmodel, cli, config, fitting, montecarlo, presets

        self.np, self.awg, self.cm, self.cli = np, awg, chainmodel, cli
        self.config, self.fitting, self.mc, self.presets = config, fitting, montecarlo, presets
        self.workload, self.seed, self.smoke, self.tracer = workload, seed, smoke, tracer
        self.rng = random.Random(f"{workload}:{seed}")
        self.ops: list[dict] = []  # {"label", "keys", "ok"}
        self.totals: dict[str, dict] = defaultdict(dict)  # summed counts per MC configuration
        self.checked_calls: dict[str, int] = defaultdict(int)  # calls summed into totals
        self.expect: dict[str, tuple] = {}  # key -> (closed form, dead gates, checked fields)
        self.samples: dict[str, list[float]] = defaultdict(list)  # host-adjusted, per cycle
        self.raw_samples: dict[str, list[float]] = defaultdict(list)  # as timed
        self.cals: list[float] = []  # calibration kernel times, in run order
        self.figure_ms: dict[str, list[float]] = defaultdict(list)
        self.scratch = WORK / f"run-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)

        self.sparse_pulses = SMOKE_PULSES if smoke else SPARSE_PULSES
        self.probe_pulses = SMOKE_PULSES if smoke else PROBE_PULSES
        self.saturated_pulses = SMOKE_PULSES // 2 if smoke else SATURATED_PULSES
        self.documents = {name: presets.get_preset(name) for name in ("wg-i", "wg-v", "wg-vi", "awg")}
        self.documents["sat"] = self.saturated_document()
        with tracer.span("config.build_experiment.inputs"):
            self.built = {name: config.build_experiment(doc) for name, doc in self.documents.items()}
        self.saturated_grid = [float(v) for v in np.geomspace(*SATURATED_GRID)]

    # -- inputs ------------------------------------------------------------

    def saturated_document(self) -> dict:
        document = self.presets.get_preset("wg-i")
        for arm in ("signal", "idler"):
            document["detectors"][arm]["dead_time_us"] = SATURATED_DEAD_TIME_US
        document["description"] = "wg-i with a one-gate detector dead time (benchmark input)"
        return document

    def workload_documents(self) -> list[dict]:
        names = {
            "curves": ("wg-i", "wg-v", "wg-vi", "awg"),
            "mc-sparse": ("wg-i", "awg"),
            "mc-saturated": ("sat",),
        }[self.workload]
        return [self.documents[n] for n in names]

    def next_seed(self) -> int:
        return self.rng.getrandbits(63)

    # -- operations --------------------------------------------------------

    def _record(self, label: str, keys: tuple, problems: list[str]) -> None:
        self.ops.append({"label": label, "keys": keys, "ok": not problems})
        for problem in problems[:3]:
            print(f"FAILED {label}: {problem}", file=sys.stderr)

    def reproduce(self, figure: str) -> float | None:
        out = self.scratch / f"{figure}.json"
        out.unlink(missing_ok=True)
        elapsed, problems = None, []
        try:
            with self.tracer.span(f"cli.main.reproduce.{figure}"):
                start = time.perf_counter()
                code = self.cli.main(["reproduce", "--figure", figure, "--out", str(out)])
                elapsed = time.perf_counter() - start
            if code != 0:
                problems.append(f"exit code {code}")
            with open(out, encoding="utf-8") as fh:
                table = json.load(fh)
            problems += checks.figure_problems(table, self.reference[figure])
        except SystemExit as exc:  # argparse rejected the command line
            problems.append(f"exit code {exc.code}")
        except Exception as exc:  # an operation that raises is a failed operation
            problems.append(f"{type(exc).__name__}: {exc}")
        self._record(f"reproduce {figure}", (), problems)
        if problems:
            return None
        self.figure_ms[figure].append(elapsed * 1e3)
        return elapsed

    def reproduce_all(self, figures) -> float | None:
        times = [self.reproduce(f) for f in figures]
        return None if None in times else sum(times)

    def dead_gates(self, chain, trial) -> tuple[int, int]:
        if not trial.dead_time_enabled:
            return 0, 0
        return chain.detector_signal.dead_gates, chain.detector_idler.dead_gates

    def _expect(self, key: str, chain, pump, trial, names) -> None:
        if key not in self.expect:
            stats = self.cm.expected_gate_statistics(chain, pump)
            self.expect[key] = (stats, self.dead_gates(chain, trial), names)

    def _check_summary(self, key: str, summary, chain, trial) -> tuple[list[str], tuple]:
        """Identity problems of one run, and the keys whose checked counts it joined."""
        problems = checks.dead_time_problems(
            summary, self.dead_gates(chain, trial), self.mc._BLOCK_SIZE, trial.accidental_offset
        )
        if summary.n_pulses != trial.n_pulses:
            problems.append(f"{summary.n_pulses} pulses simulated, {trial.n_pulses} asked")
        if problems or self.checked_calls[key] >= checks.CHECKED_CALLS:
            return problems, ()
        checks.add_counts(self.totals[key], summary)
        self.checked_calls[key] += 1
        return problems, (key,)

    def simulate(self, key: str, chain, pump, trial, names=(), threads: int = 1):
        """Time one simulate call; returns (seconds, summary) or (None, None)."""
        elapsed, summary, problems, counted = None, None, [], ()
        try:
            self._expect(key, chain, pump, trial, names)
            with self.tracer.span(f"montecarlo.simulate.{key}"):
                start = time.perf_counter()
                summary = self.mc.simulate(chain, pump, trial, threads=threads)
                elapsed = time.perf_counter() - start
            problems, counted = self._check_summary(key, summary, chain, trial)
        except Exception as exc:  # an operation that raises is a failed operation
            problems.append(f"{type(exc).__name__}: {exc}")
        self._record(f"simulate {key}", counted, problems)
        return (None, None) if problems else (elapsed, summary)

    def saturated_sweep(self) -> float | None:
        chain, pump = self.built["sat"]
        trial = self.mc.TrialConfig(n_pulses=self.saturated_pulses, seed=self.next_seed())
        keys = tuple(f"sat.{i}" for i in range(len(self.saturated_grid)))
        elapsed, problems, counted = None, [], ()
        try:
            for key, value in zip(keys, self.saturated_grid):
                chain_v, pump_v = self.mc.apply_sweep_value(chain, pump, "pp", value)
                self._expect(key, chain_v, pump_v, trial, checks.SATURATED_FIELDS)
            with self.tracer.span("montecarlo.sweep.sat"):
                start = time.perf_counter()
                results = self.mc.sweep(chain, pump, "pp", self.saturated_grid, trial)
                elapsed = time.perf_counter() - start
            if [v for v, _ in results] != self.saturated_grid:
                problems.append("sweep returned a different grid")
            for key, (_, summary) in zip(keys, results):
                point_problems, point_counted = self._check_summary(key, summary, chain, trial)
                problems += point_problems
                counted += point_counted
        except Exception as exc:  # an operation that raises is a failed operation
            problems.append(f"{type(exc).__name__}: {exc}")
        self._record("sweep sat", counted, problems)
        return None if problems else elapsed

    def simulate_preset(self, key: str, preset: str, pair_statistics: str, pulses: int) -> float | None:
        """Seconds of one simulate call on a built preset, or None if it failed."""
        chain, pump = self.built[preset]
        trial = self.mc.TrialConfig(n_pulses=pulses, seed=self.next_seed(), pair_statistics=pair_statistics)
        # the closed form assumes Poisson pairs
        names = checks.SPARSE_FIELDS if pair_statistics == "poisson" else ()
        return self.simulate(key, chain, pump, trial, names)[0]

    # -- host speed ----------------------------------------------------------

    def calibrate(self) -> float:
        seconds = hostspeed.calibration_kernel()
        self.cals.append(seconds)
        return seconds

    def timed(self, operation) -> tuple[float, float] | None:
        """Run ``operation()``, which returns its seconds or None, between two
        calibrations; returns (seconds as timed, seconds at the reference speed)."""
        before = self.cals[-1] if self.cals else self.calibrate()
        seconds = operation()
        after = self.calibrate()
        if seconds is None:
            return None
        return seconds, seconds * 2.0 * hostspeed.REFERENCE_S / (before + after)

    def sample(self, name: str, work: float, operations) -> None:
        """Record ``work`` over the time of ``operations`` as one sample of ``name``."""
        times = [self.timed(op) for op in operations]
        if None not in times:
            self.raw_samples[name].append(work / sum(t[0] for t in times))
            self.samples[name].append(work / sum(t[1] for t in times))

    # -- cycles ------------------------------------------------------------

    def cycle(self) -> None:
        """One pass of the workload plus its probes, one sample per metric."""

        def figures(name, names, together=False):
            rows = sum(len(self.reference[f]["rows"]) for f in names)
            if together:  # too short to time one by one against the calibration
                self.sample(name, rows, [partial(self.reproduce_all, names)])
            else:
                self.sample(name, rows, [partial(self.reproduce, f) for f in names])

        def simulations(name, runs, pulses):
            self.sample(name, len(runs) * pulses / 1e6, [partial(self.simulate_preset, *run, pulses) for run in runs])

        probe = self.probe_pulses
        if self.workload == "curves":
            figures("filter_points_per_s", FILTER_FIGURES, together=True)
            figures("awg_points_per_s", AWG_FIGURES)
            simulations("mc_filter_mpulse_per_s", [("probe.wg-i", "wg-i", "poisson")], probe)
            simulations("mc_awg_mpulse_per_s", [("probe.awg", "awg", "poisson")], probe)
            return
        if self.workload == "mc-sparse":
            filter_runs = [("sparse.wg-i", "wg-i", "poisson"), ("sparse.wg-i-thermal", "wg-i", "thermal")]
            simulations("mc_filter_mpulse_per_s", filter_runs, self.sparse_pulses)
            simulations("mc_awg_mpulse_per_s", [("sparse.awg", "awg", "poisson")], self.sparse_pulses)
        else:
            pulses = self.saturated_pulses * len(self.saturated_grid)
            self.sample("mc_filter_mpulse_per_s", pulses / 1e6, [self.saturated_sweep])
            simulations("mc_awg_mpulse_per_s", [("probe.awg", "awg", "poisson")], probe)
        figures("filter_points_per_s", FILTER_FIGURES, together=True)
        figures("awg_points_per_s", AWG_FIGURES)

    def run_cycles(self, seconds: float, alternate_tracing: bool) -> dict[bool, list[float]]:
        """Warm-up cycle, then cycles for ``seconds``.

        Returns the host-adjusted cycle times, split by whether the cycle was traced.
        """
        if not self.smoke:
            self.cycle()
            self.samples.clear()
            self.raw_samples.clear()
            self.figure_ms.clear()
        cycle_times: dict[bool, list[float]] = {False: [], True: []}
        start = time.perf_counter()
        count = 0
        while count < 2 or time.perf_counter() - start < seconds:
            traced = alternate_tracing and count % 2 == 1
            self.tracer.enabled = traced
            first_cal = len(self.cals)
            with self.tracer.span("bench.cycle"):
                t0 = time.perf_counter()
                self.cycle()
                elapsed = time.perf_counter() - t0
            speed = statistics.fmean(self.cals[max(first_cal - 1, 0):]) / hostspeed.REFERENCE_S
            cycle_times[traced].append(elapsed / speed)
            count += 1
        self.tracer.enabled = alternate_tracing
        return cycle_times

    # -- set-up ------------------------------------------------------------

    def fresh_interpreter(self, documents: list[dict], importtime: bool) -> tuple[float | None, str]:
        """Seconds from spawning a fresh interpreter until it has imported pairsim
        and built ``documents``, at the reference host speed; returns
        (seconds or None on failure, the child's stderr)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(BENCH_DIR), env.get("PYTHONPATH")]))
        command = [sys.executable] + (["-X", "importtime"] if importtime else [])
        command += ["-c", SETUP_CODE, json.dumps(documents)]
        problems, elapsed, stderr = [], None, ""
        with self.tracer.span("setup.fresh_interpreter"):
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            try:
                proc = subprocess.run(
                    command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
                )
                stderr = proc.stderr
                words = proc.stdout.split()
                if proc.returncode != 0:
                    problems.append(f"exit code {proc.returncode}: {stderr.strip()[-300:]}")
                elif len(words) != 4:
                    problems.append(f"unexpected output {proc.stdout!r}")
                else:
                    speed = statistics.median(float(w) for w in words[1:]) / hostspeed.REFERENCE_S
                    elapsed = (float(words[0]) - start) / speed
            except subprocess.TimeoutExpired:
                problems.append("timed out after 120 s")
        self._record("setup", (), problems)
        return elapsed, stderr

    # -- correctness of summed counts -------------------------------------

    def finish_checks(self) -> None:
        """Closed-form checks on the counts of each configuration's first
        ``checks.CHECKED_CALLS`` calls; a failure fails those calls."""
        bad = set()
        for key, (stats, dead, names) in sorted(self.expect.items()):
            total = self.totals.get(key)
            if not names or not total:
                continue
            problems = checks.count_problems(total, stats, dead, names)
            for problem in problems:
                print(f"FAILED counts {key}: {problem}", file=sys.stderr)
            if problems:
                bad.add(key)
        for op in self.ops:
            if bad.intersection(op["keys"]):
                op["ok"] = False

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- traced run: replays of inner layers --------------------------------

    def own_points(self):
        """(family, chain, pump) of every operating point the workload evaluates."""
        mc, np = self.mc, self.np
        if self.workload != "curves":
            points = [("awg",) + self.built["awg"]]
            if self.workload == "mc-sparse":
                return [("wg-i",) + self.built["wg-i"]] + points
            chain, pump = self.built["sat"]
            return [("wg-i",) + mc.apply_sweep_value(chain, pump, "pp", v) for v in self.saturated_grid] + points
        points = []
        chain, pump = self.built["wg-i"]
        for l_cm in np.arange(0.0, 6.0 + 1e-9, 0.05):  # figure 3a
            points.append(("wg-i",) + mc.apply_sweep_value(chain, pump, "l_siox", l_cm * 1e-2))
        for l_cm in np.arange(0.30, 6.0 + 1e-9, 0.01):  # figure 3b
            points.append(("wg-i",) + mc.apply_sweep_value(chain, pump, "l_si", l_cm * 1e-2))
        for pp_mw in np.geomspace(0.5, 50.0, 60):  # figure 3c
            points.append(("wg-i",) + mc.apply_sweep_value(chain, pump, "pp", pp_mw * 1e-3))
        for name in ("wg-i", "wg-v", "wg-vi"):  # figure 3d
            chain, pump = self.built[name]
            for pp_mw in np.geomspace(1.0, 60.0, 50):
                points.append(("wg-i",) + mc.apply_sweep_value(chain, pump, "pp", pp_mw * 1e-3))
        chain, pump = self.built["awg"]
        chains = [
            chain,
            mc.apply_sweep_value(chain, pump, "awg_loss", 0.0)[0],
            mc.apply_sweep_value(chain, pump, "dark", 20.0)[0],
        ]
        for pp_mw in np.geomspace(1.0, 60.0, 50):  # figure 5a
            points.append(("awg",) + mc.apply_sweep_value(chain, pump, "pp", pp_mw * 1e-3))
        for variant in chains:  # figure 5b
            for pp_mw in np.geomspace(1.0, 60.0, 60):
                points.append(("awg",) + mc.apply_sweep_value(variant, pump, "pp", pp_mw * 1e-3))
        return points

    def replay_chainmodel(self) -> dict[str, float]:
        """Median microseconds per public chainmodel / awg call on the workload's points.

        Points outside the linearised model's range (it raises there) are
        not timed for that call.
        """
        cm, tracer = self.cm, self.tracer
        points = self.own_points()
        per_family = defaultdict(int)
        for family, _, _ in points:
            per_family[family] += 1
        def pair_bandwidth(chain, pump):
            d = chain.demux
            return self.awg.effective_pair_bandwidth(
                d.spec, d.signal_channel, d.idler_channel, pump.frequency_hz, d.generation_band_hz
            )

        filter_calls = {f"chainmodel.{c}": getattr(cm, c) for c in CHAIN_CALLS + ("singles_rate",)}
        awg_calls = dict(filter_calls, **{"awg.effective_pair_bandwidth": pair_bandwidth})
        seconds = defaultdict(list)  # (call, family) -> durations of calls that returned
        with tracer.span("bench.replay"):
            for family, chain, pump in points:
                calls = awg_calls if family == "awg" else filter_calls
                for _ in range(max(1, math.ceil(40 / per_family[family]))):
                    for name, fn in calls.items():
                        start = time.perf_counter()
                        try:
                            with tracer.span(f"{name}.{family}"):
                                fn(chain, pump)
                        except ValueError:
                            continue
                        seconds[name, family].append(time.perf_counter() - start)
        out = {}
        for (name, family), values in seconds.items():
            module, call = name.split(".")
            metric = f"{module}.{call}_us.{family}" if module == "chainmodel" else f"{module}.{call}_us"
            if metric in PER_LAYER:
                out[metric] = statistics.median(values) * 1e6
        return out

    def replay_config(self) -> dict[str, float]:
        """Median over the presets of the median time of build and validation."""
        tracer, config = self.tracer, self.config
        build, validate = [], []
        with tracer.span("bench.config"):
            for name in self.presets.preset_names():
                document = self.presets.get_preset(name)
                for _ in range(15):
                    with tracer.span(f"config.build_experiment.{name}"):
                        config.build_experiment(document)
                    with tracer.span(f"config.validate_config.{name}"):
                        config.validate_config(document)
                build.append(statistics.median(tracer.durations(f"config.build_experiment.{name}")))
                validate.append(statistics.median(tracer.durations(f"config.validate_config.{name}")))
        return {
            "config.build_experiment_us": statistics.median(build) * 1e6,
            "config.validate_config_us": statistics.median(validate) * 1e6,
        }

    def replay_figures(self) -> dict[str, float]:
        """Median ms of each figure over the run, running figures the cycles skipped."""
        out = {}
        for figure in FILTER_FIGURES + AWG_FIGURES:
            while len(self.figure_ms[figure]) < 2:
                if self.reproduce(figure) is None:
                    break
            if self.figure_ms[figure]:
                out[f"cli.reproduce_ms.{figure}"] = statistics.median(self.figure_ms[figure])
        return out

    def replay_montecarlo(self) -> dict[str, float]:
        """Fixed Monte Carlo runs at the mc workloads' operating points.

        Each call is timed between calibrations, so these metrics are already
        at the reference host speed.  Every repeat has its own seed; within a
        repeat the dead-time share and the thread speed-up compare identical
        work, and threads must not change the counts.  Medians of the repeats.
        """
        mc = self.mc
        runs = {
            "wg-i": ("wg-i", None, "poisson", self.sparse_pulses, checks.SPARSE_FIELDS),
            "wg-i-thermal": ("wg-i", None, "thermal", self.sparse_pulses, ()),
            "awg": ("awg", None, "poisson", self.sparse_pulses, checks.SPARSE_FIELDS),
            "sat-1w": ("sat", self.saturated_grid[-1], "poisson", self.probe_pulses, checks.SATURATED_FIELDS),
        }
        values = defaultdict(list)
        clicks = defaultdict(int)

        def timed_simulate(key, chain, pump, trial, names=(), threads=1):
            summaries = []

            def call():
                elapsed, summary = self.simulate(key, chain, pump, trial, names, threads=threads)
                summaries.append(summary)
                return elapsed

            seconds = self.timed(call)
            return (None, None) if seconds is None else (seconds[1], summaries[0])

        with self.tracer.span("bench.montecarlo"):
            for _ in range(1 if self.smoke else MC_LAYER_REPEATS):
                for run, (name, pp, statistics_, pulses, names) in runs.items():
                    chain, pump = self.built[name]
                    if pp is not None:
                        chain, pump = mc.apply_sweep_value(chain, pump, "pp", pp)
                    trial = mc.TrialConfig(n_pulses=pulses, seed=self.next_seed(), pair_statistics=statistics_)
                    elapsed, summary = timed_simulate(f"layer.{run}", chain, pump, trial, names)
                    if elapsed is None:
                        continue
                    values[f"montecarlo.simulate_mpulse_per_s.{run}"].append(pulses / 1e6 / elapsed)
                    clicks[run] += summary.singles_signal + summary.singles_idler
                    clicks[run, "gates"] += 2 * summary.n_pulses
                    if run in ("wg-i", "sat-1w"):
                        free = replace(trial, dead_time_enabled=False)
                        t_free, _ = timed_simulate(f"layer.{run}.no-dead-time", chain, pump, free)
                        if t_free is not None:
                            values[f"montecarlo.dead_time_share.{run}"].append(1.0 - t_free / elapsed)
                    if run in ("wg-i", "awg"):
                        t_two, two = timed_simulate(f"layer.{run}.threads-2", chain, pump, trial, names, threads=2)
                        if t_two is not None:
                            values[f"montecarlo.thread_speedup.{run}"].append(elapsed / t_two)
                            if two != summary:
                                self._record(f"simulate {run} threads=2", (), ["counts differ from threads=1"])
        out = {name: statistics.median(v) for name, v in values.items()}
        for run in ("wg-i", "awg", "sat-1w"):
            if clicks[run, "gates"]:
                out[f"montecarlo.clicks_per_gate.{run}"] = clicks[run] / clicks[run, "gates"]
        return out

    def replay_fitting(self) -> dict[str, float]:
        """Fitters on seeded synthetic data drawn from the closed form at device lengths."""
        cm, mc, fitting, np = self.cm, self.mc, self.fitting, self.np
        chain, pump = self.built["wg-i"]
        noise = np.random.default_rng(self.next_seed())

        def pair_rate(variable, value):
            chain_v, pump_v = mc.apply_sweep_value(chain, pump, variable, value)
            return cm.predict(chain_v, pump_v).mu_pair_generated * cm.downstream_passive_transmittance(chain_v) ** 2

        def noisy(values):
            values = np.asarray(values)
            return values * (1.0 + 0.01 * noise.standard_normal(values.size))

        l_siox = np.array([0.94, 2.93, 4.49]) * 1e-2  # wg-i, wg-v, wg-vi
        l_si = np.array([0.60, 1.37, 3.00, 5.00]) * 1e-2  # wg-ii, wg-i, wg-iii, wg-iv
        pp = np.geomspace(0.5, 50.0, 12) * 1e-3
        pair_bw, _, _ = cm.collection_bandwidths(chain, pump)
        fixed = {
            "peak_power_w": cm.pump_peak_power_at_source(chain, pump),
            "pair_bandwidth_hz": pair_bw,
            "pulse_fwhm_s": pump.pulse_fwhm_s,
            "downstream_transmittance": cm.downstream_passive_transmittance(chain),
        }
        singles = [cm.singles_rate(*mc.apply_sweep_value(chain, pump, "pp", p))[0] for p in pp]
        cases = {
            "fit_sio2_decay": (
                "decay",
                fitting.DataSet(x=l_siox, y=noisy([pair_rate("l_siox", x) for x in l_siox]), role="l_siox"),
            ),
            "fit_gamma_alpha": (
                "gamma_alpha",
                fitting.DataSet(
                    x=l_si, y=noisy([pair_rate("l_si", x) for x in l_si]), role="l_si", fixed_params=fixed
                ),
            ),
            "fit_singles_poly": ("poly", fitting.DataSet(x=pp, y=noisy(singles), role="pp")),
        }
        out = {}
        with self.tracer.span("bench.fitting"):
            for name, (short, data) in cases.items():
                for _ in range(5):
                    with self.tracer.span(f"fitting.{name}"):
                        result = getattr(fitting, name)(data)
                out[f"fitting.{name}_ms"] = statistics.median(self.tracer.durations(f"fitting.{name}")) * 1e3
                if short != "poly":
                    out[f"fitting.n_evaluations.{short}"] = float(result.n_evaluations)
        return out

    def import_times(self) -> dict[str, float]:
        """Cumulative import times from ``python -X importtime``, median of repeats."""
        found = defaultdict(list)
        for _ in range(1 if self.smoke else IMPORTTIME_REPEATS):
            elapsed, stderr = self.fresh_interpreter(self.workload_documents(), importtime=True)
            if elapsed is None:
                continue
            cumulative = {}
            for line in stderr.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
            found["setup.import_s"].append(cumulative.get("pairsim", math.nan))
            # absent once pairsim no longer imports it
            found["setup.import_scipy_integrate_s"].append(cumulative.get("scipy.integrate", 0.0))
        return {name: statistics.median(values) for name, values in found.items()}


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    documents = bench.workload_documents()
    repeats = 1 if bench.smoke else SETUP_REPEATS
    # set-ups before and after the cycles see two host phases about a run apart
    setups = [bench.fresh_interpreter(documents, importtime=False)[0] for _ in range(repeats)]
    bench.run_cycles(seconds, alternate_tracing=False)
    setups += [bench.fresh_interpreter(documents, importtime=False)[0] for _ in range(repeats)]
    setups = [s for s in setups if s is not None]
    metrics = {name: statistics.median(values) for name, values in bench.samples.items()}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    for name, values in sorted(bench.samples.items()):
        q1, q2, q3 = quartiles(values)
        raw = statistics.median(bench.raw_samples[name])
        print(f"{name}: median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g}, {len(values)} cycles; "
              f"median as timed {raw:.6g}")
    print(f"setup_s: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"calibration kernel: median {statistics.median(bench.cals) * 1e3:.3f} ms, "
          f"reference {hostspeed.REFERENCE_S * 1e3:.3f} ms, {len(bench.cals)} times")
    return metrics


def per_layer(bench: Bench, seconds: float) -> dict[str, float]:
    tracer = bench.tracer
    tracer.enabled = True
    metrics = bench.import_times()
    cycle_times = bench.run_cycles(seconds, alternate_tracing=True)
    metrics["trace.overhead_ratio"] = statistics.median(cycle_times[True]) / statistics.median(cycle_times[False])
    for replay in (bench.replay_config, bench.replay_chainmodel, bench.replay_figures, bench.replay_fitting):
        metrics.update(replay())
        bench.calibrate()
    calibrated = bench.replay_montecarlo()
    for layer, seconds_ in tracer.self_time_by_layer().items():
        metrics[f"trace.self_s.{layer}"] = seconds_
    tracer.enabled = False
    # the other layers' times get one host-speed factor for the whole run
    speed = statistics.median(bench.cals) / hostspeed.REFERENCE_S
    for name, value in metrics.items():
        if PER_LAYER.get(name) in ("s", "ms", "us"):
            metrics[name] = value / speed
    metrics.update(calibrated)
    metrics["host.calibration_ms"] = statistics.median(bench.cals) * 1e3
    spans_file = WORK / f"trace-{bench.workload}-seed{bench.seed}.json"
    tracer.write(spans_file)
    print(f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    for name in PER_LAYER:
        moves, where, not_moved = PREDICTIONS[name]
        value = metrics.get(name, math.nan)
        print(f"{name} = {value:.6g} {PER_LAYER[name]} | moves: {moves} | on: {where} | not: {not_moved}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    load_pairsim()
    # The top three saturated points are past the pile-up warning threshold
    # on purpose; the warning is expected there.
    warnings.filterwarnings("ignore", message="per-pulse mean", category=RuntimeWarning)
    tracer = Tracer()
    bench = Bench(args.workload, args.seed, args.smoke, tracer)
    try:
        if args.trace:
            metrics, units = per_layer(bench, args.seconds), PER_LAYER
        else:
            metrics, units = end_to_end(bench, args.seconds), END_TO_END
        bench.finish_checks()
    finally:
        bench.close()
    failed = sum(not op["ok"] for op in bench.ops)
    missing = [name for name in units if not math.isfinite(metrics.get(name, math.nan))]
    if missing:
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
    print(f"fail_frac = {failed}/{len(bench.ops)}")
    result = {
        "correct": failed == 0 and not missing,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
