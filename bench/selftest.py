#!/usr/bin/env python3
"""Self-test of the benchmark: each correctness check must fail on a wrong answer.

    python3 bench/selftest.py

1. BENCHMARK.json names exactly the metrics run.py reports, with their units.
2. A figure with one value perturbed by 1e-5 (relative) fails its check; the
   reference itself, and a copy within 1e-8 (what a closed form may differ
   from quadrature), pass.
3. For every count field the Monte Carlo checks use, at the checked budget
   of each configuration, counts moved by 5 sigma up or down fail, and
   counts at the closed-form expectation pass.  Sigma is the count's own
   spread: the renewal spread of clicks under dead time for singles and
   active gates, the binomial one (or the exact Poisson tail for rare
   events) for coincidences and accidentals.
4. A run whose active-gate count breaks the dead-time identity fails.
5. Every workload runs end to end at a tiny size, traced and untraced, and
   reports exactly the metrics BENCHMARK.json lists.
6. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits with an error and prints no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import checks
import run

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def benchmark_spec() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect(set(run.PREDICTIONS) == set(run.PER_LAYER), "every per-layer metric has a prediction")
    return spec


def figure_checks() -> None:
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for figure, table in reference.items():
        expect(not checks.figure_problems(table, table), f"figure {figure}: reference passes")
        close = copy.deepcopy(table)
        close["rows"][-1][-1] *= 1 + 1e-8
        expect(not checks.figure_problems(close, table), f"figure {figure}: 1e-8 relative change passes")
        wrong = copy.deepcopy(table)
        wrong["rows"][len(wrong["rows"]) // 2][-1] *= 1 + 1e-5
        expect(len(checks.figure_problems(wrong, table)) == 1, f"figure {figure}: one value off by 1e-5 fails")


def five_sigma(total: dict, stats, dead, name: str, direction: int) -> int | None:
    """Nearest count on one side of the expectation whose |z| reaches 5."""
    observed, expected, _ = checks.count_zscores(total, stats, dead, [name])[name]
    count = round(expected)
    step = max(1, round(abs(expected) ** 0.5 / 50))
    while 0 <= count <= 10 * expected + 100:
        trial = dict(total, **{name: count})
        if direction * checks.count_zscores(trial, stats, dead, [name])[name][2] >= 5.0:
            return count
        count += direction * step
    return None


def count_checks() -> None:
    from pairsim import chainmodel as cm
    from pairsim import config, montecarlo, presets

    sparse_budget = checks.CHECKED_CALLS * run.SPARSE_PULSES
    bench_inputs = {
        "wg-i": (config.build_experiment(presets.get_preset("wg-i")), checks.SPARSE_FIELDS, sparse_budget),
        "awg": (config.build_experiment(presets.get_preset("awg")), checks.SPARSE_FIELDS, sparse_budget),
    }
    document = presets.get_preset("wg-i")
    for arm in ("signal", "idler"):
        document["detectors"][arm]["dead_time_us"] = run.SATURATED_DEAD_TIME_US
    chain, pump = config.build_experiment(document)
    bench_inputs["sat-1w"] = (montecarlo.apply_sweep_value(chain, pump, "pp", 1.0), checks.SATURATED_FIELDS,
                              checks.CHECKED_CALLS * run.SATURATED_PULSES)

    for label, ((chain, pump), names, n) in bench_inputs.items():
        stats = cm.expected_gate_statistics(chain, pump)
        dead = (chain.detector_signal.dead_gates, chain.detector_idler.dead_gates)
        total = {
            "n_pulses": n,
            "accidental_pairs": n - 1,
            "singles_signal": round(n * stats.p_click_signal),
            "singles_idler": round(n * stats.p_click_idler),
            "coincidences": round(n * stats.p_coincidence),
            "accidentals": round((n - 1) * stats.p_accidental),
            "active_gates_signal": round(n * stats.duty_signal),
            "active_gates_idler": round(n * stats.duty_idler),
        }
        expect(not checks.count_problems(total, stats, dead, names), f"{label}: expected counts pass")
        for name in names:
            for direction in (1, -1):
                count = five_sigma(total, stats, dead, name, direction)
                if count is None:  # no count that far below a tiny mean
                    continue
                problems = checks.count_problems(dict(total, **{name: count}), stats, dead, names)
                expect(len(problems) == 1 and problems[0].startswith(name),
                       f"{label}: {name} moved {'+' if direction > 0 else '-'}5 sigma to {count} fails")

    (chain, pump), _, _ = bench_inputs["sat-1w"]
    trial = montecarlo.TrialConfig(n_pulses=200_000, seed=3)
    summary = montecarlo.simulate(chain, pump, trial)
    dead = (chain.detector_signal.dead_gates, chain.detector_idler.dead_gates)
    block = montecarlo._BLOCK_SIZE
    expect(not checks.dead_time_problems(summary, dead, block, 1), "dead-time identity holds on a real run")
    low = summary.n_pulses - dead[0] * summary.singles_signal
    high = low + dead[0] * -(-summary.n_pulses // block)
    for value in (low - 1, high + 1):
        bad = replace(summary, active_gates_signal=value)
        expect(len(checks.dead_time_problems(bad, dead, block, 1)) == 1,
               f"dead-time identity: {value} active gates outside [{low}, {high}] fails")


def smoke_runs(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            expect(proc.returncode == 0 and result.get("correct") is True
                   and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and set(result["metrics"]) == {m["name"] for m in metrics},
                   f"smoke run {workload} --trace {trace}")


def bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    command = [sys.executable, "bench/run.py", "--workload", "curves", "--seed", "1", "--seconds", "1",
               "--trace", "0"]
    proc = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program's sources the benchmark exits nonzero and prints no result")


def main() -> int:
    run.load_pairsim()
    warnings.filterwarnings("ignore", message="per-pulse mean", category=RuntimeWarning)
    spec = benchmark_spec()
    figure_checks()
    count_checks()
    smoke_runs(spec)
    bare_directory()
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
