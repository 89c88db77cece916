#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/prove.py [--workloads curves,...] [--seeds 1-10] [--trace] [--record]

Runs ``bench/run.py`` once per (workload, seed) in a fresh process, with
the run length from BENCHMARK.json, and prints for each end-to-end metric
the median, the quartiles and the spread (quartile distance over the
median) next to the metric's bound in BENCHMARK.json.  ``--host-spread`` first times repeated
identical passes in one process, to show how much the host itself varies.
``--record`` writes everything, with the environment, to
bench/baseline.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"
RECORD = run.BENCH_DIR / "baseline.json"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def host_spread() -> dict:
    """Identical passes in one process: wall and CPU time of the same work."""
    run.load_pairsim()
    from pairsim import cli, config, montecarlo, presets

    chain, pump = config.build_experiment(presets.get_preset("wg-i"))
    trial = montecarlo.TrialConfig(n_pulses=16_000_000, seed=1)
    wall, cpu = [], []
    for _ in range(10):
        t0, c0 = time.perf_counter(), time.process_time()
        montecarlo.simulate(chain, pump, trial)
        wall.append(16.0 / (time.perf_counter() - t0))
        cpu.append(16.0 / (time.process_time() - c0))
    run.WORK.mkdir(exist_ok=True)
    out = str(run.WORK / "host-spread.json")
    cli.main(["reproduce", "--figure", "5b", "--out", out])  # warm
    figure = []
    for _ in range(8):
        t0 = time.perf_counter()
        cli.main(["reproduce", "--figure", "5b", "--out", out])
        figure.append(time.perf_counter() - t0)
    os.unlink(out)
    return {
        "wg-i 16M-pulse simulate, wall Mpulse/s": spread(wall),
        "wg-i 16M-pulse simulate, CPU Mpulse/s": spread(cpu),
        "figure 5b warm, wall s": spread(figure),
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(run.SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        **{name: metadata.version(name) for name in ("numpy", "scipy", "jsonschema")},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,5,9")
    parser.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    parser.add_argument("--host-spread", action="store_true")
    parser.add_argument("--record", action="store_true", help="write bench/baseline.json")
    args = parser.parse_args()

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    record = {
        "recorded": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d %H:%M UTC"),
        "environment": environment(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
        "predictions": {
            name: {"moves": moves, "on": where, "should_not_move": not_moved}
            for name, (moves, where, not_moved) in run.PREDICTIONS.items()
        },
    }
    if args.host_spread:
        record["host_spread"] = host_spread()
        for name, s in record["host_spread"].items():
            print(f"host {name}: {min(s['values']):.3f} .. {max(s['values']):.3f}, spread {s['spread']:.3f}")

    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = one_run(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, failed {result['failed']}/{result['attempted']}",
                  flush=True)
        entry = {"why": whys.get(workload), "runs": len(results), "metrics": {}}
        entry["attempted"] = sum(r["attempted"] for r in results)
        entry["failed"] = sum(r["failed"] for r in results)
        entry["max_wall_s"] = max(r["wall_s"] for r in results)
        ok &= all(r["correct"] for r in results)
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in results])
            s["bound"] = bound
            entry["metrics"][name] = s
            # set-up time is exempt from the spread rule; only its median is compared
            exempt = name == "setup_s"
            within = exempt or s["spread"] < bound / 3
            ok &= within
            note = "  (exempt from the bound/3 rule)" if exempt else "" if within else "  <-- above bound/3"
            print(f"  {name}: median {s['median']:.6g}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                  f"spread {s['spread']:.4f} (bound {bound}){note}")
        if args.trace:
            traced = one_run(workload, seeds[0], spec["run_seconds"], 1)
            entry["traced_run"] = {"seed": seeds[0], "wall_s": traced["wall_s"], "correct": traced["correct"],
                                   "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
            ok &= traced["correct"]
            print(f"  traced run: {traced['wall_s']:.1f} s, correct {traced['correct']}")
        record["workloads"][workload] = entry
    if args.record:
        RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {RECORD.relative_to(run.ROOT)}")
    print("steady" if ok else "NOT steady or not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
