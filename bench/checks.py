"""Correctness checks that decide which benchmark operations failed.

Figures are compared cell by cell with values frozen from the commit that
defined the benchmark.  Monte Carlo counts are compared with the closed-form
``expected_gate_statistics`` at a stated sigma margin, on counts summed over
the first ``CHECKED_CALLS`` calls of one configuration in a run, and every
single run must satisfy the exact dead-time identity.
"""

from __future__ import annotations

import math
from dataclasses import fields
from statistics import NormalDist

# quad is asked for epsrel=1e-9; an exact erf closed form differs from it by
# about that much, and CAR and rates inherit it linearly, so 1e-6 passes a
# closed form while catching any real change of the curves.
FIGURE_RTOL = 1e-6

# Two-sided margin in standard deviations.  Below 5 so that a count moved
# by 5 sigma always fails; the false-alarm probability is 6.8e-6 per field.
Z_MARGIN = 4.5

# Calls of one configuration whose counts are summed and checked; later
# calls get the identity check only.  A fixed budget keeps the power of the
# count check the same however fast the program runs: 12M pulses for the
# mc-sparse runs, 6M for the 1M-pulse probes, 1.5M per saturated sweep point.
CHECKED_CALLS = 6

# From this many expected events the normal approximation is used; below
# it the exact Poisson tail (counts are then rare events, p < 1e-3).
NORMAL_FROM_EVENTS = 1000.0

# Fields the closed form predicts when pairs are Poisson and clicks sparse.
SPARSE_FIELDS = (
    "singles_signal",
    "singles_idler",
    "coincidences",
    "accidentals",
    "active_gates_signal",
    "active_gates_idler",
)
# At dense clicks the closed form treats the two detectors' dead-time states
# as independent, which biases coincidences and accidentals (see NOTES.md);
# singles and duty stay exact.
SATURATED_FIELDS = (
    "singles_signal",
    "singles_idler",
    "active_gates_signal",
    "active_gates_idler",
)


def figure_problems(table: dict, reference: dict) -> list[str]:
    """Differences between a reproduced figure table and its reference."""
    if table.get("columns") != reference["columns"]:
        return [f"columns {table.get('columns')} differ from {reference['columns']}"]
    rows, ref_rows = table.get("rows", []), reference["rows"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows against {len(ref_rows)} in the reference"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref_row):
            problems.append(f"row {i} has {len(row)} cells against {len(ref_row)}")
            continue
        for j, (value, ref) in enumerate(zip(row, ref_row)):
            ok = isinstance(value, (int, float)) and abs(value - ref) <= FIGURE_RTOL * abs(ref)
            if not ok:
                problems.append(f"row {i} column {reference['columns'][j]}: {value!r} against {ref!r}")
    return problems


def add_counts(total: dict, summary) -> dict:
    """Add the integer fields of a CountSummary into ``total``."""
    for f in fields(summary):
        value = getattr(summary, f.name)
        if isinstance(value, int):
            total[f.name] = total.get(f.name, 0) + value
    return total


def _tail_z(log_p: float, upper: bool) -> float:
    p = math.exp(log_p) if log_p > -700.0 else 0.0
    if p <= 0.0:
        z = 40.0
    else:
        z = -NormalDist().inv_cdf(min(p, 0.5))
    return z if upper else -z


def poisson_tail_z(observed: int, mean: float) -> float:
    """Signed normal quantile of the exact Poisson tail beyond ``observed``."""
    if mean <= 0.0:
        return 0.0 if observed == 0 else 40.0
    log_pmf = observed * math.log(mean) - mean - math.lgamma(observed + 1)
    total, term, j = 1.0, 1.0, observed
    if observed >= mean:  # P(X >= observed): terms shrink by mean / (j + 1)
        while term > 1e-17 * total:
            term *= mean / (j + 1)
            total += term
            j += 1
        return _tail_z(log_pmf + math.log(total), upper=True)
    while j > 0 and term > 1e-17 * total:  # P(X <= observed)
        term *= j / mean
        total += term
        j -= 1
    return _tail_z(log_pmf + math.log(total), upper=False)


def count_z(observed: int, trials: int, p: float) -> float:
    """z-score of a count of ``trials`` independent chances of probability p.

    Used for coincidences and accidentals: they are a small share of either
    arm's clicks, so the dead time thins them almost at random and their
    spread stays close to binomial.
    """
    mean = trials * p
    if mean >= NORMAL_FROM_EVENTS:
        return (observed - mean) / math.sqrt(mean * (1.0 - p))
    return poisson_tail_z(observed, mean)


def renewal_sigma(n: int, p_click: float, duty: float) -> float:
    """Standard deviation of one arm's click count in ``n`` gates.

    Under a dead time of D gates the clicks form a renewal process: each
    interval is D dead gates plus a geometric wait, with click probability
    q = p_click / duty at an active gate.  Its variance is
    n * p_click * (1 - q) * duty**2, a Fano factor of (1 - q) * duty**2; with
    no dead time this is the binomial n * p * (1 - p).
    """
    q = p_click / duty
    return math.sqrt(n * p_click * (1.0 - q) * duty * duty)


def count_zscores(total: dict, stats, dead_gates: tuple[int, int], names) -> dict:
    """(observed, expected, z) of each named field against the closed form.

    Singles have the renewal spread of ``renewal_sigma``.  Active gates are n
    minus D per accepted click, so their sigma is D times the singles sigma.
    """
    n = total["n_pulses"]
    chances = {
        "coincidences": (n, stats.p_coincidence),
        "accidentals": (total["accidental_pairs"], stats.p_accidental),
    }
    sigma_s = renewal_sigma(n, stats.p_click_signal, stats.duty_signal)
    sigma_i = renewal_sigma(n, stats.p_click_idler, stats.duty_idler)
    arms = {  # field: (expected, sigma)
        "singles_signal": (n * stats.p_click_signal, sigma_s),
        "singles_idler": (n * stats.p_click_idler, sigma_i),
        "active_gates_signal": (n * stats.duty_signal, dead_gates[0] * sigma_s),
        "active_gates_idler": (n * stats.duty_idler, dead_gates[1] * sigma_i),
    }
    out = {}
    for name in names:
        observed = total[name]
        if name in arms:
            expected, sigma = arms[name]
            if sigma > 0.0:
                z = (observed - expected) / sigma
            else:
                z = 0.0 if observed == expected else math.inf
        else:
            trials, p = chances[name]
            expected = trials * p
            z = count_z(observed, trials, p)
        out[name] = (observed, expected, z)
    return out


def count_problems(total: dict, stats, dead_gates, names) -> list[str]:
    return [
        f"{name}: {observed} against {expected:.6g} expected (z = {z:+.2f}, margin {Z_MARGIN})"
        for name, (observed, expected, z) in count_zscores(total, stats, dead_gates, names).items()
        if not abs(z) <= Z_MARGIN
    ]


def dead_time_problems(summary, dead_gates: tuple[int, int], block_pulses: int, offset: int) -> list[str]:
    """Exact bookkeeping identities of one run.

    A click at gate g disables gates g+1 .. g+D within its block, so
    ``n - D*clicks <= active <= n - D*clicks + D*blocks``; each block
    inspects ``size - offset`` accidental windows.
    """
    n = summary.n_pulses
    blocks = -(-n // block_pulses)
    problems = []
    for arm, clicks, active, dead in (
        ("signal", summary.singles_signal, summary.active_gates_signal, dead_gates[0]),
        ("idler", summary.singles_idler, summary.active_gates_idler, dead_gates[1]),
    ):
        low = n - dead * clicks
        if not low <= active <= low + dead * blocks:
            problems.append(
                f"{arm}: {active} active gates outside [{low}, {low + dead * blocks}]"
            )
    windows = n - offset * blocks
    if summary.accidental_pairs != windows:
        problems.append(f"{summary.accidental_pairs} accidental windows, expected {windows}")
    return problems
