"""Event-driven stochastic counting oracle.

Simulates a counting run pulse for pulse in law, but draws only the pulses
that carry an event: pair creation in the nonlinear segment, loss on each
arm, noise photons, dark counts, detector gating with dead time.  Counts
singles, same-gate coincidences and offset-gate accidentals exactly as a
time-interval analyzer would, independently of the closed-form rate model.

Every chain, filter or AWG, is sampled by one thinned sampler that reads
the chain record of ``chainmodel.evaluate`` and the detectors alone.  A
threshold detector cannot tell a pair photon from a noise photon or a dark
count, so the sampler draws only whether each gate fires it.  A pair
reaches the signal detector, the idler detector, both or neither
independently of the other pairs, so the pairs that reach a detector keep
the pair law at a thinned mean x: Poisson stays Poisson, and a negative
binomial stays one with the same number of modes; its probability of no
pair is P0(x) = exp(-x) or (1 + x/m)**-m for m thermal modes.  Noise
photons and dark counts are independent of the pairs, so a gate fires
neither detector, or not a given one, with probability P0 times each arm's
chance of no noise photon and no dark count.  The gates where some
detector fires are one Bernoulli stream per block, drawn as geometric gaps
between them, and one uniform per such gate picks the signal detector
alone, the idler alone or both, so each arm's fires come out sorted and
unique.  The work per block therefore scales with the number of fires, not
with the number of pulses.

Pulses are processed in fixed-size blocks, each with its own counter-based
random stream derived from (seed, block index).  The block decomposition
never depends on the worker count, so results are bit-identical for any
number of threads.  Dead time is applied to a block's fire indices at once,
by pointer doubling over each fire's next allowed fire, and resets at block
boundaries.  Each block therefore starts with both detectors active, which
biases the clicks up: by renewal theory 0.42 clicks per block per arm at
1 MHz dark counts with a 1000-gate dead time (seen at a mean z of +2.8 over
three 400M-pulse runs), and 0.18 per block, 3e-4 relative, on the wg-i
preset.  ROADMAP item 1 carries the fix.  ``RNG_STREAM`` names this sampling
scheme; counts for a given seed change only with it.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import chainmodel as cm
from .chainmodel import AwgDemux, ExperimentChain, PumpConfig

_BLOCK_SIZE = 1_000_000

RNG_STREAM = "philox-sparse-v4"

PAIR_STATISTICS = ("poisson", "thermal")

SWEEP_VARIABLES = ("l_si", "l_siox", "pp", "awg_loss", "dark")


@dataclass(frozen=True)
class TrialConfig:
    """Counting-run parameters.

    ``accidental_offset`` is the gate separation used for the accidental
    (side-peak) coincidence window.  ``thermal_modes`` only matters for the
    multimode-thermal pair-number option; the default of 24 matches a
    time-bandwidth product of order twenty where thermal statistics are
    already close to Poisson.
    """

    n_pulses: int
    seed: int = 0
    accidental_offset: int = 1
    dead_time_enabled: bool = True
    pair_statistics: str = "poisson"
    thermal_modes: int = 24

    def __post_init__(self) -> None:
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")
        if self.accidental_offset < 1:
            raise ValueError("accidental_offset must be >= 1")
        if self.pair_statistics not in PAIR_STATISTICS:
            raise ValueError(f"pair_statistics must be one of {PAIR_STATISTICS}")
        if self.thermal_modes < 1:
            raise ValueError("thermal_modes must be >= 1")


@dataclass(frozen=True)
class CountSummary:
    """Raw counts of one simulated run plus derived rates and errors."""

    n_pulses: int
    gate_rate_hz: float
    singles_signal: int
    singles_idler: int
    coincidences: int
    accidentals: int
    active_gates_signal: int
    active_gates_idler: int
    accidental_pairs: int  # number of (gate, gate + offset) windows inspected

    @property
    def duration_s(self) -> float:
        return self.n_pulses / self.gate_rate_hz

    @property
    def singles_rate_signal_hz(self) -> float:
        return self.singles_signal / self.duration_s

    @property
    def singles_rate_idler_hz(self) -> float:
        return self.singles_idler / self.duration_s

    @property
    def coincidence_rate_hz(self) -> float:
        return self.coincidences / self.duration_s

    @property
    def accidental_rate_hz(self) -> float:
        # normalized per inspected window so the offset does not bias the rate
        if self.accidental_pairs == 0:
            return 0.0
        return self.accidentals / self.accidental_pairs * self.gate_rate_hz

    @property
    def car(self) -> float | None:
        """Coincidence-to-accidental ratio; None until accidentals were seen."""
        if self.accidentals == 0:
            return None
        return self.coincidences / self.accidentals

    @property
    def car_stderr(self) -> float | None:
        if self.car is None or self.coincidences == 0:
            return None
        return self.car * math.sqrt(1.0 / self.coincidences + 1.0 / self.accidentals)


def measured_gate_duty(summary: CountSummary) -> tuple[float, float]:
    """Measured active-gate fraction per channel; exactly 1.0 without dead time."""
    return (
        summary.active_gates_signal / summary.n_pulses,
        summary.active_gates_idler / summary.n_pulses,
    )


def derive_seed(master_seed: int, index: int) -> int:
    """Decorrelated 64-bit child seed for grid point ``index``."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# per-block machinery


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    # Philox is counter-based: streams keyed by (seed, block) never overlap.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), block_index])))


def _bernoulli_positions(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """Sorted indices of the successes among n independent Bernoulli(p) trials.

    Drawn as geometric gaps between successes, so the work is proportional
    to the number of successes, not to n.
    """
    if p <= 0.0 or n <= 0:
        return np.empty(0, dtype=np.int64)
    mean = n * p
    chunk = int(mean + 6.0 * math.sqrt(mean) + 16.0)
    parts, last = [], -1
    while last < n:
        # a gap past n + 1 lands beyond the block from any start, so clipping
        # it changes nothing kept and keeps the cumulative sum from overflowing
        positions = last + np.cumsum(np.minimum(rng.geometric(p, chunk), n + 1))
        parts.append(positions)
        last = int(positions[-1])
    positions = np.concatenate(parts)
    return positions[: np.searchsorted(positions, n)]


def _no_pair_exponent(mean: float, trial: TrialConfig) -> float:
    """L(mean) = -log P0(mean): the pair law's probability of no pair at a thinned mean.

    A thinned Poisson law stays Poisson, P0 = exp(-mean); a negative binomial
    of m thermal modes stays one, P0 = (1 + mean / m)**-m.
    """
    if trial.pair_statistics == "thermal":
        return trial.thermal_modes * math.log1p(mean / trial.thermal_modes)
    return mean


def _apply_dead_time(fires: np.ndarray, n: int, dead_gates: int) -> tuple[np.ndarray, int]:
    """Suppress fires landing in the dead window after an accepted click.

    ``fires`` are the sorted gate indices in [0, n) where a detector fires.
    Returns the accepted click indices and the number of active gates in the
    block.  A click at gate g deactivates gates g+1 .. g+dead_gates.
    """
    if dead_gates <= 0:
        return fires, n
    k = fires.size
    # jump[i] is the first fire past the dead window of fire i (sentinel k maps
    # to itself).  The accepted fires are the path 0, jump[0], jump[jump[0]], ...:
    # once path holds its first 2**L nodes and jump leaps 2**L, jump[path] holds
    # the next 2**L.
    jump = np.append(np.searchsorted(fires, fires + (dead_gates + 1)), k)
    path = np.zeros(1, dtype=np.intp)
    while path[-1] < k:
        path = np.concatenate((path, jump[path]))
        jump = jump[jump]
    accepted = fires[path[path < k]]
    return accepted, n - int(np.minimum(dead_gates, n - 1 - accepted).sum())


def _gate_fires(
    rng: np.random.Generator, quiet: tuple[float, float, float], size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, unique gates of a block where the signal and the idler detector fire.

    ``quiet`` holds the exponents -log P that a gate fires neither detector,
    not the signal and not the idler.  A gate fires some detector with
    probability p = 1 - exp(-quiet[0]).  Given that, it fires the signal
    alone with probability (P(idler quiet) - P(neither fires)) / p, the idler
    alone likewise and both otherwise; one uniform per firing gate picks
    which.
    """
    l_none, l_signal, l_idler = quiet
    p = -math.expm1(-l_none)
    fired = _bernoulli_positions(rng, p, size)
    if not fired.size:
        return fired, fired
    # P(x quiet) - P(neither) as -exp(-L(x)) * expm1(L(x) - L(none)): the
    # exponent is never positive, so no term overflows however likely a fire
    signal_alone = -math.exp(-l_idler) * math.expm1(l_idler - l_none) / p
    idler_alone = -math.exp(-l_signal) * math.expm1(l_signal - l_none) / p
    u = rng.random(fired.size)
    fires_signal = fired[(u < signal_alone) | (u >= signal_alone + idler_alone)]
    return fires_signal, fired[u >= signal_alone]


def _block_sampler(chain: ExperimentChain, rec: cm.ChainEvaluation, trial: TrialConfig):
    """The counter of one block ``(block_index, size)``, read from the record and detectors alone.

    Efficiencies are end to end (optical transmittance times quantum
    efficiency).  Every photon an AWG channel passes belongs to a pair spread
    over the generation band, so its arms collect pairs over their single
    bandwidths; behind filters pairs are collected over the pair bandwidth
    and the photons beyond it arrive without a partner, as noise.  Warns
    when a pulse holds more than one pair or noise photon on average.
    """
    eta_s = rec.eta_signal * chain.detector_signal.quantum_efficiency
    eta_i = rec.eta_idler * chain.detector_idler.quantum_efficiency
    density, pair_bw = rec.pair_density_per_hz, rec.pair_bandwidth_hz
    bw_s = bw_i = pair_bw
    if isinstance(chain.demux, AwgDemux):
        bw_s, bw_i = rec.single_bandwidth_signal_hz, rec.single_bandwidth_idler_hz
    signal, idler = density * eta_s * bw_s, density * eta_i * bw_i
    both = density * eta_s * eta_i * pair_bw
    extra_s = density * max(rec.single_bandwidth_signal_hz - bw_s, 0.0)
    extra_i = density * max(rec.single_bandwidth_idler_hz - bw_i, 0.0)
    # each arm's no-fire exponent from its other causes: noise photons, the
    # photons beyond the pair bandwidth and dark counts
    other_s = (rec.noise_signal + extra_s) * eta_s - math.log1p(-chain.detector_signal.dark_prob_per_gate)
    other_i = (rec.noise_idler + extra_i) * eta_i - math.log1p(-chain.detector_idler.dark_prob_per_gate)
    quiet = (
        _no_pair_exponent(signal + idler - both, trial) + other_s + other_i,
        _no_pair_exponent(signal, trial) + other_s,
        _no_pair_exponent(idler, trial) + other_i,
    )
    detectors = (chain.detector_signal, chain.detector_idler)
    dead_gates = [detector.dead_gates if trial.dead_time_enabled else 0 for detector in detectors]
    off = trial.accidental_offset
    mu_check = rec.mu_pair + max(rec.noise_signal * eta_s, rec.noise_idler * eta_i)
    if mu_check > 1.0:
        warnings.warn(
            f"per-pulse mean {mu_check:.3g} exceeds 1; multi-photon pile-up will be "
            "heavy and the analytic model unreliable",
            RuntimeWarning,
            stacklevel=3,
        )

    def count(block: tuple[int, int]) -> np.ndarray:
        block_index, size = block
        fires = _gate_fires(_block_rng(trial.seed, block_index), quiet, size)
        (clicks_s, active_s), (clicks_i, active_i) = (
            _apply_dead_time(arm, size, dead) for arm, dead in zip(fires, dead_gates)
        )
        n_acc = max(size - off, 0)
        # a signal click at gate g and an idler click at g + off, for g < size - off
        early_s = clicks_s[: np.searchsorted(clicks_s, n_acc)]
        late_i = clicks_i[np.searchsorted(clicks_i, off) :] - off
        coincidences = np.intersect1d(clicks_s, clicks_i, assume_unique=True).size
        accidentals = np.intersect1d(early_s, late_i, assume_unique=True).size
        counts = (clicks_s.size, clicks_i.size, coincidences, accidentals, active_s, active_i, n_acc)
        return np.array(counts, dtype=np.int64)

    return count


# ---------------------------------------------------------------------------
# public entry points


def simulate(
    chain: ExperimentChain,
    pump: PumpConfig,
    trial: TrialConfig,
    threads: int = 1,
) -> CountSummary:
    """Run a full counting experiment pulse by pulse.

    Deterministic given (chain, pump, trial): the same inputs always produce
    the same CountSummary, regardless of ``threads``, which caps the worker
    threads; no more start than there are blocks or cores.
    """
    count = _block_sampler(chain, cm.evaluate(chain, pump), trial)
    n = trial.n_pulses
    blocks = [
        (bi, min(_BLOCK_SIZE, n - bi * _BLOCK_SIZE))
        for bi in range((n + _BLOCK_SIZE - 1) // _BLOCK_SIZE)
    ]

    # Executor.map submits every block at once, and the pool starts a thread
    # per submit while none is idle: more workers than blocks or cores only
    # start idle threads, and the blocks never depend on the worker count
    workers = min(threads, len(blocks), os.cpu_count() or 1) if threads > 1 else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(count, blocks))
    else:
        parts = [count(b) for b in blocks]
    totals = np.sum(parts, axis=0)
    return CountSummary(
        n_pulses=n,
        gate_rate_hz=pump.rep_rate_hz,
        singles_signal=int(totals[0]),
        singles_idler=int(totals[1]),
        coincidences=int(totals[2]),
        accidentals=int(totals[3]),
        active_gates_signal=int(totals[4]),
        active_gates_idler=int(totals[5]),
        accidental_pairs=int(totals[6]),
    )


def apply_sweep_value(
    chain: ExperimentChain, pump: PumpConfig, variable: str, value: float | np.ndarray
) -> tuple[ExperimentChain, PumpConfig]:
    """Return (chain, pump) with one physical variable replaced.

    Values are SI: meters for lengths, watts for the peak power, dB for the
    demux insertion loss, hertz for the dark rate.  ``value`` may be a 1-D
    float array: the replaced field then holds the whole grid, every element
    is checked as a single value would be, and ``chainmodel.evaluate``,
    ``predict`` and ``car_estimate`` return arrays over it, equal to the
    single-value calls element by element.
    """
    if variable == "l_si":
        idx = chain.nonlinear_index
        segments = list(chain.segments)
        segments[idx] = replace(segments[idx], length_m=value)
        return replace(chain, segments=tuple(segments)), pump
    if variable == "l_siox":
        idx = chain.nonlinear_index
        for j in range(idx + 1, len(chain.segments)):
            if chain.segments[j].kind == cm.KIND_PASSIVE:
                segments = list(chain.segments)
                segments[j] = replace(segments[j], length_m=value)
                return replace(chain, segments=tuple(segments)), pump
        raise ValueError("chain has no passive segment after the nonlinear one")
    if variable == "pp":
        avg = value * pump.rep_rate_hz * pump.pulse_fwhm_s
        return chain, replace(pump, average_power_w=avg)
    if variable == "awg_loss":
        if not isinstance(chain.demux, AwgDemux):
            raise ValueError("awg_loss sweep requires an AWG demultiplexer")
        spec = replace(chain.demux.spec, insertion_loss_db=value)
        return replace(chain, demux=replace(chain.demux, spec=spec)), pump
    if variable == "dark":
        p_dark = value / pump.rep_rate_hz
        signal = replace(chain.detector_signal, dark_prob_per_gate=p_dark)
        idler = replace(chain.detector_idler, dark_prob_per_gate=p_dark)
        return replace(chain, detector_signal=signal, detector_idler=idler), pump
    raise ValueError(f"unknown sweep variable {variable!r}; expected one of {SWEEP_VARIABLES}")


def sweep(
    chain: ExperimentChain,
    pump: PumpConfig,
    variable: str,
    grid,
    trial: TrialConfig,
    threads: int = 1,
) -> list[tuple[float, CountSummary]]:
    """Independent simulations over a parameter grid.

    Each grid point runs with a child seed derived from (trial.seed, index),
    so a single-point grid reproduces a direct simulate call with that child
    seed, and the whole sweep is reproducible from the master seed.
    """
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("grid must not be empty")
    out: list[tuple[float, CountSummary]] = []
    for index, value in enumerate(grid):
        chain_v, pump_v = apply_sweep_value(chain, pump, variable, value)
        trial_v = replace(trial, seed=derive_seed(trial.seed, index))
        out.append((value, simulate(chain_v, pump_v, trial_v, threads=threads)))
    return out
