"""Event-driven stochastic counting oracle.

Simulates a counting run pulse for pulse in law, but draws only the pulses
that carry an event: pair creation in the nonlinear segment, loss on each
arm, noise photons, dark counts, detector gating with dead time.  Counts
singles, same-gate coincidences and offset-gate accidentals exactly as a
time-interval analyzer would, independently of the closed-form rate model.

Every chain, filter or AWG, is sampled by one thinned sampler that reads
the chain record of ``chainmodel.evaluate`` and the detectors' dark
probability and dead gates alone.  The record gives the mean photons a that
reach each detector, end to end, and the x of them that follow the pair
law.  A threshold detector cannot tell a pair photon from a noise photon or
a dark count, so the sampler draws only whether each gate fires it.  A pair
reaches the signal detector, the idler detector, both or neither
independently of the other pairs, so the pairs that reach a detector keep
the pair law at a thinned mean x: Poisson stays Poisson, and a negative
binomial stays one with the same number of modes; its probability of no
pair is P0(x) = exp(-x) or (1 + x/m)**-m for m thermal modes.  The other
a - x photons and the dark counts are independent of the pairs, so a gate
leaves an arm quiet with probability P0(x) exp(-(a - x)) (1 - p_dark), and
leaves both quiet by the same law over the photons that reach either arm.
The gates where some detector fires are one Bernoulli stream per block,
drawn as geometric gaps between them, and one uniform per such gate picks
the signal detector alone, the idler alone or both, so each arm's fires
come out sorted and unique.  The work per block therefore scales with the
number of fires, not with the number of pulses.

A run is cut into blocks, each with its own counter-based random stream
derived from (seed, block index).  A gate fires some detector with
probability p, one minus the chance above that it fires neither, and a
block holds 2**16 / p gates, about 2**16 expected fires, clamped to
2**20 .. 2**28 gates (``_MIN_BLOCK``, ``_BLOCK_SIZE``): a sparse run pays
the fixed cost of a block rarely, and a dense one keeps its arrays small.
The cut depends on the config and the number of pulses only, never on the
worker count, so results are bit-identical for any number of threads.

The blocks still count as one continuous stream.  Dead time is applied to a
block's fires at once, by pointer doubling over each fire's next allowed
fire, from the block's first fire.  Every pass accepts a fire that comes
more than D gates after the fire before it, so from the later of the two
arms' first such fires (the block's edge) the clicks are the block's own.
The caller then takes the blocks in order, carries each arm's dead window
across the block boundary and reruns the pass from the carry on the fires
before the edge.  The signal clicks of the last ``accidental_offset``
gates are carried too, so every gate but the last ``accidental_offset``
opens one accidental window, and a run of n gates has
n - D * clicks <= active gates <= n - D * clicks + D.

``RNG_STREAM`` names this sampling scheme; counts for a given seed change
only with it.  The v5 stream brought the block sizing and the carries, the
geometric gaps drawn as 1 + floor(E * scale) from one standard exponential
E each, and coincidences counted from one stable sort of two click arrays.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import chainmodel as cm
from .chainmodel import AwgDemux, ExperimentChain, PumpConfig

# a block holds about _FIRES_PER_BLOCK expected fires, and _MIN_BLOCK to
# _BLOCK_SIZE gates
_FIRES_PER_BLOCK = 2**16
_MIN_BLOCK = 2**20
_BLOCK_SIZE = 2**28

RNG_STREAM = "philox-sparse-v5"

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
    to the number of successes, not to n.  A gap is 1 + floor(E * scale)
    with E standard exponential and scale = -1 / log(1 - p): it exceeds k
    with probability exp(-k / scale) = (1 - p)**k, the geometric law, for
    one exponential draw and one product per gap at any p.
    """
    # at p up to 1e-300, where E * scale may overflow, none is drawn: 2**63
    # trials would see a success with a chance under 1e-281
    if p <= 1e-300 or n <= 0:
        return np.empty(0, dtype=np.int64)
    scale = -1.0 / math.log1p(-p) if p < 1.0 else 0.0
    mean = n * p
    chunk = int(mean + 6.0 * math.sqrt(mean) + 16.0)
    parts, last = [], -1
    while last < n:
        # a gap past n + 1 lands beyond the block from any start, so clipping
        # it changes nothing kept and keeps the cumulative sum from overflowing
        gaps = np.minimum(rng.standard_exponential(chunk) * scale, n).astype(np.int64)
        gaps += 1
        positions = last + np.cumsum(gaps)
        parts.append(positions)
        last = int(positions[-1])
    positions = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return positions[: np.searchsorted(positions, n)]


def _no_pair_exponent(mean: float, trial: TrialConfig) -> float:
    """L(mean) - mean, with L(mean) = -log P0(mean) the pair law's exponent of no pair.

    A thinned Poisson law stays Poisson, P0 = exp(-mean), so the excess over
    Poisson is exactly 0.0; a negative binomial of m thermal modes stays one,
    P0 = (1 + mean / m)**-m.
    """
    if trial.pair_statistics == "thermal":
        return trial.thermal_modes * math.log1p(mean / trial.thermal_modes) - mean
    return 0.0


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
    jump = np.concatenate((np.searchsorted(fires, fires + (dead_gates + 1)), [k]))
    path = np.zeros(1, dtype=np.intp)
    while path[-1] < k:
        path = np.concatenate((path, jump[path]))
        jump = jump[jump]
    accepted = fires[path[path < k]]
    return accepted, n - _dead_gates(accepted, n, dead_gates)


def _dead_gates(clicks: np.ndarray, n: int, dead_gates: int) -> int:
    """Gates of [0, n) the clicks leave dead: each the next dead_gates, cut at n.

    Accepted clicks lie more than dead_gates apart, so only the window of the
    last one can reach past n.
    """
    if not clicks.size:
        return 0
    return dead_gates * clicks.size - max(int(clicks[-1]) + dead_gates + 1 - n, 0)


def _first_free_fire(fires: np.ndarray, n: int, dead_gates: int) -> int:
    """The gate of the first fire more than dead_gates gates after the fire before it, else n.

    The first fire counts as one when it comes at gate dead_gates or later.
    Any dead-time pass accepts such a fire, whatever it accepted before and
    from any carry of at most dead_gates dead gates into the block.
    """
    free = np.diff(fires, prepend=-1) > dead_gates
    first = int(free.argmax()) if free.size else 0
    return int(fires[first]) if free.size and free[first] else n


def _matches(a: np.ndarray, b: np.ndarray) -> int:
    """Number of values two sorted arrays of unique gates share.

    One stable sort of the two runs merges them; every value held twice is
    then a pair of equal neighbours.
    """
    if not (a.size and b.size):
        return 0
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    return int(np.count_nonzero(merged[1:] == merged[:-1]))


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


def _block_gates(p_fire: float) -> int:
    """Gates per block: about ``_FIRES_PER_BLOCK`` fires expected, clamped to
    ``_MIN_BLOCK`` .. ``_BLOCK_SIZE``."""
    if p_fire <= 0.0:
        return _BLOCK_SIZE
    return int(min(max(_FIRES_PER_BLOCK / p_fire, _MIN_BLOCK), _BLOCK_SIZE))


class _Block(NamedTuple):
    """What one block's worker hands the caller that joins the run.

    The clicks from gate ``edge`` on are final whatever the blocks before
    left: ``counts`` holds their singles, coincidences, accidentals and dead
    gates.  The caller also gets each arm's fires before the edge (the head),
    the idler clicks of [edge, edge + offset), the signal clicks of the last
    ``offset`` gates from the edge on, and each arm's last click from the edge
    on (-1 if none).
    """

    size: int
    counts: np.ndarray
    heads: tuple[np.ndarray, np.ndarray]
    idler_window: np.ndarray
    signal_end: np.ndarray
    last: tuple[int, int]


def _block_sampler(chain: ExperimentChain, rec: cm.ChainEvaluation, trial: TrialConfig):
    """The counter of one block ``(block_index, size)``, read from the record and detectors alone.

    Returns the gates per block, each arm's dead gates and the counter.  The
    record gives the mean photons a reaching each detector and the x of them
    that follow the pair law; the others are Poisson.  So a gate leaves an
    arm quiet with the exponent a + (L(x) - x) - log(1 - p_dark), and leaves
    both quiet with the same over the photons that reach either arm.  Warns
    when a pulse holds more than one pair or unpaired photon on average.
    """
    detectors = (chain.detector_signal, chain.detector_idler)
    dark_s, dark_i = (-math.log1p(-detector.dark_prob_per_gate) for detector in detectors)
    seen = rec.pair_law_signal + rec.pair_law_idler - rec.detected_pairs
    quiet = (
        rec.detected_signal + rec.detected_idler - rec.detected_pairs
        + _no_pair_exponent(seen, trial) + dark_s + dark_i,
        rec.detected_signal + _no_pair_exponent(rec.pair_law_signal, trial) + dark_s,
        rec.detected_idler + _no_pair_exponent(rec.pair_law_idler, trial) + dark_i,
    )
    dead_gates = tuple(detector.dead_gates if trial.dead_time_enabled else 0 for detector in detectors)
    off = trial.accidental_offset
    unpaired = max(rec.detected_signal - rec.pair_law_signal, rec.detected_idler - rec.pair_law_idler)
    mu_check = rec.mu_pair + unpaired
    if mu_check > 1.0:
        warnings.warn(
            f"per-pulse mean {mu_check:.3g} exceeds 1; multi-photon pile-up will be "
            "heavy and the analytic model unreliable",
            RuntimeWarning,
            stacklevel=3,
        )

    def count(block: tuple[int, int]) -> _Block:
        block_index, size = block
        fires = _gate_fires(_block_rng(trial.seed, block_index), quiet, size)
        clicks = tuple(_apply_dead_time(arm, size, dead)[0] for arm, dead in zip(fires, dead_gates))
        # the run starts with both detectors active, so the first block has no head
        edge = 0
        if block_index:
            edge = max(_first_free_fire(arm, size, dead) for arm, dead in zip(fires, dead_gates))
        tail_s, tail_i = (arm[np.searchsorted(arm, edge) :] for arm in clicks)
        counts = (
            tail_s.size,
            tail_i.size,
            _matches(tail_s, tail_i),
            # a signal click at g and an idler click at g + off, both from the edge on
            _matches(tail_s + off, tail_i),
            _dead_gates(tail_s, size, dead_gates[0]),
            _dead_gates(tail_i, size, dead_gates[1]),
        )
        return _Block(
            size=size,
            counts=np.array(counts, dtype=np.int64),
            heads=tuple(arm[: np.searchsorted(arm, edge)] for arm in fires),
            idler_window=tail_i[: np.searchsorted(tail_i, edge + off)],
            signal_end=tail_s[np.searchsorted(tail_s, size - off) :],
            last=(int(tail_s[-1]) if tail_s.size else -1, int(tail_i[-1]) if tail_i.size else -1),
        )

    return _block_gates(-math.expm1(-quiet[0])), dead_gates, count


def _join(blocks, dead_gates: tuple[int, int], off: int) -> np.ndarray:
    """Totals of the blocks of one run, taken in order as one continuous stream.

    Each arm carries its dead window and the signal clicks of the last
    ``off`` gates carry their accidental windows into the blocks after.  The
    carry changes only a block's head, the fires before its edge, so the
    dead-time pass runs on the head from the carry.  Returns singles,
    coincidences, accidentals and dead gates as ``_Block.counts`` orders them.
    """
    totals = np.zeros(6, dtype=np.int64)
    dead_until = [-1, -1]  # the last dead gate of each arm, counted from the run start
    pending = np.empty(0, dtype=np.int64)  # signal clicks whose window may open in a later block
    start = 0
    for block in blocks:
        size = block.size
        totals += block.counts
        heads = []
        for arm in (0, 1):
            fires, dead = block.heads[arm], dead_gates[arm]
            carry = dead_until[arm] - start + 1
            if carry > 0:
                totals[4 + arm] += min(carry, size)
                fires = fires[np.searchsorted(fires, carry) :]
            clicks = _apply_dead_time(fires, size, dead)[0] if fires.size else fires
            totals[arm] += clicks.size
            totals[4 + arm] += _dead_gates(clicks, size, dead)
            last = block.last[arm] if block.last[arm] >= 0 else (int(clicks[-1]) if clicks.size else -1)
            if last >= 0:
                dead_until[arm] = start + last + dead
            heads.append(clicks)
        head_s, head_i = heads
        totals[2] += _matches(head_s, head_i)
        # most blocks of a sparse run have no head and nothing to carry
        if head_s.size or pending.size:
            signal = np.concatenate((pending - start, head_s))
            totals[3] += _matches(signal + off, np.concatenate((head_i, block.idler_window)))
        if head_s.size or pending.size or block.signal_end.size:
            pending = np.concatenate((pending, head_s + start, block.signal_end + start))
            pending = pending[np.searchsorted(pending, start + size - off) :]
        start += size
    return totals


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
    block_gates, dead_gates, count = _block_sampler(chain, cm.evaluate(chain, pump), trial)
    n = trial.n_pulses
    blocks = [(bi, min(block_gates, n - bi * block_gates)) for bi in range(-(-n // block_gates))]

    # Executor.map submits every block at once, and the pool starts a thread
    # per submit while none is idle: more workers than blocks or cores only
    # start idle threads, and the blocks never depend on the worker count
    workers = min(threads, len(blocks), os.cpu_count() or 1) if threads > 1 else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = _join(pool.map(count, blocks), dead_gates, trial.accidental_offset)
    else:
        totals = _join(map(count, blocks), dead_gates, trial.accidental_offset)
    return CountSummary(
        n_pulses=n,
        gate_rate_hz=pump.rep_rate_hz,
        singles_signal=int(totals[0]),
        singles_idler=int(totals[1]),
        coincidences=int(totals[2]),
        accidentals=int(totals[3]),
        active_gates_signal=n - int(totals[4]),
        active_gates_idler=n - int(totals[5]),
        accidental_pairs=max(n - trial.accidental_offset, 0),
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
