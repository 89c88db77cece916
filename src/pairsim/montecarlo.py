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
pair P0(x) is given by ``chainmodel.no_pair_excess``.  The other
a - x photons and the dark counts are independent of the pairs, so a gate
leaves an arm quiet with probability P0(x) exp(-(a - x)) (1 - p_dark), and
leaves both quiet by the same law over the photons that reach either arm.
Where fires are sparse, the gates where some detector fires are one
Bernoulli stream per block, drawn as geometric gaps between them, and one
uniform per such gate picks the signal detector alone, the idler alone or
both, so the work per block scales with the number of fires, not with the
number of pulses.  Where some detector fires on at least ``_PER_GATE_FROM``
of the gates, an exponential and a uniform per fire cost more than one
32-bit uniform per gate, so such a block draws one per gate and cuts it at
three thresholds.  Either way each arm's fires come out sorted and unique.

A run is cut into blocks, each with its own random stream seeded from
(seed, block index).  A gate fires some detector with probability p, one
minus the chance above that it fires neither, and a block holds 2**16 / p
gates, about 2**16 expected fires, clamped to 2**20 .. 2**28 gates
(``_MIN_BLOCK``, ``_BLOCK_SIZE``): a sparse run pays the fixed cost of a
block rarely, and a dense one keeps its arrays small.  The cut depends on
the config and the number of pulses only, never on the worker count, so
results are bit-identical for any number of threads.

The blocks still count as one continuous stream.  A block's worker draws
its fires and applies dead time to them at once, as if both detectors were
live at the block's first gate.  At one dead gate a window holds at most
the very next gate's fire, so each run of fires at consecutive gates keeps
its 1st, 3rd, 5th, ... fire, found in one pass; longer dead times take
pointer doubling over each fire's next allowed fire.  The worker hands back
each arm's fires and clicks; it counts nothing.  The join takes the blocks
in order and carries each arm's dead window across the block boundary.
Where it reaches into a block, the fires under it are dropped, and the pass
reruns on the fires up to the first one more than D gates after the fire
before it: every pass accepts that one, so the worker's clicks hold from it
on.  The join counts the singles, coincidences and accidentals of each
block's clicks.  Signal clicks whose accidental window opens in a later
block wait for it in a queue, so every gate but the last
``accidental_offset`` opens one window.  Accepted clicks lie more than D
gates apart, so a run of n gates whose last click is at gate l has
n - D * clicks + max(l + D + 1 - n, 0) active gates.

A run whose blocks draw one uniform per gate, with at most one dead gate
per arm and an accidental offset of at most a block, is counted on bitsets
instead (``_join_bits``): the sampler checks this once per run.  Each arm's
fires in a block are one Python int, bit g for gate g.  The one-gate pass
takes one carry-propagating add: x + (s & E), with s the first fire of each
run and E the even gates, clears the runs that start at an even gate, which
keep their fires at even gates; the other runs keep those at odd gates.  A
carried window holds at most a block's gate 0, and a fire there flips the
clicks of its run.  Singles and coincidences are bit counts, and the signal
clicks shifted by the offset are one int of open windows across the edge.

``RNG_STREAM`` names this sampling scheme; counts for a given seed change
only with it.  The v5 stream brought the block sizing and the carries, the
geometric gaps drawn as 1 + floor(E * scale) from one standard exponential
E each, and coincidences counted from one stable sort of two click arrays.
The v6 stream changed only each block's bit generator, from Philox to the
cheaper SFC64 (``_BIT_GENERATOR``); with Philox it counts as v5 did.  The v7
stream changed only the draw of dense blocks, from the gaps to one uniform
per gate; a block below ``_PER_GATE_FROM`` keeps its v6 bits, and with the
constant above 1 every block counts as in v6.  The v8 stream changed only
that per-gate draw, from a float64 uniform per gate to a 32-bit integer u:
each 64-bit word of the block's SFC64 gives two gates, its low half the
first, and a block of odd size drops the high half of its last word.  Each
probability x the draw cuts at becomes the threshold T = round(x * 2**32),
so u < T holds with a probability within 2**-33 of x; at x = 1, T = 2**32
and every gate passes.  The gaps are drawn as in v6, so a block below the
constant, every sparse run among them, counts as in v6 and v7.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import chainmodel as cm
from .chainmodel import PAIR_STATISTICS, ExperimentChain, PumpConfig, apply_sweep_value

# a block holds about _FIRES_PER_BLOCK expected fires, and _MIN_BLOCK to
# _BLOCK_SIZE gates
_FIRES_PER_BLOCK = 2**16
_MIN_BLOCK = 2**20
_BLOCK_SIZE = 2**28

RNG_STREAM = "sfc64-v8"
# a block whose gates fire some detector at least this often draws one 32-bit
# uniform per gate; sparser blocks draw the gaps between fires.  A 250k-pulse
# wg-i simulate, medians of 40 alternated calls on a loaded 2-core host (ms):
#   fires per gate              0.05  0.06  0.07  0.08  0.10  0.145 0.30
#   1 dead gate, gaps           1.02  1.12  1.27  1.40  1.66  1.80  3.37
#     per gate, as bitsets      1.34  1.33  1.33  1.31  1.34  1.34  1.36
#   2 dead gates, gaps          1.34  1.35  1.58  1.74  2.12  2.79  5.94
#     per gate, index arrays    2.37  2.00  2.32  2.50  2.88  3.78  6.19
# The constant is the bitset crossover; blocks that return index arrays (two
# or more dead gates, or an offset past a block) cross near 0.3, so between
# the two they pay about a third more than their gaps would
_PER_GATE_FROM = 0.07
# every block's bit generator, behind a call so that importing loads no numpy.random
_BIT_GENERATOR = lambda seeds: np.random.SFC64(seeds)  # noqa: E731
# a block's even gates as an int, built once per size: a run has at most two sizes, a bitset block at most 2**20 gates
_even_gates = functools.lru_cache(maxsize=4)(lambda size: int.from_bytes(b"\x55" * (size // 8 + 1), "little"))

MAX_PULSES = 2**62  # a gate plus a dead window or an accidental offset, each cut to the run, fits int64


@dataclass(frozen=True)
class TrialConfig:
    """Counting-run parameters.

    ``accidental_offset`` is the gate separation used for the accidental
    (side-peak) coincidence window.  ``thermal_modes`` matters only for
    thermal pairs (``pair_modes``); its default of 24 is the wg presets'
    120 GHz pair bandwidth times their 200 ps pulse length.  These checks
    are the only ones of the CLI's counting options: each error message
    starts with the name of its field, or with ``thermal modes``.
    """

    n_pulses: int
    seed: int = 0
    accidental_offset: int = 1
    dead_time_enabled: bool = True
    pair_statistics: str = "poisson"
    thermal_modes: int = 24

    def __post_init__(self) -> None:
        for name in ("n_pulses", "seed", "accidental_offset"):
            value = getattr(self, name)  # a float would reach numpy as a size or a seed, and True counts as 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int")
        if not 1 <= self.n_pulses <= MAX_PULSES:
            raise ValueError("n_pulses must be in [1, 2**62]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.accidental_offset < 1:
            raise ValueError("accidental_offset must be >= 1")
        if self.pair_statistics not in PAIR_STATISTICS:
            raise ValueError(f"pair_statistics must be one of {PAIR_STATISTICS}")
        cm.no_pair_excess(0.0, self.thermal_modes)  # raises ValueError for a mode number the law cannot take

    @property
    def pair_modes(self) -> int | None:
        """The pair law as ``chainmodel.no_pair_excess`` and ``predict`` take it: None for Poisson pairs."""
        return self.thermal_modes if self.pair_statistics == "thermal" else None


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


def _bernoulli_positions(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """Sorted indices of the successes among n independent Bernoulli(p) trials.

    Drawn as geometric gaps between successes, so the work is proportional
    to the number of successes, not to n.  A gap is 1 + floor(E * scale)
    with E standard exponential and scale = -1 / log(1 - p): it exceeds k
    with probability exp(-k / scale) = (1 - p)**k, the geometric law, for
    one exponential draw and one product per gap at any p.  The gaps are
    floored and summed in place in the float64 buffer of the exponentials,
    exactly, since every kept sum is an integer below n <= 2**53.  Only the
    kept positions are cast: to int32 when n < 2**31, otherwise to int64.
    """
    dtype = np.int32 if n < 2**31 else np.int64
    # at p up to 1e-300, where E * scale may overflow, none is drawn: 2**63
    # trials would see a success with a chance under 1e-281
    if p <= 1e-300 or n <= 0:
        return np.empty(0, dtype=dtype)
    scale = -1.0 / math.log1p(-p) if p < 1.0 else 0.0
    mean = n * p
    chunk = int(mean + 6.0 * math.sqrt(mean) + 16.0)
    parts, last = [], -1
    while last < n:
        # a gap past n + 1 lands beyond the block from any start, so clipping
        # it changes nothing kept and keeps every kept sum exact
        positions = rng.standard_exponential(chunk)
        positions *= scale
        np.minimum(positions, n, out=positions)
        np.floor(positions, out=positions)
        positions += 1
        np.cumsum(positions, out=positions)
        positions += last
        parts.append(positions)
        last = int(positions[-1])
    positions = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return positions[: positions.searchsorted(n)].astype(dtype)


def _apply_dead_time(fires: np.ndarray, dead_gates: int) -> np.ndarray:
    """Suppress fires landing in the dead window after an accepted click.

    ``fires`` are the sorted gate indices where a detector fires.  Returns the
    accepted clicks; a click at gate g deactivates gates g+1 .. g+dead_gates.

    At one dead gate the pass has a closed form.  Fires sit at distinct
    gates, so a click's window holds at most one fire, the one at the very
    next gate.  The fires therefore split into runs at consecutive gates.  A
    fire more than one gate after the fire before it starts a run and is
    always accepted, since any earlier click's window has closed; within a
    run each accepted fire kills the next and the one after is free again,
    so the run keeps its 1st, 3rd, 5th, ... fire.  Longer dead times go
    through pointer doubling.
    """
    if dead_gates <= 0:
        return fires
    if dead_gates == 1:
        # head: the index of the first fire of each fire's run; the accepted
        # fires lie an even number of fires past it, and index ^ head has the
        # parity of index - head.  A block holds fewer than 2**31 gates.
        head = np.arange(fires.size, dtype=np.int32)
        head[1:] *= np.diff(fires) > 1
        np.maximum.accumulate(head, out=head)
        head ^= np.arange(fires.size, dtype=np.int32)
        head &= 1
        return fires.compress(head == 0)
    k = fires.size
    # jump[i] is the first fire past the dead window of fire i (sentinel k maps
    # to itself).  The accepted fires are the path 0, jump[0], jump[jump[0]], ...:
    # once path holds its first 2**L nodes and jump leaps 2**L, jump[path] holds
    # the next 2**L.  Window ends are int64: a dead time may pass int32.
    jump = np.concatenate((np.searchsorted(fires, np.add(fires, dead_gates + 1, dtype=np.int64)), [k]))
    path = np.zeros(1, dtype=np.intp)
    while path[-1] < k:
        path = np.concatenate((path, jump[path]))
        jump = jump[jump]
    return fires[path[path < k]]


def _dead_time_bits(fires: int, dead_gates: int, size: int) -> int:
    """``_apply_dead_time`` of at most one dead gate on a bitset of a block of ``size`` gates, bit g = gate g.

    The closed form of the module notes: ``even_runs`` holds the runs that start at an even gate."""
    if not dead_gates:
        return fires
    even = _even_gates(size)
    starts = fires ^ (fires & (fires << 1))
    even_runs = fires ^ (fires & (fires + (starts & even)))
    return fires ^ (fires & (even_runs ^ even))


def _dead_gates(clicks: int, dead_until: int, n: int, dead_gates: int) -> int:
    """Gates of [0, n) left dead by ``clicks`` accepted clicks; the last dead gate is dead_until.

    Accepted clicks lie more than dead_gates apart, so each kills its next
    dead_gates gates, and only the last one's window, up to dead_until (-1
    without clicks), can reach past n.
    """
    return dead_gates * clicks - max(dead_until + 1 - n, 0)


def _matches(a: np.ndarray, b: np.ndarray) -> int:
    """Number of values two sorted arrays of unique gates share.

    Where the gates are dense, at least one per 8 gates they span, a flag
    per gate marks those of ``a`` and is read at those of ``b``, in no more
    memory than the merge takes.  Otherwise one stable sort of the two runs
    merges them; every value held twice is then a pair of equal neighbours.
    """
    if not (a.size and b.size):
        return 0
    low = min(a[0], b[0])
    span = max(a[-1], b[-1]) + 1 - low
    if span <= 8 * (a.size + b.size):
        seen = np.zeros(span, dtype=bool)
        seen[np.subtract(a, low, dtype=np.intp)] = True  # numpy indexes by int32 some 4x slower than by intp
        return int(np.count_nonzero(seen[np.subtract(b, low, dtype=np.intp)]))
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    return int(np.count_nonzero(merged[1:] == merged[:-1]))


def _gate_fires(
    rng: np.random.Generator, quiet: tuple[float, float, float], size: int, bits: bool = False
) -> tuple[np.ndarray, np.ndarray] | tuple[int, int]:
    """Sorted, unique gates of a block where the signal and the idler detector fire.

    ``quiet`` holds the exponents -log P that a gate fires neither detector,
    not the signal and not the idler.  A gate fires some detector with
    probability p = 1 - exp(-quiet[0]), and the idler alone with
    a = P(signal quiet) - P(neither fires).  From p = ``_PER_GATE_FROM`` on,
    one 32-bit uniform u per gate decides both arms at the thresholds
    T(x) = round(x * 2**32): the idler fires where u < T(P(idler fires)), and
    the signal where T(a) <= u < T(p), since p is a plus P(signal fires).
    Below it, the firing gates are drawn as geometric gaps and one uniform
    per firing gate picks the signal alone, with probability
    (P(idler quiet) - P(neither fires)) / p, the idler alone, with a / p, or
    both.  Gates are int32 below 2**31 gates and int64 from there; with
    ``bits``, which only a per-gate block takes, each arm is one int, bit g
    set where gate g fires.
    """
    l_none, l_signal, l_idler = quiet
    p = -math.expm1(-l_none)
    # P(x quiet) - P(neither) as -exp(-L(x)) * expm1(L(x) - L(none)): the
    # exponent is never positive, so no term overflows however likely a fire
    idler_alone = -math.exp(-l_signal) * math.expm1(l_signal - l_none)
    if p >= _PER_GATE_FROM:
        # two gates per 64-bit word, low half first (the view assumes a
        # little-endian host); numpy compares a uint32 with 2**32 exactly
        u = rng.bit_generator.random_raw((size + 1) // 2).view(np.uint32)[:size]
        alone, fire, idler = (round(x * 2**32) for x in (idler_alone, p, -math.expm1(-l_idler)))
        signal = u >= alone
        signal &= u < fire
        arms = signal, u < idler
        if bits:
            return tuple(int.from_bytes(np.packbits(arm, bitorder="little"), "little") for arm in arms)
        dtype = np.int32 if size < 2**31 else np.int64
        return tuple(np.flatnonzero(arm).astype(dtype) for arm in arms)
    fired = _bernoulli_positions(rng, p, size)
    if not fired.size:
        return fired, fired
    signal_alone = -math.exp(-l_idler) * math.expm1(l_idler - l_none) / p
    idler_alone /= p
    u = rng.random(fired.size)
    idler = u >= signal_alone
    # the signal fires unless the idler fires alone
    signal = u < signal_alone + idler_alone
    signal &= idler
    np.logical_not(signal, out=signal)
    return fired.compress(signal), fired.compress(idler)


def _block_sampler(chain: ExperimentChain, rec: cm.ChainEvaluation, trial: TrialConfig):
    """The worker of one block ``(seed, block_index, size)``, read from the record and detectors alone.

    Returns the gates per block, each arm's dead gates, the accidental offset,
    the worker, which returns the block's size, each arm's sorted fires
    and its clicks filtered as if the block started live, and whether those
    are bitsets for ``_join_bits``, as the module notes say.  An offset of n_pulses
    or more opens no window, and as many dead gates leave all gates after a
    click dead, so both are cut to n_pulses, which keeps every shifted gate
    inside int64.  A gate is quiet by the module notes' law, with the pair
    law's excess from ``chainmodel.pair_law_excess``.  Warns when a pulse
    holds more than one pair or unpaired photon on average.
    """
    detectors = (chain.detector_signal, chain.detector_idler)
    dark_s, dark_i = (-math.log1p(-detector.dark_prob_per_gate) for detector in detectors)
    ex_s, ex_i, ex_si = cm.pair_law_excess(rec, trial.pair_modes)
    quiet = (
        rec.detected_signal + rec.detected_idler - rec.detected_pairs + ex_si + dark_s + dark_i,
        rec.detected_signal + ex_s + dark_s,
        rec.detected_idler + ex_i + dark_i,
    )
    dead_gates = tuple(min(d.dead_gates, trial.n_pulses) if trial.dead_time_enabled else 0 for d in detectors)
    off = min(trial.accidental_offset, trial.n_pulses)
    unpaired = max(rec.detected_signal - rec.pair_law_signal, rec.detected_idler - rec.pair_law_idler)
    mu_check = rec.mu_pair + unpaired
    if mu_check > 1.0:
        warnings.warn(
            f"per-pulse mean {mu_check:.3g} exceeds 1; multi-photon pile-up will be "
            "heavy and the analytic model unreliable",
            RuntimeWarning,
            stacklevel=4,
        )

    p_fire = -math.expm1(-quiet[0])
    gates = int(min(max(_FIRES_PER_BLOCK / p_fire, _MIN_BLOCK), _BLOCK_SIZE)) if p_fire > 0.0 else _BLOCK_SIZE
    bits = p_fire >= _PER_GATE_FROM and max(dead_gates) <= 1 and off <= gates

    def draw(block: tuple[int, int, int]):
        seed, block_index, size = block
        # SFC64 steps a 64-bit counter from the same start in every stream, and
        # its step is invertible: distinct keys do not meet within 2**64 draws
        rng = np.random.Generator(_BIT_GENERATOR(np.random.SeedSequence([int(seed), block_index])))
        fires = _gate_fires(rng, quiet, size, bits)
        if bits:
            return size, fires, tuple(map(_dead_time_bits, fires, dead_gates, (size, size)))
        return size, fires, tuple(map(_apply_dead_time, fires, dead_gates))

    return gates, dead_gates, off, draw, bits


def _first_at(gates: np.ndarray, gate: int) -> int:
    """Index of the first of a block's sorted gates at or past ``gate``.

    Searched in the gates' own dtype: for a Python int, numpy would first
    copy an int32 array to int64.  Block gates are never negative."""
    if not gates.size or gate > gates[-1]:
        return gates.size
    return int(gates.searchsorted(gates.dtype.type(gate))) if gate > 0 else 0


def _join(blocks, dead_gates: tuple[int, int], off: int, n: int) -> tuple[np.ndarray, list[int]]:
    """Singles, coincidences, accidentals and each arm's last dead gate of a run of n gates in blocks.

    Where a dead window carries into a block, its fires go and the pass reruns up
    to the next fire more than D gates after the one before, which every pass
    accepts: the worker's clicks, taken from a live start, hold from it on."""
    totals = np.zeros(4, dtype=np.int64)
    dead_until = [-1, -1]  # the last dead gate of each arm, counted from the run start
    pending: deque[np.ndarray] = deque()  # sorted int64 run gates of signal clicks whose windows open later
    start = 0
    for size, fires, worker_clicks in blocks:
        clicks = []
        for arm, (arm_fires, arm_clicks, dead) in enumerate(zip(fires, worker_clicks, dead_gates)):
            drop = _first_at(arm_fires, dead_until[arm] - start + 1)  # the fires in the carried window
            if drop:
                # the rerun ends at the first fire more than D gates after the one
                # before, or at the block's end; no gap in a block reaches its size
                free = np.diff(arm_fires[drop - 1 :]) > min(dead, size)
                stop = drop + int(free.argmax()) if free.any() else arm_fires.size
                kept = arm_clicks[arm_clicks.searchsorted(arm_fires[stop - 1], "right") :]
                arm_clicks = np.concatenate((_apply_dead_time(arm_fires[drop:stop], dead), kept))
            if arm_clicks.size:
                dead_until[arm] = start + int(arm_clicks[-1]) + dead
            totals[arm] += arm_clicks.size
            clicks.append(arm_clicks)
        signal, idler = clicks
        totals[2] += _matches(signal, idler)
        # a signal click at g opens the window of the idler click at g + off;
        # due holds the windows that open in this block, in int64 block gates
        due = []
        while pending and pending[0][0] < start + size - off:
            chunk = pending.popleft()
            split = chunk.searchsorted(start + size - off)
            due.append(chunk[:split] + (off - start))
            if split < chunk.size:
                pending.appendleft(chunk[split:])
        split = _first_at(signal, size - off)
        due.append(np.add(signal[:split], off, dtype=np.int64))
        later = signal[split : _first_at(signal, n - off - start)]
        if later.size:
            pending.append(np.add(later, start, dtype=np.int64))
        totals[3] += _matches(np.concatenate(due), idler)
        start += size
    return totals, dead_until


def _join_bits(blocks, dead_gates: tuple[int, int], off: int, n: int) -> tuple[list[int], list[int]]:
    """``_join`` of bitset blocks, each arm with at most one dead gate, at an offset of at most a block.

    Bit j of ``window`` is the block's gate j where an idler click would
    close the window of a signal click ``off`` gates before; past a block it
    holds at most ``off`` bits, and none past the run's end is read."""
    totals, dead_until, window, start = [0, 0, 0, 0], [-1, -1], 0, 0
    for size, fires, worker_clicks in blocks:
        clicks = []
        for arm, (arm_fires, arm_clicks, dead) in enumerate(zip(fires, worker_clicks, dead_gates)):
            if dead_until[arm] >= start and arm_fires & 1:
                # the run of fires from gate 0 keeps its 2nd, 4th, ... fire, not its 1st, 3rd, ...
                arm_clicks ^= (arm_fires ^ (arm_fires + 1)) >> 1
            if arm_clicks:
                dead_until[arm] = start + arm_clicks.bit_length() - 1 + dead
            totals[arm] += arm_clicks.bit_count()
            clicks.append(arm_clicks)
        signal, idler = clicks
        window |= signal << off
        totals[2] += (signal & idler).bit_count()
        totals[3] += (window & idler).bit_count()
        window >>= size
        start += size
    return totals, dead_until


def _ahead(pool: ThreadPoolExecutor, fn, items, depth: int):
    """fn over an iterator of items on the pool, in order, with at most ``depth`` calls submitted and not yet taken."""
    futures = deque(pool.submit(fn, item) for item in islice(items, depth))
    while futures:
        yield futures.popleft().result()
        futures.extend(pool.submit(fn, item) for item in islice(items, 1))


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
    return _simulate(chain, pump, trial, trial.seed, threads)


def _simulate(chain: ExperimentChain, pump: PumpConfig, trial: TrialConfig, seed: int, threads: int) -> CountSummary:
    """``simulate`` with the blocks seeded from ``seed`` in place of ``trial.seed``, which a sweep point takes."""
    block_gates, dead_gates, off, draw, bits = _block_sampler(chain, cm.evaluate(chain, pump), trial)
    join = _join_bits if bits else _join
    n = trial.n_pulses
    count = -(-n // block_gates)
    blocks = ((seed, bi, min(block_gates, n - bi * block_gates)) for bi in range(count))

    # more workers than blocks or cores would idle; the blocks never depend on the worker count
    workers = min(threads, count, os.cpu_count() or 1) if threads > 1 else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals, dead_until = join(_ahead(pool, draw, blocks, 2 * workers), dead_gates, off, n)
    else:
        totals, dead_until = join(map(draw, blocks), dead_gates, off, n)
    active = [n - _dead_gates(int(totals[arm]), dead_until[arm], n, dead_gates[arm]) for arm in (0, 1)]
    return CountSummary(
        n_pulses=n,
        gate_rate_hz=pump.rep_rate_hz,
        singles_signal=int(totals[0]),
        singles_idler=int(totals[1]),
        coincidences=int(totals[2]),
        accidentals=int(totals[3]),
        active_gates_signal=active[0],
        active_gates_idler=active[1],
        accidental_pairs=max(n - trial.accidental_offset, 0),
    )


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
        out.append((value, _simulate(chain_v, pump_v, trial, derive_seed(trial.seed, index), threads)))
    return out
