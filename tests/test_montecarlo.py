import dataclasses
import math
import tracemalloc
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from fractions import Fraction
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm, poisson

from pairsim import awg
from pairsim import chainmodel as cm
from pairsim import config as cfg
from pairsim import montecarlo as mc
from pairsim import presets
from pairsim.records import field_names, replace
from conftest import make_rate_chain


def z_score(observed: float, expected: float, variance: float) -> float:
    return (observed - expected) / math.sqrt(max(variance, 1e-300))


def poisson_z(observed: int, mean: float) -> float:
    """Signed normal quantile of the exact Poisson tail beyond ``observed``.

    For rare-event counts (tens to thousands) the normal approximation
    understates the tails; this keeps a 4.5 sigma bound at its two-sided
    false-alarm rate of 6.8e-6.
    """
    if observed >= mean:
        return float(norm.isf(poisson.sf(observed - 1, mean)))
    return float(-norm.isf(poisson.cdf(observed, mean)))


def renewal_sigma(n: int, p_click: float, duty: float) -> float:
    """Standard deviation of one arm's click count in n gates.

    Under a dead time the clicks are a renewal process: each interval is the
    dead gates plus a geometric wait with click probability q = p_click / duty
    per active gate, which gives the variance n * p_click * (1 - q) * duty**2;
    without dead time that is the binomial n * p * (1 - p).
    """
    q = p_click / duty
    return math.sqrt(n * p_click * (1.0 - q)) * duty


def without_dead_time(chain: cm.ExperimentChain) -> cm.ExperimentChain:
    return replace(
        chain,
        detector_signal=replace(chain.detector_signal, dead_gates=0),
        detector_idler=replace(chain.detector_idler, dead_gates=0),
    )


def pgf_gate_probabilities(chain, pump, modes: int | None = None) -> tuple[float, float, float, float]:
    """(signal, idler, coincidence, accidental) probabilities per gate without dead time.

    Written from the pair-number generating function alone, not from the
    sampler: thermal pairs of m modes have G(z) = (1 + mu (1 - z) / m)**-m,
    and ``modes=None`` is the Poisson limit exp(-mu (1 - z)).  Each pair
    independently reaches the signal detector with probability a_s, the
    idler with a_i, and both with a_si, so no signal photon arrives with
    probability G(1 - a_s) and none at all with G(1 - a_s - a_i + a_si).  On
    an AWG chain the pairs are spread flat over the generation band and the
    a's are channel-shape overlaps over it (``awg.passband_overlap``).
    Noise photons, and on filter chains the pair photons collected beyond
    the pair bandwidth, are Poisson; dark counts are Bernoulli.
    """
    rec = cm.evaluate(chain, pump)
    det_s, det_i = chain.detector_signal, chain.detector_idler
    eta_s = rec.eta_signal * det_s.quantum_efficiency
    eta_i = rec.eta_idler * det_i.quantum_efficiency
    other_s, other_i = rec.noise_signal, rec.noise_idler
    if isinstance(chain.demux, cm.AwgDemux):
        d, nu_p = chain.demux, pump.frequency_hz
        spec = d.spec
        band = d.generation_band_hz or spec.default_generation_band_hz
        mean = rec.pair_density_per_hz * band

        gaussian = spec.passband_shape == "gaussian"

        def passband(detuning):
            return (detuning, spec.passband_3db_hz / 2, gaussian, spec.crosstalk_floor)

        signal = passband(awg.channel_center(spec, d.signal_channel) - nu_p)
        idler = passband(nu_p - awg.channel_center(spec, d.idler_channel))  # mirrored
        flat = (0.0, band / 2, False, 0.0)
        a_s = eta_s * awg.passband_overlap(signal, flat, -math.inf, math.inf) / band
        a_i = eta_i * awg.passband_overlap(idler, flat, -math.inf, math.inf) / band
        a_si = eta_s * eta_i * awg.passband_overlap(signal, idler, -band / 2, band / 2) / band
    else:
        mean = rec.mu_pair
        a_s, a_i, a_si = eta_s, eta_i, eta_s * eta_i
        density, pair_bw = rec.pair_density_per_hz, rec.pair_bandwidth_hz
        other_s += density * max(rec.single_bandwidth_signal_hz - pair_bw, 0.0)
        other_i += density * max(rec.single_bandwidth_idler_hz - pair_bw, 0.0)

    def g_one_minus(x):  # G(1 - x)
        if modes is None:
            return math.exp(-mean * x)
        return math.exp(-modes * math.log1p(mean * x / modes))

    quiet_s = (1 - det_s.dark_prob_per_gate) * math.exp(-other_s * eta_s)
    quiet_i = (1 - det_i.dark_prob_per_gate) * math.exp(-other_i * eta_i)
    q_s = quiet_s * g_one_minus(a_s)
    q_i = quiet_i * g_one_minus(a_i)
    q_si = quiet_s * quiet_i * g_one_minus(a_s + a_i - a_si)
    p_s, p_i = 1 - q_s, 1 - q_i
    return p_s, p_i, 1 - q_s - q_i + q_si, p_s * p_i


def predicted_probabilities(chain, pump, modes: int | None = None) -> tuple[float, float, float, float]:
    """(signal, idler, coincidence, accidental) per gate from ``predict`` with dead time off."""
    pred = cm.predict(without_dead_time(chain), pump, thermal_modes=modes)
    return pred.p_click_signal, pred.p_click_idler, pred.p_coincidence, pred.p_accidental


def count_zscores(s: mc.CountSummary, p: tuple[float, float, float, float]) -> dict[str, float]:
    """z of every count of a run without dead time against per-gate probabilities."""
    n = s.n_pulses
    return {
        "singles_signal": poisson_z(s.singles_signal, n * p[0]),
        "singles_idler": poisson_z(s.singles_idler, n * p[1]),
        "coincidences": poisson_z(s.coincidences, n * p[2]),
        "accidentals": poisson_z(s.accidentals, s.accidental_pairs * p[3]),
    }


class TestTrivialAndDeterminism:
    def test_all_zero(self):
        chain, pump = make_rate_chain(0.0)
        s = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=200_000, seed=1))
        assert (s.singles_signal, s.singles_idler, s.coincidences, s.accidentals) == (0, 0, 0, 0)
        assert s.car is None

    def test_identical_runs(self):
        chain, pump = make_rate_chain(5e-3, 0.3, 0.3, dark_rate_hz=2e3, dead_time_us=10.0)
        trial = mc.TrialConfig(n_pulses=2_500_000, seed=99)
        assert mc.simulate(chain, pump, trial) == mc.simulate(chain, pump, trial)

    def test_thread_count_irrelevant(self):
        chain, pump = make_rate_chain(5e-3, 0.3, 0.3, dark_rate_hz=2e3, dead_time_us=10.0)
        trial = mc.TrialConfig(n_pulses=3_200_000, seed=7)
        assert mc.simulate(chain, pump, trial, threads=1) == mc.simulate(
            chain, pump, trial, threads=4
        )

    @staticmethod
    def _record_pools(monkeypatch, cpus):
        # a serial stand-in for the pool records the worker count; no thread starts
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(mc, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
        return pools

    @pytest.mark.parametrize(
        "cpus, threads, workers",
        [(64, 100_000, 5), (2, 100_000, 2), (None, 100_000, 1), (64, 3, 3), (64, 1, 1)],
    )
    def test_pool_is_capped_at_blocks_and_cores(self, monkeypatch, cpus, threads, workers):
        pools = self._record_pools(monkeypatch, cpus)
        # 2.6e-3 fires per gate: a target of one fire per block leaves the
        # smallest block, 1000 gates
        monkeypatch.setattr(mc, "_FIRES_PER_BLOCK", 1)
        monkeypatch.setattr(mc, "_MIN_BLOCK", 1000)
        chain, pump = make_rate_chain(5e-3, 0.3, 0.3, dark_rate_hz=2e3, dead_time_us=0.05)
        trial = mc.TrialConfig(n_pulses=4_500, seed=7)  # five blocks, the last one short
        serial = mc.simulate(chain, pump, trial)
        assert pools == []
        assert mc.simulate(chain, pump, trial, threads=threads) == serial
        assert pools == ([workers] if workers > 1 else [])

    def test_one_block_starts_no_pool(self, monkeypatch, wg_i):
        # 2M wg-i pulses hold about 5,700 fires, a tenth of a block: one block,
        # whatever the threads
        pools = self._record_pools(monkeypatch, 64)
        trial = mc.TrialConfig(n_pulses=2_000_000, seed=7)
        assert mc.simulate(*wg_i, trial, threads=2) == mc.simulate(*wg_i, trial)
        assert pools == []

    def test_draws_run_at_most_two_per_worker_ahead_of_the_join(self, monkeypatch):
        # 2,000 gates in blocks of a few gates: however many blocks the run
        # holds, the pool holds at most 2 per worker submitted and not joined
        monkeypatch.setattr(mc, "_FIRES_PER_BLOCK", 2.0)
        monkeypatch.setattr(mc, "_MIN_BLOCK", 1)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        submitted, ahead = [], []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args)
                return super().submit(fn, *args)

        def counting(join):
            def counting_join(blocks, *args):
                def taken():
                    for count, block in enumerate(blocks, 1):
                        ahead.append(len(submitted) - count)
                        yield block

                return join(taken(), *args)

            return counting_join

        # 0.35 fires per gate at one dead gate: the blocks are bitsets
        chain, pump = make_rate_chain(0.5, 0.5, 0.5, dead_time_us=0.01)
        trial = mc.TrialConfig(n_pulses=2_000, seed=3)
        serial = mc.simulate(chain, pump, trial)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", CountingPool)
        for join in ("_join", "_join_bits"):
            monkeypatch.setattr(mc, join, counting(getattr(mc, join)))
        assert mc.simulate(chain, pump, trial, threads=2) == serial
        assert len(submitted) > 300 and max(ahead) <= 4

    def test_blocks_are_listed_as_the_join_takes_them(self, monkeypatch):
        # 200,000 blocks of one gate each, of which the join takes three:
        # listing every block before the first draw holds some 18 MB
        monkeypatch.setattr(mc, "_FIRES_PER_BLOCK", 1e-9)
        monkeypatch.setattr(mc, "_MIN_BLOCK", 1)
        monkeypatch.setattr(mc, "_join", lambda blocks, *args, join=mc._join: join(islice(blocks, 3), *args))
        chain, pump = make_rate_chain(5e-3, 0.3, 0.3)
        tracemalloc.start()
        try:
            mc.simulate(chain, pump, mc.TrialConfig(n_pulses=200_000, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21

    @pytest.mark.parametrize(
        "field, value",
        [("n_pulses", 0), ("n_pulses", 2**62 + 1), ("seed", -1), ("accidental_offset", 0), ("pair_statistics", "bose")],
    )
    def test_trial_names_the_value_it_cannot_take(self, field, value):
        # a run of 2**62 gates keeps every fire plus a dead window or an
        # offset, both cut to the run, inside int64; a seed is no entropy
        # below 0; an offset of 0 would pair each gate with itself
        assert mc.TrialConfig(n_pulses=2**62, seed=0).n_pulses == 2**62
        with pytest.raises(ValueError, match=field):
            mc.TrialConfig(**{"n_pulses": 1_000, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_pulses", 1e5),
            ("n_pulses", True),
            ("seed", 1.5),
            ("seed", True),
            ("accidental_offset", 1.5),
            ("accidental_offset", np.float64(2.0)),
            ("accidental_offset", True),
        ],
    )
    def test_trial_takes_only_integers(self, field, value):
        # a float size fails in numpy, a float offset fails mixed with int
        # gates, a float seed runs the stream of its integer part and True
        # runs as 1: each is refused where the trial is made, by name
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            mc.TrialConfig(**{"n_pulses": 1_000, field: value})

    def test_trial_takes_numpy_integers(self):
        trial = mc.TrialConfig(n_pulses=np.int64(1_000), seed=np.uint32(3), accidental_offset=np.int32(2))
        chain, pump = make_rate_chain(5e-3, 0.5, 0.5)
        assert mc.simulate(chain, pump, trial) == mc.simulate(chain, pump, mc.TrialConfig(1_000, 3, 2))

    def test_spectral_path_deterministic(self, awg_chain):
        chain, pump = awg_chain
        trial = mc.TrialConfig(n_pulses=1_500_000, seed=11)
        assert mc.simulate(chain, pump, trial, threads=1) == mc.simulate(
            chain, pump, trial, threads=3
        )

    def test_seed_changes_counts(self):
        chain, pump = make_rate_chain(5e-3, 0.3, 0.3)
        a = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=500_000, seed=1))
        b = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=500_000, seed=2))
        assert a != b

    def test_mean_above_one_warns(self):
        chain, pump = make_rate_chain(1.4)
        with pytest.warns(RuntimeWarning, match="exceeds 1"):
            mc.simulate(chain, pump, mc.TrialConfig(n_pulses=1000, seed=0))


class TestAgainstPoissonOracle:
    def test_unit_efficiency_coincidences(self):
        # eta = 1, no noise, no dark, no dead time: a pulse gives a
        # coincidence exactly when at least one pair was created.  40M pulses
        # hold about 40,000 coincidences and 40 accidentals; at |z| < 4.5 on
        # the exact Poisson tail a rate 2.9% (coincidences) or 108%
        # (accidentals) off is caught with 90% power.
        mu = 1e-3
        n = 40_000_000
        chain, pump = make_rate_chain(mu, 1.0, 1.0)
        s = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=n, seed=5, dead_time_enabled=False))
        p_exact = -math.expm1(-mu)
        assert abs(poisson_z(s.coincidences, n * p_exact)) < 4.5
        assert s.coincidences == s.singles_signal == s.singles_idler
        # offset-gate accidentals need two independent pulses to fire
        p_acc = p_exact**2
        assert abs(poisson_z(s.accidentals, s.accidental_pairs * p_acc)) < 4.5
        assert s.accidentals / s.accidental_pairs == pytest.approx(1e-6, rel=1.0)

    @pytest.mark.parametrize(
        "mu,eta,dark",
        [
            (1e-2, 0.2, 0.0),
            (1e-1, 0.8, 0.0),
            (1e-3, 0.05, 2.1e3),
        ],
    )
    def test_counts_match_gate_statistics(self, mu, eta, dark):
        # 40M pulses, every count at |z| < 4.5 on the exact Poisson tail: a
        # rate 0.3% to 11% off is caught with 90% power in the singles, 0.4%
        # to 65% in the coincidences and 1.2% to 50% in the accidentals (the
        # dark-count point expects 0.2 of them, where only a rate 40 times too
        # high shows).
        chain, pump = make_rate_chain(mu, eta, eta, dark_rate_hz=dark)
        stats = cm.expected_gate_statistics(chain, pump)
        s = mc.simulate(
            chain, pump, mc.TrialConfig(n_pulses=40_000_000, seed=13, dead_time_enabled=False)
        )
        p = (stats.p_click_signal, stats.p_click_idler, stats.p_coincidence, stats.p_accidental)
        z = count_zscores(s, p)
        assert max(abs(v) for v in z.values()) < 4.5, z

    def test_thinning_consistency(self):
        # halving both channel efficiencies quarters coincidences and halves
        # singles.  8M pulses give about 32k and 16k singles and 12.8k and
        # 3.2k coincidences, so the ratios have sds of 0.019 and 0.079: at
        # |z| < 4.5 a singles ratio 0.11 off 2 or a coincidence ratio 0.46 off
        # 4 is caught with 90% power.  Threshold saturation puts the exact
        # ratios at 1.998 and 3.987, 0.1 and 0.2 sd from 2 and 4.
        mu, n = 1e-2, 8_000_000
        chain_hi, pump = make_rate_chain(mu, 0.4, 0.4)
        chain_lo, _ = make_rate_chain(mu, 0.2, 0.2)
        hi = mc.simulate(chain_hi, pump, mc.TrialConfig(n_pulses=n, seed=21))
        lo = mc.simulate(chain_lo, pump, mc.TrialConfig(n_pulses=n, seed=22))
        ratio_singles = hi.singles_signal / lo.singles_signal
        sigma_singles = ratio_singles * math.sqrt(1 / hi.singles_signal + 1 / lo.singles_signal)
        assert abs(ratio_singles - 2.0) < 4.5 * sigma_singles
        ratio_coinc = hi.coincidences / lo.coincidences
        sigma_coinc = ratio_coinc * math.sqrt(1 / hi.coincidences + 1 / lo.coincidences)
        assert abs(ratio_coinc - 4.0) < 4.5 * sigma_coinc


def reference_dead_time(fire: np.ndarray, dead_gates: int) -> tuple[np.ndarray, int]:
    """Gate-by-gate dead-time filter: a click at gate g leaves g+1 .. g+dead_gates dead."""
    clicks = np.zeros(fire.size, dtype=bool)
    active = 0
    last_dead = -1
    for g, fired in enumerate(fire):
        if g <= last_dead:
            continue
        active += 1
        if fired:
            clicks[g] = True
            last_dead = g + dead_gates
    return clicks, active


@st.composite
def fires_and_dead_time(draw):
    n = draw(st.integers(1, 3000))
    density = draw(st.floats(0.0, 1.0))
    fire = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n) < density
    # short dead times, one gate above all, come up as often as long ones
    return fire, draw(st.one_of(st.integers(0, 3), st.integers(0, n + 5)))


_LAST_ONLY = np.zeros(1000, dtype=bool)
_LAST_ONLY[-1] = True
# runs of 1 to 6 fires at consecutive gates, one quiet gate apart, then a
# fire at the last gate
_RUNS = np.array([c == "1" for c in "10110111011110111110111111001"])


class TestDeadTime:
    @settings(max_examples=200, deadline=None)
    @given(case=fires_and_dead_time())
    @example(case=(np.zeros(1000, dtype=bool), 3))
    @example(case=(np.ones(1000, dtype=bool), 3))
    @example(case=(_LAST_ONLY, 3))
    @example(case=(np.random.default_rng(0).random(1000) < 0.3, 0))
    @example(case=(np.ones(1000, dtype=bool), 1))
    @example(case=(np.ones(999, dtype=bool), 1))
    @example(case=(_RUNS, 1))
    @example(case=(_LAST_ONLY, 1))
    def test_filter_matches_per_gate_reference(self, case):
        fire, dead_gates = case
        fires = np.flatnonzero(fire)
        (clicks,) = mc._apply_dead_time((fires,), (dead_gates,))
        dead_until = int(clicks[-1]) + dead_gates if clicks.size else -1
        active = fire.size - mc._dead_gates(clicks.size, dead_until, fire.size, dead_gates)
        ref_clicks, ref_active = reference_dead_time(fire, dead_gates)
        assert np.array_equal(clicks, np.flatnonzero(ref_clicks))
        assert active == ref_active
        # every click but the last leaves exactly dead_gates dead gates; the
        # last one may be cut short by the end of the block
        n, n_clicks = fire.size, clicks.size
        assert n - dead_gates * n_clicks <= active <= n - dead_gates * n_clicks + dead_gates
        if dead_gates == 0:
            assert np.array_equal(clicks, fires) and active == n

    def test_monotonicity(self):
        chain, pump = make_rate_chain(2e-2, 0.5, 0.5, dark_rate_hz=5e3, dead_time_us=10.0)
        trial_on = mc.TrialConfig(n_pulses=1_000_000, seed=31, dead_time_enabled=True)
        trial_off = dataclasses.replace(trial_on, dead_time_enabled=False)
        on = mc.simulate(chain, pump, trial_on)
        off = mc.simulate(chain, pump, trial_off)
        assert on.singles_signal <= off.singles_signal
        assert on.singles_idler <= off.singles_idler
        assert on.coincidences <= off.coincidences
        assert on.accidentals <= off.accidentals

    def test_duty_exactly_one_when_disabled(self):
        chain, pump = make_rate_chain(1e-2, 0.3, 0.3, dead_time_us=10.0)
        s = mc.simulate(
            chain, pump, mc.TrialConfig(n_pulses=300_000, seed=41, dead_time_enabled=False)
        )
        assert mc.measured_gate_duty(s) == (1.0, 1.0)

    def test_duty_matches_renewal_fixed_point(self):
        # per-active-gate click probability 0.01 with 1000 dead gates per click
        p, dead_gates, n = 0.01, 1000, 48_000_000
        chain, pump = make_rate_chain(0.0, dark_rate_hz=1e6, dead_time_us=10.0)
        s = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=n, seed=51), threads=2)
        assert chain.detector_signal.dead_gates == dead_gates
        expected = cm.gate_duty(p, chain.detector_signal)
        # Each renewal cycle is a geometric run of active gates (mean 1/p,
        # variance (1 - p) / p**2) ending in a click, then D dead gates, so a
        # cycle lasts L = 1/p + D gates and n gates hold n / L cycles.  The
        # measured duty is a ratio estimator; the delta method gives its sd
        #   sigma = (1 - d) * sqrt(1 - p) / p / (sqrt(n / L) * L),
        # which is 2.1% of d at 2M gates but 0.43% at 48M, so the 4.5 sigma
        # bound below stays inside 2% relative.
        cycle = 1.0 / p + dead_gates
        sigma = (1.0 - expected) * math.sqrt(1.0 - p) / p / (math.sqrt(n / cycle) * cycle)
        assert 4.5 * sigma / expected <= 0.02
        for measured in mc.measured_gate_duty(s):
            assert abs(z_score(measured, expected, sigma**2)) < 4.5

    def test_duty_dark_only_reference(self):
        # 2.1e-5 per gate with 1000 dead gates: duty 1/(1 + 0.021).  5M gates
        # hold about 103 renewal cycles, so the duty has the sd 0.20% of
        # test_duty_matches_renewal_fixed_point, and at |z| < 4.5 a duty 1.2%
        # off is caught with 90% power.
        p, dead_gates, n = 2.1e-5, 1000, 5_000_000
        chain, pump = make_rate_chain(0.0, dark_rate_hz=2.1e3, dead_time_us=10.0)
        s = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=n, seed=61))
        expected = 0.979431929480901
        cycle = 1.0 / p + dead_gates
        sigma = (1.0 - expected) * math.sqrt(1.0 - p) / p / (math.sqrt(n / cycle) * cycle)
        for measured in mc.measured_gate_duty(s):
            assert abs(z_score(measured, expected, sigma**2)) < 4.5


@st.composite
def two_arms_and_dead_times(draw):
    """A block of n gates, each arm's fire mask and dead gates drawn apart.

    Dead gates of 0, 1 and 2, a few, up to twice the block, the block and one
    past it; densities from empty arms to every gate, so that the densest
    arm's mean fires per window falls on both sides of ``_WINDOWED_BELOW``
    and the fires of both arms on both sides of ``_WINDOWED_FROM``."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = st.one_of(st.just(0.0), st.floats(0.0, 0.02), st.floats(0.0, 1.0))
    dead = st.one_of(st.sampled_from([0, 1, 2, n, n + 1]), st.integers(3, 60), st.integers(0, 2 * n))
    masks = tuple(rng.random(n) < draw(density) for _ in range(2))
    return masks, (draw(dead), draw(dead))


# every 4th gate fires, _WINDOWED_FROM fires over a span of 4 * _WINDOWED_FROM
# - 3 gates: a dead time of _WINDOWED_D puts the mean fires per window just
# below _WINDOWED_BELOW, and one gate more just above it; with the last fire
# gone, the arms hold one fire too few for the counted table
_EVERY_4TH = np.arange(4 * mc._WINDOWED_FROM) % 4 == 0
_WINDOWED_D = math.floor(mc._WINDOWED_BELOW * (4 * mc._WINDOWED_FROM - 3) / mc._WINDOWED_FROM)
_NONE = np.zeros(4 * mc._WINDOWED_FROM, dtype=bool)


class TestBothArmPass:
    """The dead-time pass over both arms at once, arm by arm against the per-gate reference."""

    @settings(max_examples=300, deadline=None)
    @given(case=two_arms_and_dead_times(), table=st.sampled_from(["chosen", "counted", "searchsorted"]),
           dtype=st.sampled_from([np.int32, np.int64]))
    @example(case=((_EVERY_4TH, _NONE), (_WINDOWED_D, 2)), table="chosen", dtype=np.int32)
    @example(case=((_EVERY_4TH, _NONE), (_WINDOWED_D + 1, 2)), table="chosen", dtype=np.int32)
    @example(case=((_NONE, _EVERY_4TH[:-4]), (3, _WINDOWED_D)), table="chosen", dtype=np.int32)
    # the other arm's few fires make no difference to the choice
    @example(case=((_EVERY_4TH, _LAST_ONLY.repeat(8)), (_WINDOWED_D + 1, 2)), table="chosen", dtype=np.int32)
    @example(case=((_LAST_ONLY.repeat(8), _EVERY_4TH), (3, _WINDOWED_D)), table="chosen", dtype=np.int32)
    # one arm empty, one arm at one dead gate, a window longer than the block
    @example(case=((np.zeros(500, dtype=bool), np.ones(500, dtype=bool)), (5, 3)), table="chosen", dtype=np.int32)
    @example(case=((np.ones(500, dtype=bool), _RUNS.repeat(17)[:500]), (1, 7)), table="chosen", dtype=np.int32)
    @example(case=((np.ones(500, dtype=bool), np.ones(500, dtype=bool)), (500, 2**40)), table="chosen", dtype=np.int32)
    def test_each_arm_matches_the_per_gate_reference(self, case, table, dtype):
        masks, dead = case
        fires = tuple(np.flatnonzero(mask).astype(dtype) for mask in masks)
        below, least = {"chosen": (mc._WINDOWED_BELOW, mc._WINDOWED_FROM), "counted": (math.inf, 0),
                        "searchsorted": (0.0, 0)}[table]
        with mock.patch.object(mc, "_WINDOWED_BELOW", below), mock.patch.object(mc, "_WINDOWED_FROM", least):
            clicks = mc._apply_dead_time(fires, dead)
        for arm_clicks, mask, arm_dead in zip(clicks, masks, dead):
            assert arm_clicks.dtype == dtype
            assert np.array_equal(arm_clicks, np.flatnonzero(reference_dead_time(mask, arm_dead)[0]))


def mask_bits(mask: np.ndarray) -> int:
    """A per-gate fire mask as a bitset, bit g = gate g, written out as binary digits."""
    return int("0" + "".join("1" if fired else "0" for fired in mask[::-1]), 2)


def bit_gates(fires: int) -> np.ndarray:
    """The sorted gates of a bitset, bit g = gate g, read off its binary digits."""
    return np.flatnonzero(np.frombuffer(bin(fires)[:1:-1].encode(), np.uint8) == ord("1"))


@st.composite
def fire_masks(draw, max_gates: int = 300):
    n = draw(st.integers(1, max_gates))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n) < draw(st.floats(0.0, 1.0))


def _single(n: int, gate: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[gate] = True
    return mask


class TestBitsets:
    """The bitset path against the index path and the per-gate reference.

    Lengths of 1 to 300 gates, most not a multiple of 8 or 64, so that the
    top byte and the top machine word of a bitset hold gates and padding."""

    @settings(max_examples=300, deadline=None)
    @given(mask=fire_masks())
    @example(mask=np.ones(300, dtype=bool))
    @example(mask=np.ones(65, dtype=bool))
    @example(mask=np.ones(1, dtype=bool))
    @example(mask=np.arange(299) % 2 == 0)
    @example(mask=np.arange(64) % 2 == 1)
    @example(mask=_single(1, 0))
    @example(mask=_single(300, 299))
    @example(mask=_single(257, 128))
    @example(mask=_RUNS)
    def test_one_gate_dead_time_matches_the_index_pass(self, mask):
        clicks = bit_gates(mc._dead_time_bits(mask_bits(mask), 1, mask.size))
        assert np.array_equal(clicks, mc._apply_dead_time((np.flatnonzero(mask),), (1,))[0])
        assert np.array_equal(clicks, np.flatnonzero(reference_dead_time(mask, 1)[0]))

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(1, 80),
        blocks=st.integers(1, 60),
        last_share=st.floats(0.0, 1.0),
        densities=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        dead=st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
        offset_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # every gate fires both arms: each block's gate 0 sits under a carried
    # window, and each window opens in the next block
    @example(size=7, blocks=30, last_share=0.5, densities=(1.0, 1.0, 1.0), dead=(1, 1), offset_share=1.0, seed=0)
    @example(size=1, blocks=60, last_share=1.0, densities=(0.8, 0.8, 0.5), dead=(0, 1), offset_share=1.0, seed=1)
    def test_bitset_join_counts_as_the_index_join(
        self, size, blocks, last_share, densities, dead, offset_share, seed
    ):
        # blocks of ``size`` gates and a last one of 1 to ``size``; the idler
        # repeats the signal's gate with probability densities[2], so that
        # coincidences and accidentals are common
        sizes = [size] * (blocks - 1) + [1 + int(last_share * (size - 1))]
        offset = 1 + int(offset_share * (size - 1))
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        signal = rng.random(n) < densities[0]
        idler = np.where(rng.random(n) < densities[2], signal, rng.random(n) < densities[1])
        index_blocks, bit_blocks, start = [], [], 0
        for block_size in sizes:
            masks = signal[start : start + block_size], idler[start : start + block_size]
            fires = tuple(np.flatnonzero(mask).astype(np.int32) for mask in masks)
            index_blocks.append((block_size, fires, mc._apply_dead_time(fires, dead)))
            bits = tuple(map(mask_bits, masks))
            clicks = tuple(map(mc._dead_time_bits, bits, dead, (block_size, block_size)))
            bit_blocks.append((block_size, bits, clicks))
            start += block_size
        totals, dead_until = mc._join_bits(iter(bit_blocks), dead, offset, n)
        index_totals, index_dead_until = mc._join(iter(index_blocks), dead, offset, n)
        assert (totals, dead_until) == (index_totals.tolist(), index_dead_until)
        # and as one per-gate pass over the whole run
        clicks = [np.flatnonzero(reference_dead_time(mask, d)[0]) for mask, d in zip((signal, idler), dead)]
        expected = [clicks[0].size, clicks[1].size, np.intersect1d(*clicks).size]
        assert totals == expected + [np.intersect1d(clicks[0] + offset, clicks[1]).size]

    @pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 1000, 2**16 + 3])
    def test_gate_fire_bits_hold_the_gates_of_the_index_draw(self, n):
        l_none = -math.log1p(-0.8)
        quiet = (l_none, 0.6 * l_none, 0.6 * l_none)
        law = mc._gate_law(quiet)
        fires = mc._gate_fires(np.random.default_rng(n), law, n)
        bits = mc._gate_fires(np.random.default_rng(n), law, n, bits=True)
        assert all(isinstance(x, int) and x < 2**n for x in bits)
        for arm, x in zip(fires, bits):
            assert np.array_equal(bit_gates(x), arm)

    @pytest.mark.parametrize(
        "mu, dead_us, offset, bits",
        [
            (0.9, 0.01, 1, True),  # 0.49 fires per gate, one dead gate
            (0.9, 0.0, 2**20, True),  # no dead time, an offset of a whole block
            (0.9, 0.02, 1, False),  # two dead gates
            (0.9, 0.01, 2**20 + 1, False),  # an offset past the block
            # 0.95 and 1.05 times _PER_GATE_FROM fires per gate, 1 - exp(-0.75 mu)
            # at 0.5 efficiency per arm: the gaps are drawn, then one uniform per gate
            (-math.log1p(-0.95 * mc._PER_GATE_FROM) / 0.75, 0.01, 1, False),
            (-math.log1p(-1.05 * mc._PER_GATE_FROM) / 0.75, 0.01, 1, True),
        ],
    )
    def test_path_is_chosen_from_p_dead_gates_and_offset(self, mu, dead_us, offset, bits):
        chain, pump = make_rate_chain(mu, 0.5, 0.5, dead_time_us=dead_us)
        trial = mc.TrialConfig(n_pulses=2**22, accidental_offset=offset)
        gates, _, _, _, chosen = mc._block_sampler(chain, cm.evaluate(chain, pump), trial)
        # the offsets of a whole block and one past it are set against blocks
        # of 2**20 gates; near the constant a block holds 2**16 / p, 1.6M gates
        assert chosen == bits and (offset == 1 or gates == 2**20)

    def test_shared_even_gate_mask_serves_only_its_block_size(self):
        # one process, blocks of alternating sizes, so that a mask kept from a
        # smaller or a larger block would be met by the next
        rng = np.random.default_rng(35)
        for size in (1, 65, 250_000, 2**20, 250_000):
            mask = rng.random(size) < 0.4
            mask[-1] = True  # the top gate fires, so the mask must reach it
            for dead in (0, 1):
                clicks = bit_gates(mc._dead_time_bits(mask_bits(mask), dead, size))
                assert np.array_equal(clicks, mc._apply_dead_time((np.flatnonzero(mask),), (dead,))[0]), (size, dead)


class _Words:
    """A stand-in generator whose 64-bit words carry the given 16-bit uniforms,
    four a word, the first in the lowest quarter; zeros follow them.  Its
    exponentials are infinite, so it redraws no gate from the residual law."""

    def __init__(self, uniforms):
        self.bit_generator = self
        self.uniforms = np.asarray(uniforms, dtype=np.uint64)

    def random_raw(self, words: int) -> np.ndarray:
        u = np.zeros(4 * words, dtype=np.uint64)
        u[: self.uniforms.size] = self.uniforms
        return u[0::4] | (u[1::4] << np.uint64(16)) | (u[2::4] << np.uint64(32)) | (u[3::4] << np.uint64(48))

    def standard_exponential(self, n: int) -> np.ndarray:
        return np.full(n, np.inf)

    def random(self, n: int) -> np.ndarray:
        assert n == 0  # no gate is redrawn
        return np.empty(0)


# four-outcome weights: exact zeros, shares below 2**-16 and larger ones
_WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-12, 2**-16), st.floats(2**-16, 1.0)), min_size=4, max_size=4
).filter(any)


class TestSixteenBitDraw:
    """The per-gate draw of stream v9: one 16-bit uniform per gate, four a
    word, on the quantised law, and a sparse set of gates redrawn from the
    residual law, which keeps every gate's law exact."""

    @settings(max_examples=300, deadline=None)
    @given(weights=_WEIGHTS)
    @example(weights=[0.0, 1.0, 0.0, 0.0])  # p = 1, every gate fires both arms
    @example(weights=[0.0, 0.0, 1.0, 0.0])
    @example(weights=[0.35, 2**-17, 0.35, 0.3])
    @example(weights=[1.0, 1.0, 1.0, 1.0])
    @example(weights=[1.0, 1.0 - 2**-40, 1.0 - 2**-40, 1.0 - 2**-40])
    def test_quantised_law_and_its_residual_make_the_exact_law(self, weights):
        total = math.fsum(weights)
        shares = tuple(w / total for w in weights)
        units, rate, residual = mc._quantised_law(shares)
        assert sum(units) == 2**16 and min(units) >= 0
        assert 0.0 <= rate < 3 * 2**-14
        assert min(residual) >= 0.0 and (rate == 0.0 or sum(residual) == pytest.approx(1.0, abs=1e-12))
        for q, u, r in zip(shares, units, residual):
            assert abs((1 - rate) * (u / 2**16) + rate * r - q) <= 1e-15, (shares, units, rate, residual)

    @pytest.mark.parametrize("p", [0.07, 0.3, 0.5, 0.81, 0.999])
    @pytest.mark.parametrize("shares", [(0.6, 0.6), (0.9, 0.3), (0.3, 0.9)])
    def test_each_gate_falls_on_its_side_of_each_threshold(self, p, shares):
        # T1 .. T3 cut the uniform into the idler alone, both, the signal
        # alone and neither: a gate at T - 1 and one at T, fed through
        # stand-in words that redraw no gate, show on which side of T it falls
        l_none = -math.log1p(-p)
        law = mc._gate_law((l_none, shares[0] * l_none, shares[1] * l_none))
        t1, t2, t3 = law.cuts
        assert 0 < t1 < t2 < t3 < 2**16
        fires = {
            t1 - 1: (False, True),
            t1: (True, True),
            t2 - 1: (True, True),
            t2: (True, False),
            t3 - 1: (True, False),
            t3: (False, False),
        }
        uniforms = list(fires)
        for bits in (False, True):
            arms = mc._gate_fires(_Words(uniforms), law, len(uniforms), bits)
            if bits:
                arms = tuple(map(bit_gates, arms))
            for arm, side in zip(arms, (0, 1)):
                assert arm.tolist() == [gate for gate, u in enumerate(uniforms) if fires[u][side]]

    @pytest.mark.parametrize("bits", [False, True], ids=["indices", "bits"])
    @pytest.mark.parametrize(
        "quiet, fires",
        [((50.0, 40.0, 40.0), (True, True)), ((50.0, 50.0, 0.0), (True, False)), ((50.0, 0.0, 50.0), (False, True))],
        ids=["both", "signal", "idler"],
    )
    def test_every_gate_fires_at_p_one(self, bits, quiet, fires):
        # T3 = 2**16 lies above every 16-bit uniform, the largest included,
        # and the law is on the grid, so no gate is redrawn
        law = mc._gate_law(quiet)
        assert law.fire == 1.0 and law.cuts[2] == 2**16 and law.residual_rate == 0.0
        for rng, n in ((_Words([2**16 - 1, 0, 2**15, 2**16 - 1, 2**16 - 2]), 5), (np.random.default_rng(1), 2**16 + 3)):
            for arm, fire in zip(mc._gate_fires(rng, law, n, bits), fires):
                if bits:
                    assert arm == (2**n - 1 if fire else 0)
                else:
                    assert np.array_equal(arm, np.arange(n) if fire else [])

    @pytest.mark.parametrize("bits", [False, True], ids=["indices", "bits"])
    def test_an_arm_with_no_lone_fires_never_fires_alone(self, bits):
        # the idler is quiet whenever the signal is, so P(idler alone) = 0,
        # and its residual share is 0 too; then the signal whenever the idler
        # is.  Half the gates fire
        l_none, n = math.log(2.0), 200_000
        for quiet, (lone, partner) in (((l_none, l_none, l_none / 2), (1, 0)), ((l_none, l_none / 2, l_none), (0, 1))):
            law = mc._gate_law(quiet)
            assert law.residual_rate > 0.0
            arms = mc._gate_fires(np.random.default_rng(2), law, n, bits)
            if bits:
                assert arms[lone] & ~arms[partner] == 0 and arms[partner] & ~arms[lone]
            else:
                assert np.isin(arms[lone], arms[partner]).all() and arms[partner].size > arms[lone].size

    @pytest.mark.parametrize("bits", [False, True], ids=["indices", "bits"])
    def test_an_outcome_below_one_unit_is_drawn_by_the_residual_set(self, bits):
        # Both arms fire together with probability 2**-17, half a unit of
        # 2**-16: its quantised share is 0, so only the residual set can draw
        # it.  64 SFC64 blocks of 2**20 gates expect 512 such gates, tested
        # at 4.5 sigma on the exact Poisson tail; a dropped residual set
        # counts 0, 22.6 sigma below by the normal approximation
        none, alone = 0.3, (0.7 - 2**-17) / 2
        l_arm = -math.log(none + alone)
        law = mc._gate_law((-math.log(none), l_arm, l_arm))
        assert law.cuts[0] == law.cuts[1] and law.residual_rate > 0.0
        both = 0
        for seed in range(64):
            signal, idler = mc._gate_fires(np.random.Generator(np.random.SFC64(seed)), law, 2**20, bits)
            both += (signal & idler).bit_count() if bits else np.intersect1d(signal, idler).size
        assert abs(poisson_z(both, 2**26 * 2**-17)) < 4.5, both

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 65, 2**16 + 3])
    def test_a_block_uses_a_quarter_word_a_gate_before_its_residual_draws(self, n):
        # n gates use ceil(n / 4) words, then the residual set's gaps and one
        # uniform per redrawn gate.  With no gate redrawn, its gates are those
        # below n of the next multiple of 4, which drops the quarters past n
        # of its last word.  That the bitsets of these sizes hold the gates of
        # the index arrays is
        # TestBitsets.test_gate_fire_bits_hold_the_gates_of_the_index_draw
        l_none = -math.log1p(-0.8)
        law = mc._gate_law((l_none, 0.6 * l_none, 0.6 * l_none))
        assert law.residual_rate > 0.0
        rng, words = np.random.default_rng(n), np.random.default_rng(n)
        mc._gate_fires(rng, law, n)
        words.bit_generator.random_raw(-(-n // 4))
        words.random(mc._bernoulli_positions(words, law.residual_rate, n).size)
        assert rng.bit_generator.state == words.bit_generator.state
        plain = law._replace(residual_rate=0.0)
        fires = mc._gate_fires(np.random.default_rng(n), plain, n)
        whole = mc._gate_fires(np.random.default_rng(n), plain, n + -n % 4)
        for arm, whole_arm in zip(fires, whole):
            assert np.array_equal(arm, whole_arm[whole_arm < n])


def reference_bernoulli_positions(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """``mc._bernoulli_positions`` as first written, one new array per step."""
    if p <= 1e-300 or n <= 0:
        return np.empty(0, dtype=np.int64)
    scale = -1.0 / math.log1p(-p) if p < 1.0 else 0.0
    mean = n * p
    chunk = int(mean + 6.0 * math.sqrt(mean) + 16.0)
    parts, last = [], -1
    while last < n:
        gaps = np.minimum(rng.standard_exponential(chunk) * scale, n).astype(np.int64)
        gaps += 1
        positions = last + np.cumsum(gaps)
        parts.append(positions)
        last = int(positions[-1])
    positions = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return positions[: np.searchsorted(positions, n)]


def reference_gate_fires(rng: np.random.Generator, quiet, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``mc._gate_fires`` as first written, splitting the arms by boolean-mask indexing."""
    l_none, l_signal, l_idler = quiet
    p = -math.expm1(-l_none)
    fired = reference_bernoulli_positions(rng, p, size)
    if not fired.size:
        return fired, fired
    signal_alone = -math.exp(-l_idler) * math.expm1(l_idler - l_none) / p
    idler_alone = -math.exp(-l_signal) * math.expm1(l_signal - l_none) / p
    u = rng.random(fired.size)
    return fired[(u < signal_alone) | (u >= signal_alone + idler_alone)], fired[u >= signal_alone]


class TestSparseSampling:
    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(1e-6, 1.0, exclude_max=True),
        n=st.integers(0, 200_000),
        shares=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=1e-6, n=200_000, shares=(0.5, 0.5), seed=0)
    @example(p=0.81, n=200_000, shares=(0.6, 0.6), seed=1)
    @example(p=1.0 - 2**-53, n=5_000, shares=(1.0, 0.0), seed=2)
    def test_helpers_match_their_first_arithmetic(self, p, n, shares, seed):
        # the same gates as the int64 references draw from the same stream,
        # held in int32 below 2**31 gates; each arm's quiet exponent is a
        # share of the exponent of neither firing.  The references draw the
        # gaps, so every block does here, at any p
        positions = mc._bernoulli_positions(np.random.default_rng(seed), p, n)
        expected = reference_bernoulli_positions(np.random.default_rng(seed), p, n)
        assert positions.dtype == np.int32 and np.array_equal(positions, expected)
        l_none = -math.log1p(-p)
        quiet = (l_none, shares[0] * l_none, shares[1] * l_none)
        with mock.patch.object(mc, "_PER_GATE_FROM", 2.0):
            arms = mc._gate_fires(np.random.default_rng(seed), mc._gate_law(quiet), n)
        for arm, reference in zip(arms, reference_gate_fires(np.random.default_rng(seed), quiet, n)):
            assert arm.dtype == np.int32 and np.array_equal(arm, reference)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 5000),
        densities=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        shift=st.integers(-6000, 6000),
        seed=st.integers(0, 2**32 - 1),
    )
    # dense gates, read from flags, and sparse ones, merged by a sort; either
    # array shifted against the other, to gates below 0 too
    @example(n=5000, densities=(0.4, 0.4), shift=-2500, seed=0)
    @example(n=5000, densities=(0.002, 0.01), shift=0, seed=1)
    @example(n=5000, densities=(1.0, 1.0), shift=4999, seed=2)
    def test_matches_count_shared_gates(self, n, densities, shift, seed):
        rng = np.random.default_rng(seed)
        a, b = (np.flatnonzero(rng.random(n) < density) for density in densities)
        for a_gates in (a, a + shift):
            assert mc._matches(a_gates, b) == np.intersect1d(a_gates, b).size

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 5000),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1000, p=0.0, seed=0)
    @example(n=1000, p=1.0, seed=0)
    @example(n=1, p=1.0, seed=0)
    @example(n=3, p=1e-300, seed=0)
    def test_bernoulli_positions_sorted_unique_in_range(self, n, p, seed):
        positions = mc._bernoulli_positions(np.random.default_rng(seed), p, n)
        assert positions.dtype.kind == "i"
        assert np.all(np.diff(positions) > 0)
        assert positions.size == 0 or (positions[0] >= 0 and positions[-1] < n)
        if p == 0.0:
            assert positions.size == 0
        if p == 1.0:
            assert np.array_equal(positions, np.arange(n))

    @pytest.mark.parametrize("p", [2e-5, 3e-3, 0.4])
    def test_bernoulli_positions_count_and_spread(self, p):
        # 20 blocks of 1M trials: the count is Binomial(2e7, p), whose sd is
        # 5% of the mean at p = 2e-5 and below 0.4% from p = 3e-3 on, so a
        # rate 29% (p = 2e-5) or 2.3% (p = 3e-3) off is caught with 90% power.
        # The successes in the first half of each block test their spread.
        rng, n = np.random.default_rng(5), 1_000_000
        blocks = [mc._bernoulli_positions(rng, p, n) for _ in range(20)]
        trials = 20 * n
        count = sum(b.size for b in blocks)
        first_half = sum(int(np.searchsorted(b, n // 2)) for b in blocks)
        assert abs(z_score(count, trials * p, trials * p * (1 - p))) < 4.5
        assert abs(z_score(first_half, count / 2, count / 4)) < 4.5


class TestInt32Gates:
    """A block's gates are int32; a run-scale gate, dead window or offset is widened to int64."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 2**33), seed=st.integers(0, 2**32 - 1))
    @example(n=2**31 - 1, seed=0)
    @example(n=2**31, seed=0)
    @example(n=2**31 + 1, seed=0)
    def test_positions_are_int32_below_2_31_gates(self, n, seed):
        # about 64 successes however many trials
        positions = mc._bernoulli_positions(np.random.default_rng(seed), min(64 / n, 1.0), n)
        assert positions.dtype == (np.int32 if n < 2**31 else np.int64)
        assert positions.size and np.all(np.diff(positions) > 0) and 0 <= positions[0] and positions[-1] < n
        assert mc._bernoulli_positions(np.random.default_rng(seed), 0.0, n).dtype == positions.dtype

    @pytest.mark.parametrize("p", [0.01, 0.9], ids=["gaps", "per-gate"])
    @pytest.mark.parametrize("n", [1, 100_000])
    def test_gate_fires_are_int32_on_both_paths(self, p, n):
        l_none = -math.log1p(-p)
        assert (p >= mc._PER_GATE_FROM) == (p == 0.9)
        for arm in mc._gate_fires(np.random.default_rng(3), mc._gate_law((l_none, l_none / 2, l_none / 2)), n):
            assert arm.dtype == np.int32 and (n == 1 or arm.size)

    @pytest.mark.parametrize("dead_gates", [2**31, 2**40, 2**62])
    def test_dead_window_past_int32_keeps_the_first_fire(self, dead_gates):
        fires = np.array([3, 5, 2**28, 2**31 - 1], dtype=np.int32)
        assert mc._apply_dead_time((fires,), (dead_gates,))[0].tolist() == [3]
        assert mc._apply_dead_time((fires[:0],), (dead_gates,))[0].size == 0

    def test_join_carries_a_window_past_2_31_gates(self):
        # a signal click 50 gates into a block that starts past 2**31 opens
        # the window of the idler click 120 gates on, in the next block
        none = np.empty(0, dtype=np.int32)
        at = np.array([50], dtype=np.int32), np.array([70], dtype=np.int32)
        blocks = [(2**31 + 10, (none, none), (none, none)), (100, (at[0], none), (at[0], none)),
                  (100, (none, at[1]), (none, at[1]))]
        totals, dead_until = mc._join(iter(blocks), (0, 0), 120, 2**31 + 210)
        assert totals.tolist() == [1, 1, 0, 1]
        assert dead_until == [2**31 + 60, 2**31 + 180]

    def test_run_past_2_31_gates(self, awg_chain):
        # 30 blocks; each arm's dead window and the offset both outlast
        # 2**31 gates, so the join carries them as int64 across every block
        # edge.  The counts equal a pass over the fires of all blocks in run
        # gates, and two threads count alike.
        n, dead, offset = 2**31 + 2**20 + 7, 2**31 + 2**10, 2**31 + 5
        chain, pump = awg_chain
        detector = replace(chain.detector_signal, dead_gates=dead)
        chain = replace(chain, detector_signal=detector, detector_idler=detector)
        trial = mc.TrialConfig(n_pulses=n, seed=21, accidental_offset=offset)
        drawn = []
        with mock.patch.object(mc, "_gate_fires", recording_gate_fires(drawn)):
            s = mc.simulate(chain, pump, trial)
        assert s == mc.simulate(chain, pump, trial, threads=2)
        assert s.accidental_pairs == n - offset == 2**20 + 2
        starts = np.cumsum([0] + [size for _, size in drawn])
        assert len(drawn) > 1 and starts[-1] == n
        clicks = []
        for arm in (0, 1):
            fires = np.concatenate([f[arm] + start for (f, _), start in zip(drawn, starts)])
            arm_clicks, i = [], 0
            while i < fires.size:
                arm_clicks.append(int(fires[i]))
                i = int(fires.searchsorted(fires[i] + dead, "right"))
            clicks.append(np.array(arm_clicks, dtype=np.int64))
        signal, idler = clicks
        assert (s.singles_signal, s.singles_idler) == (signal.size, idler.size)
        assert s.coincidences == np.intersect1d(signal, idler).size
        assert s.accidentals == np.intersect1d(signal + offset, idler).size


def _pair_quiet(rates, trial, other=(0.0, 0.0)):
    """The no-fire exponents of ``_gate_fires`` for pairs at ``rates`` (seen,
    signal, both) and each arm's exponent of no other cause ``other``: the
    pair law's exponent of no pair is the mean plus its excess over Poisson."""
    seen, signal, both = rates
    idler = seen - signal + both
    return (
        seen + cm.no_pair_excess(seen, trial.pair_modes) + other[0] + other[1],
        signal + cm.no_pair_excess(signal, trial.pair_modes) + other[0],
        idler + cm.no_pair_excess(idler, trial.pair_modes) + other[1],
    )


@pytest.fixture(params=["per-gate", "gaps"])
def draw_path(request, monkeypatch):
    """How ``_gate_fires`` draws: as the sampler does, one uniform per gate from
    a fire probability of ``_PER_GATE_FROM`` on, or the gaps at every p."""
    if request.param == "gaps":
        monkeypatch.setattr(mc, "_PER_GATE_FROM", 2.0)
    return request.param


class TestJointDraw:
    """The joint law of the two arms' fires, on both draw paths.

    Each test but the extreme means fires some detector on 0.86 of the gates
    or more, past ``_PER_GATE_FROM``: the sampler draws one uniform per gate
    there, and the gap draw runs with the constant patched above 1.
    """

    @pytest.mark.parametrize("statistics, modes", [("poisson", 24), ("thermal", 1), ("thermal", 3)])
    def test_fires_follow_the_pair_law(self, draw_path, statistics, modes):
        # Pairs reaching a detector at 2 per pulse, 1.2 of them reaching the
        # signal detector, 1.3 the idler and 0.5 both.  With G the pair law's
        # generating function at that mean, no signal fires with probability
        # G(1 - signal / seen), no idler with G(1 - idler / seen) and neither
        # with G(0), each between 0.14 and 0.45 here.  With 2M pulses a
        # probability 0.45% to 1.0% off is caught with 90% power.
        seen, signal, both = 2.0, 1.2, 0.5
        idler = seen - signal + both
        trial = mc.TrialConfig(n_pulses=1, pair_statistics=statistics, thermal_modes=modes)
        size = 2_000_000
        rng = np.random.default_rng(4)
        quiet = _pair_quiet((seen, signal, both), trial)
        assert (-math.expm1(-quiet[0]) >= mc._PER_GATE_FROM) == (draw_path == "per-gate")
        fires_s, fires_i = mc._gate_fires(rng, mc._gate_law(quiet), size)
        assert np.all(np.diff(fires_s) > 0) and np.all(np.diff(fires_i) > 0)

        def g(z):
            if statistics == "poisson":
                return math.exp(-seen * (1 - z))
            return (1 + seen * (1 - z) / modes) ** -modes

        fired = np.zeros(size, dtype=bool)
        fired[fires_s] = fired[fires_i] = True
        quiet = (
            (size - fires_s.size, g(1 - signal / seen)),
            (size - fires_i.size, g(1 - idler / seen)),
            (size - np.count_nonzero(fired), g(0.0)),
        )
        for count, p in quiet:
            assert abs(z_score(count, size * p, size * p * (1 - p))) < 4.5

    @pytest.mark.parametrize("statistics, modes", [("poisson", 24), ("thermal", 1), ("thermal", 3)])
    def test_fires_match_a_per_pulse_oracle(self, draw_path, statistics, modes):
        # An oracle that rests on no generating function: 2.5 pairs per pulse
        # are drawn pulse by pulse, and each pair goes to the signal detector
        # alone, the idler alone, both or neither, so that 2.0 pairs per pulse
        # reach a detector, 1.2 the signal and 0.5 both, as in the test above.
        # Each pulse also holds Poisson noise photons at 0.2 (signal) and 0.1
        # (idler) per pulse and a dark count with probability 0.1 and 0.05.
        # The sampler draws the fires from one no-fire law.  Each no-fire
        # frequency (0.086 to 0.37) is compared between the two 2M-pulse
        # samples by a two-sample z-test, which catches a frequency 0.75% to
        # 1.9% off with 90% power.
        generated, seen, signal, both = 2.5, 2.0, 1.2, 0.5
        idler = seen - signal + both
        noise, dark = (0.2, 0.1), (0.1, 0.05)
        size = 2_000_000
        oracle = np.random.default_rng(8)
        if statistics == "poisson":
            pairs = oracle.poisson(generated, size)
        else:
            pairs = oracle.negative_binomial(modes, modes / (modes + generated), size)
        fates = [signal - both, idler - both, both, generated - seen]
        signal_only, idler_only, both_arms, _ = oracle.multinomial(pairs, np.divide(fates, generated)).T
        others = [(oracle.poisson(n, size) > 0) | (oracle.random(size) < d) for n, d in zip(noise, dark)]
        fired_s = (signal_only + both_arms > 0) | others[0]
        fired_i = (idler_only + both_arms > 0) | others[1]
        quiet_oracle = (
            size - np.count_nonzero(fired_s),
            size - np.count_nonzero(fired_i),
            size - np.count_nonzero(fired_s | fired_i),
        )
        trial = mc.TrialConfig(n_pulses=1, pair_statistics=statistics, thermal_modes=modes)
        other = [n - math.log1p(-d) for n, d in zip(noise, dark)]
        quiet = _pair_quiet((seen, signal, both), trial, other)
        assert (-math.expm1(-quiet[0]) >= mc._PER_GATE_FROM) == (draw_path == "per-gate")
        fires_s, fires_i = mc._gate_fires(np.random.default_rng(4), mc._gate_law(quiet), size)
        fired = np.zeros(size, dtype=bool)
        fired[fires_s] = fired[fires_i] = True
        quiet_sampler = (size - fires_s.size, size - fires_i.size, size - np.count_nonzero(fired))
        for k_oracle, k_sampler in zip(quiet_oracle, quiet_sampler):
            pooled = (k_oracle + k_sampler) / (2 * size)
            variance = 2 * size * pooled * (1 - pooled)
            assert abs(z_score(k_sampler - k_oracle, 0.0, variance)) < 4.5

    @pytest.mark.parametrize("statistics", ["poisson", "thermal"])
    @pytest.mark.parametrize(
        "rates, dark, size",
        # every pulse saturated, where exp(L(seen) - L(idler)) = exp(800)
        # overflows; about ten firing pulses in 1e13; and a dark count in
        # 99.9% of the gates of each arm, so that nearly every gate fires both
        [
            ((1000.0, 800.0, 0.0), 0.0, 100_000),
            ((1e-12, 6e-13, 2e-13), 0.0, 10**13),
            ((2.0, 1.2, 0.5), 0.999, 100_000),
        ],
        ids=["mean-1000", "mean-1e-12", "dark-0.999"],
    )
    def test_extreme_means_give_sorted_unique_fires(self, draw_path, statistics, rates, dark, size):
        # the fires of each arm strictly increase: no gate is counted twice.
        # At a mean of 1e-12 about 1e-12 of the gates fire, so the 10**13
        # gates draw their gaps on either path; one uniform per gate would
        # take 80 TB
        trial = mc.TrialConfig(n_pulses=1, pair_statistics=statistics, thermal_modes=1)
        other = -math.log1p(-dark)
        quiet = _pair_quiet(rates, trial, (other, other))
        assert (-math.expm1(-quiet[0]) >= mc._PER_GATE_FROM) == (draw_path == "per-gate" and size < 10**13)
        for fires in mc._gate_fires(np.random.default_rng(6), mc._gate_law(quiet), size):
            assert np.all(np.diff(fires) > 0)
            assert fires.size == 0 or (fires[0] >= 0 and fires[-1] < size)


class TestAccidentalOffset:
    def test_offset_one_and_two_statistically_identical(self):
        # About 4.1e-3 clicks per gate and arm, so 1.7e-5 accidentals per
        # window: each offset totals about 3,200 over 12 x 16M pulses.  The two
        # totals come from the same clicks but from disjoint gate pairs, so
        # they are nearly independent Poisson counts and their difference has
        # sd sqrt(sum), 2.5% of either.  At |z| < 4.5 an offset whose rate is
        # 14% off the other is caught with 90% power.
        chain, pump = make_rate_chain(8e-3, 0.5, 0.5, dark_rate_hz=1e4)
        totals = {1: 0, 2: 0}
        for seed in range(12):
            for offset in (1, 2):
                trial = mc.TrialConfig(
                    n_pulses=16_000_000, seed=seed, accidental_offset=offset, dead_time_enabled=False
                )
                totals[offset] += mc.simulate(chain, pump, trial, threads=2).accidentals
        assert totals[1] > 3000
        z = (totals[1] - totals[2]) / math.sqrt(totals[1] + totals[2])
        assert abs(z) < 4.5

    def test_offset_of_the_run_or_more_opens_no_window(self, monkeypatch):
        # 2**63 does not fit an int64 gate; over 2,000 gates in blocks of a
        # few gates the signal clicks of every block stay pending to the end
        monkeypatch.setattr(mc, "_FIRES_PER_BLOCK", 2.0)
        monkeypatch.setattr(mc, "_MIN_BLOCK", 1)
        chain, pump = make_rate_chain(0.5, 0.5, 0.5, dead_time_us=0.01)
        n = 2_000
        trials = [mc.TrialConfig(n_pulses=n, seed=3, accidental_offset=off) for off in (1, n, 2**63)]
        runs = [mc.simulate(chain, pump, trial) for trial in trials]
        assert runs[0].accidentals > 0
        assert runs[1] == runs[2]
        assert runs[2].accidentals == runs[2].accidental_pairs == 0
        assert dataclasses.replace(runs[0], accidentals=0, accidental_pairs=0) == runs[2]


class TestThermalStatistics:
    def test_single_mode_threshold_probability(self):
        # one thermal mode with mean mu: P(n >= 1) = mu / (1 + mu).  2.4M
        # pulses give about 114k singles, and at |z| < 4.5 a rate 1.7% off is
        # caught with 90% power.
        mu, n = 5e-2, 2_400_000
        chain, pump = make_rate_chain(mu, 1.0, 1.0)
        trial = mc.TrialConfig(
            n_pulses=n, seed=71, pair_statistics="thermal", thermal_modes=1, dead_time_enabled=False
        )
        s = mc.simulate(chain, pump, trial)
        p = mu / (1.0 + mu)
        assert abs(z_score(s.singles_signal, n * p, n * p * (1 - p))) < 4.5

    def test_many_modes_approach_poisson(self):
        # 2M pulses give about 98k singles, and at |z| < 4.5 a rate 1.8% off
        # the Poisson one is caught with 90% power; 256 modes sit 0.01% from it.
        mu, n = 5e-2, 2_000_000
        chain, pump = make_rate_chain(mu, 1.0, 1.0)
        thermal = mc.simulate(
            chain,
            pump,
            mc.TrialConfig(n_pulses=n, seed=72, pair_statistics="thermal", thermal_modes=256),
        )
        p_poisson = -math.expm1(-mu)
        variance = n * p_poisson * (1 - p_poisson)
        assert abs(z_score(thermal.singles_signal, n * p_poisson, variance)) < 4.5


class TestSweep:
    def test_single_point_equals_direct_call(self):
        chain, pump = make_rate_chain(5e-3, 0.4, 0.4)
        trial = mc.TrialConfig(n_pulses=400_000, seed=81)
        [(value, summary)] = mc.sweep(chain, pump, "pp", [0.02], trial)
        chain_v, pump_v = cm.apply_sweep_value(chain, pump, "pp", 0.02)
        direct = mc.simulate(
            chain_v, pump_v, dataclasses.replace(trial, seed=mc.derive_seed(trial.seed, 0))
        )
        assert value == 0.02
        assert summary == direct

    @pytest.mark.parametrize("dead_time_us", [0.01, 0.02])
    def test_every_saturated_point_equals_its_direct_call(self, dead_time_us):
        # the benchmark's saturated sweep on wg-i: at one dead gate the 50 and
        # 91 mW points draw gaps for _join and the 166 mW to 1 W points bitsets
        # for _join_bits; at two dead gates those draw per gate for _join
        document = presets.get_preset("wg-i")
        for arm in document["detectors"].values():
            arm["dead_time_us"] = dead_time_us
        chain, pump = cfg.build_experiment(document)
        trial = mc.TrialConfig(n_pulses=250_000, seed=85)
        grid = np.geomspace(0.05, 1.0, 6)
        with pytest.warns(RuntimeWarning, match="exceeds 1"):
            results = mc.sweep(chain, pump, "pp", grid, trial)
            for i, (value, summary) in enumerate(results):
                chain_v, pump_v = cm.apply_sweep_value(chain, pump, "pp", value)
                bits = mc._block_sampler(chain_v, cm.evaluate(chain_v, pump_v), trial)[4]
                assert bits == (i >= 2 and dead_time_us == 0.01)
                direct = mc.simulate(chain_v, pump_v, dataclasses.replace(trial, seed=mc.derive_seed(trial.seed, i)))
                assert (value, summary) == (grid[i], direct)

    def test_pile_up_warning_names_the_callers_line(self):
        chain, pump = make_rate_chain(2.0)
        trial = mc.TrialConfig(n_pulses=10)
        for run in (
            lambda: mc.simulate(chain, pump, trial),
            lambda: mc.sweep(chain, pump, "pp", [cm.peak_power(pump)], trial),
        ):
            with pytest.warns(RuntimeWarning, match="exceeds 1") as record:
                run()
            assert [w.filename for w in record] == [__file__]

    def test_sweep_reproducible(self):
        chain, pump = make_rate_chain(5e-3, 0.4, 0.4)
        trial = mc.TrialConfig(n_pulses=200_000, seed=82)
        grid = [0.01, 0.02, 0.03]
        a = mc.sweep(chain, pump, "pp", grid, trial)
        b = mc.sweep(chain, pump, "pp", grid, trial)
        assert a == b

    def test_power_sweep_counts_match_predict(self):
        # mu = 24 * P**2 runs from 0.06 to 6 pairs per pulse, so the top points
        # pile up; at each power every count must lie within 4.5 sigma of
        # predict's exact threshold-detector law (a two-sided false alarm of
        # 6.8e-6 per count).  The largest |z| reads 2.3 at this seed; a 1%
        # error in the swept power raises it to 5 sigma at the lowest power
        # and to 10 to 24 sigma at the other three
        chain, pump = make_rate_chain(1e-3, 0.3, 0.3)
        trial = mc.TrialConfig(n_pulses=4_000_000, seed=83, dead_time_enabled=False)
        grid = np.geomspace(0.05, 0.5, 4)  # peak watts on the synthetic chain
        with pytest.warns(RuntimeWarning, match="exceeds 1"):
            results = mc.sweep(chain, pump, "pp", grid, trial)
        for value, summary in results:
            p = predicted_probabilities(*cm.apply_sweep_value(chain, pump, "pp", value))
            z = count_zscores(summary, p)
            assert all(abs(v) < 4.5 for v in z.values()), (value, z)

    def test_empty_grid_raises(self):
        chain, pump = make_rate_chain(1e-3)
        with pytest.raises(ValueError, match="grid must not be empty"):
            mc.sweep(chain, pump, "pp", [], mc.TrialConfig(n_pulses=1_000, seed=84))

    def test_l_siox_sweep_changes_passive_segment(self):
        chain, pump = make_rate_chain(1e-3)
        seg = cm.WaveguideSegment("passive", 0.01, 180.0)
        chain = replace(chain, segments=chain.segments + (seg,))
        chain2, _ = cm.apply_sweep_value(chain, pump, "l_siox", 0.03)
        assert chain2.segments[-1].length_m == 0.03
        with pytest.raises(ValueError):
            cm.apply_sweep_value(make_rate_chain(1e-3)[0], pump, "l_siox", 0.03)

    def test_awg_loss_sweep_requires_awg(self):
        chain, pump = make_rate_chain(1e-3)
        with pytest.raises(ValueError):
            cm.apply_sweep_value(chain, pump, "awg_loss", 0.0)

    def test_unknown_variable(self):
        chain, pump = make_rate_chain(1e-3)
        with pytest.raises(ValueError):
            cm.apply_sweep_value(chain, pump, "loss", 0.0)

    def test_overflowing_peak_power_raises_without_a_warning(self):
        # 1e308 W peak at 100 MHz overflows the average power
        chain, pump = make_rate_chain(1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (1e308, np.float64(1e308), np.array([1.0, 1e308]), float("inf"), float("nan")):
                with pytest.raises(ValueError, match="average power"):
                    cm.apply_sweep_value(chain, pump, "pp", value)

    def test_overflow_with_a_numpy_scalar_pump_raises_without_a_warning(self):
        chain, pump = make_rate_chain(1e-3)
        pump = replace(pump, rep_rate_hz=np.float64(pump.rep_rate_hz))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="average power"):
                cm.apply_sweep_value(chain, pump, "pp", 1e308)

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(1e-300, 1e300))
    @example(value=0.02)
    @example(value=0.3017088168272581)
    def test_float_peak_power_keeps_the_array_bits(self, value):
        # a Python float takes plain arithmetic; a numpy float and an array take numpy's
        chain, pump = make_rate_chain(1e-3)
        plain, scalar, array = (
            cm.apply_sweep_value(chain, pump, "pp", v)[1].average_power_w
            for v in (value, np.float64(value), np.array([value]))
        )
        assert type(plain) is float
        assert np.float64(plain).tobytes() == np.float64(scalar).tobytes() == array.tobytes()


class TestPresetEquivalence:
    """Counting runs agree with the closed form on every preset, field by field.

    Each test names the size of its run and what that size can see.  A bound
    of |z| < 4.5 catches a shift of 5.8 sigma with 90% power.
    """

    @pytest.mark.parametrize("name", presets.preset_names())
    def test_counts_match_prediction(self, name):
        # Poisson pairs with the preset dead time (1000 gates), 200M pulses.
        # The singles (52k-119k expected) have renewal sds of 0.12% to 0.32%
        # of their means, so a shift of 0.7% (wg-i) to 1.9% (wg-vi) is caught
        # with 90% power; the active gates are n minus D per click, with sd D
        # times the singles sd, 0.11% to 0.17% of the mean, caught 1% off.
        # The coincidences (330-1900) are caught when 13% (wg-i) to 32%
        # (wg-vi, awg) off, the accidentals (14-70) when 70% to 160% off.  The
        # closed form treats the two dead-time states as independent, which
        # puts the coincidences about 2.3% low on wg-i (ROADMAP item 4, the
        # joint dead time): about 1 sigma here.
        chain, pump = cfg.build_experiment(presets.get_preset(name))
        stats = cm.expected_gate_statistics(chain, pump)
        n = 200_000_000
        s = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=n, seed=17), threads=2)
        assert s.n_pulses == n and s.gate_rate_hz == pump.rep_rate_hz
        assert s.accidental_pairs == n - 1
        z = {
            "coincidences": poisson_z(s.coincidences, n * stats.p_coincidence),
            "accidentals": poisson_z(s.accidentals, s.accidental_pairs * stats.p_accidental),
        }
        for arm, p_click, duty, detector in (
            ("signal", stats.p_click_signal, stats.duty_signal, chain.detector_signal),
            ("idler", stats.p_click_idler, stats.duty_idler, chain.detector_idler),
        ):
            sigma = renewal_sigma(n, p_click, duty)
            z[f"singles_{arm}"] = z_score(getattr(s, f"singles_{arm}"), n * p_click, sigma**2)
            active = getattr(s, f"active_gates_{arm}")
            z[f"active_gates_{arm}"] = z_score(active, n * duty, (detector.dead_gates * sigma) ** 2)
        assert max(abs(v) for v in z.values()) < 4.5, z

    def test_wg_i_car_matches_estimate(self, wg_i):
        # 400M pulses give about 3,800 coincidences and 140 accidentals, so
        # the CAR has a standard error near 8.6%: a CAR 50% off is caught with
        # 90% power.
        chain, pump = wg_i
        estimate = cm.predict(chain, pump).car
        s = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=400_000_000, seed=19), threads=2)
        assert s.car is not None
        assert abs(s.car - estimate) < 4.5 * s.car_stderr

    def test_wg_i_singles_under_dense_dark_counts(self, wg_i):
        # 1 MHz dark counts are 0.01 per gate; with the 1000-gate dead time
        # only the active 8% of gates can fire, for about 9.2e-4 clicks per
        # gate.  Dead time makes the clicks nearly regular: 4M pulses give
        # about 3,680 singles per arm with a renewal sd of 4.9 (0.13%), so a
        # rate 0.8% off is caught with 90% power.
        chain, pump = cm.apply_sweep_value(*wg_i, "dark", 1e6)
        pred = cm.predict(chain, pump)
        n = 4_000_000
        s = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=n, seed=29))
        for arm in ("signal", "idler"):
            p_click = getattr(pred, f"p_click_{arm}")
            sigma = renewal_sigma(n, p_click, getattr(pred, f"duty_{arm}"))
            z = z_score(getattr(s, f"singles_{arm}"), n * p_click, sigma**2)
            assert abs(z) < 4.5, (arm, z)


class TestSamplerGateLaw:
    """The per-gate law the sampler draws from, against the generating-function
    oracle, and its one owner: the sampler and ``predict`` both read
    ``chainmodel.no_fire_exponents``."""

    @pytest.mark.filterwarnings("ignore:per-pulse mean:RuntimeWarning")
    @pytest.mark.parametrize("name", presets.preset_names())
    def test_fire_probabilities_match_pgf(self, monkeypatch, name):
        # The three exponents _block_sampler hands to _gate_law give the
        # chance that a gate fires the signal detector, the idler and either;
        # pgf_gate_probabilities gives the same three without the sampler's
        # arithmetic.  At 10 mW, 100 mW and 1 W peak, for Poisson pairs and
        # one and 24 thermal modes, a gate fires with probability 1e-4 to 1,
        # where the oracle's 1 - q loses at most a few 1e-12 relative.  Each
        # run draws one gate.  The three exponents are those of
        # chainmodel.no_fire_exponents bit for bit, and predict's click
        # probabilities are each arm's duty times -expm1(-L) of the same law.
        base = cfg.build_experiment(presets.get_preset(name))
        captured = []
        gate_law = mc._gate_law
        monkeypatch.setattr(mc, "_gate_law", lambda quiet: captured.append(quiet) or gate_law(quiet))
        for peak_w in (0.01, 0.1, 1.0):
            chain, pump = cm.apply_sweep_value(*base, "pp", peak_w)
            for modes in (None, 1, 24):
                statistics = "poisson" if modes is None else "thermal"
                trial = mc.TrialConfig(n_pulses=1, pair_statistics=statistics, thermal_modes=modes or 24)
                mc.simulate(chain, pump, trial)
                quiet = captured.pop()
                law = cm.no_fire_exponents(cm.evaluate(chain, pump), chain, modes)
                assert list(map(float.hex, quiet)) == list(map(float.hex, law[:3])), (peak_w, modes)
                pred = cm.predict(chain, pump, thermal_modes=modes)
                assert pred.p_click_signal == pred.duty_signal * -math.expm1(-law[1])
                assert pred.p_click_idler == pred.duty_idler * -math.expm1(-law[2])
                l_none, l_signal, l_idler = quiet
                p_s, p_i, p_c, _ = pgf_gate_probabilities(chain, pump, modes)
                sampler = [-math.expm1(-l_signal), -math.expm1(-l_idler), -math.expm1(-l_none)]
                oracle = [p_s, p_i, p_s + p_i - p_c]
                assert sampler == pytest.approx(oracle, rel=1e-9, abs=0.0), (peak_w, statistics, modes)

    @pytest.mark.parametrize("modes", [None, 1, 24])
    def test_predict_over_a_dark_grid_equals_single_calls(self, modes):
        # the dark probability enters only the law's -log1p(-p_dark) terms,
        # which a grid takes element by element: every field and exponent of
        # one grid call equals the call at each single dark rate bit for bit
        base = cfg.build_experiment(presets.get_preset("wg-i"))
        grid = np.array([0.0, *np.geomspace(1.0, 1e6, 7), 5e6])
        swept = cm.apply_sweep_value(*base, "dark", grid)
        columns = cm.predict(*swept, thermal_modes=modes)
        exponents = cm.no_fire_exponents(cm.evaluate(*swept), swept[0], modes)
        for k, rate in enumerate(grid.tolist()):
            chain, pump = cm.apply_sweep_value(*base, "dark", rate)
            single = cm.predict(chain, pump, thermal_modes=modes)
            for name in field_names(single):
                assert np.broadcast_to(getattr(columns, name), grid.shape)[k].hex() == getattr(single, name).hex()
            law = cm.no_fire_exponents(cm.evaluate(chain, pump), chain, modes)
            assert [np.broadcast_to(x, grid.shape)[k].hex() for x in exponents] == list(map(float.hex, law))


class TestThermalPresets:
    """Thermal pair numbers against the generating-function oracle, dead time off."""

    @pytest.mark.parametrize("name", presets.preset_names())
    def test_oracle_poisson_limit_is_the_closed_form(self, name):
        chain, pump = cfg.build_experiment(presets.get_preset(name))
        chain = without_dead_time(chain)
        stats = cm.expected_gate_statistics(chain, pump)
        expected = (stats.p_click_signal, stats.p_click_idler, stats.p_coincidence, stats.p_accidental)
        assert pgf_gate_probabilities(chain, pump) == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("name", presets.preset_names())
    def test_predict_matches_pgf(self, name):
        # predict with thermal pairs is exact without dead time.  From 10 mW
        # to 1 W peak and for 1, 24 and 256 modes a detector fires in 6e-5 to
        # 0.58 of the gates; the oracle's 1 - q_s - q_i + q_si loses about
        # 1e-9 relative where the coincidences are rarest.
        base = cfg.build_experiment(presets.get_preset(name))
        for peak_w in (0.01, 0.037, 0.1, 0.3, 1.0):
            chain, pump = cm.apply_sweep_value(*base, "pp", peak_w)
            for modes in (1, 24, 256):
                expected = pgf_gate_probabilities(chain, pump, modes)
                got = predicted_probabilities(chain, pump, modes)
                assert got == pytest.approx(expected, rel=1e-8, abs=0.0), (peak_w, modes)

    @pytest.mark.parametrize("name", presets.preset_names())
    def test_counts_match_pgf(self, name):
        # One thermal mode, the law furthest from Poisson, at the preset
        # point; 200M pulses.  With 70k-290k singles, 630-11,700
        # coincidences and 22-400 accidentals, a shift of 1.1% to 2.2% in the
        # singles, 5.4% (wg-i) to 23% (wg-vi) in the coincidences and 29% to
        # 120% in the accidentals is caught with 90% power.  Every gate is
        # active.
        chain, pump = cfg.build_experiment(presets.get_preset(name))
        n = 200_000_000
        trial = mc.TrialConfig(
            n_pulses=n, seed=23, pair_statistics="thermal", thermal_modes=1, dead_time_enabled=False
        )
        s = mc.simulate(chain, pump, trial, threads=2)
        assert (s.active_gates_signal, s.active_gates_idler) == (n, n)
        assert s.accidental_pairs == n - 1
        for p in (pgf_gate_probabilities(chain, pump, modes=1), predicted_probabilities(chain, pump, 1)):
            z = count_zscores(s, p)
            assert max(abs(v) for v in z.values()) < 4.5, z

    def test_high_power_separates_the_laws(self, wg_i):
        # At 300 mW wg-i makes 1.6 pairs per pulse, where one thermal mode and
        # Poisson pairs differ by tens of sigma in 4M pulses: the thermal run
        # must match its own law and reject the Poisson one.
        chain, pump = cm.apply_sweep_value(*wg_i, "pp", 0.3)
        trial = mc.TrialConfig(
            n_pulses=4_000_000,
            seed=29,
            pair_statistics="thermal",
            thermal_modes=1,
            dead_time_enabled=False,
        )
        with pytest.warns(RuntimeWarning, match="exceeds 1"):
            s = mc.simulate(chain, pump, trial, threads=2)
        for p in (pgf_gate_probabilities(chain, pump, modes=1), predicted_probabilities(chain, pump, 1)):
            z = count_zscores(s, p)
            assert max(abs(v) for v in z.values()) < 4.5, z
        z_poisson = count_zscores(s, pgf_gate_probabilities(chain, pump))
        assert abs(z_poisson["coincidences"]) > 10.0, z_poisson


class TestCrosstalkFloor:
    def test_floor_singles_match_closed_form(self, awg_chain):
        # A 1% crosstalk floor over the 1.6 THz generation band adds about 10%
        # to each channel's singles.  40M pulses without dead time give about
        # 20k singles per arm (sd 0.7%), so the floor is resolved at more than
        # 10 sigma: the assertion below checks that a model without it would
        # be rejected with at least 90% power.
        chain, pump = awg_chain
        spec = replace(chain.demux.spec, crosstalk_floor=1e-2)
        chain = without_dead_time(replace(chain, demux=replace(chain.demux, spec=spec)))
        n = 40_000_000
        s = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=n, seed=3), threads=2)
        stats = cm.expected_gate_statistics(chain, pump)
        p = (stats.p_click_signal, stats.p_click_idler, stats.p_coincidence, stats.p_accidental)
        z = count_zscores(s, p)
        assert max(abs(v) for v in z.values()) < 4.5, z
        no_floor_demux = replace(chain.demux, spec=replace(spec, crosstalk_floor=0.0))
        no_floor = cm.expected_gate_statistics(replace(chain, demux=no_floor_demux), pump)
        shift = n * (stats.p_click_signal - no_floor.p_click_signal)
        assert shift / math.sqrt(n * stats.p_click_signal) > 4.5 + 1.28


    def test_floor_counts_match_pgf_with_thermal_pairs(self, awg_chain):
        # The same chain and size with one thermal mode: about 19,800 singles,
        # 160 coincidences and 10 accidentals, so a rate 4.1% off in the
        # singles, 50% in the coincidences or 2.3 times in the accidentals is
        # caught with 90% power.  The oracle's Poisson limit is the closed
        # form on this chain, whose post filters clamp nothing.
        chain, pump = awg_chain
        spec = replace(chain.demux.spec, crosstalk_floor=1e-2)
        chain = without_dead_time(replace(chain, demux=replace(chain.demux, spec=spec)))
        stats = cm.expected_gate_statistics(chain, pump)
        p = (stats.p_click_signal, stats.p_click_idler, stats.p_coincidence, stats.p_accidental)
        assert pgf_gate_probabilities(chain, pump) == pytest.approx(p, rel=1e-9, abs=0.0)
        trial = mc.TrialConfig(
            n_pulses=40_000_000, seed=3, pair_statistics="thermal", thermal_modes=1
        )
        s = mc.simulate(chain, pump, trial, threads=2)
        z = count_zscores(s, pgf_gate_probabilities(chain, pump, modes=1))
        assert max(abs(v) for v in z.values()) < 4.5, z


class TestPostFilterClamp:
    def test_narrow_post_filters_match_closed_form(self):
        # 30 GHz rectangular post filters behind the 80 GHz awg channels clamp
        # the pair and single bandwidths.  40M pulses without dead time give
        # about 10,100 singles per arm and 74 coincidences: a singles rate
        # 5.8% off is caught with 90% power, and the assertion below checks
        # that the unclamped singles (the channels' own 85 GHz) would be.
        document = presets.get_preset("awg")
        for arm in ("signal", "idler"):
            document["post_filters"][arm][0]["bandwidth_ghz"] = 30.0
            document["detectors"][arm]["dead_time_us"] = 0.0
        chain, pump = cfg.build_experiment(document)
        n = 40_000_000
        s = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=n, seed=3), threads=2)
        stats = cm.expected_gate_statistics(chain, pump)
        p = (stats.p_click_signal, stats.p_click_idler, stats.p_coincidence, stats.p_accidental)
        z = count_zscores(s, p)
        assert max(abs(v) for v in z.values()) < 4.5, z
        wide = tuple(replace(f, bandwidth_3db_hz=1e12) for f in chain.post_filters_signal)
        unclamped = replace(chain, post_filters_signal=wide, post_filters_idler=wide)
        shift = n * (cm.expected_gate_statistics(unclamped, pump).p_click_signal - p[0])
        assert shift / math.sqrt(n * p[0]) > 4.5 + 1.28


class TestStreamLaw:
    """The v9, v6 and v5 streams draw one law: each against ``predict``.

    wg-i with a one-gate dead time at the six pump powers of the saturated
    benchmark sweep, 50 mW to 1 W peak, where 0.005 to 0.81 of the gates fire
    some detector.  Under v9 the 166 mW, 302 mW, 549 mW and 1 W points
    (0.047, 0.145, 0.40 and 0.81) fire on at least ``_PER_GATE_FROM`` of
    their gates and draw one 16-bit uniform per gate; the others, and every
    point under v6 (SFC64) and v5 (Philox), with the constant set above 1,
    draw their gaps.  Each stream
    runs that sweep, 250k pulses a point, under 20 master seeds, so every
    point sums 5M pulses drawn from 20 child seeds.  An arm's dead time
    depends on that arm's fires alone, so ``predict``'s renewal singles and
    active gates are exact for each arm's marginal.  Each arm's summed singles
    and active gates are z-tested against them at 4.5 sigma; a singles bias
    of 0.18% at 1 W, 0.43% at 549 mW and 0.86% at 302 mW (5.1% at 50 mW) is
    caught with 90% power.
    """

    @pytest.mark.filterwarnings("ignore:per-pulse mean:RuntimeWarning")
    @pytest.mark.parametrize(
        "bit_generator, per_gate_from",
        [(np.random.SFC64, None), (np.random.SFC64, 2.0), (np.random.Philox, 2.0)],
        ids=["v9", "v6-sfc64", "v5-philox"],
    )
    def test_singles_and_active_gates_match_predict(self, monkeypatch, bit_generator, per_gate_from):
        monkeypatch.setattr(mc, "_BIT_GENERATOR", bit_generator)
        if per_gate_from is not None:
            monkeypatch.setattr(mc, "_PER_GATE_FROM", per_gate_from)
        document = presets.get_preset("wg-i")
        for arm in ("signal", "idler"):
            document["detectors"][arm]["dead_time_us"] = 0.01
        chain, pump = cfg.build_experiment(document)
        grid, pulses, seeds = np.geomspace(0.05, 1.0, 6), 250_000, 20
        sweeps = [mc.sweep(chain, pump, "pp", grid, mc.TrialConfig(n_pulses=pulses, seed=seed)) for seed in range(seeds)]
        n, z = pulses * seeds, {}
        for point, peak_w in enumerate(grid):
            pred = cm.predict(*cm.apply_sweep_value(chain, pump, "pp", peak_w))
            runs = [sweep[point][1] for sweep in sweeps]
            for arm in ("signal", "idler"):
                p_click, duty = getattr(pred, f"p_click_{arm}"), getattr(pred, f"duty_{arm}")
                sigma = renewal_sigma(n, p_click, duty)  # of the singles; one dead gate per click
                singles = sum(getattr(s, f"singles_{arm}") for s in runs)
                active = sum(getattr(s, f"active_gates_{arm}") for s in runs)
                z[float(peak_w), arm, "singles"] = z_score(singles, n * p_click, sigma**2)
                z[float(peak_w), arm, "active"] = z_score(active, n * duty, sigma**2)
        assert max(abs(v) for v in z.values()) < 4.5, z


def power_at_fire_probability(chain, pump, p: float) -> float:
    """The peak power at which a gate fires some detector with probability p, by bisection on ``predict``."""
    low, high = 1e-3, 10.0
    for _ in range(60):
        mid = math.sqrt(low * high)
        p_s, p_i, p_c, _ = predicted_probabilities(*cm.apply_sweep_value(chain, pump, "pp", mid))
        low, high = (mid, high) if p_s + p_i - p_c < p else (low, mid)
    return low


class TestAcrossThePerGateThreshold:
    """Blocks on both sides of ``_PER_GATE_FROM`` count what ``predict`` gives without dead time.

    wg-i without dead time at three peak powers: where 0.9 and 1.1 times
    ``_PER_GATE_FROM`` of the gates fire some detector, so that the blocks of
    the first draw the gaps between fires and those of the second one uniform
    per gate, 16M pulses each, and 1 W, where 0.81 of the gates fire, 4M
    pulses.  Without dead time the gates are independent, so each count's
    variance is exact: binomial for the singles and the coincidences, and for
    the accidentals each window's binomial term plus twice its covariance
    p_s p_c p_i - p_a**2 with the next window, which shares a gate with it.
    At 4.5 sigma a count is caught with 90% power when it is 1.05% (singles),
    4.3% (coincidences) or 7.8% (accidentals) off below the constant (144 mW
    at 0.04), 0.95%, 3.7% and 6.4% off above it (160 mW), and 0.25%, 0.40%
    and 0.41% off at 1 W.
    """

    @pytest.mark.filterwarnings("ignore:per-pulse mean:RuntimeWarning")
    @pytest.mark.parametrize(
        "share, n, per_gate", [(0.9, 16_000_000, False), (1.1, 16_000_000, True), (None, 4_000_000, True)],
        ids=["gaps", "per-gate", "per-gate-1w"],
    )
    def test_counts_match_predict(self, wg_i, share, n, per_gate):
        chain = without_dead_time(wg_i[0])
        peak_w = 1.0 if share is None else power_at_fire_probability(chain, wg_i[1], share * mc._PER_GATE_FROM)
        chain, pump = cm.apply_sweep_value(chain, wg_i[1], "pp", peak_w)
        p_s, p_i, p_c, p_a = predicted_probabilities(chain, pump)
        assert (p_s + p_i - p_c >= mc._PER_GATE_FROM) == per_gate
        s = mc.simulate(chain, pump, mc.TrialConfig(n_pulses=n, seed=31))
        windows = s.accidental_pairs
        neighbours = 2 * (windows - 1) * (p_s * p_c * p_i - p_a**2)
        z = {
            "singles_signal": z_score(s.singles_signal, n * p_s, n * p_s * (1 - p_s)),
            "singles_idler": z_score(s.singles_idler, n * p_i, n * p_i * (1 - p_i)),
            "coincidences": z_score(s.coincidences, n * p_c, n * p_c * (1 - p_c)),
            "accidentals": z_score(s.accidentals, windows * p_a, windows * p_a * (1 - p_a) + neighbours),
        }
        assert max(abs(v) for v in z.values()) < 4.5, z


class TestGoldenCounts:
    """Counts pinned bit for bit: a refactor of the rate parameters must not move them.

    Frozen from runs of the preset chains under the random stream named by
    ``RNG_STREAM``; a new stream gets a new name and new goldens.  The first
    five are 300k-pulse runs of one block.  Two of them are wg-i at 200 mW
    and 1 W peak with a one-gate detector dead time, where about 3% and 37%
    of gates click and the dead-time filter does real work.  The last two
    are 3M pulses at 1 W, three blocks of 2**20 gates joined across their
    edges, at a one-gate dead time (the closed form) and a two-gate one
    (pointer doubling under dense fires); two threads must count them alike.

    ``GOLDEN_V5`` and ``GOLDEN_V6`` hold the same runs under
    ``philox-sparse-v5`` and ``sfc64-sparse-v6``, each frozen before the next
    stream.  The v6 stream changed only the bit generator of each block, from
    Philox to SFC64; v7 only the draw of a block whose gates fire some
    detector at least ``_PER_GATE_FROM`` of the time, from one uniform per
    fire to one per gate; v8 only that per-gate draw, from a float64 uniform
    to a 32-bit one, two gates per SFC64 word; and v9 only that draw again,
    to a 16-bit uniform, four gates a word, with a residual set of gates
    redrawn.  So with ``_PER_GATE_FROM`` set above 1, where every block draws
    its gaps, the v9 arithmetic must count the v6 goldens bit for bit, and
    with ``_BIT_GENERATOR`` set back to Philox also the v5 ones.  The three
    1 W runs, about 0.81 fires per gate, draw per gate, and so does the
    200 mW run: it fires on 0.067 of its gates, below v8's constant of 0.07,
    where it drew its gaps, and above v9's 0.04.  The v7 and v8 counts of
    the per-gate runs are gone with their draws.
    """

    RNG_STREAM = "sfc64-v9"
    GOLDEN_V6 = {
        # (preset, pair statistics, seed, dead time us, peak power W, pulses) -> counts
        ("wg-i", "poisson", 11, None, None, 300_000): (180, 178, 1, 0, 120358, 122000, 299999),
        ("wg-i", "thermal", 12, None, None, 300_000): (165, 176, 4, 1, 135704, 124000, 299999),
        ("awg", "poisson", 13, None, None, 300_000): (94, 101, 0, 0, 206000, 199000, 299999),
        ("wg-i", "poisson", 14, 0.01, 0.2, 300_000): (10111, 10188, 766, 319, 289889, 289812, 299999),
        ("wg-i", "poisson", 15, 0.01, 1.0, 300_000): (109757, 109743, 41323, 39549, 190243, 190258, 299999),
        ("wg-i", "poisson", 16, 0.01, 1.0, 3_000_000): (
            1098990, 1098769, 416209, 394347, 1901010, 1901232, 2999999
        ),
        ("wg-i", "poisson", 17, 0.02, 1.0, 3_000_000): (
            804761, 804300, 223874, 213303, 1390478, 1391402, 2999999
        ),
    }
    GOLDEN = {
        **GOLDEN_V6,
        ("wg-i", "poisson", 14, 0.01, 0.2, 300_000): (10234, 10072, 799, 314, 289766, 289928, 299999),
        ("wg-i", "poisson", 15, 0.01, 1.0, 300_000): (109787, 109882, 41546, 39347, 190214, 190119, 299999),
        ("wg-i", "poisson", 16, 0.01, 1.0, 3_000_000): (
            1099808, 1098721, 417050, 394139, 1900193, 1901279, 2999999
        ),
        ("wg-i", "poisson", 17, 0.02, 1.0, 3_000_000): (
            804397, 804821, 223974, 212922, 1391208, 1390359, 2999999
        ),
    }
    # below a fire probability of 1/3 the gaps of v5 are those numpy's
    # ``geometric`` draws by inversion, so the first four are the v4 counts
    GOLDEN_V5 = {
        ("wg-i", "poisson", 11, None, None, 300_000): (183, 181, 3, 0, 117000, 119268, 299999),
        ("wg-i", "thermal", 12, None, None, 300_000): (185, 172, 3, 0, 115822, 128000, 299999),
        ("awg", "poisson", 13, None, None, 300_000): (93, 82, 0, 0, 207000, 218648, 299999),
        ("wg-i", "poisson", 14, 0.01, 0.2, 300_000): (10155, 10077, 780, 286, 289845, 289923, 299999),
        ("wg-i", "poisson", 15, 0.01, 1.0, 300_000): (109804, 110017, 41731, 39517, 190196, 189983, 299999),
        ("wg-i", "poisson", 16, 0.01, 1.0, 3_000_000): (
            1099292, 1099517, 415065, 396608, 1900708, 1900483, 2999999
        ),
        ("wg-i", "poisson", 17, 0.02, 1.0, 3_000_000): (
            804304, 804440, 224067, 212693, 1391392, 1391122, 2999999
        ),
    }

    @staticmethod
    def _counts(key, gaps_only: bool = False) -> tuple[int, ...]:
        """The counts of the run ``key``; with ``gaps_only`` every block draws its gaps, as in v6."""
        name, statistics, seed, dead_us, peak_w, pulses = key
        document = presets.get_preset(name)
        if dead_us is not None:
            for arm in ("signal", "idler"):
                document["detectors"][arm]["dead_time_us"] = dead_us
        chain, pump = cfg.build_experiment(document)
        if peak_w is not None:
            chain, pump = cm.apply_sweep_value(chain, pump, "pp", peak_w)
        trial = mc.TrialConfig(n_pulses=pulses, seed=seed, pair_statistics=statistics)
        with mock.patch.object(mc, "_PER_GATE_FROM", 2.0 if gaps_only else mc._PER_GATE_FROM):
            s = mc.simulate(chain, pump, trial)
            if pulses > mc._MIN_BLOCK:
                assert mc.simulate(chain, pump, trial, threads=2) == s
        return (
            s.singles_signal,
            s.singles_idler,
            s.coincidences,
            s.accidentals,
            s.active_gates_signal,
            s.active_gates_idler,
            s.accidental_pairs,
        )

    # the 1 W point holds 18 pairs per pulse, past the model's range
    @pytest.mark.filterwarnings("ignore:per-pulse mean:RuntimeWarning")
    @pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}-seed{k[2]}")
    def test_counts_are_frozen(self, key):
        assert mc.RNG_STREAM == self.RNG_STREAM
        assert self._counts(key) == self.GOLDEN[key]

    @pytest.mark.filterwarnings("ignore:per-pulse mean:RuntimeWarning")
    @pytest.mark.parametrize("key", list(GOLDEN_V6), ids=lambda k: f"{k[0]}-{k[1]}-seed{k[2]}")
    def test_gap_draws_count_the_v6_goldens(self, key):
        assert self._counts(key, gaps_only=True) == self.GOLDEN_V6[key]

    @pytest.mark.filterwarnings("ignore:per-pulse mean:RuntimeWarning")
    @pytest.mark.parametrize("key", list(GOLDEN_V5), ids=lambda k: f"{k[0]}-{k[1]}-seed{k[2]}")
    def test_philox_blocks_count_the_v5_goldens(self, monkeypatch, key):
        monkeypatch.setattr(mc, "_BIT_GENERATOR", np.random.Philox)
        assert self._counts(key, gaps_only=True) == self.GOLDEN_V5[key]


def recording_gate_fires(drawn: list):
    """``mc._gate_fires`` that appends each block's fires, as sorted gates, and size to ``drawn``."""
    gate_fires = mc._gate_fires

    def recording(rng, law, size, bits):
        fires = gate_fires(rng, law, size, bits)
        drawn.append((tuple(map(bit_gates, fires)) if bits else fires, size))
        return fires

    return recording


def assert_one_pass(s: mc.CountSummary, drawn: list, dead: tuple[int, int], offset: int) -> None:
    """Every count of ``s`` equals one per-gate pass over the fires its blocks drew, in order."""
    starts = np.cumsum([0] + [size for _, size in drawn])
    assert starts[-1] == s.n_pulses
    clicks = []
    for arm, name in enumerate(("signal", "idler")):
        fire = np.zeros(s.n_pulses, dtype=bool)
        fire[np.concatenate([f[arm] + start for (f, _), start in zip(drawn, starts)])] = True
        arm_mask, active = reference_dead_time(fire, dead[arm])
        clicks.append(np.flatnonzero(arm_mask))
        assert (getattr(s, f"singles_{name}"), getattr(s, f"active_gates_{name}")) == (clicks[arm].size, active)
    signal, idler = clicks
    assert s.coincidences == np.intersect1d(signal, idler).size
    assert s.accidentals == np.intersect1d(signal + offset, idler).size
    assert s.accidental_pairs == max(s.n_pulses - offset, 0)


class TestBlockEdges:
    """A run of many blocks counts as one continuous stream.

    The fires-per-block target and the smallest block are patched down, so
    that short runs span hundreds of blocks, some shorter than the dead time
    and than the accidental offset.  The fires each block draws are recorded
    and joined into one gate mask per arm; the per-gate reference filter over
    it and a direct count of the clicks it accepts must give every count of
    the run.  The dense and saturated cases fire on 0.31 and 0.81 of their
    gates, past ``_PER_GATE_FROM``, so the join's carry repair and pointer
    doubling run on blocks drawn one uniform per gate; at one dead gate and
    an offset of 1 or 2 gates those blocks are bitsets, counted by
    ``_join_bits``.  Counted over 620 examples of the property test (10
    runs, under sfc64-v9): 3.1% hold no pairs, 93% draw one uniform per
    gate, 41% count bitsets and 21% count bitsets over more than one block.
    """

    CASES = {
        # 0.31 fires per gate with a one-gate dead time: 667 blocks of 3 gates,
        # past _PER_GATE_FROM, so each draws one uniform per gate
        "dense-1-gate": ((0.5, 0.5, 0.5, 0.0, 0.01), 1.0, 2_000),
        # the same fires with a two-gate dead time: pointer doubling, not the
        # closed form, on every block and on every rerun after a carry
        "dense-2-gate": ((0.5, 0.5, 0.5, 0.0, 0.02), 1.0, 2_000),
        # 0.81 fires per gate, well into the per-gate draw, with a one-gate and
        # a two-gate dead time: 667 blocks of 3 gates
        "saturated-1-gate": ((2.2, 0.5, 0.5, 0.0, 0.01), 2.5, 2_000),
        "saturated-2-gate": ((2.2, 0.5, 0.5, 0.0, 0.02), 2.5, 2_000),
        # 0.035 fires per gate with a 1000-gate dead time: 878 blocks of 57 gates
        "sparse-1000-gate": ((0.02, 0.5, 0.5, 1e6, 10.0), 2.0, 50_000),
        # the dense fires with two dead gates on the signal and 40 on the idler,
        # in 80 blocks of 25 gates: the join reruns the pass on the idler after
        # about 30 carries, some with signal fires beside them (seed 9, offset 1)
        "dense-2-and-40-gate": ((0.5, 0.5, 0.5, 0.0, 0.02), 8.0, 2_000, 40),
    }

    def _run(self, monkeypatch, case, offset, threads):
        rates, fires_per_block, n, *idler_dead = self.CASES[case]
        monkeypatch.setattr(mc, "_FIRES_PER_BLOCK", fires_per_block)
        monkeypatch.setattr(mc, "_MIN_BLOCK", 1)
        chain, pump = make_rate_chain(*rates)
        if idler_dead:
            chain = replace(chain, detector_idler=replace(chain.detector_idler, dead_gates=idler_dead[0]))
        trial = mc.TrialConfig(n_pulses=n, seed=9, accidental_offset=offset)
        drawn = []
        monkeypatch.setattr(mc, "_gate_fires", recording_gate_fires(drawn))
        return mc.simulate(chain, pump, trial, threads=threads), drawn, chain

    # the saturated cases hold 2.2 pairs per pulse, past the model's range
    @pytest.mark.filterwarnings("ignore:per-pulse mean:RuntimeWarning")
    @pytest.mark.parametrize("case", list(CASES))
    def test_counts_equal_one_pass_over_the_whole_run(self, monkeypatch, case):
        _, drawn, chain = self._run(monkeypatch, case, 1, threads=1)
        sizes, dead = [size for _, size in drawn], chain.detector_signal.dead_gates
        # the 1000-gate dead time outlasts many blocks
        assert len(sizes) >= 50 and (dead <= 2 or max(sizes) < dead / 10)
        # the offsets: the next gate, two on, and one longer than any block
        for offset in (1, 2, max(sizes) + 3):
            s, drawn, _ = self._run(monkeypatch, case, offset, threads=1)
            assert_one_pass(s, drawn, (dead, chain.detector_idler.dead_gates), offset)

    @pytest.mark.filterwarnings("ignore:per-pulse mean:RuntimeWarning")
    @pytest.mark.parametrize("case", list(CASES))
    def test_thread_count_irrelevant(self, monkeypatch, case):
        counts = [self._run(monkeypatch, case, 2, threads)[0] for threads in (1, 2, 4)]
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.filterwarnings("ignore:per-pulse mean:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 2000),
        # drawn as the chance q that a gate sees no pair photon, 0.75 mu at
        # 0.5 efficiency per arm: hypothesis leans to small q, dense runs
        mu=st.floats(0.15, 1.0).map(lambda q: -math.log(q) / 0.75),
        # half the examples at most one dead gate, where dense blocks are bitsets
        dead_us=st.one_of(st.sampled_from([0.0, 0.01]), st.sampled_from([0.02, 0.03, 0.05, 1.0, 10.0])),
        fires_per_block=st.floats(2.0, 100.0),
        offset=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    # an idler click the join reruns after a carry closes the window of a
    # signal click in the block before
    @example(n=12, mu=0.5, dead_us=0.01, fires_per_block=2.0, offset=1, seed=4)
    # no pairs: dark counts alone, 1e-3 per gate, in blocks of about 3,000 gates
    @example(n=20_000, mu=0.0, dead_us=0.01, fires_per_block=3.0, offset=2, seed=5)
    def test_counts_equal_one_pass_for_any_block_count(self, n, mu, dead_us, fires_per_block, offset, seed):
        chain, pump = make_rate_chain(mu, 0.5, 0.5, dark_rate_hz=1e5, dead_time_us=dead_us)
        trial = mc.TrialConfig(n_pulses=n, seed=seed, accidental_offset=offset)
        drawn = []
        with (
            mock.patch.object(mc, "_FIRES_PER_BLOCK", fires_per_block),
            mock.patch.object(mc, "_MIN_BLOCK", 1),
            mock.patch.object(mc, "_gate_fires", recording_gate_fires(drawn)),
        ):
            s = mc.simulate(chain, pump, trial)
        assert_one_pass(s, drawn, (chain.detector_signal.dead_gates, chain.detector_idler.dead_gates), offset)
