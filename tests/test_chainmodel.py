import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim import chainmodel as cm
from pairsim import config as cfg
from pairsim import montecarlo as mc
from pairsim import presets
from pairsim.records import field_names, replace
from conftest import make_rate_chain

WG_I = cfg.build_experiment(presets.get_preset("wg-i"))

def threshold_oracle(mu, eta_s, eta_i, p_dark=0.0, dead_gates=0, noise_s=0.0, noise_i=0.0):
    """(signal, idler, coincidence, accidental) per clock gate for a
    ``make_rate_chain`` chain, by inclusion-exclusion over the no-click events.

    Poisson pairs of mean mu reach each detector independently, so no signal
    cause arrives with probability exp(-mu eta_s), and neither arm sees one
    with exp(-mu (eta_s + eta_i - eta_s eta_i)).  Each arm also sees Poisson
    noise photons of mean noise_s or noise_i at its detector, independent of
    the pairs and of the other arm.  A dark count fires an active gate with
    p_dark; each arm is active a fraction 1 / (1 + p_active D).
    """
    q_s = (1.0 - p_dark) * math.exp(-mu * eta_s - noise_s)
    q_i = (1.0 - p_dark) * math.exp(-mu * eta_i - noise_i)
    q_si = (1.0 - p_dark) ** 2 * math.exp(-mu * (eta_s + eta_i - eta_s * eta_i) - noise_s - noise_i)
    duty_s = 1.0 / (1.0 + (1.0 - q_s) * dead_gates)
    duty_i = 1.0 / (1.0 + (1.0 - q_i) * dead_gates)
    return (
        duty_s * (1.0 - q_s),
        duty_i * (1.0 - q_i),
        duty_s * duty_i * (1.0 - q_s - q_i + q_si),
        duty_s * duty_i * (1.0 - q_s) * (1.0 - q_i),
    )


def gate_probabilities(pred: cm.RatePrediction) -> tuple[float, float, float, float]:
    return (pred.p_click_signal, pred.p_click_idler, pred.p_coincidence, pred.p_accidental)


# Expected values marked "oracle" below were frozen from an independent
# 30-digit mpmath evaluation of the stated expressions.


class TestUnitHelpers:
    def test_db_to_linear_identity(self):
        assert cm.db_to_linear(0.0) == 1.0

    @pytest.mark.parametrize(
        "db,expected",
        [
            (2.1, 0.616595001861482),  # oracle: 10**(-0.21)
            (7.7, 0.169824365246174),  # oracle: 10**(-0.77)
            (3.8, 0.416869383470335),  # oracle: 10**(-0.38)
        ],
    )
    def test_db_to_linear_values(self, db, expected):
        assert cm.db_to_linear(db) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_db_to_neper(self):
        assert cm.db_to_neper(10.0) == pytest.approx(math.log(10.0), rel=1e-15, abs=0.0)
        # 2.0 dB/cm as dB/m
        assert cm.db_to_neper(200.0) == pytest.approx(46.0517018598809, rel=1e-12, abs=0.0)


def _effective_length(loss_db_per_m, length_m):
    return cm.WaveguideSegment(cm.KIND_PASSIVE, length_m, loss_db_per_m).effective_length_m


class TestEffectiveLength:
    def test_lossless_limit(self):
        assert _effective_length(0.0, 0.05) == 0.05

    def test_reference_point(self):
        # oracle: alpha = 2.0 dB/cm, L = 1.37 cm
        assert _effective_length(200.0, 0.0137) == pytest.approx(
            0.0101601400564269, rel=1e-12, abs=0.0
        )

    def test_long_length_asymptote(self):
        # oracle: 1 / alpha_Np for 2.0 dB/cm
        assert _effective_length(200.0, 10.0) == pytest.approx(
            0.0217147240951626, rel=1e-9
        )

    def test_series_branch_continuity(self):
        # just above and below the series switchover agree to high order
        a_db = 1e-6 * 10.0 / math.log(10.0)  # alpha_Np = 1e-6 per m
        below = _effective_length(a_db, 0.999999)
        above = _effective_length(a_db, 1.000001)
        assert abs(above - below) < 1e-5
        assert below < 1.0

    def test_monotone_in_length_and_loss(self):
        lengths = np.linspace(0.001, 0.2, 40)
        values = [_effective_length(200.0, float(l)) for l in lengths]
        assert all(b > a for a, b in zip(values, values[1:]))
        losses = np.linspace(10.0, 2000.0, 40)
        values = [_effective_length(float(a), 0.02) for a in losses]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_bounds(self):
        for a_db, length in [(50.0, 0.01), (500.0, 0.05), (0.0, 0.1)]:
            leff = _effective_length(a_db, length)
            assert 0.0 <= leff <= length + 1e-15
            if a_db > 0:
                assert leff <= 1.0 / cm.db_to_neper(a_db) + 1e-15


class TestPeakPower:
    def test_reference(self):
        pump = cm.PumpConfig(1551.1e-9, 1e8, 200e-12, 0.74e-3)
        assert cm.peak_power(pump) == pytest.approx(0.037, rel=1e-12, abs=0.0)

    def test_cw_limit(self):
        pump = cm.PumpConfig(1550e-9, 1e8, 1e-8, 5e-3)
        assert cm.peak_power(pump) == pytest.approx(5e-3, rel=1e-12, abs=0.0)

    def test_direct(self):
        pump = cm.PumpConfig(1550e-9, 1e8, 100e-12, 1e-3)
        assert cm.peak_power(pump) == pytest.approx(0.1, rel=1e-12, abs=0.0)

    def test_duty_above_one_rejected(self):
        with pytest.raises(ValueError):
            cm.PumpConfig(1550e-9, 1e8, 2e-8, 1e-3)

    def test_duty_that_underflows_to_zero_rejected(self):
        # both factors positive, their product 0.0: no peak power divides by it
        with pytest.raises(ValueError, match=r"rep_rate_hz \* pulse_fwhm_s, the duty cycle, must be in \(0, 1\]"):
            cm.PumpConfig(1550e-9, 1e-294, 1e-312, 3.7e-5)


class TestPairGenerationRate:
    def setup_method(self):
        self.segment = cm.WaveguideSegment("nonlinear", 0.0137, 200.0, 161.0)
        self.pump = cm.PumpConfig(1551.1e-9, 1e8, 200e-12, 0.74e-3)

    @staticmethod
    def rate(pump, segment):
        """Pairs per pulse in a 0.12 THz band at the pump's peak power."""
        peak = cm.peak_power(pump)
        return cm.pair_generation_rate_at_power(segment, 0.12e12, pump.pulse_fwhm_s, peak)

    def test_zero_gamma(self):
        seg = cm.WaveguideSegment("nonlinear", 0.0137, 200.0, 0.0)
        assert self.rate(self.pump, seg) == 0.0

    def test_reference_point(self):
        # oracle: full fitted parameter set at 37 mW peak
        value = self.rate(self.pump, self.segment)
        assert value == pytest.approx(0.0248923461322535, rel=1e-12, abs=0.0)

    def test_quadratic_in_power(self):
        double = replace(self.pump, average_power_w=2 * self.pump.average_power_w)
        ratio = self.rate(double, self.segment) / self.rate(self.pump, self.segment)
        assert ratio == pytest.approx(4.0, rel=1e-12, abs=0.0)

    def test_quadratic_in_gamma(self):
        seg2 = replace(self.segment, gamma_per_w_m=2 * self.segment.gamma_per_w_m)
        ratio = self.rate(self.pump, seg2) / self.rate(self.pump, self.segment)
        assert ratio == pytest.approx(4.0, rel=1e-12, abs=0.0)

    def test_passive_segment_rejected(self):
        with pytest.raises(ValueError):
            self.rate(self.pump, cm.WaveguideSegment("passive", 0.01, 100.0))

    def test_length_optimum_analytic_and_numeric(self):
        # oracle: ln 2 / alpha_Np = 1.50514997831991 cm for 2.0 dB/cm
        optimum = 0.0150514997831991
        grid = np.arange(0.005, 0.04, 1e-4)  # 0.01 cm steps
        rates = [self.rate(self.pump, replace(self.segment, length_m=float(l))) for l in grid]
        assert abs(grid[int(np.argmax(rates))] - optimum) <= 1e-4 + 1e-12


class TestChainTransmittances:
    def test_trivial_chain(self):
        chain, _ = make_rate_chain(1e-3)
        assert cm.chain_transmittances(chain) == (1.0, 1.0)

    def test_passive_segment_value(self):
        chain, _ = make_rate_chain(1e-3)
        seg = cm.WaveguideSegment("passive", 0.0293, 180.0)
        chain = replace(chain, segments=chain.segments + (seg,))
        eta_s, eta_i = cm.chain_transmittances(chain)
        # oracle: 10**(-1.8 * 2.93 / 10)
        assert eta_s == pytest.approx(0.296893028622637, rel=1e-12, abs=0.0)
        assert eta_i == eta_s

    def test_filter_stage_multiplies(self):
        chain, _ = make_rate_chain(1e-3)
        before = cm.chain_transmittances(chain)[0]
        stage = cm.FilterSpec(bandwidth_3db_hz=0.5e12, insertion_loss_db=3.8)
        chain = replace(
            chain, post_filters_signal=(stage,), post_filters_idler=(stage,)
        )
        after = cm.chain_transmittances(chain)[0]
        # oracle: 10**(-0.38)
        assert after / before == pytest.approx(0.416869383470335, rel=1e-12, abs=0.0)

    def test_upstream_segment_attenuates_pump_not_photons(self):
        chain, pump = make_rate_chain(1e-3)
        seg = cm.WaveguideSegment("passive", 0.01, 300.0)
        chain2 = replace(chain, segments=(seg,) + chain.segments)
        assert cm.chain_transmittances(chain2) == cm.chain_transmittances(chain)
        assert cm.pump_peak_power_at_source(chain2, pump) == pytest.approx(
            cm.peak_power(pump) * seg.transmittance, rel=1e-12, abs=0.0
        )

    def test_exactly_one_nonlinear_enforced(self):
        chain, _ = make_rate_chain(1e-3)
        with pytest.raises(ValueError):
            replace(chain, segments=chain.segments + chain.segments)
        with pytest.raises(ValueError):
            replace(chain, segments=(cm.WaveguideSegment("passive", 0.01, 0.0),))


class TestSinglesRate:
    def test_noise_free_limit(self):
        chain, pump = make_rate_chain(1e-2)
        mu_s, mu_i = cm.singles_rate(chain, pump)
        mu_pair = TestPairGenerationRate.rate(pump, chain.nonlinear_segment)
        assert mu_s == pytest.approx(mu_pair, rel=1e-12, abs=0.0)
        assert mu_i == pytest.approx(mu_pair, rel=1e-12, abs=0.0)

    def test_low_power_linear_dominates(self):
        chain, pump = make_rate_chain(1e-2, n1_per_w=0.3)
        scale = 1e-5
        pump_low = replace(pump, average_power_w=pump.average_power_w * scale)
        p_low = cm.pump_peak_power_at_source(chain, pump_low)
        mu_s, _ = cm.singles_rate(chain, pump_low)
        assert mu_s / p_low == pytest.approx(0.3, rel=1e-3)

    def test_reference_sum(self):
        # the fitted-device segment gives mu_pair = 0.02489 at 37 mW peak;
        # n1 = 0.1 /W adds 0.0037 for a singles flux of 0.0286
        chain, pump = make_rate_chain(1.0, n1_per_w=0.1)
        segment = cm.WaveguideSegment("nonlinear", 0.0137, 200.0, 161.0)
        chain = replace(chain, segments=(segment,))
        pump = replace(pump, average_power_w=0.037 * pump.duty_cycle)
        mu_s, _ = cm.singles_rate(chain, pump)
        assert mu_s == pytest.approx(0.0248923461322535 + 0.0037, rel=1e-12, abs=0.0)
        assert mu_s == pytest.approx(0.0286, rel=1e-3)


def detector(dead_gates: int) -> cm.DetectorConfig:
    return cm.DetectorConfig(1.0, dead_gates=dead_gates)


class TestGateDuty:
    def test_no_clicks(self):
        assert cm.gate_duty(0.0, detector(1000)) == 1.0

    def test_reference_point(self):
        assert cm.gate_duty(0.01, detector(1000)) == pytest.approx(1.0 / 11.0, rel=1e-12, abs=0.0)

    def test_zero_dead_gates(self):
        assert cm.gate_duty(0.9, detector(0)) == 1.0
        # 4 ns at 100 MHz rounds to zero gates at the config boundary
        document = presets.get_preset("wg-i")
        document["detectors"]["signal"]["dead_time_us"] = 4e-3
        chain, _ = cfg.build_experiment(document)
        assert chain.detector_signal.dead_gates == 0

    def test_dark_only_reference(self):
        # oracle: 1 / (1 + 2.1e-5 * 1000)
        assert cm.gate_duty(2.1e-5, detector(1000)) == pytest.approx(0.979431929480901, rel=1e-12, abs=0.0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            cm.gate_duty(1.5, detector(1000))

    def test_negative_dead_time_is_refused_by_the_detector(self):
        # the duty reads the dead gates of a DetectorConfig, which refuses a
        # negative count however it is built, so -2 gates never reach the
        # division, where 1 + 0.5 * -2 is zero
        with pytest.raises(ValueError, match="dead_gates"):
            cm.gate_duty(0.5, detector(-2))
        with pytest.raises(ValueError, match="dead_gates"):
            cm.gate_duty(0.5, replace(detector(1000), dead_gates=-2))


class TestClickProbabilities:
    def test_all_zero(self):
        chain, pump = make_rate_chain(0.0)
        pred = cm.predict(chain, pump)
        assert (pred.p_click_signal, pred.p_click_idler) == (0.0, 0.0)

    def test_dark_only(self):
        # dark counts fire only in active gates: p = p_d / (1 + p_d D) with a
        # 1000-gate dead time.  p_d = 2**-16 is exact in binary, so neither
        # the model's 1 - (1 - p_d) nor threshold_oracle's sums carry rounding.
        p_dark = 2.0**-16
        chain, pump = make_rate_chain(0.0, dark_rate_hz=1e8 * p_dark, dead_time_us=10.0)
        pred = cm.predict(chain, pump)
        expected = threshold_oracle(0.0, 1.0, 1.0, p_dark, dead_gates=1000)
        assert gate_probabilities(pred) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert pred.p_click_signal == pytest.approx(p_dark / (1.0 + p_dark * 1000), rel=1e-12, abs=0.0)
        assert pred.duty_signal == pytest.approx(1.0 / (1.0 + p_dark * 1000), rel=1e-12, abs=0.0)

    def test_linear_product(self):
        # a threshold detector clicks with 1 - exp(-eta mu), which is the
        # linear product eta mu to second order
        chain, pump = make_rate_chain(1e-3, eta_signal=0.05, eta_idler=0.05)
        p_s = cm.predict(chain, pump).p_click_signal
        mu_s, _ = cm.singles_rate(chain, pump)
        assert p_s == pytest.approx(-math.expm1(-0.05 * mu_s), rel=1e-12, abs=0.0)
        assert 0.0 < 0.05 * mu_s - p_s <= (0.05 * mu_s) ** 2 / 2.0

    def test_high_power_saturates_at_one(self):
        # 40 times the power of a mu = 0.9 chain: mu = 1440 pairs per pulse,
        # so both arms click in every gate
        chain, pump = make_rate_chain(0.9)
        big = replace(pump, average_power_w=pump.average_power_w * 40)
        pred = cm.predict(chain, big)
        assert gate_probabilities(pred) == (1.0, 1.0, 1.0, 1.0)
        assert pred.car == 1.0
        # with 1e-3 efficient arms the same point is far from saturation
        chain, _ = make_rate_chain(0.9, eta_signal=1e-3, eta_idler=1e-3)
        expected = threshold_oracle(1440.0, 1e-3, 1e-3)
        assert gate_probabilities(cm.predict(chain, big)) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mu, eta_s, eta_i", [(1e-3, 0.1, 0.1), (0.5, 0.3, 0.2), (6.0, 0.3, 0.3)])
    def test_noise_dark_and_pile_up_together(self, mu, eta_s, eta_i):
        # noise photons n0 + n1 P at the source, dark counts, and up to 6
        # pairs per pulse, with no dead time; the chain's peak power is
        # sqrt(mu / (B dt)) with B dt = 0.12 THz * 200 ps = 24
        chain, pump = make_rate_chain(mu, eta_s, eta_i, dark_rate_hz=2e5, n0=0.05, n1_per_w=0.2)
        noise = 0.05 + 0.2 * math.sqrt(mu / 24.0)
        expected = threshold_oracle(mu, eta_s, eta_i, p_dark=2e-3, noise_s=eta_s * noise, noise_i=eta_i * noise)
        # the oracle's 1 - q_s - q_i + q_si cancels terms near 1, so it carries
        # a few units in the last place of 1, about 1e-16 each, absolute
        assert gate_probabilities(cm.predict(chain, pump)) == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestCarEstimate:
    def test_no_pairs_gives_one(self):
        chain, pump = make_rate_chain(0.0, dark_rate_hz=1e3)
        assert cm.car_estimate(chain, pump) == pytest.approx(1.0, abs=1e-12)

    def test_dark_dominated_tends_to_one(self):
        chain, pump = make_rate_chain(1e-4, eta_signal=0.1, eta_idler=0.1, dark_rate_hz=1e7)
        assert cm.car_estimate(chain, pump) < 1.01

    def test_undefined_when_channel_never_clicks(self):
        chain, pump = make_rate_chain(0.0)
        with pytest.raises(ValueError, match="CAR undefined"):
            cm.car_estimate(chain, pump)

    def test_exchange_symmetry(self, wg_i):
        chain, pump = wg_i
        swapped = replace(
            chain,
            detector_signal=chain.detector_idler,
            detector_idler=chain.detector_signal,
            post_filters_signal=chain.post_filters_idler,
            post_filters_idler=chain.post_filters_signal,
            noise_signal=chain.noise_idler,
            noise_idler=chain.noise_signal,
        )
        assert cm.car_estimate(swapped, pump) == pytest.approx(
            cm.car_estimate(chain, pump), rel=1e-12, abs=0.0
        )

    def test_unimodal_in_power(self, wg_i):
        chain, pump = wg_i
        cars = []
        for peak in np.geomspace(2e-4, 0.3, 80):
            pump_v = replace(pump, average_power_w=peak * pump.duty_cycle)
            cars.append(cm.car_estimate(chain, pump_v))
        diffs = np.sign(np.diff(cars))
        flips = int(np.count_nonzero(np.diff(diffs) != 0))
        assert flips == 1  # rises once, falls once
        assert 0 < int(np.argmax(cars)) < len(cars) - 1

    def test_order_of_magnitude_max(self, wg_i):
        # with the documented assumed noise coefficients the chain tops out
        # at a CAR of order 100 (checked to a factor of two)
        chain, pump = wg_i
        cars = [
            cm.car_estimate(chain, replace(pump, average_power_w=p * pump.duty_cycle))
            for p in np.geomspace(5e-4, 0.2, 120)
        ]
        assert 50.0 <= max(cars) <= 200.0


class TestPredict:
    def test_invariants_on_presets(self, wg_i, awg_chain):
        for chain, pump in (wg_i, awg_chain):
            pred = cm.predict(chain, pump)
            for p in (
                pred.p_click_signal,
                pred.p_click_idler,
                pred.p_coincidence,
                pred.p_accidental,
            ):
                assert 0.0 <= p <= 1.0
            assert pred.car >= 1.0
            assert pred.mu_pair_out <= pred.mu_pair_generated

    def test_downstream_loss_scaling(self):
        # pairs need both photons (eta**2), detected singles need one (eta**1)
        mu = 1e-3
        chain, pump = make_rate_chain(mu, eta_signal=0.5, eta_idler=0.5)
        seg = cm.WaveguideSegment("passive", 0.02, 180.0)
        chain_lossy = replace(chain, segments=chain.segments + (seg,))
        eta = seg.transmittance
        base = cm.predict(chain, pump)
        lossy = cm.predict(chain_lossy, pump)
        assert lossy.mu_pair_out / base.mu_pair_out == pytest.approx(eta**2, rel=1e-12, abs=0.0)
        # threshold_oracle's 1 - q_s - q_i + q_si cancels to a coincidence
        # probability as small as 9e-6, losing up to about 1e-11 relative
        for pred, eta_arm in ((base, 0.5), (lossy, 0.5 * eta)):
            expected = threshold_oracle(mu, eta_arm, eta_arm)
            assert gate_probabilities(pred) == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert lossy.mu_signal == base.mu_signal  # referred to the source output

    @pytest.mark.parametrize("modes", [None, 1])
    @pytest.mark.parametrize("peak_w", [1e3, 1e9])
    def test_defined_at_any_power(self, wg_i, peak_w, modes):
        pred = cm.predict(*cm.apply_sweep_value(*wg_i, "pp", peak_w), thermal_modes=modes)
        assert all(math.isfinite(v) for v in vars(pred).values())
        for p in gate_probabilities(pred) + (pred.duty_signal, pred.duty_idler):
            assert 0.0 <= p <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        peak_w=st.floats(1e-4, 1e9),
        dark_fraction=st.floats(0.0, 0.999),
        dead_gates=st.integers(0, 5000),
    )
    def test_clicks_never_exceed_dead_time_ceiling(self, peak_w, dark_fraction, dead_gates):
        # a detector that clicks in every active gate clicks once per D + 1
        # gates; the bound allows the rounding of duty * p_active
        chain, pump = cm.apply_sweep_value(*WG_I, "pp", peak_w)
        detector = replace(
            chain.detector_signal, dark_prob_per_gate=dark_fraction, dead_gates=dead_gates
        )
        chain = replace(chain, detector_signal=detector, detector_idler=detector)
        pred = cm.predict(chain, pump)
        ceiling = 1.0 / (1.0 + dead_gates)
        for p in (pred.p_click_signal, pred.p_click_idler):
            assert 0.0 <= p <= ceiling * (1.0 + 4e-16)

    def test_car_undefined_reported_as_nan(self):
        chain, pump = make_rate_chain(0.0)
        pred = cm.predict(chain, pump)
        assert math.isnan(pred.car)
        assert pred.p_accidental == 0.0


class TestNoPairExcess:
    def test_poisson_excess_is_zero_and_thermal_tends_to_it(self):
        assert cm.no_pair_excess(2.5) == 0.0
        assert cm.no_pair_excess(2.5, 1) == math.log1p(2.5) - 2.5
        # (1 + x/m)**-m tends to exp(-x) as the modes grow
        excess = [abs(cm.no_pair_excess(2.5, m)) for m in (1, 24, 10**6, 1e300)]
        assert excess == sorted(excess, reverse=True)
        assert excess[-1] < 1e-12

    @pytest.mark.parametrize(
        "modes", [0, 0.5, -3, math.nan, math.inf, 10**400], ids=["0", "0.5", "-3", "nan", "inf", "10**400"]
    )
    def test_mode_numbers_the_law_cannot_take_raise(self, modes):
        with pytest.raises(ValueError, match="thermal modes"):
            cm.no_pair_excess(1.0, modes)


class TestGateStatistics:
    def test_matches_linear_model_at_small_mu(self):
        # the linearised forms: eta mu + p_d per click, eta_s eta_i mu for
        # the true coincidences above the accidental bed
        mu, eta, p_dark = 1e-4, 0.1, 5e-6
        chain, pump = make_rate_chain(mu, eta_signal=eta, eta_idler=eta, dark_rate_hz=500.0)
        stats = cm.expected_gate_statistics(chain, pump)
        assert stats.p_click_signal == pytest.approx(eta * mu + p_dark, rel=2e-3)
        assert stats.p_click_idler == pytest.approx(eta * mu + p_dark, rel=2e-3)
        assert stats.p_coincidence - stats.p_accidental == pytest.approx(eta * eta * mu, rel=2e-3)

    def test_saturation_below_linear(self):
        chain, pump = make_rate_chain(0.1, eta_signal=0.8, eta_idler=0.8)
        stats = cm.expected_gate_statistics(chain, pump)
        assert stats.p_click_signal < 0.8 * 0.1  # threshold detector saturates
        expected = threshold_oracle(0.1, 0.8, 0.8)
        assert gate_probabilities(stats) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_car_nan_without_accidentals(self):
        chain, pump = make_rate_chain(0.0)
        assert math.isnan(cm.expected_gate_statistics(chain, pump).car)


class TestValidation:
    def test_segment_invariants(self):
        with pytest.raises(ValueError):
            cm.WaveguideSegment("other", 0.01)
        with pytest.raises(ValueError):
            cm.WaveguideSegment("passive", -0.01)
        with pytest.raises(ValueError):
            cm.WaveguideSegment("passive", 0.01, gamma_per_w_m=1.0)
        with pytest.raises(ValueError):
            cm.WaveguideSegment("nonlinear", 0.01, loss_db_per_m=-1.0)

    def test_detector_invariants(self):
        with pytest.raises(ValueError):
            cm.DetectorConfig(1.2)
        with pytest.raises(ValueError):
            cm.DetectorConfig(0.2, dark_prob_per_gate=1.0)
        with pytest.raises(ValueError):
            cm.DetectorConfig(0.2, dead_gates=-1)

    def test_filter_invariants(self):
        with pytest.raises(ValueError):
            cm.FilterSpec(bandwidth_3db_hz=0.0)
        with pytest.raises(ValueError):
            cm.FilterSpec(bandwidth_3db_hz=1e9, insertion_loss_db=-1.0)

    def test_noise_invariants(self):
        with pytest.raises(ValueError):
            cm.NoiseCoefficients(offset_photons=-1e-3)


class TestEvaluate:
    def test_record_matches_chain_helpers(self, wg_i, awg_chain):
        for chain, pump in (wg_i, awg_chain):
            rec = cm.evaluate(chain, pump)
            pair_bw, bw_s, bw_i = cm.collection_bandwidths(chain, pump)
            assert rec.peak_power_w == cm.pump_peak_power_at_source(chain, pump)
            assert rec.downstream_transmittance == cm.downstream_passive_transmittance(chain)
            assert (rec.eta_signal, rec.eta_idler) == cm.chain_transmittances(chain)
            assert (rec.pair_bandwidth_hz, rec.single_bandwidth_signal_hz) == (pair_bw, bw_s)
            assert rec.single_bandwidth_idler_hz == bw_i
            assert rec.mu_pair == rec.pair_density_per_hz * pair_bw
            assert rec.mu_pair == pytest.approx(
                cm.pair_generation_rate_at_power(
                    chain.nonlinear_segment, pair_bw, pump.pulse_fwhm_s, rec.peak_power_w
                ),
                rel=1e-15, abs=0.0,
            )
            assert rec.mu_signal == rec.pair_density_per_hz * bw_s + rec.noise_signal
            assert rec.noise_idler == chain.noise_idler.at_peak_power(rec.peak_power_w)
            # what each detector sees, end to end, in predict's order of operations
            end_s = rec.eta_signal * chain.detector_signal.quantum_efficiency
            end_i = rec.eta_idler * chain.detector_idler.quantum_efficiency
            assert rec.detected_signal == end_s * rec.mu_signal
            assert rec.detected_idler == end_i * rec.mu_idler
            assert rec.detected_pairs == rec.mu_pair * end_s * end_i
            # an AWG channel's pair photons all keep the pair law, behind
            # filters those inside the pair bandwidth
            law_s = law_i = rec.mu_pair
            if isinstance(chain.demux, cm.AwgDemux):
                law_s, law_i = rec.pair_density_per_hz * bw_s, rec.pair_density_per_hz * bw_i
            assert (rec.pair_law_signal, rec.pair_law_idler) == (end_s * law_s, end_i * law_i)

    @pytest.mark.parametrize("call", ["predict", "car_estimate", "expected_gate_statistics"])
    def test_one_awg_overlap_per_call(self, awg_chain, monkeypatch, call):
        call = getattr(cm, call)
        calls = []
        original = cm.collection_bandwidths

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cm, "collection_bandwidths", counting)
        call(*awg_chain)
        assert len(calls) == 1


GRID_CHAINS = {name: cfg.build_experiment(presets.get_preset(name)) for name in ("wg-i", "awg")}
RATE = GRID_CHAINS["wg-i"][1].rep_rate_hz  # both presets pump at 100 MHz

# SI values each sweep variable can take; the l_si values reach the series
# branch of the effective length (a * L < 1e-6 below 2.2e-8 m at 2 dB/cm)
GRID_VALUES = {
    "l_si": st.one_of(st.floats(0.0, 3e-8), st.floats(0.0, 0.1)),
    "l_siox": st.floats(0.0, 0.1),
    "pp": st.floats(1e-6, 1e6),
    "awg_loss": st.floats(0.0, 40.0),
    "dark": st.floats(0.0, 0.999 * RATE),
}
# and values it cannot take
BAD_GRID_VALUES = {
    "l_si": st.floats(-1.0, -1e-300),
    "l_siox": st.floats(-1.0, -1e-300),
    # and finite peak powers whose average power overflows at 100 MHz
    "pp": st.one_of(st.floats(-1e3, 0.0), st.floats(1e301, 1e308)),
    "awg_loss": st.floats(-40.0, -1e-300),
    "dark": st.one_of(st.floats(-1e3, -1e-300), st.floats(RATE, 10 * RATE)),
}
# dense random grids over the same ranges, from a drawn seed: a numpy square
# in place of the scalar one differs on about 1 element in 1000
DENSE_GRIDS = {
    "l_si": lambda rng, n: np.concatenate([rng.uniform(0.0, 3e-8, n // 10), rng.uniform(0.0, 0.1, n)]),
    "l_siox": lambda rng, n: rng.uniform(0.0, 0.1, n),
    "pp": lambda rng, n: 10.0 ** rng.uniform(-4.0, 4.0, n),
    "awg_loss": lambda rng, n: rng.uniform(0.0, 40.0, n),
    "dark": lambda rng, n: rng.uniform(0.0, 0.999, n) * RATE,
}
GRID_CALLS = (cm.evaluate, cm.predict, cm.car_estimate)


def with_detectors(chain, dark_prob, dead_gates):
    detector = replace(chain.detector_signal, dark_prob_per_gate=dark_prob, dead_gates=dead_gates)
    return replace(chain, detector_signal=detector, detector_idler=detector)


def fields_of(result) -> dict:
    """A call's result as field -> value; ``car_estimate`` returns a bare float."""
    if isinstance(result, (cm.ChainEvaluation, cm.RatePrediction)):
        return {name: getattr(result, name) for name in field_names(result)}
    return {"value": result}


class TestApplySweepValue:
    def test_one_definition_and_a_float_sweep_loads_no_numpy(self, fresh_python):
        # the Monte Carlo sweeps the chain that the figures and predictions sweep
        assert mc.apply_sweep_value is cm.apply_sweep_value
        # a float length, dark rate or AWG loss stays in the closed-form
        # layer, which loads numpy only at its first array
        code = (
            "import sys\n"
            "from pairsim import chainmodel as cm, config, presets\n"
            "swept = []\n"
            "for name, variable, value in (\n"
            "    ('wg-i', 'l_si', 0.02), ('wg-i', 'l_siox', 0.03), ('wg-i', 'dark', 1e4), ('awg', 'awg_loss', 0.5)\n"
            "):\n"
            "    chain, pump = cm.apply_sweep_value(*config.build_experiment(presets.get_preset(name)), variable, value)\n"
            "    cm.predict(chain, pump), cm.car_estimate(chain, pump)\n"
            "    swept.append(chain)\n"
            "print([swept[0].segments[0].length_m, swept[1].segments[1].length_m,\n"
            "       swept[2].detector_idler.dark_prob_per_gate, swept[3].demux.spec.insertion_loss_db])\n"
            "print('numpy' in sys.modules)"
        )
        assert fresh_python(code).split("\n") == ["[0.02, 0.03, 0.0001, 0.5]", "False"]


class TestGridCalls:
    """One call over a grid equals the single-value calls bit for bit.

    numpy's own ``**2`` differs from the scalar square on about 0.1% of
    inputs, which a byte comparison of the six figures (1,300 rows) can
    miss, so each example adds a dense random grid to the drawn values:
    about 6,000 elements per variable over a run.  A numpy function that
    changes the single-value path as well (``np.exp`` of a float runs the
    same vectorised kernel) keeps the two equal; the frozen figures and
    predictions catch that."""

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        preset=st.sampled_from(sorted(GRID_CHAINS)),
        variable=st.sampled_from(cm.SWEEP_VARIABLES),
        dark_prob=st.floats(1e-7, 1e-2),
        dead_gates=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        modes=st.one_of(st.none(), st.sampled_from([1, 24]), st.integers(1, 10**6)),
    )
    def test_array_call_equals_scalar_calls(self, data, preset, variable, dark_prob, dead_gates, seed, modes):
        # predict also takes the pair law: Poisson or a drawn number of thermal modes
        chain, pump = GRID_CHAINS[preset]
        chain = with_detectors(chain, dark_prob, dead_gates)
        values = data.draw(st.lists(GRID_VALUES[variable], max_size=12))
        values += DENSE_GRIDS[variable](np.random.default_rng(seed), 300).tolist()
        grid = np.array(values)
        try:
            points = [cm.apply_sweep_value(chain, pump, variable, v) for v in values]
        except ValueError:  # l_siox on awg, awg_loss on wg-i
            with pytest.raises(ValueError):
                cm.apply_sweep_value(chain, pump, variable, grid)
            return
        swept = cm.apply_sweep_value(chain, pump, variable, grid)
        for call in GRID_CALLS:
            law = {"thermal_modes": modes} if call is cm.predict else {}
            try:
                singles = [fields_of(call(*point, **law)) for point in points]
            except ValueError:  # car_estimate where a linearised click probability passes 1
                with pytest.raises(ValueError):
                    call(*swept)
                continue
            for name, column in fields_of(call(*swept, **law)).items():
                column = np.broadcast_to(column, grid.shape)
                for k, single in enumerate(singles):
                    expected = single[name]
                    assert isinstance(expected, float)
                    if math.isnan(expected):
                        assert math.isnan(column[k]), (call.__name__, name, values[k])
                    else:
                        assert column[k] == expected, (call.__name__, name, values[k])

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        preset=st.sampled_from(sorted(GRID_CHAINS)),
        variable=st.sampled_from(cm.SWEEP_VARIABLES),
    )
    def test_grid_with_a_value_the_chain_cannot_take_raises(self, data, preset, variable):
        chain, pump = GRID_CHAINS[preset]
        values = data.draw(st.lists(GRID_VALUES[variable], min_size=0, max_size=8))
        bad = data.draw(BAD_GRID_VALUES[variable])
        values.insert(data.draw(st.integers(0, len(values))), bad)
        with pytest.raises(ValueError):
            cm.apply_sweep_value(chain, pump, variable, bad)
        with pytest.raises(ValueError):
            cm.apply_sweep_value(chain, pump, variable, np.array(values))

    def test_both_branches_of_effective_length(self):
        lengths = np.array([0.0, 1e-9, 2e-8, 3e-8, 1e-3, 0.0137, 10.0])
        a_l = cm.db_to_neper(200.0) * lengths
        assert (a_l < 1e-6).any() and (a_l >= 1e-6).any()
        grid = _effective_length(200.0, lengths)
        assert grid.tolist() == [_effective_length(200.0, float(v)) for v in lengths]
