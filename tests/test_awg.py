import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsim import awg
from pairsim import chainmodel as cm
from pairsim import config as cfg
from pairsim import presets
from pairsim.records import replace

# Values marked "oracle" were frozen from an independent 30-digit mpmath
# evaluation of the closed-form gaussian integrals.

PUMP = 193.4e12


def make_spec(shape="gaussian", loss_db=7.7, floor=0.0):
    return awg.AwgSpec(
        channel_count=16,
        channel_spacing_hz=200e9,
        passband_3db_hz=80e9,
        insertion_loss_db=loss_db,
        center_frequency_hz=PUMP,
        passband_shape=shape,
        crosstalk_floor=floor,
    )


def pair_transmittance(spec, signal_channel, idler_channel, pump_hz, band_hz=None):
    """Joint collection probability of an anti-correlated pair flat over the band:
    ``peak**2 * effective_pair_bandwidth / band``."""
    band = band_hz if band_hz is not None else spec.default_generation_band_hz
    overlap = awg.effective_pair_bandwidth(spec, signal_channel, idler_channel, pump_hz, band)
    return spec.peak_transmittance**2 * overlap / band


AWG_CHAIN, AWG_PUMP = cfg.build_experiment(presets.get_preset("awg"))


def single_bandwidth(spec, channel, band_hz=None):
    """The signal single bandwidth through ``channel`` of the awg preset's chain
    with ``spec`` centered on its pump and the post filters removed."""
    spec = replace(spec, center_frequency_hz=AWG_PUMP.frequency_hz)
    demux = cm.AwgDemux(spec, channel, -channel, band_hz)
    chain = replace(AWG_CHAIN, demux=demux, post_filters_signal=(), post_filters_idler=())
    return cm.collection_bandwidths(chain, AWG_PUMP)[1]


def trapezoid_pair_overlap(spec, ch_s, ch_i, pump_hz, band_hz):
    """Dense-grid oracle for the anti-correlated overlap integral."""
    nu = np.linspace(pump_hz - band_hz / 2, pump_hz + band_hz / 2, 400_001)
    t_s = awg.channel_transmission(spec, ch_s, nu)
    t_i = awg.channel_transmission(spec, ch_i, 2 * pump_hz - nu)
    return np.trapezoid(t_s * t_i, nu) / band_hz


class TestChannelTransmission:
    def test_fresh_interpreter_loads_numpy_at_the_call(self, fresh_python):
        # awg imports numpy inside the dense-grid functions alone
        code = (
            "import json, sys\n"
            "from pairsim import awg\n"
            "loaded = 'numpy' in sys.modules\n"
            "spec = awg.AwgSpec(16, 200e9, 80e9, 7.7, 193.4e12)\n"
            "scalar = awg.channel_transmission(spec, 1, 193.63e12)\n"
            "import numpy as np\n"
            "array = awg.channel_transmission(spec, 1, np.array([193.57e12, 193.6e12, 193.63e12]))\n"
            "print(json.dumps([loaded, type(scalar).__name__, scalar, array.tolist()]))"
        )
        spec = make_spec()
        expected = awg.channel_transmission(spec, 1, np.array([193.57e12, 193.6e12, 193.63e12])).tolist()
        assert json.loads(fresh_python(code)) == [False, "float", expected[2], expected]

    def test_peak_value(self):
        spec = make_spec()
        center = awg.channel_center(spec, 3)
        # oracle: 10**(-0.77)
        assert awg.channel_transmission(spec, 3, center) == pytest.approx(
            0.169824365246174, rel=1e-12, abs=0.0
        )

    def test_half_peak_at_half_width(self):
        spec = make_spec()
        center = awg.channel_center(spec, -2)
        peak = awg.channel_transmission(spec, -2, center)
        for sign in (-1, 1):
            value = awg.channel_transmission(spec, -2, center + sign * 40e9)
            assert value == pytest.approx(peak / 2, rel=1e-12, abs=0.0)

    def test_suppression_at_one_spacing(self):
        spec = make_spec()
        center = awg.channel_center(spec, 0)
        peak = awg.channel_transmission(spec, 0, center)
        value = awg.channel_transmission(spec, 0, center + 200e9)
        # oracle: 2**(-(200/40)**2) = 2**-25
        assert value / peak == pytest.approx(2.98023223876953e-8, rel=1e-12, abs=0.0)
        assert value / peak <= 1e-3

    def test_channel_out_of_range(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            awg.channel_transmission(spec, 9, PUMP)
        awg.channel_transmission(spec, 8, PUMP)  # boundary is allowed

    def test_rectangular_shape(self):
        spec = make_spec(shape="rectangular", loss_db=0.0)
        center = awg.channel_center(spec, 1)
        assert awg.channel_transmission(spec, 1, center + 39.9e9) == 1.0
        assert awg.channel_transmission(spec, 1, center + 40.1e9) == 0.0

    def test_crosstalk_floor(self):
        spec = make_spec(floor=1e-4)
        center = awg.channel_center(spec, 0)
        far = awg.channel_transmission(spec, 0, center + 600e9)
        assert far == pytest.approx(spec.peak_transmittance * 1e-4, rel=1e-12, abs=0.0)

    def test_vectorized(self):
        spec = make_spec()
        nu = np.linspace(PUMP - 1e12, PUMP + 1e12, 101)
        values = awg.channel_transmission(spec, 2, nu)
        assert values.shape == nu.shape
        assert np.all((values >= 0) & (values <= spec.peak_transmittance))


class TestPairTransmittance:
    def test_rectangular_symmetric_is_width_over_band(self):
        spec = make_spec(shape="rectangular", loss_db=0.0)
        band = spec.default_generation_band_hz
        value = pair_transmittance(spec, 3, -3, PUMP, band)
        assert value == pytest.approx(spec.passband_3db_hz / band, rel=1e-9)

    def test_rectangular_matches_analytic_overlap_with_offset(self):
        # shifting the pump moves the mirrored passband by twice the shift
        spec = make_spec(shape="rectangular", loss_db=0.0)
        band = spec.default_generation_band_hz
        for shift in (0.0, 10e9, 25e9):
            value = pair_transmittance(spec, 1, -1, PUMP + shift, band)
            overlap = max(spec.passband_3db_hz - abs(2 * shift), 0.0)
            assert value == pytest.approx(overlap / band, rel=1e-9, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(
        floor=st.one_of(st.just(0.0), st.floats(1e-6, 0.3)),
        signal=st.integers(-4, 4),
        idler=st.integers(-4, 4),
        shift_hz=st.floats(-30e9, 30e9),
    )
    @example(floor=0.0, signal=3, idler=-3, shift_hz=0.0)
    def test_gaussian_matches_trapezoid_oracle(self, floor, signal, idler, shift_hz):
        spec = make_spec(floor=floor)
        band = spec.default_generation_band_hz
        value = pair_transmittance(spec, signal, idler, PUMP + shift_hz, band)
        oracle = trapezoid_pair_overlap(spec, signal, idler, PUMP + shift_hz, band)
        assert value == pytest.approx(oracle, rel=1e-6)

    def test_asymmetric_pair_ratio(self):
        spec = make_spec()
        band = spec.default_generation_band_hz
        sym = pair_transmittance(spec, 3, -3, PUMP, band)
        asym = pair_transmittance(spec, 3, -2, PUMP, band)
        # oracle: exp(-ln2 * spacing**2 / (2 * (w/2)**2)) for mirrored
        # gaussians missing by one full channel spacing
        assert asym / sym == pytest.approx(1.72633491500622e-4, rel=1e-6)

    def test_reciprocity(self):
        spec = make_spec()
        for ch_s, ch_i in [(3, -3), (3, -2), (1, -4)]:
            a = pair_transmittance(spec, ch_s, ch_i, PUMP)
            b = pair_transmittance(spec, ch_i, ch_s, PUMP)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-30)

    def test_mirror_channel_maximizes(self):
        spec = make_spec()
        values = {ch_i: pair_transmittance(spec, 3, ch_i, PUMP) for ch_i in range(-8, 1)}
        assert max(values, key=values.get) == -3

    def test_insertion_loss_factors_out(self):
        lossy = make_spec(loss_db=7.7)
        lossless = make_spec(loss_db=0.0)
        ratio = pair_transmittance(lossless, 3, -3, PUMP) / pair_transmittance(
            lossy, 3, -3, PUMP
        )
        assert ratio == pytest.approx(10.0 ** (2 * 7.7 / 10.0), rel=1e-9)


class TestClosedFormOverlap:
    """Exact erf overlaps against frozen 30-digit mpmath values.

    Oracle values come from mpmath quadrature of the piecewise integrand
    (breakpoints at every piece edge and on a dense grid), except where noted.
    ``abs=0`` keeps pytest's default 1e-12 absolute tolerance from passing
    the small values.
    """

    @pytest.mark.parametrize(
        "shape, floor, channels, oracle",
        [
            # oracle: both gaussians above the 1e-4 floor only within
            # 40 GHz * sqrt(log2(1e4)) of their centers
            ("gaussian", 1e-4, (3, -3), 0.0376346005186209),
            ("gaussian", 1e-4, (3, -2), 1.61921192196838e-5),
            # oracle: (80 GHz + 1e-6 * 1520 GHz) / 1.6 THz, exact
            ("rectangular", 1e-3, (3, -3), 0.05000095),
            # oracle: (2 * 1e-3 * 80 GHz + 1e-6 * 1440 GHz) / 1.6 THz, exact
            ("rectangular", 1e-3, (3, -2), 1.009e-4),
        ],
    )
    def test_crosstalk_floor(self, shape, floor, channels, oracle):
        spec = make_spec(shape=shape, loss_db=0.0, floor=floor)
        value = pair_transmittance(spec, *channels, PUMP)
        assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_off_center_pair(self):
        # pump 17 GHz above the AWG center: the mirrored idler of channel -2
        # lands 234 GHz from channel 1
        spec = make_spec(loss_db=0.0)
        value = pair_transmittance(spec, 1, -2, PUMP + 17e9)
        assert value == pytest.approx(2.65820030414723e-7, rel=1e-12, abs=0.0)  # oracle

    def test_far_detuned_gaussian_pair(self):
        # channel 3 against the mirror of channel 3: 2**-450 times the
        # matched overlap; oracle from the 30-digit erf closed form
        spec = make_spec(loss_db=0.0)
        value = pair_transmittance(spec, 3, 3, PUMP)
        assert value == pytest.approx(1.29446158863973e-137, rel=1e-12, abs=0.0)

    def test_unequal_gaussians_with_mirror_offset(self):
        value = awg.passband_overlap(
            (0.0, 25e9, True, 0.0), (20e9, 15e9, True, 0.0), -math.inf, math.inf
        )
        assert value == pytest.approx(19761633303.1331, rel=1e-12, abs=0.0)  # oracle

    def test_gaussian_times_rectangular(self):
        value = awg.passband_overlap(
            (0.0, 25e9, True, 0.0), (30e9, 50e9, False, 0.0), -math.inf, math.inf
        )
        assert value == pytest.approx(44005219735.3413, rel=1e-12, abs=0.0)  # oracle

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_far_tail_keeps_relative_precision(self, side):
        # the rectangle 450-550 GHz off center sits 18 half-widths out in the
        # gaussian's upper or lower tail, where an erf difference cancels to 0;
        # oracle from the 30-digit erfc closed form, confirmed by dense mpmath
        # quadrature to 1e-12
        value = awg.passband_overlap(
            (0.0, 25e9, True, 0.0), (side * 500e9, 50e9, False, 0.0), -math.inf, math.inf
        )
        assert value < 1e-60
        assert value == pytest.approx(2.92504040921221e-89, rel=1e-12, abs=0.0)

    def test_filter_sites_read_the_same_overlap(self):
        # the wg-i chain with gaussian filters placed so that the mirrored
        # idler passband lands 20 GHz above the signal passband
        chain, pump = cfg.build_experiment(presets.get_preset("wg-i"))
        nu_p = pump.frequency_hz
        signal = cm.FilterSpec(50e9, shape="gaussian", center_frequency_hz=nu_p + 1e12)
        idler = cm.FilterSpec(30e9, shape="gaussian", center_frequency_hz=nu_p - 1e12 - 20e9)
        chain = replace(chain, demux=cm.FilterDemux(signal=signal, idler=idler))
        pair_bw, _, _ = cm.collection_bandwidths(chain, pump)
        assert pair_bw == pytest.approx(19761633303.1331, rel=1e-9)  # oracle above


class TestEffectiveBandwidths:
    def test_rectangular_pair_bandwidth(self):
        spec = make_spec(shape="rectangular")
        value = awg.effective_pair_bandwidth(spec, 3, -3, PUMP)
        assert value == pytest.approx(80e9, rel=1e-9)

    def test_gaussian_pair_bandwidth(self):
        spec = make_spec()
        value = awg.effective_pair_bandwidth(spec, 3, -3, PUMP)
        # oracle: (w/2) * sqrt(pi / (2 ln 2)) = 60.2153478231402 GHz, also
        # cross-checked against the dense trapezoid overlap below
        assert value == pytest.approx(60.2153478231402e9, rel=1e-9)
        band = spec.default_generation_band_hz
        oracle = trapezoid_pair_overlap(spec, 3, -3, PUMP, band) * band
        assert value * spec.peak_transmittance**2 == pytest.approx(oracle, rel=1e-6)

    def test_offset_channels_nearly_closed(self):
        spec = make_spec()
        value = awg.effective_pair_bandwidth(spec, 3, -2, PUMP)
        # oracle: 60.2153 GHz * 1.72633e-4 = 10.395 MHz
        assert value == pytest.approx(1.0395e7, rel=1e-4)
        assert value < 1e-3 * awg.effective_pair_bandwidth(spec, 3, -3, PUMP)

    def test_independent_of_generation_band_once_covered(self):
        # bands that fully contain the passband tails agree; a band whose edge
        # cuts into the tail (1.4 THz puts the edge 2.5 half-widths out) shows
        # exactly the truncated-tail deficit
        spec = make_spec()
        a = awg.effective_pair_bandwidth(spec, 3, -3, PUMP, 2.0e12)
        b = awg.effective_pair_bandwidth(spec, 3, -3, PUMP, 3.0e12)
        assert a == pytest.approx(b, rel=1e-8)
        truncated = awg.effective_pair_bandwidth(spec, 3, -3, PUMP, 1.4e12)
        assert truncated < a
        assert (a - truncated) / a == pytest.approx(1.57e-5, rel=0.05)

    @pytest.mark.parametrize("band", [-1.0, 0.0, -0.0, math.nan])
    def test_band_that_is_not_positive_raises(self, band):
        # an empty or reversed band would integrate to an overlap of 0.0 without a word
        with pytest.raises(ValueError, match="generation_band_hz must be positive"):
            awg.effective_pair_bandwidth(make_spec(), 3, -3, PUMP, band)

    def test_single_bandwidth(self):
        gaussian = make_spec()
        # oracle: (w/2) * sqrt(pi / ln 2); a 3 THz band puts its edge 22
        # half-widths past channel 3, where the tail is below 2**-480
        assert single_bandwidth(gaussian, 3, 3.0e12) == pytest.approx(
            85.1573615544981e9, rel=1e-12, abs=0.0
        )
        rect = make_spec(shape="rectangular")
        assert single_bandwidth(rect, 3) == 80e9

    def test_single_bandwidth_is_clipped_by_the_generation_band(self):
        # the default 1.6 THz band ends at channel 4's center (half its shape
        # is generated) and 5 half-widths past channel 3 (an erfc tail is lost)
        spec = make_spec()
        full = single_bandwidth(spec, 3, 3.0e12)
        half = single_bandwidth(spec, 4)
        assert half == pytest.approx(full / 2, rel=1e-12, abs=0.0)
        deficit = full - single_bandwidth(spec, 3)
        assert deficit == pytest.approx(full * math.erfc(5 * math.sqrt(math.log(2))) / 2, rel=1e-6)

    def test_single_bandwidth_includes_the_crosstalk_floor(self):
        band = 1.6e12
        rect = make_spec(shape="rectangular", floor=1e-2)
        # exact: the passband plus the floor over the rest of the band
        assert single_bandwidth(rect, 3) == pytest.approx(
            80e9 + 1e-2 * (band - 80e9), rel=1e-12, abs=0.0
        )
        gaussian = make_spec(floor=1e-2)
        nu = np.linspace(PUMP - band / 2, PUMP + band / 2, 400_001)
        transmission = awg.channel_transmission(gaussian, 3, nu) / gaussian.peak_transmittance
        oracle = np.trapezoid(transmission, nu)
        assert single_bandwidth(gaussian, 3) == pytest.approx(oracle, rel=1e-6)


def filter_shape(spec, center_hz, nu):
    """Unit-peak shape of a bandpass filter at frequencies ``nu``."""
    half_width = spec.bandwidth_3db_hz / 2
    if spec.shape == "gaussian":
        return np.exp2(-np.square((nu - center_hz) / half_width))
    return (np.abs(nu - center_hz) <= half_width).astype(float)


def trapezoid_bandwidths(demux, pump_hz, points=400_001):
    """(pair, signal single, idler single) collection bandwidths of a demux, and
    the trapezoid's error bound, from its unit-peak shapes on one dense grid.

    Pairs are spread flat over a band centered on the pump: an AWG's generation
    band, or, behind filters, all frequencies, for which the grid spans 12 half
    widths past both passbands (a gaussian is below 2**-144 there).  At signal
    frequency nu the idler is at 2 nu_p - nu, so on the one grid the pair
    bandwidth integrates the signal shape times the mirrored idler shape, and
    the idler single the mirrored shape, which over a band symmetric about the
    pump is the same integral.  A filter pair without both centers is taken as
    exactly energy-conjugate, here 1 THz either side of the pump.

    The error bound: each jump of height h (a rectangle's edge, at most four
    in a product) costs the trapezoid at most h * dx / 2, so 2 dx in all;
    kinks where a shape meets its floor and smooth shapes cut by the band end
    cost O(dx**2 / half_width), and the sum's rounding about 1e-12 relative.
    """
    if isinstance(demux, cm.AwgDemux):
        spec = demux.spec
        band = demux.generation_band_hz or spec.default_generation_band_hz
        nu = np.linspace(pump_hz - band / 2, pump_hz + band / 2, points)
        signal, idler = (
            awg.channel_transmission(spec, channel, frequencies) / spec.peak_transmittance
            for channel, frequencies in ((demux.signal_channel, nu), (demux.idler_channel, 2 * pump_hz - nu))
        )
        half_width = spec.passband_3db_hz / 2
    else:
        sig, idl = demux.signal, demux.idler
        centered = sig.center_frequency_hz is not None and idl.center_frequency_hz is not None
        center_s = sig.center_frequency_hz if centered else pump_hz + 1e12
        center_i = idl.center_frequency_hz if centered else pump_hz - 1e12
        reach = 12 * max(sig.bandwidth_3db_hz, idl.bandwidth_3db_hz) / 2
        mirrored_i = 2 * pump_hz - center_i
        nu = np.linspace(min(center_s, mirrored_i) - reach, max(center_s, mirrored_i) + reach, points)
        signal = filter_shape(sig, center_s, nu)
        idler = filter_shape(idl, center_i, 2 * pump_hz - nu)
        half_width = min(sig.bandwidth_3db_hz, idl.bandwidth_3db_hz) / 2
    dx = nu[1] - nu[0]
    values = tuple(float(np.trapezoid(y, nu)) for y in (signal * idler, signal, idler))
    return values, 2 * dx + dx**2 / half_width


@st.composite
def filter_demuxes(draw):
    """Filter pairs of both shapes and widths from 10 to 200 GHz, with no explicit
    centers or with both, the mirrored idler up to 150 GHz off the signal."""
    shapes = st.sampled_from(awg.PASSBAND_SHAPES)
    widths = st.floats(10e9, 200e9)
    centers = (None, None)
    if draw(st.booleans()):
        signal_hz = AWG_PUMP.frequency_hz + draw(st.floats(-3e12, 3e12))
        centers = (signal_hz, 2 * AWG_PUMP.frequency_hz - signal_hz + draw(st.floats(-150e9, 150e9)))
    signal, idler = (cm.FilterSpec(draw(widths), 1.0, draw(shapes), center) for center in centers)
    return cm.FilterDemux(signal=signal, idler=idler)


@st.composite
def awg_demuxes(draw):
    """AWGs of both shapes and floors 0, 1e-3 and 1e-2, centered up to half a
    spacing off the pump, with the idler channel at or next to the mirror of
    the signal channel, over the default or an explicit generation band."""
    count = draw(st.integers(4, 40))
    spacing = draw(st.floats(100e9, 400e9))
    spec = awg.AwgSpec(
        channel_count=count,
        channel_spacing_hz=spacing,
        passband_3db_hz=spacing * draw(st.floats(0.3, 0.9)),
        insertion_loss_db=draw(st.floats(0.0, 10.0)),
        center_frequency_hz=AWG_PUMP.frequency_hz + spacing * draw(st.floats(-0.5, 0.5)),
        passband_shape=draw(st.sampled_from(awg.PASSBAND_SHAPES)),
        crosstalk_floor=draw(st.sampled_from([0.0, 1e-3, 1e-2])),
    )
    reach = count // 2
    signal = draw(st.integers(-reach, reach))
    idler = min(max(-signal + draw(st.integers(-1, 1)), -reach), reach)
    band = draw(st.one_of(st.none(), st.floats(0.5, 2.0).map(lambda k: k * spec.default_generation_band_hz)))
    return cm.AwgDemux(spec, signal, idler, band)


class TestCollectionBandwidthOracle:
    """``collection_bandwidths`` against a dense trapezoid over the demux shapes,
    which never calls ``passband_overlap``.  Post filters are removed: they
    only clamp the bandwidths, and on the awg preset the clamp does not bind
    (85.2 < 100 GHz), so leaving them in would certify the unfiltered value."""

    @staticmethod
    def check(chain, pump):
        chain = replace(chain, post_filters_signal=(), post_filters_idler=())
        oracle, bound = trapezoid_bandwidths(chain.demux, pump.frequency_hz)
        for value, expected in zip(cm.collection_bandwidths(chain, pump), oracle):
            assert abs(value - expected) <= bound + 1e-12 * expected, (value, expected, bound)

    @pytest.mark.parametrize("name", list(presets.PRESETS))
    def test_presets(self, name):
        self.check(*cfg.build_experiment(presets.get_preset(name)))

    @settings(max_examples=60, deadline=None)
    @given(demux=st.one_of(filter_demuxes(), awg_demuxes()))
    def test_drawn_demuxes(self, demux):
        self.check(replace(AWG_CHAIN, demux=demux), AWG_PUMP)


class TestSpecValidation:
    def test_passband_must_fit_spacing(self):
        with pytest.raises(ValueError):
            awg.AwgSpec(16, 200e9, 250e9, 7.7, PUMP)

    def test_negative_loss(self):
        with pytest.raises(ValueError):
            awg.AwgSpec(16, 200e9, 80e9, -1.0, PUMP)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            awg.AwgSpec(16, 200e9, 80e9, 7.7, PUMP, passband_shape="lorentzian")
