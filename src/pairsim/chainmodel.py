"""Domain types and closed-form rate equations for a photon-pair experiment chain.

The chain runs from the coupling facet of a chip through one nonlinear
waveguide (where pairs are created by spontaneous four-wave mixing), passive
waveguide sections, a demultiplexer that splits signal and idler onto two
channels, per-channel filters, and finally two gated single-photon detectors.

All quantities are SI internally (meters, watts, hertz, seconds).  dB values
and bench units (cm, mW, GHz, ...) belong to the configuration boundary only.

``evaluate`` is the single evaluation point of the chain: it computes the
pump power at the source, the transmittances, the collection bandwidths, the
pair and singles photon numbers and the photons each detector sees once into
a ``ChainEvaluation``.  ``predict``, ``car_estimate``, the Monte Carlo and the
fitters' fixed parameters all read that record.  ``predict`` is the one
analytic model of what two gated threshold detectors with dead time count
(``expected_gate_statistics`` is another name for it); ``car_estimate`` keeps
the paper's linearised CAR, which figures 3d and 5b plot.

Every figure and sweep is one chain with one of ``SWEEP_VARIABLES`` replaced
by ``apply_sweep_value``: a segment length, the pump's average power, the
AWG insertion loss or the detectors' dark probability.  That field may hold
a 1-D float array in place of a float.  Every check of it then holds for
each element, and ``evaluate``, ``predict`` and ``car_estimate`` return
arrays over the grid, equal bit for bit to the calls at each single value.
Sums, products and quotients use the plain operators, which round as
Python's do; every power, exponential, logarithm and branch on a swept
quantity goes through a function made by ``elementwise.elementwise``, which
calls the same ``math`` function on each element, because numpy's
vectorised ``exp``, ``power``, ``expm1`` and ``log1p`` differ from it in the
last bit on a few percent of inputs.
"""

from __future__ import annotations

import math
import sys

from . import awg as awg_mod
from .awg import AwgSpec
from .elementwise import db_to_linear, elementwise, exp, expm1, holds, log1p, power
from .records import Record, replace

C_VACUUM = 299_792_458.0  # m/s

_LN10 = math.log(10.0)

KIND_NONLINEAR = "nonlinear"
KIND_PASSIVE = "passive"

PAIR_STATISTICS = ("poisson", "thermal")

SWEEP_VARIABLES = ("l_si", "l_siox", "pp", "awg_loss", "dark")


# ---------------------------------------------------------------------------
# unit helpers


def db_to_neper(loss_db: float) -> float:
    """Natural (base-e) attenuation coefficient for a dB-scale one: ``loss * ln(10) / 10``."""
    return loss_db * _LN10 / 10.0


def _effective_length_at(a: float, length_m: float) -> float:
    """Loss-weighted interaction length ``(1 - exp(-a*L)) / a`` with a in nepers.

    Continuous in the lossless limit: below ``a*L = 1e-6`` the second-order
    series ``L - a*L**2 / 2`` is used to avoid cancellation, so the value
    tends to L as the loss tends to zero.
    """
    x = a * length_m
    if x < 1e-6:
        return length_m - a * length_m**2 / 2.0
    return (1.0 - math.exp(-x)) / a


_effective_length = elementwise(_effective_length_at, 2)


# ---------------------------------------------------------------------------
# domain types


class WaveguideSegment(Record):
    """One propagation section, either the nonlinear pair source or passive."""

    kind: str
    length_m: float
    loss_db_per_m: float = 0.0
    gamma_per_w_m: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (KIND_NONLINEAR, KIND_PASSIVE):
            raise ValueError(f"kind must be '{KIND_NONLINEAR}' or '{KIND_PASSIVE}'")
        if not holds(self.length_m >= 0):
            raise ValueError("length_m must be non-negative")
        if self.loss_db_per_m < 0:
            raise ValueError("loss_db_per_m must be non-negative")
        if self.gamma_per_w_m < 0:
            raise ValueError("gamma_per_w_m must be non-negative")
        if self.kind == KIND_PASSIVE and self.gamma_per_w_m != 0.0:
            raise ValueError("passive segments must have gamma_per_w_m = 0")

    @property
    def transmittance(self) -> float:
        """Single-photon power transmittance of the whole segment."""
        return db_to_linear(self.loss_db_per_m * self.length_m)

    @property
    def effective_length_m(self) -> float:
        return _effective_length(db_to_neper(self.loss_db_per_m), self.length_m)


class PumpConfig(Record):
    """Pulsed pump train.  Powers are coupled (in-waveguide) values."""

    wavelength_m: float
    rep_rate_hz: float
    pulse_fwhm_s: float
    average_power_w: float

    def __post_init__(self) -> None:
        for name in ("wavelength_m", "rep_rate_hz", "pulse_fwhm_s", "average_power_w"):
            if not holds(getattr(self, name) > 0):
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 < self.rep_rate_hz * self.pulse_fwhm_s <= 1.0 + 1e-12:  # a tiny product underflows to 0
            raise ValueError("duty cycle rep_rate * fwhm must be in (0, 1]")

    @property
    def frequency_hz(self) -> float:
        return C_VACUUM / self.wavelength_m

    @property
    def duty_cycle(self) -> float:
        return self.rep_rate_hz * self.pulse_fwhm_s


def peak_power(pump: PumpConfig) -> float:
    """Peak power of the rectangular-equivalent pulse: ``P / (R * dt)``."""
    return pump.average_power_w / pump.duty_cycle


class FilterSpec(Record):
    """A bandpass filter stage on one channel."""

    bandwidth_3db_hz: float
    insertion_loss_db: float = 0.0
    shape: str = "rectangular"
    center_frequency_hz: float | None = None

    def __post_init__(self) -> None:
        if self.bandwidth_3db_hz <= 0:
            raise ValueError("bandwidth_3db_hz must be positive")
        if self.insertion_loss_db < 0:
            raise ValueError("insertion_loss_db must be non-negative (peak in (0, 1])")
        if self.shape not in awg_mod.PASSBAND_SHAPES:
            raise ValueError(f"shape must be one of {awg_mod.PASSBAND_SHAPES}")
        if self.center_frequency_hz is not None and self.center_frequency_hz <= 0:
            raise ValueError("center_frequency_hz must be positive")

    @property
    def peak_transmittance(self) -> float:
        return db_to_linear(self.insertion_loss_db)


class DetectorConfig(Record):
    """Gated threshold (non-photon-number-resolving) single-photon detector.

    The detector is read once per pump pulse, so both figures count pump
    gates: the probability that a dark count fires an active gate, and the
    number of gates disabled after each click.
    """

    quantum_efficiency: float
    dark_prob_per_gate: float = 0.0
    dead_gates: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantum_efficiency <= 1.0:
            raise ValueError("quantum_efficiency must be in [0, 1]")
        if not holds((0.0 <= self.dark_prob_per_gate) & (self.dark_prob_per_gate < 1.0)):
            raise ValueError("dark_prob_per_gate (dark rate / pump rate) must be in [0, 1)")
        if self.dead_gates < 0:
            raise ValueError("dead_gates must be non-negative")


class NoiseCoefficients(Record):
    """Phenomenological noise photons per pulse in one collection channel.

    ``offset_photons + slope_per_watt * P_peak``, referred to the nonlinear
    segment output.  Together with the quadratic pair term this makes the
    singles flux a second-order polynomial in peak power.
    """

    offset_photons: float = 0.0
    slope_per_watt: float = 0.0

    def __post_init__(self) -> None:
        if self.offset_photons < 0 or self.slope_per_watt < 0:
            raise ValueError("noise coefficients must be non-negative")

    def at_peak_power(self, peak_power_w: float) -> float:
        return self.offset_photons + self.slope_per_watt * peak_power_w


class FilterDemux(Record):
    """Demultiplexer realized by a pair of bandpass filters (signal, idler)."""

    signal: FilterSpec
    idler: FilterSpec


class AwgDemux(Record):
    """Demultiplexer realized by an AWG with one selected output channel per arm."""

    spec: AwgSpec
    signal_channel: int
    idler_channel: int
    generation_band_hz: float | None = None

    def __post_init__(self) -> None:
        awg_mod.channel_center(self.spec, self.signal_channel)
        awg_mod.channel_center(self.spec, self.idler_channel)
        if self.generation_band_hz is not None and self.generation_band_hz <= 0:
            raise ValueError("generation_band_hz must be positive")


class ExperimentChain(Record):
    """Ordered component chain from the coupling facet to the two detectors.

    ``nonlinear_index`` is the position of the one nonlinear segment.
    """

    coupling_loss_per_facet_db: float
    segments: tuple[WaveguideSegment, ...]
    demux: FilterDemux | AwgDemux
    detector_signal: DetectorConfig
    detector_idler: DetectorConfig
    post_filters_signal: tuple[FilterSpec, ...] = ()
    post_filters_idler: tuple[FilterSpec, ...] = ()
    noise_signal: NoiseCoefficients = NoiseCoefficients()
    noise_idler: NoiseCoefficients = NoiseCoefficients()

    def __post_init__(self) -> None:
        if self.coupling_loss_per_facet_db < 0:
            raise ValueError("coupling_loss_per_facet_db must be non-negative")
        nonlinear = [i for i, s in enumerate(self.segments) if s.kind == KIND_NONLINEAR]
        if len(nonlinear) != 1:
            raise ValueError(f"chain must contain exactly one nonlinear segment, got {len(nonlinear)}")
        # found once, as a plain attribute: evaluate reads it on every call
        object.__setattr__(self, "nonlinear_index", nonlinear[0])

    @property
    def nonlinear_segment(self) -> WaveguideSegment:
        return self.segments[self.nonlinear_index]

    @property
    def upstream_segments(self) -> tuple[WaveguideSegment, ...]:
        return self.segments[: self.nonlinear_index]

    @property
    def downstream_segments(self) -> tuple[WaveguideSegment, ...]:
        return self.segments[self.nonlinear_index + 1 :]


class RatePrediction(Record):
    """Closed-form rates for one chain and pump operating point.

    Pair rates are per pulse; click and coincidence figures are per clock
    gate, as a counting run measures them.  ``p_coincidence`` counts every
    same-gate coincidence, accidental ones included, and
    ``car = p_coincidence / p_accidental`` is NaN when nothing ever clicks.
    Over a grid, the fields the swept value enters are arrays.
    """

    peak_power_w: float
    pair_bandwidth_hz: float
    mu_pair_generated: float
    mu_pair_out: float
    mu_signal: float
    mu_idler: float
    p_click_signal: float
    p_click_idler: float
    p_coincidence: float
    p_accidental: float
    car: float
    duty_signal: float
    duty_idler: float


class ChainEvaluation(Record):
    """Derived SI quantities of one chain at one pump operating point.

    Built by ``evaluate``.  Photon numbers ``mu_*`` are per pulse at the
    nonlinear-segment output; the noise terms are ``n0 + n1 * P`` at the pump
    peak power at the source.  The last five fields are what each detector
    sees: mean photons per gate taken end to end, through the optical
    transmittance and the quantum efficiency.  Of the photons that reach an
    arm, those that follow the pair law are every pair photon an AWG channel
    collects, and behind filters those inside the pair bandwidth; the rest
    arrive without a partner, as noise.  The dark probability and the dead
    gates stay on the chain's ``DetectorConfig``.  For a chain swept over a
    grid, the fields the swept value enters are arrays.
    """

    peak_power_w: float  # pump peak power at the nonlinear segment input
    downstream_transmittance: float  # passive sections after the source
    eta_signal: float  # optical transmittance per arm, detector excluded
    eta_idler: float
    pair_bandwidth_hz: float
    single_bandwidth_signal_hz: float
    single_bandwidth_idler_hz: float
    pair_density_per_hz: float  # pairs per pulse per Hz of collection bandwidth
    mu_pair: float
    mu_signal: float
    mu_idler: float
    noise_signal: float
    noise_idler: float
    detected_signal: float  # photons of any cause reaching the signal detector
    detected_idler: float
    detected_pairs: float  # pairs with a photon reaching each detector
    pair_law_signal: float  # of detected_signal, the photons following the pair law
    pair_law_idler: float


# ---------------------------------------------------------------------------
# rate equations


def pair_generation_rate_at_power(
    segment: WaveguideSegment,
    bandwidth_hz: float,
    pulse_fwhm_s: float,
    peak_power_w: float,
) -> float:
    """Pairs per pulse at the nonlinear-segment output.

    ``dnu * dt * (gamma * P_peak * L_eff)**2 * eta**2`` where eta is the
    segment transmittance, which both photons of a pair must survive.
    Quadratic in peak power and in gamma.
    """
    if segment.kind != KIND_NONLINEAR:
        raise ValueError("pair generation requires a nonlinear segment")
    amplitude = segment.gamma_per_w_m * peak_power_w * segment.effective_length_m
    return bandwidth_hz * pulse_fwhm_s * power(amplitude, 2) * power(segment.transmittance, 2)


def pump_peak_power_at_source(chain: ExperimentChain, pump: PumpConfig) -> float:
    """Pump peak power at the nonlinear segment input.

    Pump powers are coupled (in-waveguide) values, so only passive segments
    placed before the nonlinear one attenuate the pump.
    """
    eta = 1.0
    for seg in chain.upstream_segments:
        eta *= seg.transmittance
    return peak_power(pump) * eta


def downstream_passive_transmittance(chain: ExperimentChain) -> float:
    """Single-photon transmittance of the waveguide sections after the source."""
    eta = 1.0
    for seg in chain.downstream_segments:
        eta *= seg.transmittance
    return eta


def chain_transmittances(chain: ExperimentChain) -> tuple[float, float]:
    """Per-channel optical transmittance, excluding detector efficiency and gating.

    Product of the output facet coupling, passive segments downstream of the
    nonlinear segment, the demux channel peak, and any post-filter stages.
    """
    eta_common = db_to_linear(chain.coupling_loss_per_facet_db)
    eta_common *= downstream_passive_transmittance(chain)
    if isinstance(chain.demux, AwgDemux):
        peak = chain.demux.spec.peak_transmittance
        # two objects, not one: over a grid they are arrays, which the post
        # filters below scale in place
        eta_s, eta_i = eta_common * peak, eta_common * peak
    else:
        eta_s = eta_common * chain.demux.signal.peak_transmittance
        eta_i = eta_common * chain.demux.idler.peak_transmittance
    for f in chain.post_filters_signal:
        eta_s *= f.peak_transmittance
    for f in chain.post_filters_idler:
        eta_i *= f.peak_transmittance
    return eta_s, eta_i


def collection_bandwidths(chain: ExperimentChain, pump: PumpConfig) -> tuple[float, float, float]:
    """(pair, signal-single, idler-single) equivalent collection bandwidths.

    Each demux arm is one unit-peak ``passband_overlap`` tuple over a flat band
    of pairs around the pump (an AWG's generation band; infinite behind
    filters).  The pair bandwidth is the signal arm's overlap with the idler
    arm mirrored about the pump (perfect spectral anti-correlation), a single
    bandwidth an arm's overlap with the band.  Post filters are assumed broader
    than the demux channels and only clamp these widths (their insertion loss
    enters the transmittance).
    """
    d = chain.demux
    if isinstance(d, AwgDemux):
        signal = awg_mod.channel_passband(d.spec, d.signal_channel, pump.frequency_hz)
        idler = awg_mod.channel_passband(d.spec, d.idler_channel, pump.frequency_hz)
        half_band = awg_mod.generation_band(d.spec, d.generation_band_hz) / 2.0
    else:
        # in the signal's frame, as the band is infinite: the signal at 0 and
        # the mirrored idler at its center's offset from the signal's
        centers = (d.signal.center_frequency_hz, d.idler.center_frequency_hz)
        offset = 0.0 if None in centers else (2.0 * pump.frequency_hz - centers[1]) - centers[0]
        signal = (0.0, d.signal.bandwidth_3db_hz / 2.0, d.signal.shape == "gaussian", 0.0)
        idler = (-offset, d.idler.bandwidth_3db_hz / 2.0, d.idler.shape == "gaussian", 0.0)
        half_band = math.inf
    pair_bw = awg_mod.passband_overlap(signal, (-idler[0], *idler[1:]), -half_band, half_band)
    flat = (0.0, half_band, False, 0.0)
    single_s = awg_mod.passband_overlap(signal, flat, -math.inf, math.inf)
    single_i = awg_mod.passband_overlap(idler, flat, -math.inf, math.inf)
    for f in chain.post_filters_signal:
        pair_bw = min(pair_bw, f.bandwidth_3db_hz)
        single_s = min(single_s, f.bandwidth_3db_hz)
    for f in chain.post_filters_idler:
        pair_bw = min(pair_bw, f.bandwidth_3db_hz)
        single_i = min(single_i, f.bandwidth_3db_hz)
    return pair_bw, single_s, single_i


def gate_duty(p_click: float, dead_gates: int) -> float:
    """Steady-state fraction of gates that are active, given a dead time.

    Every click disables the next D = ``dead_gates`` gates, so the dead
    fraction is the per-clock-gate click rate (the supplied active click
    probability scaled by the duty itself) times D.  The balance
    ``duty = 1 - duty * p_click * D`` has the closed-form fixed point below.
    """
    if not holds((0.0 <= p_click) & (p_click <= 1.0)):
        raise ValueError("p_click must be a probability")
    return 1.0 / (1.0 + p_click * dead_gates)


def no_pair_excess(x: float, thermal_modes: int | None = None) -> float:
    """L(x) - x, where L(x) = -log P0(x) is the pair law's exponent of no pair at mean x.

    Poisson pairs (``thermal_modes=None``): P0 = exp(-x), excess exactly 0.0.
    m thermal modes: P0 = (1 + x/m)**-m (Avenhaus et al., PRL 101, 053601
    (2008)).  Raises ValueError for m below 1 or not a finite float.
    """
    if thermal_modes is None:
        return 0.0
    if not 1 <= thermal_modes <= sys.float_info.max:
        raise ValueError("thermal modes must be a finite number of at least 1")
    return thermal_modes * log1p(x / thermal_modes) - x


def apply_sweep_value(
    chain: ExperimentChain, pump: PumpConfig, variable: str, value: float
) -> tuple[ExperimentChain, PumpConfig]:
    """Return (chain, pump) with one of ``SWEEP_VARIABLES`` replaced by a float or a grid.

    Values are SI: meters for the nonlinear (``l_si``) and the following
    passive (``l_siox``) segment's length, watts for the peak power, dB for
    the AWG insertion loss, hertz for the dark rate.
    """
    if variable in ("l_si", "l_siox"):
        # every segment but the nonlinear one is passive
        index = chain.nonlinear_index + (variable == "l_siox")
        if index == len(chain.segments):
            raise ValueError("chain has no passive segment after the nonlinear one")
        segments = list(chain.segments)
        segments[index] = replace(segments[index], length_m=value)
        return replace(chain, segments=tuple(segments)), pump
    if variable == "pp":
        if type(value) is type(pump.rep_rate_hz) is type(pump.pulse_fwhm_s) is float:
            avg = value * pump.rep_rate_hz * pump.pulse_fwhm_s
            finite = math.isfinite(avg)
        else:
            import numpy as np  # a grid's or a numpy float's product that overflows warns; this raises instead
            with np.errstate(over="ignore", invalid="ignore"):
                avg = value * pump.rep_rate_hz * pump.pulse_fwhm_s
            finite = np.all(np.isfinite(avg))
        if not finite:
            raise ValueError("average power (peak power * rep_rate * fwhm) is not finite")
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


def pair_law_excess(rec: ChainEvaluation, thermal_modes: int | None = None) -> tuple:
    """``no_pair_excess`` of the pair-law photons at the signal arm, the idler arm and either arm."""
    means = (rec.pair_law_signal, rec.pair_law_idler, rec.pair_law_signal + rec.pair_law_idler - rec.detected_pairs)
    return tuple(no_pair_excess(x, thermal_modes) for x in means)


def evaluate(chain: ExperimentChain, pump: PumpConfig) -> ChainEvaluation:
    """Evaluate the chain once at one operating point, or at every point of a grid.

    The only place where the pump power at the source, the transmittances,
    the collection bandwidths and the photons each detector sees are
    computed.  When one swept field of the chain or pump is a 1-D array, the
    fields that depend on it are arrays over the grid and the others stay
    floats; each element equals the record of a call at that single value.
    """
    p_eff = pump_peak_power_at_source(chain, pump)
    pair_bw, bw_s, bw_i = collection_bandwidths(chain, pump)
    eta_s, eta_i = chain_transmittances(chain)
    density = pair_generation_rate_at_power(chain.nonlinear_segment, 1.0, pump.pulse_fwhm_s, p_eff)
    noise_s = chain.noise_signal.at_peak_power(p_eff)
    noise_i = chain.noise_idler.at_peak_power(p_eff)
    mu_pair, mu_s, mu_i = density * pair_bw, density * bw_s + noise_s, density * bw_i + noise_i
    end_s = eta_s * chain.detector_signal.quantum_efficiency
    end_i = eta_i * chain.detector_idler.quantum_efficiency
    # an AWG channel collects pairs spread over the generation band, so every
    # pair photon it passes keeps the pair law; behind filters the photons
    # beyond the pair bandwidth arrive without a partner
    law_s = law_i = mu_pair
    if isinstance(chain.demux, AwgDemux):
        law_s, law_i = density * bw_s, density * bw_i
    return ChainEvaluation(
        peak_power_w=p_eff,
        downstream_transmittance=downstream_passive_transmittance(chain),
        eta_signal=eta_s,
        eta_idler=eta_i,
        pair_bandwidth_hz=pair_bw,
        single_bandwidth_signal_hz=bw_s,
        single_bandwidth_idler_hz=bw_i,
        pair_density_per_hz=density,
        mu_pair=mu_pair,
        mu_signal=mu_s,
        mu_idler=mu_i,
        noise_signal=noise_s,
        noise_idler=noise_i,
        detected_signal=end_s * mu_s,
        detected_idler=end_i * mu_i,
        detected_pairs=mu_pair * end_s * end_i,
        pair_law_signal=end_s * law_s,
        pair_law_idler=end_i * law_i,
    )


def singles_rate(chain: ExperimentChain, pump: PumpConfig) -> tuple[float, float]:
    """Photons per pulse in each collection channel at the nonlinear-segment output.

    ``mu_channel = mu_pairs(P) + n1 * P + n0``, where the pair term uses each
    channel's own collection bandwidth (see ``evaluate``).
    """
    rec = evaluate(chain, pump)
    return rec.mu_signal, rec.mu_idler


def predict(chain: ExperimentChain, pump: PumpConfig, thermal_modes: int | None = None) -> RatePrediction:
    """Exact per-clock-gate click and coincidence expectations.

    Pairs follow the law of ``no_pair_excess``, Poisson or ``thermal_modes``
    modes, as ``montecarlo.TrialConfig`` sets it.  Pairs reaching a detector
    keep it at a thinned mean x, so with the mean causes a of ``evaluate``'s
    record an arm stays quiet with ``exp(-(a + L(x) - x)) * (1 - p_dark)``,
    and both arms likewise (for Poisson pairs, Takesue and Shimizu, Opt.
    Commun. 283, 276 (2010)).  Exact for both laws without dead time; dead
    gates suppress dark counts, and the two detectors' dead-time states are
    treated as independent.  Defined at any pump power: the joint term's
    exponent is never positive.
    """
    rec = evaluate(chain, pump)
    det_s, det_i = chain.detector_signal, chain.detector_idler
    pd_s = det_s.dark_prob_per_gate
    pd_i = det_i.dark_prob_per_gate

    a_s, a_i = rec.detected_signal, rec.detected_idler  # mean photon causes per arm
    ex_s, ex_i, ex_si = pair_law_excess(rec, thermal_modes)
    p_active_s = 1.0 - exp(-(a_s + ex_s)) * (1.0 - pd_s)
    p_active_i = 1.0 - exp(-(a_i + ex_i)) * (1.0 - pd_i)
    duty_s = gate_duty(p_active_s, det_s.dead_gates)
    duty_i = gate_duty(p_active_i, det_i.dead_gates)

    # pairs whose both photons reach the detectors couple the two arms; each
    # such pair is also a cause on each arm, so c <= a_s + a_i
    c = rec.detected_pairs
    joint_excess = (1.0 - pd_s) * (1.0 - pd_i) * exp(c - a_s - a_i - ex_si) * (-expm1(-(c + ex_s + ex_i - ex_si)))
    p_accidental = duty_s * duty_i * p_active_s * p_active_i
    p_coincidence = duty_s * duty_i * (p_active_s * p_active_i + joint_excess)
    return RatePrediction(
        peak_power_w=rec.peak_power_w,
        pair_bandwidth_hz=rec.pair_bandwidth_hz,
        mu_pair_generated=rec.mu_pair,
        mu_pair_out=rec.mu_pair * rec.eta_signal * rec.eta_idler,
        mu_signal=rec.mu_signal,
        mu_idler=rec.mu_idler,
        p_click_signal=duty_s * p_active_s,
        p_click_idler=duty_i * p_active_i,
        p_coincidence=p_coincidence,
        p_accidental=p_accidental,
        car=_ratio_or_nan(p_coincidence, p_accidental),
        duty_signal=duty_s,
        duty_idler=duty_i,
    )


def _ratio_or_nan_at(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0.0 else math.nan


_ratio_or_nan = elementwise(_ratio_or_nan_at, 2)


# the same function under the name the counting checks use
expected_gate_statistics = predict


def car_estimate(chain: ExperimentChain, pump: PumpConfig) -> float:
    """The paper's linearised CAR, ``1 + p_true / p_acc``, as figures 3d and 5b plot it.

    Per active gate a detector clicks with ``eta * QE * mu_channel + p_dark``;
    that probability sets the dead-time duty, and the per-gate click
    probabilities carry the duty in the total efficiency.  ``p_true`` counts
    pairs detected on both arms and ``p_acc`` two independent clicks.  This
    neglects threshold saturation and the suppression of dark counts in dead
    gates, so it differs from ``predict(...).car``.  Raises ValueError, from
    ``gate_duty``, when an active-gate click probability exceeds 1, and when a
    channel never clicks; over a grid, when either holds at any element.
    """
    rec = evaluate(chain, pump)
    det_s, det_i = chain.detector_signal, chain.detector_idler
    active_s = rec.detected_signal + det_s.dark_prob_per_gate
    active_i = rec.detected_idler + det_i.dark_prob_per_gate
    duty_s = gate_duty(active_s, det_s.dead_gates)
    duty_i = gate_duty(active_i, det_i.dead_gates)
    eta_s_total = rec.eta_signal * det_s.quantum_efficiency * duty_s
    eta_i_total = rec.eta_idler * det_i.quantum_efficiency * duty_i
    p_acc = (eta_s_total * rec.mu_signal + det_s.dark_prob_per_gate) * (
        eta_i_total * rec.mu_idler + det_i.dark_prob_per_gate
    )
    if not holds(p_acc != 0.0):
        raise ValueError("CAR undefined: a channel never clicks")
    return 1.0 + eta_s_total * eta_i_total * rec.mu_pair / p_acc
