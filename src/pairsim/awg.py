"""Arrayed-waveguide-grating demultiplexer model.

Provides per-channel transmission spectra and the effective transmittance
seen by spectrally anti-correlated photon pairs.  A pair created at signal
frequency nu has its partner at 2*nu_pump - nu (energy conservation), so the
joint collection efficiency of a channel pair is the overlap integral of one
passband with the mirror image of the other.  ``passband_overlap`` gives
that integral in closed form: every passband, with or without a crosstalk
floor, is piecewise constant or gaussian, so each piece of a product is an
erf difference.  numpy is imported only by ``channel_transmission``, the
dense-grid reference for the closed forms, which no model path calls.
"""

from __future__ import annotations

import functools
import math

from .elementwise import db_to_linear, holds
from .records import Record

_LN2 = math.log(2.0)

PASSBAND_SHAPES = ("gaussian", "rectangular")


class AwgSpec(Record):
    """Static description of an arrayed waveguide grating.

    Channel k is centered at ``center_frequency_hz + k * channel_spacing_hz``
    with k a signed offset from the center port (k = 0).  The gaussian
    passband is ``peak * 2**(-((nu - nu_k) / (passband_3db_hz / 2))**2)`` so
    transmission is exactly half of peak at +/- half the 3-dB width.
    """

    channel_count: int
    channel_spacing_hz: float
    passband_3db_hz: float
    insertion_loss_db: float
    center_frequency_hz: float
    passband_shape: str = "gaussian"
    crosstalk_floor: float = 0.0  # linear, relative to channel peak

    def __post_init__(self) -> None:
        if self.channel_count < 2:
            raise ValueError(f"channel_count must be >= 2, got {self.channel_count}")
        if self.channel_spacing_hz <= 0:
            raise ValueError("channel_spacing_hz must be positive")
        if self.passband_3db_hz <= 0:
            raise ValueError("passband_3db_hz must be positive")
        if self.passband_3db_hz >= self.channel_spacing_hz:
            raise ValueError(
                "passband_3db_hz must be smaller than channel_spacing_hz "
                f"({self.passband_3db_hz} >= {self.channel_spacing_hz})"
            )
        if not holds(self.insertion_loss_db >= 0):
            raise ValueError("insertion_loss_db must be non-negative")
        if self.center_frequency_hz <= 0:
            raise ValueError("center_frequency_hz must be positive")
        if self.passband_shape not in PASSBAND_SHAPES:
            raise ValueError(f"passband_shape must be one of {PASSBAND_SHAPES}")
        if not 0.0 <= self.crosstalk_floor < 1.0:
            raise ValueError("crosstalk_floor must be in [0, 1)")

    @property
    def peak_transmittance(self) -> float:
        return db_to_linear(self.insertion_loss_db)

    @property
    def default_generation_band_hz(self) -> float:
        # +/- 4 channel spacings around the pump
        return 8.0 * self.channel_spacing_hz


def channel_center(spec: AwgSpec, channel: int) -> float:
    """Center frequency of a channel given as a signed offset from the center port."""
    if abs(channel) > spec.channel_count / 2:
        raise ValueError(
            f"channel offset {channel} out of range for {spec.channel_count} channels"
        )
    return spec.center_frequency_hz + channel * spec.channel_spacing_hz


def channel_transmission(spec: AwgSpec, channel: int, frequency_hz):
    """Power transmittance of one output channel at the given frequency.

    Accepts a scalar or an array of frequencies.  The peak equals
    ``10**(-insertion_loss_db / 10)`` at the channel center.
    """
    import numpy as np
    detuning = np.asarray(frequency_hz, dtype=float) - channel_center(spec, channel)
    half_width = spec.passband_3db_hz / 2.0
    if spec.passband_shape == "gaussian":
        shape = np.exp2(-np.square(detuning / half_width))
    else:
        shape = (np.abs(detuning) <= half_width).astype(float)
    value = spec.peak_transmittance * np.maximum(shape, spec.crosstalk_floor)
    if np.ndim(frequency_hz) == 0:
        return float(value)
    return value


def generation_band(spec: AwgSpec, generation_band_hz: float | None) -> float:
    """Width of the band pairs are spread over, centered on the pump; a given one must be positive."""
    if generation_band_hz is not None and not generation_band_hz > 0:
        raise ValueError("generation_band_hz must be positive")
    return generation_band_hz if generation_band_hz is not None else spec.default_generation_band_hz


def channel_passband(spec: AwgSpec, channel: int, pump_frequency_hz: float) -> tuple:
    """A channel's unit-peak ``passband_overlap`` tuple, in detuning from the pump."""
    detuning = channel_center(spec, channel) - pump_frequency_hz
    return (detuning, spec.passband_3db_hz / 2.0, spec.passband_shape == "gaussian", spec.crosstalk_floor)


def _gaussian_integral(center: float, rate: float, lo: float, hi: float) -> float:
    """``integral exp(-rate * (x - center)**2) dx`` over [lo, hi]; with both limits in
    one tail the erf difference is taken through erfc to keep its relative precision."""
    scale = math.sqrt(rate)
    u_lo, u_hi = scale * (lo - center), scale * (hi - center)
    if u_lo > 0.0:
        diff = math.erfc(u_lo) - math.erfc(u_hi)
    elif u_hi < 0.0:
        diff = math.erfc(-u_hi) - math.erfc(-u_lo)
    else:
        diff = math.erf(u_hi) - math.erf(u_lo)
    return 0.5 * math.sqrt(math.pi / rate) * diff


# cached: a few microseconds each, and a run of single-value calls on one
# chain (a Monte Carlo sweep over pump power) reads the same passbands at
# every point
@functools.lru_cache(maxsize=256)
def passband_overlap(first, second, lo: float, hi: float) -> float:
    """``integral f_1(x) * f_2(x) dx`` over [lo, hi] of two unit-peak passbands, exactly.

    A passband is ``(center, half_width, gaussian, floor)``: the shape is
    ``max(2**(-((x - center) / half_width)**2), floor)`` when ``gaussian``,
    else ``max(1 if |x - center| <= half_width else 0, floor)``.  The shape
    meets its floor at ``center +/- reach``; [lo, hi] (limits may be infinite)
    is clipped to the reach of a passband without floor, split at the other
    reach points, and each piece, a product of constants and at most two
    gaussians, is integrated by erf.
    """
    bands = []
    for center, half_width, gaussian, floor in (first, second):
        reach = half_width
        if gaussian:
            reach *= math.sqrt(-math.log2(floor)) if floor > 0.0 else math.inf
        if floor == 0.0:
            lo, hi = max(lo, center - reach), min(hi, center + reach)
        if gaussian or floor > 0.0:  # a rectangle without floor is 1 on [lo, hi]
            rate = _LN2 / half_width**2
            bands.append((center - reach, center + reach, gaussian, floor, center, rate))
    if lo >= hi or not bands:
        return max(hi - lo, 0.0)
    edges = sorted({lo, hi, *(e for b in bands for e in b[:2] if lo < e < hi)})
    total = 0.0
    for x0, x1 in zip(edges, edges[1:]):
        const, gaussians = 1.0, []
        for start, stop, gaussian, floor, center, rate in bands:
            if not start <= x0 <= x1 <= stop:
                const *= floor
            elif gaussian:
                gaussians.append((center, rate))
        if len(gaussians) == 2:
            # a(x - c_a)^2 + b(x - c_b)^2 = (a + b)(x - c)^2 + ab/(a + b) (c_a - c_b)^2
            (c_a, a), (c_b, b) = gaussians
            const *= math.exp(-a * b / (a + b) * (c_a - c_b) ** 2)
            gaussians = [((a * c_a + b * c_b) / (a + b), a + b)]
        total += const * (_gaussian_integral(*gaussians[0], x0, x1) if gaussians else x1 - x0)
    return total


def effective_pair_bandwidth(
    spec: AwgSpec,
    signal_channel: int,
    idler_channel: int,
    pump_frequency_hz: float,
    generation_band_hz: float | None = None,
) -> float:
    """Equivalent rectangular bandwidth seen by pairs, insertion loss factored out.

    The overlap of the unit-peak signal passband with the mirrored idler one
    over the generation band, evaluated exactly by ``passband_overlap`` in
    detuning from the pump (the mirrored idler passband is centered at
    ``nu_p - (nu_i - nu_p)``).  For mirrored rectangular passbands this
    equals the 3-dB width itself.
    """
    band = generation_band(spec, generation_band_hz)
    signal = channel_passband(spec, signal_channel, pump_frequency_hz)
    idler = channel_passband(spec, idler_channel, pump_frequency_hz)
    return passband_overlap(signal, (-idler[0], *idler[1:]), -band / 2.0, band / 2.0)
