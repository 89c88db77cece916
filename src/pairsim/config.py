"""Experiment configuration files: the readers and builders of domain objects.

Every numeric key carries its unit in the name (``length_cm``,
``rep_rate_mhz``, ...); unknown keys are rejected outright.  All values are
converted to SI on load, so the rest of the package never sees bench units.
The pump is the only clock: each detector is read once per pulse, so its dark
rate and dead time are converted to pump gates here, at the pump's
repetition rate.

Each check lives in one place.  The builders here check structure and type
as they read: each object's keys (``_fields``) and each number (``_number``).
The domain types of ``chainmodel`` and ``awg`` check every range.  The
builders pass on finite SI values only (``_si``): a number that overflows in
SI units is named by its key, and where a unit conversion would hide a value
from the range checks, a negative one that underflows to zero, the builder
passes on one they reject.  A range check's error names the record fields
it is about, and the builder reports each by its document key too
(``_built``).
"""

from __future__ import annotations

import json
import math
import os
import re
import sys

from . import chainmodel as cm
from .awg import AwgSpec
from .chainmodel import (
    AwgDemux,
    DetectorConfig,
    ExperimentChain,
    FilterDemux,
    FilterSpec,
    NoiseCoefficients,
    PumpConfig,
    WaveguideSegment,
)

_ARMS = ("signal", "idler")
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}
# the document key of each record field read from a key of another name
_PUMP_KEYS = {"wavelength_m": "wavelength_nm", "rep_rate_hz": "rep_rate_mhz", "pulse_fwhm_s": "fwhm_ps"}
_SEGMENT_KEYS = {"length_m": "length_cm", "loss_db_per_m": "loss_db_per_cm"}
_FILTER_KEYS = {"bandwidth_3db_hz": "bandwidth_ghz", "center_frequency_hz": "center_wavelength_nm"}
_AWG_KEYS = {
    "channel_count": "channels",
    "channel_spacing_hz": "spacing_ghz",
    "passband_3db_hz": "passband_ghz",
    "generation_band_hz": "generation_band_ghz",
}
_DETECTOR_KEYS = {"quantum_efficiency": "qe", "dark_prob_per_gate": "dark_rate_khz", "dead_gates": "dead_time_us"}
_NOISE_KEYS = {"offset_photons": "n0", "slope_per_watt": "n1_per_w"}
_CHAIN_KEYS = {"coupling_loss_per_facet_db": "coupling_loss_db"}


class ConfigError(ValueError):
    """The configuration document is structurally or physically invalid."""


def validate_config(document: dict) -> None:
    """Raise ConfigError naming the first problem of a document: it is built, and the result discarded."""
    build_experiment(document)


def config_hash(document: dict) -> str:
    """Short stable digest of a configuration for result provenance."""
    import hashlib  # only here: building and predicting need no digest

    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def read_text(path: str | os.PathLike, what: str) -> str:
    """The text of a UTF-8 file, a byte-order mark before it dropped; a file
    that is not UTF-8 raises ConfigError naming it as ``what``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {str(path)!r} is not UTF-8: {exc}") from exc


def load_file(path: str | os.PathLike) -> dict:
    try:
        document = json.loads(read_text(path, "configuration"))
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("configuration root must be a JSON object")
    return document


def _built(key: str, build, *args, keys: dict[str, str] | None = None, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError reported under the document key.

    A record's error starts with the name of the field it is about; ``keys``
    maps the fields read from a document key of another name or unit to that
    key, and each field the message names is reported by its key too, as
    ``pump: peak_power_mw: average_power_w must be strictly positive``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        fields = keys or {}
        named = ", ".join(dict.fromkeys(fields[word] for word in re.findall(r"\w+", str(exc)) if word in fields))
        raise ConfigError(f"{key}: {named}: {exc}" if named else f"{key}: {exc}") from exc


def _typed(value, kind: type):
    """``value``, checked to be of the JSON type ``kind`` (dict, list or str)."""
    if not isinstance(value, kind):
        raise ValueError(f"expected {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _fields(entry, required=(), optional=(), one_of=()) -> dict:
    """``entry``, checked to be an object with every required key, exactly one of
    the ``one_of`` keys if any, and no other key.  An unknown key is named
    before a missing one, so a key renamed without its unit is the one named."""
    for key in _typed(entry, dict):
        if key not in required and key not in optional and key not in one_of:
            raise ValueError(f"unknown key {key!r}")
    for key in required:
        if key not in entry:
            raise ValueError(f"missing key {key!r}")
    if one_of and sum(key in entry for key in one_of) != 1:
        raise ValueError(f"give exactly one of {' and '.join(map(repr, one_of))}")
    return entry


def _number(entry: dict, key: str, default=None, integral: bool = False):
    """``entry[key]``, or ``default`` when the key is absent, checked to be a
    finite int or float that is not a bool; with ``integral``, a whole number
    (16 or 16.0)."""
    value = entry.get(key, default)
    # the comparison is false for NaN, for +-Infinity and for an int no float can hold
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key!r} must be a finite number, got {value!r}")
    if integral and value != int(value):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def _si(entry: dict, key: str, to_si, default=None) -> float:
    """``to_si`` of the number ``entry[key]`` (see ``_number``), checked to be a
    finite SI value.  A negative number that the conversion takes to zero
    stays negative, as the negative float nearest zero, for a range check to
    reject."""
    value = _number(entry, key, default)
    si = to_si(value)
    if not math.isfinite(si):
        raise ValueError(f"{key!r} = {value!r} overflows in SI units")
    return si if si or value >= 0 else -math.ulp(0.0)


def _build_pump(entry) -> PumpConfig:
    _fields(entry, ("wavelength_nm", "rep_rate_mhz", "fwhm_ps"), one_of=("average_power_mw", "peak_power_mw"))
    rep_rate = _si(entry, "rep_rate_mhz", lambda mhz: mhz * 1e6)
    fwhm = _si(entry, "fwhm_ps", lambda ps: ps * 1e-12)
    if "average_power_mw" in entry:
        average_w = _si(entry, "average_power_mw", lambda mw: mw * 1e-3)
    else:
        average_w = _si(entry, "peak_power_mw", lambda mw: mw * 1e-3 * rep_rate * fwhm)
    return PumpConfig(
        wavelength_m=_si(entry, "wavelength_nm", lambda nm: nm * 1e-9),
        rep_rate_hz=rep_rate,
        pulse_fwhm_s=fwhm,
        average_power_w=average_w,
    )


def _build_segment(entry) -> WaveguideSegment:
    _fields(entry, ("kind", "length_cm"), ("loss_db_per_cm", "gamma_per_w_m"))
    return WaveguideSegment(
        kind=entry["kind"],
        length_m=_si(entry, "length_cm", lambda length: length * 1e-2),
        loss_db_per_m=_si(entry, "loss_db_per_cm", lambda db_per_cm: db_per_cm * 1e2, 0.0),
        gamma_per_w_m=_number(entry, "gamma_per_w_m", 0.0),
    )


def _build_filter(entry) -> FilterSpec:
    _fields(entry, ("bandwidth_ghz",), ("insertion_loss_db", "shape", "center_wavelength_nm"))
    center_hz = None
    if "center_wavelength_nm" in entry:
        # a zero wavelength has no frequency: 0 Hz is passed on for FilterSpec to reject
        center_hz = _si(
            entry, "center_wavelength_nm", lambda nm: cm.C_VACUUM / (nm * 1e-9) if nm * 1e-9 else 0.0
        )
    return FilterSpec(
        bandwidth_3db_hz=_si(entry, "bandwidth_ghz", lambda ghz: ghz * 1e9),
        insertion_loss_db=_number(entry, "insertion_loss_db", 0.0),
        shape=entry.get("shape", "rectangular"),
        center_frequency_hz=center_hz,
    )


def _build_awg(entry, pump_frequency_hz: float) -> AwgDemux:
    _fields(
        entry,
        ("channels", "spacing_ghz", "passband_ghz", "insertion_loss_db", "signal_channel", "idler_channel"),
        ("passband_shape", "generation_band_ghz", "crosstalk_floor"),
    )
    spec = AwgSpec(
        channel_count=_number(entry, "channels", integral=True),
        channel_spacing_hz=_si(entry, "spacing_ghz", lambda ghz: ghz * 1e9),
        passband_3db_hz=_si(entry, "passband_ghz", lambda ghz: ghz * 1e9),
        insertion_loss_db=_number(entry, "insertion_loss_db"),
        center_frequency_hz=pump_frequency_hz,
        passband_shape=entry.get("passband_shape", "gaussian"),
        crosstalk_floor=_number(entry, "crosstalk_floor", 0.0),
    )
    band = _si(entry, "generation_band_ghz", lambda ghz: ghz * 1e9) if "generation_band_ghz" in entry else None
    return AwgDemux(
        spec=spec,
        signal_channel=_number(entry, "signal_channel", integral=True),
        idler_channel=_number(entry, "idler_channel", integral=True),
        generation_band_hz=band,
    )


def _build_demux(entry, pump_frequency_hz: float) -> FilterDemux | AwgDemux:
    _built("demux", _fields, entry, one_of=("filters", "awg"))
    if "awg" in entry:
        return _built("demux/awg", _build_awg, entry["awg"], pump_frequency_hz, keys=_AWG_KEYS)
    filters = _built("demux/filters", _fields, entry["filters"], _ARMS)
    return FilterDemux(
        **{arm: _built(f"demux/filters/{arm}", _build_filter, filters[arm], keys=_FILTER_KEYS) for arm in _ARMS}
    )


def _build_detector(entry, rep_rate_hz: float) -> DetectorConfig:
    _fields(entry, ("qe",), ("dark_rate_khz", "dead_time_us"))
    dead_gates = _si(entry, "dead_time_us", lambda us: us * 1e-6 * rep_rate_hz, 0.0)
    return DetectorConfig(
        quantum_efficiency=_number(entry, "qe"),
        dark_prob_per_gate=_si(entry, "dark_rate_khz", lambda khz: khz * 1e3 / rep_rate_hz, 0.0),
        # a negative dead time stays negative, however short, for DetectorConfig to reject
        dead_gates=round(dead_gates) if dead_gates >= 0 else math.floor(dead_gates),
    )


def _build_noise(entry) -> NoiseCoefficients:
    _fields(entry, optional=("n0", "n1_per_w"))
    return NoiseCoefficients(
        offset_photons=_number(entry, "n0", 0.0),
        slope_per_watt=_number(entry, "n1_per_w", 0.0),
    )


def build_experiment(document: dict) -> tuple[ExperimentChain, PumpConfig]:
    """Check a configuration document and build the domain objects.

    The first problem found raises ConfigError, prefixed with the path of the
    object being built: ``<root>``, ``pump``, ``segments/<i>``, ``demux``,
    ``demux/filters/<arm>``, ``demux/awg``, ``post_filters/<arm>/<i>``,
    ``detectors/<arm>`` or ``noise/<arm>``, and then by the document keys of
    the record fields it names (``_built``).  The checks across the whole
    chain are reported under ``<root>``.
    """
    _built(
        "<root>",
        _fields,
        document,
        ("pump", "coupling_loss_db", "segments", "demux", "detectors"),
        ("description", "post_filters", "noise"),
    )
    _built("description", _typed, document.get("description", ""), str)
    pump_entry = document["pump"]
    power = "peak_power_mw" if isinstance(pump_entry, dict) and "peak_power_mw" in pump_entry else "average_power_mw"
    pump = _built("pump", _build_pump, pump_entry, keys={**_PUMP_KEYS, "average_power_w": power})
    detectors = _built("detectors", _fields, document["detectors"], _ARMS)
    post = _built("post_filters", _fields, document.get("post_filters", {}), optional=_ARMS)
    noise = _built("noise", _fields, document.get("noise", {}), optional=_ARMS)
    arms = {}
    for arm in _ARMS:
        arms[f"detector_{arm}"] = _built(
            f"detectors/{arm}", _build_detector, detectors[arm], pump.rep_rate_hz, keys=_DETECTOR_KEYS
        )
        arms[f"post_filters_{arm}"] = tuple(
            _built(f"post_filters/{arm}/{i}", _build_filter, entry, keys=_FILTER_KEYS)
            for i, entry in enumerate(_built(f"post_filters/{arm}", _typed, post.get(arm, []), list))
        )
        arms[f"noise_{arm}"] = _built(f"noise/{arm}", _build_noise, noise.get(arm, {}), keys=_NOISE_KEYS)
    segments = tuple(
        _built(f"segments/{i}", _build_segment, entry, keys=_SEGMENT_KEYS)
        for i, entry in enumerate(_built("segments", _typed, document["segments"], list))
    )
    chain = _built(
        "<root>",
        ExperimentChain,
        coupling_loss_per_facet_db=_built("<root>", _number, document, "coupling_loss_db"),
        segments=segments,
        demux=_build_demux(document["demux"], pump.frequency_hz),
        keys=_CHAIN_KEYS,
        **arms,
    )
    return chain, pump
