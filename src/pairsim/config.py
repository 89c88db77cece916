"""Experiment configuration files: strict JSON schema and domain-object builders.

Every numeric key carries its unit in the name (``length_cm``,
``rep_rate_mhz``, ...); unknown keys are rejected outright.  All values are
converted to SI on load, so the rest of the package never sees bench units.
The pump is the only clock: each detector is read once per pulse, so its dark
rate and dead time are converted to pump gates here, at the pump's
repetition rate.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

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


class ConfigError(ValueError):
    """The configuration document is structurally or physically invalid."""


_FILTER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["bandwidth_ghz"],
    "properties": {
        "bandwidth_ghz": {"type": "number", "exclusiveMinimum": 0},
        "insertion_loss_db": {"type": "number", "minimum": 0},
        "shape": {"enum": ["rectangular", "gaussian"]},
        "center_wavelength_nm": {"type": "number", "exclusiveMinimum": 0},
    },
}

_DETECTOR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["qe"],
    "properties": {
        "qe": {"type": "number", "minimum": 0, "maximum": 1},
        "dark_rate_khz": {"type": "number", "minimum": 0},
        "dead_time_us": {"type": "number", "minimum": 0},
    },
}

_NOISE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "n0": {"type": "number", "minimum": 0},
        "n1_per_w": {"type": "number", "minimum": 0},
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["pump", "coupling_loss_db", "segments", "demux", "detectors"],
    "properties": {
        "description": {"type": "string"},
        "pump": {
            "type": "object",
            "additionalProperties": False,
            "required": ["wavelength_nm", "rep_rate_mhz", "fwhm_ps"],
            "oneOf": [
                {"required": ["average_power_mw"]},
                {"required": ["peak_power_mw"]},
            ],
            "properties": {
                "wavelength_nm": {"type": "number", "exclusiveMinimum": 0},
                "rep_rate_mhz": {"type": "number", "exclusiveMinimum": 0},
                "fwhm_ps": {"type": "number", "exclusiveMinimum": 0},
                "average_power_mw": {"type": "number", "exclusiveMinimum": 0},
                "peak_power_mw": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "coupling_loss_db": {"type": "number", "minimum": 0},
        "segments": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["kind", "length_cm"],
                "properties": {
                    "kind": {"enum": ["nonlinear", "passive"]},
                    "length_cm": {"type": "number", "minimum": 0},
                    "loss_db_per_cm": {"type": "number", "minimum": 0},
                    "gamma_per_w_m": {"type": "number", "minimum": 0},
                },
            },
        },
        "demux": {
            "type": "object",
            "additionalProperties": False,
            "oneOf": [{"required": ["filters"]}, {"required": ["awg"]}],
            "properties": {
                "filters": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["signal", "idler"],
                    "properties": {"signal": _FILTER_SCHEMA, "idler": _FILTER_SCHEMA},
                },
                "awg": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": [
                        "channels",
                        "spacing_ghz",
                        "passband_ghz",
                        "insertion_loss_db",
                        "signal_channel",
                        "idler_channel",
                    ],
                    "properties": {
                        "channels": {"type": "integer", "minimum": 2},
                        "spacing_ghz": {"type": "number", "exclusiveMinimum": 0},
                        "passband_ghz": {"type": "number", "exclusiveMinimum": 0},
                        "insertion_loss_db": {"type": "number", "minimum": 0},
                        "signal_channel": {"type": "integer"},
                        "idler_channel": {"type": "integer"},
                        "passband_shape": {"enum": ["rectangular", "gaussian"]},
                        "generation_band_ghz": {"type": "number", "exclusiveMinimum": 0},
                        "crosstalk_floor": {"type": "number", "minimum": 0},
                    },
                },
            },
        },
        "post_filters": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "signal": {"type": "array", "items": _FILTER_SCHEMA},
                "idler": {"type": "array", "items": _FILTER_SCHEMA},
            },
        },
        "detectors": {
            "type": "object",
            "additionalProperties": False,
            "required": ["signal", "idler"],
            "properties": {"signal": _DETECTOR_SCHEMA, "idler": _DETECTOR_SCHEMA},
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"signal": _NOISE_SCHEMA, "idler": _NOISE_SCHEMA},
        },
    },
}


def validate_config(document: dict) -> None:
    """Schema-validate a configuration dict; raise ConfigError listing problems."""
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for err in errors[:10]:
            where = "/".join(str(p) for p in err.absolute_path) or "<root>"
            lines.append(f"{where}: {err.message}")
        raise ConfigError("invalid configuration:\n" + "\n".join(lines))


def config_hash(document: dict) -> str:
    """Short stable digest of a configuration for result provenance."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def load_file(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("configuration root must be a JSON object")
    return document


def _built(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a domain ValueError reported under the document key."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _build_pump(entry: dict) -> PumpConfig:
    rep_rate = entry["rep_rate_mhz"] * 1e6
    fwhm = entry["fwhm_ps"] * 1e-12
    if "average_power_mw" in entry:
        average_w = entry["average_power_mw"] * 1e-3
    else:
        average_w = entry["peak_power_mw"] * 1e-3 * rep_rate * fwhm
    return PumpConfig(
        wavelength_m=entry["wavelength_nm"] * 1e-9,
        rep_rate_hz=rep_rate,
        pulse_fwhm_s=fwhm,
        average_power_w=average_w,
    )


def _build_segment(entry: dict) -> WaveguideSegment:
    return WaveguideSegment(
        kind=entry["kind"],
        length_m=entry["length_cm"] * 1e-2,
        loss_db_per_m=entry.get("loss_db_per_cm", 0.0) * 1e2,
        gamma_per_w_m=entry.get("gamma_per_w_m", 0.0),
    )


def _build_filter(entry: dict) -> FilterSpec:
    center = entry.get("center_wavelength_nm")
    return FilterSpec(
        bandwidth_3db_hz=entry["bandwidth_ghz"] * 1e9,
        insertion_loss_db=entry.get("insertion_loss_db", 0.0),
        shape=entry.get("shape", "rectangular"),
        center_frequency_hz=cm.C_VACUUM / (center * 1e-9) if center else None,
    )


def _build_demux(entry: dict, pump_frequency_hz: float) -> FilterDemux | AwgDemux:
    if "filters" in entry:
        f = entry["filters"]
        return FilterDemux(signal=_build_filter(f["signal"]), idler=_build_filter(f["idler"]))
    a = entry["awg"]
    spec = AwgSpec(
        channel_count=a["channels"],
        channel_spacing_hz=a["spacing_ghz"] * 1e9,
        passband_3db_hz=a["passband_ghz"] * 1e9,
        insertion_loss_db=a["insertion_loss_db"],
        center_frequency_hz=pump_frequency_hz,
        passband_shape=a.get("passband_shape", "gaussian"),
        crosstalk_floor=a.get("crosstalk_floor", 0.0),
    )
    band = a.get("generation_band_ghz")
    return AwgDemux(
        spec=spec,
        signal_channel=a["signal_channel"],
        idler_channel=a["idler_channel"],
        generation_band_hz=band * 1e9 if band else None,
    )


def _build_detector(entry: dict, rep_rate_hz: float) -> DetectorConfig:
    return DetectorConfig(
        quantum_efficiency=entry["qe"],
        dark_prob_per_gate=entry.get("dark_rate_khz", 0.0) * 1e3 / rep_rate_hz,
        dead_gates=round(entry.get("dead_time_us", 0.0) * 1e-6 * rep_rate_hz),
    )


def _build_noise(entry: dict | None) -> NoiseCoefficients:
    if not entry:
        return NoiseCoefficients()
    return NoiseCoefficients(
        offset_photons=entry.get("n0", 0.0),
        slope_per_watt=entry.get("n1_per_w", 0.0),
    )


def build_experiment(document: dict) -> tuple[ExperimentChain, PumpConfig]:
    """Validate a configuration document and build the domain objects.

    A physical check that fails names the document key being built, as
    ``pump``, ``segments/<i>``, ``demux``, ``detectors/<arm>``,
    ``post_filters/<arm>/<i>`` or ``noise/<arm>``, and ``<root>`` for the
    checks across the whole chain.
    """
    validate_config(document)
    pump = _built("pump", _build_pump, document["pump"])
    post = document.get("post_filters", {})
    noise = document.get("noise", {})
    arms = {}
    for arm in ("signal", "idler"):
        detector = document["detectors"][arm]
        arms[f"detector_{arm}"] = _built(f"detectors/{arm}", _build_detector, detector, pump.rep_rate_hz)
        arms[f"post_filters_{arm}"] = tuple(
            _built(f"post_filters/{arm}/{i}", _build_filter, entry)
            for i, entry in enumerate(post.get(arm, []))
        )
        arms[f"noise_{arm}"] = _built(f"noise/{arm}", _build_noise, noise.get(arm))
    segments = tuple(
        _built(f"segments/{i}", _build_segment, entry) for i, entry in enumerate(document["segments"])
    )
    chain = _built(
        "<root>",
        ExperimentChain,
        coupling_loss_per_facet_db=document["coupling_loss_db"],
        segments=segments,
        demux=_built("demux", _build_demux, document["demux"], pump.frequency_hz),
        **arms,
    )
    return chain, pump
