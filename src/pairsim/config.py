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


def _build_filter(entry: dict) -> FilterSpec:
    center = entry.get("center_wavelength_nm")
    return FilterSpec(
        bandwidth_3db_hz=entry["bandwidth_ghz"] * 1e9,
        insertion_loss_db=entry.get("insertion_loss_db", 0.0),
        shape=entry.get("shape", "rectangular"),
        center_frequency_hz=cm.C_VACUUM / (center * 1e-9) if center else None,
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
    """Validate a configuration document and build the domain objects."""
    validate_config(document)
    p = document["pump"]
    rep_rate = p["rep_rate_mhz"] * 1e6
    fwhm = p["fwhm_ps"] * 1e-12
    if "average_power_mw" in p:
        average_w = p["average_power_mw"] * 1e-3
    else:
        average_w = p["peak_power_mw"] * 1e-3 * rep_rate * fwhm
    try:
        pump = PumpConfig(
            wavelength_m=p["wavelength_nm"] * 1e-9,
            rep_rate_hz=rep_rate,
            pulse_fwhm_s=fwhm,
            average_power_w=average_w,
        )
        segments = tuple(
            WaveguideSegment(
                kind=s["kind"],
                length_m=s["length_cm"] * 1e-2,
                loss_db_per_m=s.get("loss_db_per_cm", 0.0) * 1e2,
                gamma_per_w_m=s.get("gamma_per_w_m", 0.0),
            )
            for s in document["segments"]
        )
        if "filters" in document["demux"]:
            f = document["demux"]["filters"]
            demux = FilterDemux(signal=_build_filter(f["signal"]), idler=_build_filter(f["idler"]))
        else:
            a = document["demux"]["awg"]
            spec = AwgSpec(
                channel_count=a["channels"],
                channel_spacing_hz=a["spacing_ghz"] * 1e9,
                passband_3db_hz=a["passband_ghz"] * 1e9,
                insertion_loss_db=a["insertion_loss_db"],
                center_frequency_hz=pump.frequency_hz,
                passband_shape=a.get("passband_shape", "gaussian"),
                crosstalk_floor=a.get("crosstalk_floor", 0.0),
            )
            band = a.get("generation_band_ghz")
            demux = AwgDemux(
                spec=spec,
                signal_channel=a["signal_channel"],
                idler_channel=a["idler_channel"],
                generation_band_hz=band * 1e9 if band else None,
            )
        post = document.get("post_filters", {})
        noise = document.get("noise", {})
        chain = ExperimentChain(
            coupling_loss_per_facet_db=document["coupling_loss_db"],
            segments=segments,
            demux=demux,
            detector_signal=_build_detector(document["detectors"]["signal"], rep_rate),
            detector_idler=_build_detector(document["detectors"]["idler"], rep_rate),
            post_filters_signal=tuple(_build_filter(f) for f in post.get("signal", [])),
            post_filters_idler=tuple(_build_filter(f) for f in post.get("idler", [])),
            noise_signal=_build_noise(noise.get("signal")),
            noise_idler=_build_noise(noise.get("idler")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return chain, pump
