"""Built-in experiment configurations for the bundled device family.

Two chip generations are covered: straight nonlinear + passive waveguide
chips read out through off-chip filters (``wg-i`` .. ``wg-vi``, differing
only in section lengths), and a chip with an on-chip 16-channel
demultiplexer (``awg``).

Published device values: nonlinear section 1.37 cm; passive sections 2.93 cm
(wg-v) and 4.49 cm (wg-vi); nonlinear coefficient 161 /W/m; nonlinear loss
2.0 dB/cm (fitted; the cut-back value is 2.1); passive loss 1.8 dB/cm
(cut-back; pair-decay fits prefer 2.4); demux channel data and all detector
figures as listed below.  Everything marked "assumed" in the descriptions is
a representative placeholder, not a measured value; in particular the noise
polynomial coefficients (n0 = 1e-4 photons/pulse, n1 = 0.15 /W per channel)
are chosen so the device family lands at its reported CAR scale.
"""

from __future__ import annotations

import copy

_DETECTOR_WG = {
    "qe": 0.21,
    "dark_rate_khz": 2.1,
    "dead_time_us": 10.0,
}

_DETECTOR_AWG = {
    "qe": 0.24,
    "dark_rate_khz": 5.1,
    "dead_time_us": 10.0,
}

_NOISE = {
    "signal": {"n0": 1e-4, "n1_per_w": 0.15},
    "idler": {"n0": 1e-4, "n1_per_w": 0.15},
}

_PUMP = {
    "wavelength_nm": 1551.1,
    "rep_rate_mhz": 100.0,
    "fwhm_ps": 200.0,
    "peak_power_mw": 37.0,
}


def _wg_preset(name: str, l_si_cm: float, l_siox_cm: float, assumed: str) -> dict:
    return {
        "description": (
            f"Straight-chip variant {name}: {l_si_cm} cm nonlinear + {l_siox_cm} cm "
            f"passive section, off-chip filter readout. {assumed} "
            "Noise coefficients are assumed."
        ),
        "pump": copy.deepcopy(_PUMP),
        "coupling_loss_db": 1.0,
        "segments": [
            {
                "kind": "nonlinear",
                "length_cm": l_si_cm,
                "loss_db_per_cm": 2.0,
                "gamma_per_w_m": 161.0,
            },
            {"kind": "passive", "length_cm": l_siox_cm, "loss_db_per_cm": 1.8},
        ],
        # centers omitted: channels are treated as exactly energy-conjugate
        # about the pump (nominal 1546.4 / 1556.0 nm share the 120 GHz width)
        "demux": {
            "filters": {
                "signal": {
                    "bandwidth_ghz": 120.0,
                    "insertion_loss_db": 3.8,
                    "shape": "rectangular",
                },
                "idler": {
                    "bandwidth_ghz": 120.0,
                    "insertion_loss_db": 3.8,
                    "shape": "rectangular",
                },
            }
        },
        "detectors": {
            "signal": copy.deepcopy(_DETECTOR_WG),
            "idler": copy.deepcopy(_DETECTOR_WG),
        },
        "noise": copy.deepcopy(_NOISE),
    }


_AWG_PRESET = {
    "description": (
        "Chip with on-chip 16-channel demultiplexer: 1.37 cm nonlinear section, "
        "200 GHz channel spacing, 80 GHz gaussian passbands, 7.7 dB insertion "
        "loss, pair collected from channels +3/-3, 100 GHz bandpass cleanup "
        "filters (2.8 dB). Noise coefficients are assumed."
    ),
    "pump": copy.deepcopy(_PUMP),
    "coupling_loss_db": 1.0,
    "segments": [
        {
            "kind": "nonlinear",
            "length_cm": 1.37,
            "loss_db_per_cm": 2.0,
            "gamma_per_w_m": 161.0,
        }
    ],
    "demux": {
        "awg": {
            "channels": 16,
            "spacing_ghz": 200.0,
            "passband_ghz": 80.0,
            "insertion_loss_db": 7.7,
            "signal_channel": 3,
            "idler_channel": -3,
            "passband_shape": "gaussian",
        }
    },
    "post_filters": {
        "signal": [{"bandwidth_ghz": 100.0, "insertion_loss_db": 2.8, "shape": "rectangular"}],
        "idler": [{"bandwidth_ghz": 100.0, "insertion_loss_db": 2.8, "shape": "rectangular"}],
    },
    "detectors": {
        "signal": copy.deepcopy(_DETECTOR_AWG),
        "idler": copy.deepcopy(_DETECTOR_AWG),
    },
    "noise": copy.deepcopy(_NOISE),
}


PRESETS: dict[str, dict] = {
    "wg-i": _wg_preset("wg-i", 1.37, 0.94, "The 0.94 cm passive length is assumed."),
    "wg-ii": _wg_preset("wg-ii", 0.60, 0.94, "Both lengths are assumed."),
    "wg-iii": _wg_preset("wg-iii", 3.00, 0.94, "Both lengths are assumed."),
    "wg-iv": _wg_preset("wg-iv", 5.00, 0.94, "Both lengths are assumed."),
    "wg-v": _wg_preset("wg-v", 1.37, 2.93, "Lengths are device values."),
    "wg-vi": _wg_preset("wg-vi", 1.37, 4.49, "Lengths are device values."),
    "awg": _AWG_PRESET,
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    """Deep copy of a named preset configuration document."""
    try:
        return copy.deepcopy(PRESETS[name])
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
