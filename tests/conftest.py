import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pairsim import chainmodel as cm


def make_rate_chain(
    mu_pair: float,
    eta_signal: float = 1.0,
    eta_idler: float = 1.0,
    dark_rate_hz: float = 0.0,
    dead_time_us: float = 0.0,
    n0: float = 0.0,
    n1_per_w: float = 0.0,
):
    """Chain and pump hitting an exact pair rate and channel efficiencies.

    Lossless nonlinear segment and 0 dB optics, so the end-to-end channel
    efficiency equals the detector quantum efficiency, and the pair rate is
    dnu * dt * P_peak**2 with unit nonlinearity and length.
    """
    bandwidth = 0.12e12
    fwhm = 200e-12
    rep = 1e8
    # gamma = 0 makes the rate exactly zero while the pump stays positive
    gamma = 1.0 if mu_pair > 0 else 0.0
    peak = math.sqrt(mu_pair / (bandwidth * fwhm)) if mu_pair > 0 else 1e-3
    pump = cm.PumpConfig(
        wavelength_m=1550e-9,
        rep_rate_hz=rep,
        pulse_fwhm_s=fwhm,
        average_power_w=peak * rep * fwhm,
    )
    segment = cm.WaveguideSegment(
        "nonlinear", length_m=1.0, loss_db_per_m=0.0, gamma_per_w_m=gamma
    )
    demux = cm.FilterDemux(
        signal=cm.FilterSpec(bandwidth_3db_hz=bandwidth),
        idler=cm.FilterSpec(bandwidth_3db_hz=bandwidth),
    )
    detector = lambda eta: cm.DetectorConfig(  # noqa: E731
        quantum_efficiency=eta,
        dark_prob_per_gate=dark_rate_hz / rep,
        dead_gates=round(dead_time_us * 1e-6 * rep),
    )
    noise = cm.NoiseCoefficients(offset_photons=n0, slope_per_watt=n1_per_w)
    chain = cm.ExperimentChain(
        coupling_loss_per_facet_db=0.0,
        segments=(segment,),
        demux=demux,
        detector_signal=detector(eta_signal),
        detector_idler=detector(eta_idler),
        noise_signal=noise,
        noise_idler=noise,
    )
    return chain, pump


@pytest.fixture
def wg_i():
    from pairsim import config as cfg, presets

    return cfg.build_experiment(presets.get_preset("wg-i"))


@pytest.fixture
def awg_chain():
    from pairsim import config as cfg, presets

    return cfg.build_experiment(presets.get_preset("awg"))


@pytest.fixture
def fresh_python():
    """Standard output of a code string run in a new interpreter on these sources."""
    src = Path(cm.__file__).resolve().parents[1]

    def run(code: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()

    return run
