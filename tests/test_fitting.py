from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim import chainmodel as cm
from pairsim import config as cfg
from pairsim import fitting
from pairsim import montecarlo as mc
from pairsim import presets

WG_I = cfg.build_experiment(presets.get_preset("wg-i"))


def _with_segment(chain, index, **changes):
    segments = list(chain.segments)
    segments[index] = replace(segments[index], **changes)
    return replace(chain, segments=tuple(segments))


def _predict(chain, pump, variable, value):
    return cm.predict(*mc.apply_sweep_value(chain, pump, variable, value))


class TestDataSet:
    def test_zero_x_accepted(self):
        data = fitting.DataSet(x=[0.0, 0.01], y=[1.0, 0.5], role="l_siox")
        assert data.x[0] == 0.0

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fitting.DataSet(x=[-0.01, 0.01], y=[1.0, 0.5], role="l_siox")


class TestRecoveryFromPredict:
    """Fits on noiseless ``predict`` data recover the chain parameters."""

    @settings(max_examples=25, deadline=None)
    @given(
        gamma=st.floats(50.0, 400.0),
        alpha_db_per_cm=st.floats(0.5, 10.0),
    )
    def test_gamma_alpha(self, gamma, alpha_db_per_cm):
        chain, pump = WG_I
        alpha = alpha_db_per_cm * 100.0
        index = chain.nonlinear_index
        chain = _with_segment(chain, index, gamma_per_w_m=gamma, loss_db_per_m=alpha)
        lengths = np.linspace(0.3, 6.0, 12) * 1e-2
        y = [_predict(chain, pump, "l_si", x).mu_pair_generated for x in lengths]
        rec = cm.evaluate(chain, pump)
        fixed = {
            "peak_power_w": rec.peak_power_w,
            "pair_bandwidth_hz": rec.pair_bandwidth_hz,
            "pulse_fwhm_s": pump.pulse_fwhm_s,
        }
        result = fitting.fit_gamma_alpha(
            fitting.DataSet(x=lengths, y=y, role="l_si", fixed_params=fixed)
        )
        assert result.converged
        assert result.params["gamma_per_w_m"] == pytest.approx(gamma, rel=1e-6)
        assert result.params["alpha_db_per_m"] == pytest.approx(alpha, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(alpha_db_per_cm=st.floats(0.5, 5.0))
    def test_sio2_decay(self, alpha_db_per_cm):
        chain, pump = WG_I
        alpha = alpha_db_per_cm * 100.0
        chain = _with_segment(chain, chain.nonlinear_index + 1, loss_db_per_m=alpha)
        lengths = np.linspace(0.0, 6.0, 13) * 1e-2
        # pairs need both photons through the passive section
        y = [_predict(chain, pump, "l_siox", x).mu_pair_out for x in lengths]
        result = fitting.fit_sio2_decay(fitting.DataSet(x=lengths, y=y, role="l_siox"))
        assert result.converged
        assert result.params["alpha_db_per_m"] == pytest.approx(alpha, rel=1e-6)
