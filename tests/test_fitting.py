import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsim import chainmodel as cm
from pairsim import config as cfg
from pairsim import fitting
from pairsim import presets
from pairsim.records import replace

WG_I = cfg.build_experiment(presets.get_preset("wg-i"))


def _with_segment(chain, index, **changes):
    segments = list(chain.segments)
    segments[index] = replace(segments[index], **changes)
    return replace(chain, segments=tuple(segments))


def _predict(chain, pump, variable, value):
    return cm.predict(*cm.apply_sweep_value(chain, pump, variable, value))


class TestDataSet:
    def test_zero_x_accepted(self):
        data = fitting.DataSet(x=[0.0, 0.01], y=[1.0, 0.5], role="l_siox")
        assert data.x[0] == 0.0

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fitting.DataSet(x=[-0.01, 0.01], y=[1.0, 0.5], role="l_siox")

    @pytest.mark.parametrize("column, value", [("x", np.nan), ("y", np.inf), ("sigma", np.nan)])
    def test_non_finite_value_rejected(self, column, value):
        columns = {"x": [0.0, 0.01, 0.02], "y": [1.0, 0.5, 0.25], "sigma": [0.1, 0.1, 0.1]}
        columns[column][1] = value
        with pytest.raises(ValueError, match="finite"):
            fitting.DataSet(role="l_siox", **columns)

    @pytest.mark.parametrize(
        "columns, match",
        [
            ({"role": "l_sio2"}, "role must be one of"),
            ({"x": [[0.0, 0.01], [0.02, 0.03]], "y": [[1.0, 0.5], [0.25, 0.125]]}, "1-d arrays of equal length"),
            ({"y": [1.0, 0.5]}, "1-d arrays of equal length"),
            ({"x": [0.01], "y": [1.0]}, "at least two data points"),
            ({"sigma": [0.1, 0.1]}, "sigma must match y in length"),
            ({"sigma": [0.1, 0.0, 0.1]}, "strictly positive"),
            ({"sigma": [0.1, 0.1, -0.1]}, "strictly positive"),
        ],
        ids=["role", "2-d", "unequal-lengths", "one-point", "sigma-length", "zero-sigma", "negative-sigma"],
    )
    def test_bad_columns_rejected(self, columns, match):
        data = {"x": [0.0, 0.01, 0.02], "y": [1.0, 0.5, 0.25], "role": "l_siox"} | columns
        with pytest.raises(ValueError, match=match):
            fitting.DataSet(**data)


def _gamma_alpha_fixed() -> dict:
    """The fixed parameters ``pairsim fit --model gamma_alpha --preset wg-i`` passes."""
    chain, pump = WG_I
    rec = cm.evaluate(chain, pump)
    return {
        "peak_power_w": rec.peak_power_w,
        "pair_bandwidth_hz": rec.pair_bandwidth_hz,
        "pulse_fwhm_s": pump.pulse_fwhm_s,
    }


class TestInputsTheFitsCannotTake:
    @pytest.mark.parametrize("n_points", [2, 5])
    @pytest.mark.parametrize("weighted", [False, True], ids=["no-sigma", "sigma"])
    def test_single_length_reports_gamma_at_zero_loss(self, n_points, weighted):
        # lengths that are all equal cannot separate the loss from gamma: the
        # fit profiles gamma at zero loss and reports no converged fit
        fixed = _gamma_alpha_fixed()
        lossless = cm.WaveguideSegment(cm.KIND_NONLINEAR, 0.02, 0.0, 161.0)
        rate = cm.pair_generation_rate_at_power(
            lossless, fixed["pair_bandwidth_hz"], fixed["pulse_fwhm_s"], fixed["peak_power_w"]
        )
        x, y = np.full(n_points, 0.02), np.full(n_points, rate)
        sigma = 0.05 * y if weighted else None
        data = fitting.DataSet(x=x, y=y, sigma=sigma, role="l_si", fixed_params=fixed)
        result = fitting.fit_gamma_alpha(data)
        assert result.params["gamma_per_w_m"] == pytest.approx(161.0, rel=1e-12)
        assert result.params["alpha_db_per_m"] == 0.0
        assert result.stderr == {"gamma_per_w_m": np.inf, "alpha_db_per_m": np.inf}
        assert not result.converged
        assert result.n_evaluations == 1
        assert result.notes == ("single waveguide length: loss is non-identifiable, reported at 0",)

    @pytest.mark.parametrize(
        "fitter, role, x, match",
        [
            (fitting.fit_singles_poly, "pp", [0.01, 0.02], "at least three points"),
            (fitting.fit_singles_poly, "pp", [0.01, 0.01, 0.02, 0.02], "fewer than three distinct powers"),
            (fitting.fit_sio2_decay, "l_siox", [0.01, 0.01, 0.01], "all waveguide lengths are equal"),
        ],
        ids=["poly-two-points", "poly-two-powers", "decay-one-length"],
    )
    def test_degenerate_data_raise(self, fitter, role, x, match):
        data = fitting.DataSet(x=x, y=np.linspace(1.0, 2.0, len(x)), role=role)
        with pytest.raises(fitting.DegenerateDataError, match=match):
            fitter(data)

    @pytest.mark.parametrize(
        "fitter, role, missing",
        [
            (fitting.fit_gamma_alpha, "l_si", "peak_power_w"),
            (fitting.fit_gamma_alpha, "l_si", "pair_bandwidth_hz"),
            (fitting.fit_gamma_alpha, "l_si", "pulse_fwhm_s"),
            (fitting.fit_sio2_decay, "l_si", None),
            (fitting.fit_gamma_alpha, "pp", None),
            (fitting.fit_singles_poly, "l_siox", None),
        ],
        ids=[
            "no-peak-power", "no-pair-bandwidth", "no-pulse-width",
            "decay-on-l_si", "gamma-alpha-on-pp", "poly-on-l_siox",
        ],
    )
    def test_missing_fixed_parameter_or_wrong_role_raise(self, fitter, role, missing):
        fixed = _gamma_alpha_fixed()
        fixed.pop(missing, None)
        data = fitting.DataSet(x=[0.01, 0.02, 0.03, 0.04], y=[4.0, 3.0, 2.0, 1.5], role=role, fixed_params=fixed)
        if missing:
            match = f"fixed_params missing required entry '{missing}'"
        else:
            match = f"dataset role '{role}' does not match"
        with pytest.raises(ValueError, match=match):
            fitter(data)


class TestRecoveryFromPredict:
    """Fits on noiseless ``predict`` data recover the chain parameters."""

    @settings(max_examples=25, deadline=None)
    @given(
        gamma=st.floats(50.0, 400.0),
        alpha_db_per_cm=st.floats(0.5, 10.0),
    )
    # losses of 0.01 to 0.2 dB/m, below the search grid's first point at 1 dB/m
    @example(gamma=161.0, alpha_db_per_cm=1e-4)
    @example(gamma=161.0, alpha_db_per_cm=1e-3)
    @example(gamma=161.0, alpha_db_per_cm=2e-3)
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

    def test_gamma_alpha_with_a_passive_section_per_length(self):
        # each length's pairs then cross their own passive section, given to
        # the fit as one downstream transmittance per point
        chain, pump = WG_I
        lengths = np.linspace(0.3, 6.0, 12) * 1e-2
        passive = np.linspace(6.0, 0.5, 12) * 1e-2
        recs = [
            cm.evaluate(*cm.apply_sweep_value(*cm.apply_sweep_value(chain, pump, "l_si", l_si), "l_siox", l_siox))
            for l_si, l_siox in zip(lengths, passive)
        ]
        eta_down = np.array([rec.downstream_transmittance for rec in recs])
        assert eta_down.max() / eta_down.min() > 5.0
        fixed = {
            "peak_power_w": recs[0].peak_power_w,
            "pair_bandwidth_hz": recs[0].pair_bandwidth_hz,
            "pulse_fwhm_s": pump.pulse_fwhm_s,
            "downstream_transmittance": eta_down,
        }
        y = [rec.mu_pair * rec.downstream_transmittance**2 for rec in recs]
        result = fitting.fit_gamma_alpha(fitting.DataSet(x=lengths, y=y, role="l_si", fixed_params=fixed))
        nonlinear = chain.segments[chain.nonlinear_index]
        assert result.converged
        assert result.params["gamma_per_w_m"] == pytest.approx(nonlinear.gamma_per_w_m, rel=1e-6)
        assert result.params["alpha_db_per_m"] == pytest.approx(nonlinear.loss_db_per_m, rel=1e-6)

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


def _decay_model(params, x):
    amplitude, alpha = params
    return amplitude * 10.0 ** (-2.0 * alpha * x / 10.0)


def _gamma_alpha_model(params, x, fixed):
    gamma, alpha = params
    a = alpha * np.log(10.0) / 10.0
    leff = -np.expm1(-a * x) / a
    scale = fixed["pair_bandwidth_hz"] * fixed["pulse_fwhm_s"] * fixed["peak_power_w"] ** 2
    return scale * (gamma * leff) ** 2 * np.exp(-2.0 * a * x)


LENGTHS = np.linspace(0.6, 6.0, 8) * 1e-2  # 8 lengths on the wg-i chain


def _wg_i_truth(model):
    """(truth params, noiseless curve, fixed params, role) for one model on wg-i."""
    chain, pump = WG_I
    if model == "decay":
        passive = chain.segments[chain.nonlinear_index + 1]
        y = [_predict(chain, pump, "l_siox", x).mu_pair_out for x in LENGTHS]
        amplitude = _predict(chain, pump, "l_siox", 0.0).mu_pair_out
        return (amplitude, passive.loss_db_per_m), np.array(y), {}, "l_siox"
    nonlinear = chain.segments[chain.nonlinear_index]
    y = [_predict(chain, pump, "l_si", x).mu_pair_generated for x in LENGTHS]
    return (nonlinear.gamma_per_w_m, nonlinear.loss_db_per_m), np.array(y), _gamma_alpha_fixed(), "l_si"


FITTERS = {"decay": fitting.fit_sio2_decay, "gamma_alpha": fitting.fit_gamma_alpha}


class TestUnboundedErrors:
    """Errors the data cannot bound are inf, with one note saying why."""

    def test_two_point_decay(self):
        result = fitting.fit_sio2_decay(fitting.DataSet(x=[0.0, 0.01], y=[1.0, 0.5], role="l_siox"))
        assert result.stderr == {"amplitude": np.inf, "alpha_db_per_m": np.inf}
        assert result.notes == ("exactly determined fit: no residual degrees of freedom",)

    def test_three_point_poly(self):
        result = fitting.fit_singles_poly(fitting.DataSet(x=[0.01, 0.02, 0.03], y=[1.0, 2.0, 4.0], role="pp"))
        assert result.stderr == {"n0": np.inf, "n1_per_w": np.inf, "a2_per_w2": np.inf}
        assert result.notes == ("exactly determined fit: no residual degrees of freedom",)

    def test_zero_amplitude_decay(self):
        # a zero amplitude leaves the loss column of the Jacobian zero
        data = fitting.DataSet(x=[0.0, 0.01, 0.02], y=[0.0, 0.0, 0.0], role="l_siox")
        result = fitting.fit_sio2_decay(data)
        assert result.stderr["alpha_db_per_m"] == np.inf
        assert "singular normal matrix: some parameter errors unbounded" in result.notes


class TestStderrMatchesNumericalJacobian:
    """The fitters' errors match ``sqrt(diag((J^T W J)^-1))``, times rss/dof
    without sigma, with ``J`` a central difference of this file's own closed
    forms of the models, in every parameter: an oracle that shares neither
    ``chainmodel``'s formulas nor the fitters' difference step."""

    @pytest.mark.parametrize("weighted", [True, False], ids=["sigma", "no-sigma"])
    @pytest.mark.parametrize("model", sorted(FITTERS))
    def test_stderr(self, model, weighted):
        _, truth_y, fixed, role = _wg_i_truth(model)
        rng = np.random.default_rng(5)
        sigma = 0.05 * truth_y
        y = truth_y + sigma * rng.standard_normal(truth_y.size)
        data = fitting.DataSet(
            x=LENGTHS, y=y, sigma=sigma if weighted else None, role=role, fixed_params=fixed
        )
        result = FITTERS[model](data)
        names = list(result.params)
        params = np.array([result.params[n] for n in names])

        def curve(p):
            return _decay_model(p, LENGTHS) if model == "decay" else _gamma_alpha_model(p, LENGTHS, fixed)

        jac = np.empty((LENGTHS.size, params.size))
        for i in range(params.size):
            step = np.zeros_like(params)
            step[i] = 1e-5 * params[i]
            jac[:, i] = (curve(params + step) - curve(params - step)) / (2.0 * step[i])
        cov = np.linalg.inv(jac.T @ (jac * data.weights[:, None]))
        if not weighted:
            cov *= result.rss / (LENGTHS.size - params.size)
        for name, reference in zip(names, np.sqrt(np.diag(cov))):
            assert result.stderr[name] == pytest.approx(reference, rel=1e-6, abs=0)


class TestStderrCoverage:
    """Seeded calibration check of the sigma-weighted errors on wg-i.

    400 replicates per model, 8 lengths, 5% gaussian noise with matching
    sigma.  For normal z, sd(z) over 400 replicates has a standard error of
    about 1/sqrt(800) = 0.035, so |sd(z) - 1| < 0.12 is a 3.4 sigma bound: a
    false-alarm rate of about 7e-4 per parameter, and about 97% power to
    detect sd(z) = 1.2.  Curvature errors scaled by rss/dof even when sigma is
    given read 1.22 to 1.24 here.
    """

    @pytest.mark.parametrize("model", sorted(FITTERS))
    def test_sd_of_z_is_one(self, model):
        truth, truth_y, fixed, role = _wg_i_truth(model)
        rng = np.random.default_rng(20140916)
        sigma = 0.05 * truth_y
        z = []
        for _ in range(400):
            y = truth_y + sigma * rng.standard_normal(truth_y.size)
            result = FITTERS[model](fitting.DataSet(x=LENGTHS, y=y, sigma=sigma, role=role, fixed_params=fixed))
            z.append([(result.params[n] - t) / result.stderr[n] for n, t in zip(result.params, truth)])
        sd = np.std(np.array(z), axis=0, ddof=1)
        assert np.all(np.abs(sd - 1.0) < 0.12), sd
