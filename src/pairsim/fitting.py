"""Deterministic weighted least squares for the physical chain parameters.

Recovers the nonlinear coefficient, the nonlinear-waveguide loss, the passive
loss, and the singles noise polynomial from rate-versus-length or
rate-versus-power data.  Every fitter is deterministic: identical data gives
a bit-identical result.  The amplitude-like parameter of each model is linear
in the data and is profiled out in closed form, leaving a one-dimensional
deterministic search over the decay or loss parameter.

Every fitter takes its standard errors from the covariance ``(J^T W J)^-1``,
with ``J`` the model's analytic Jacobian at the estimate and ``W`` the
weights.  With sigma given, the weights ``1/sigma**2`` carry the noise scale
and the covariance is used as it is.  Without sigma, every point is assumed
to carry the same absolute noise, whose variance is estimated as rss/dof
(dof = points - parameters), so (estimate - truth)/stderr follows Student's t
with dof degrees of freedom rather than a unit normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chainmodel as cm
from .config import ConfigError

ROLES = ("l_si", "l_siox", "pp")


class DegenerateDataError(ConfigError):
    """The data cannot constrain the requested model: a bad input, as a configuration error is."""


@dataclass
class DataSet:
    """Measured or synthetic rate data with one declared independent variable.

    ``x`` is SI (meters or watts depending on role), ``y`` a per-pulse rate.
    ``sigma`` enables inverse-variance weighting when present.
    ``fixed_params`` carries the chain parameters that are not being fitted.
    """

    x: np.ndarray
    y: np.ndarray
    role: str
    sigma: np.ndarray | None = None
    fixed_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}")
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if self.x.size < 2:
            raise ValueError("need at least two data points")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("x and y values must be finite")
        if np.any(self.x < 0):
            raise ValueError("x values must be non-negative")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
            if self.sigma.shape != self.y.shape:
                raise ValueError("sigma must match y in length")
            if not np.all(np.isfinite(self.sigma)):
                raise ValueError("sigma values must be finite")
            if np.any(self.sigma <= 0):
                raise ValueError("sigma values must be strictly positive")

    @property
    def weights(self) -> np.ndarray:
        if self.sigma is None:
            return np.ones_like(self.y)
        return 1.0 / self.sigma**2


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates with standard errors from ``(J^T W J)^-1``.

    The errors follow the module's rule: with sigma the weights carry the
    noise scale; without it the covariance is scaled by rss/dof.
    """

    params: dict[str, float]
    stderr: dict[str, float]
    rss: float
    converged: bool
    n_evaluations: int
    notes: tuple[str, ...] = ()


def _require_role(data: DataSet, role: str) -> None:
    if data.role != role:
        raise ValueError(f"dataset role {data.role!r} does not match expected {role!r}")


def _profile(m: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Weighted residual sum of ``y = amp * m`` at its closed-form ``amp``, and that ``amp``."""
    denom = float(np.sum(w * m * m))
    amp = float(np.sum(w * m * y)) / denom if denom > 0 else 0.0
    resid = y - amp * m
    return float(np.sum(w * resid**2)), amp


def _profiled_search(shape, grid: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Least squares for ``y = amp * shape(theta)`` with ``amp`` profiled out.

    Scans ``grid``, then refines between the best point's neighbours with
    bounded Brent; below the first grid point the bracket reaches down to 0.
    Returns (theta, amp, rss, evaluations, converged), where evaluations
    counts profile calls, converged is Brent's success flag, and rss never
    exceeds the best grid value.
    """
    from scipy import optimize  # deferred, so that importing pairsim loads no scipy
    evaluations = 0

    def profile(theta: float) -> tuple[float, float]:
        nonlocal evaluations
        evaluations += 1
        return _profile(shape(theta), y, w)

    values = np.array([profile(t)[0] for t in grid])
    best = int(np.argmin(values))
    lo = grid[best - 1] if best > 0 else 0.0
    hi = grid[best + 1] if best < grid.size - 1 else grid[best] * 4.0
    res = optimize.minimize_scalar(
        lambda t: profile(t)[0], bounds=(lo, hi), method="bounded", options={"xatol": grid[best] * 1e-13}
    )
    if res.fun <= values[best]:
        theta, rss = float(res.x), float(res.fun)
    else:
        theta, rss = float(grid[best]), float(values[best])
    return theta, profile(theta)[1], rss, evaluations, bool(res.success)


def _fit_result(
    data: DataSet, params: dict, jac: np.ndarray, rss: float, evaluations: int, converged: bool, notes: list[str]
) -> FitResult:
    """FitResult with standard errors from the covariance ``(J^T W J)^-1``.

    ``jac`` holds the model's derivatives in ``params`` order, one row per
    point.  The covariance is scaled by rss/dof only when ``data`` has no
    sigma.  An error is inf, with a note, at dof <= 0 or where the normal
    matrix is singular.
    """
    n_points, n_par = jac.shape
    dof = n_points - n_par
    err = np.full(n_par, math.inf)
    if dof <= 0:
        notes.append("exactly determined fit: no residual degrees of freedom")
    else:
        try:
            var = np.diag(np.linalg.inv(jac.T @ (jac * data.weights[:, None])))
        except np.linalg.LinAlgError:
            var = np.zeros(n_par)
        if not np.all(var > 0):
            notes.append("singular normal matrix: some parameter errors unbounded")
        scale = rss / dof if data.sigma is None else 1.0
        err = np.where(var > 0, np.sqrt(np.abs(var) * scale), math.inf)
    return FitResult(
        params=params,
        stderr={name: float(e) for name, e in zip(params, err)},
        rss=rss,
        converged=converged,
        n_evaluations=evaluations,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# exponential decay of the pair rate with passive waveguide length


def fit_sio2_decay(data: DataSet) -> FitResult:
    """Fit ``y = A * exp(-2 * a_np * x)`` for (amplitude, passive loss).

    Log-linear initialization, coarse grid, then bounded refinement of the
    profiled one-parameter objective.  The loss is reported in dB per meter.
    """
    _require_role(data, "l_siox")
    x, y, w = data.x, data.y, data.weights
    if np.ptp(x) == 0:
        raise DegenerateDataError("all waveguide lengths are equal")
    notes: list[str] = []

    # log-linear initialization on the positive subset
    pos = y > 0
    if pos.sum() >= 2 and np.ptp(x[pos]) > 0:
        slope = np.polyfit(x[pos], np.log(y[pos]), 1, w=np.sqrt(w[pos]))[0]
        rate0 = max(-slope, 1e-3 / float(np.mean(x)))
    else:
        rate0 = 1.0 / float(np.mean(x))
        notes.append("log-linear initialization unavailable; using 1/mean(x)")

    grid = rate0 * np.geomspace(1.0 / 30.0, 30.0, 49)
    rate, amp, rss, evaluations, converged = _profiled_search(lambda r: np.exp(-r * x), grid, y, w)
    alpha_db_per_m = (rate / 2.0) * 10.0 / math.log(10.0)
    m = np.exp(-rate * x)
    jac = np.column_stack([m, -2.0 * math.log(10.0) / 10.0 * x * amp * m])
    params = {"amplitude": amp, "alpha_db_per_m": alpha_db_per_m}
    return _fit_result(data, params, jac, rss, evaluations, converged, notes)


# ---------------------------------------------------------------------------
# nonlinear coefficient and nonlinear-waveguide loss from length data


def _length_shape(alpha_db_per_m: float, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Length dependence of the pair rate at unit gamma and peak power, and
    its derivative in ``alpha_db_per_m``."""
    a = cm.db_to_neper(alpha_db_per_m)
    x = a * lengths
    small = x < 1e-6
    a_safe = np.where(a > 0, a, 1.0)
    leff = np.where(small, lengths - a * lengths**2 / 2.0, (1.0 - np.exp(-x)) / a_safe)
    dleff = np.where(small, -(lengths**2) / 2.0, (lengths * np.exp(-x) - leff) / a_safe)
    decay = np.exp(-2.0 * x)
    shape = leff**2 * decay
    return shape, 2.0 * cm.db_to_neper(1.0) * (leff * dleff * decay - lengths * shape)


def fit_gamma_alpha(data: DataSet) -> FitResult:
    """Fit the pair rate versus nonlinear-waveguide length.

    Model: ``y = dnu * dt * (gamma * P * L_eff(alpha, L))**2 * exp(-2 a_np L)
    * eta_down**2``.  Required fixed parameters: ``peak_power_w``,
    ``pair_bandwidth_hz``, ``pulse_fwhm_s``; ``downstream_transmittance``
    (scalar or per point) defaults to 1.
    """
    _require_role(data, "l_si")
    x, y, w = data.x, data.y, data.weights
    try:
        peak_power_w = float(data.fixed_params["peak_power_w"])
        pair_bandwidth_hz = float(data.fixed_params["pair_bandwidth_hz"])
        pulse_fwhm_s = float(data.fixed_params["pulse_fwhm_s"])
    except KeyError as missing:
        raise ValueError(f"fixed_params missing required entry {missing}") from None
    scale = pair_bandwidth_hz * pulse_fwhm_s * peak_power_w**2
    eta_down = np.broadcast_to(
        np.asarray(data.fixed_params.get("downstream_transmittance", 1.0), dtype=float), x.shape
    )
    k = scale * eta_down**2

    if np.unique(x).size < 2:
        rss, amp = _profile(k * _length_shape(0.0, x)[0], y, w)
        return FitResult(
            params={"gamma_per_w_m": math.sqrt(max(amp, 0.0)), "alpha_db_per_m": 0.0},
            stderr={"gamma_per_w_m": math.inf, "alpha_db_per_m": math.inf},
            rss=rss,
            converged=False,
            n_evaluations=1,
            notes=("single waveguide length: loss is non-identifiable, reported at 0",),
        )

    grid = np.geomspace(1.0, 1e4, 61)  # dB/m, spans mm-scale to meter-scale decay
    alpha, amp, rss, evaluations, converged = _profiled_search(
        lambda a: k * _length_shape(a, x)[0], grid, y, w
    )
    gamma = math.sqrt(max(amp, 0.0))
    notes: list[str] = []
    if alpha * float(np.max(x)) * math.log(10.0) / 10.0 < 0.05:
        notes.append("all lengths well below 1/alpha: loss is weakly identified")

    shape, dshape = _length_shape(alpha, x)
    jac = np.column_stack([2.0 * gamma * k * shape, gamma**2 * k * dshape])
    params = {"gamma_per_w_m": gamma, "alpha_db_per_m": alpha}
    return _fit_result(data, params, jac, rss, evaluations, converged, notes)


# ---------------------------------------------------------------------------
# second-order polynomial for the singles flux versus peak power


def fit_singles_poly(data: DataSet) -> FitResult:
    """Closed-form weighted least squares for ``y = n0 + n1 x + a2 x**2``."""
    _require_role(data, "pp")
    x, y, w = data.x, data.y, data.weights
    if x.size < 3:
        raise DegenerateDataError("need at least three points for three coefficients")
    if np.unique(x).size < 3:
        raise DegenerateDataError("rank-deficient design: fewer than three distinct powers")
    design = np.column_stack([np.ones_like(x), x, x**2])
    wd = design * w[:, None]
    coeffs = np.linalg.solve(design.T @ wd, wd.T @ y)
    resid = y - design @ coeffs
    rss = float(np.sum(w * resid**2))
    params = {"n0": float(coeffs[0]), "n1_per_w": float(coeffs[1]), "a2_per_w2": float(coeffs[2])}
    return _fit_result(data, params, design, rss, 1, True, [])
