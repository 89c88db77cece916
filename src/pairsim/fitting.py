"""Deterministic weighted least squares for the physical chain parameters.

Recovers the nonlinear coefficient, the nonlinear-waveguide loss, the passive
loss, and the singles noise polynomial from rate-versus-length or
rate-versus-power data.  Every fitter is deterministic: identical data gives
a bit-identical result.  The two length models are ``chainmodel``'s own
formulas over the data's lengths, so a change to the chain reaches the fits.
Their amplitude is linear in the data and is profiled out in closed form,
leaving a one-dimensional deterministic search over a loss.

Standard errors come from the covariance ``(J^T W J)^-1``, with ``W`` the
weights and ``J`` the model's Jacobian at the estimate: analytic in the
amplitude, a central difference of the chain's formula in the loss.  With
sigma given, the weights ``1/sigma**2`` carry the noise scale and the
covariance is used as it is.  Without sigma, every point is assumed to carry
the same absolute noise, whose variance is estimated as rss/dof (dof =
points - parameters), so (estimate - truth)/stderr follows Student's t with
dof degrees of freedom rather than a unit normal.  A fit whose arithmetic
overflows reports its non-finite estimate as not converged, with a note, and
not by numpy's warnings.
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


def _jacobian(shape, theta: float, amp: float, damp: float) -> np.ndarray:
    """Jacobian of ``amp * shape(theta)`` in (amplitude parameter, theta).

    ``damp`` is the derivative of ``amp`` in its parameter.  The theta column
    is a central difference, one-sided at theta = 0: a loss is never negative.
    """
    step = 1e-5 * theta or 1e-5
    lo, hi = max(theta - step, 0.0), theta + step
    return np.column_stack([damp * shape(theta), amp * (shape(hi) - shape(lo)) / (hi - lo)])


def _fit_result(
    data: DataSet, params: dict, jac: np.ndarray, rss: float, evaluations: int, converged: bool, notes: list[str]
) -> FitResult:
    """FitResult with standard errors from the covariance ``(J^T W J)^-1``.

    ``jac`` holds the model's derivatives in ``params`` order, one row per
    point.  The covariance is scaled by rss/dof only when ``data`` has no
    sigma.  An error is inf, with a note, at dof <= 0 or where the normal
    matrix is singular.  A non-finite estimate or rss has not converged.
    """
    if not all(map(math.isfinite, (*params.values(), rss))):
        converged = False
        notes.append("non-finite estimate or rss: the data overflow floating point")
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
    stderr = {name: float(e) for name, e in zip(params, err)}
    return FitResult(params, stderr, rss, converged, evaluations, tuple(notes))


# ---------------------------------------------------------------------------
# decay of the pair rate with passive waveguide length


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_sio2_decay(data: DataSet) -> FitResult:
    """Fit ``y = amplitude * T**2`` for (amplitude, passive loss in dB/m).

    ``T`` is the transmittance of a passive ``WaveguideSegment`` of length x,
    which both photons of a pair cross.  A log-linear slope, converted to
    dB/m, centres a 49-point grid, refined by bounded Brent.  The loss column
    of the Jacobian is a central difference.
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

    def shape(alpha: float) -> np.ndarray:
        return cm.WaveguideSegment(cm.KIND_PASSIVE, x, alpha).transmittance ** 2

    grid = rate0 / (2.0 * cm.db_to_neper(1.0)) * np.geomspace(1.0 / 30.0, 30.0, 49)
    alpha, amp, rss, evaluations, converged = _profiled_search(shape, grid, y, w)
    params = {"amplitude": amp, "alpha_db_per_m": alpha}
    return _fit_result(data, params, _jacobian(shape, alpha, amp, 1.0), rss, evaluations, converged, notes)


# ---------------------------------------------------------------------------
# nonlinear coefficient and nonlinear-waveguide loss from length data


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_gamma_alpha(data: DataSet) -> FitResult:
    """Fit the pair rate versus nonlinear-waveguide length.

    Model: ``gamma**2 * R * eta_down**2``, with ``R`` ``chainmodel``'s
    ``pair_generation_rate_at_power`` for a nonlinear ``WaveguideSegment``
    of length L, loss alpha and unit gamma.  Required fixed parameters:
    ``peak_power_w``, ``pair_bandwidth_hz``, ``pulse_fwhm_s``;
    ``downstream_transmittance`` (scalar or per point) defaults to 1.  The
    loss column of the Jacobian is a central difference.
    """
    _require_role(data, "l_si")
    x, y, w = data.x, data.y, data.weights
    try:
        peak_power_w = float(data.fixed_params["peak_power_w"])
        pair_bandwidth_hz = float(data.fixed_params["pair_bandwidth_hz"])
        pulse_fwhm_s = float(data.fixed_params["pulse_fwhm_s"])
    except KeyError as missing:
        raise ValueError(f"fixed_params missing required entry {missing}") from None
    eta_down = np.broadcast_to(np.asarray(data.fixed_params.get("downstream_transmittance", 1.0), float), x.shape)

    def shape(alpha: float) -> np.ndarray:
        segment = cm.WaveguideSegment(cm.KIND_NONLINEAR, x, alpha, 1.0)
        return cm.pair_generation_rate_at_power(segment, pair_bandwidth_hz, pulse_fwhm_s, peak_power_w) * eta_down**2

    if np.unique(x).size < 2:
        rss, amp = _profile(shape(0.0), y, w)
        params = {"gamma_per_w_m": math.sqrt(max(amp, 0.0)), "alpha_db_per_m": 0.0}
        note = "single waveguide length: loss is non-identifiable, reported at 0"
        return FitResult(params, dict.fromkeys(params, math.inf), rss, False, 1, (note,))

    grid = np.geomspace(1.0, 1e4, 61)  # dB/m, spans mm-scale to meter-scale decay
    alpha, amp, rss, evaluations, converged = _profiled_search(shape, grid, y, w)
    gamma = math.sqrt(max(amp, 0.0))
    notes: list[str] = []
    if cm.db_to_neper(alpha * float(np.max(x))) < 0.05:
        notes.append("all lengths well below 1/alpha: loss is weakly identified")

    params = {"gamma_per_w_m": gamma, "alpha_db_per_m": alpha}
    jac = _jacobian(shape, alpha, gamma**2, 2.0 * gamma)
    return _fit_result(data, params, jac, rss, evaluations, converged, notes)


# ---------------------------------------------------------------------------
# second-order polynomial for the singles flux versus peak power


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
