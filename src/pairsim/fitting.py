"""Deterministic nonlinear least squares for the physical chain parameters.

Recovers the nonlinear coefficient, the nonlinear-waveguide loss, the passive
loss, and the singles noise polynomial from rate-versus-length or
rate-versus-power data.  Every fitter is deterministic: identical data gives
a bit-identical result.  The amplitude-like parameter of each model is linear
in the data and is profiled out in closed form, leaving a one-dimensional
deterministic search over the decay or loss parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chainmodel as cm

ROLES = ("l_si", "l_siox", "pp")


class DegenerateDataError(ValueError):
    """The data cannot constrain the requested model."""


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
        if np.any(self.x < 0):
            raise ValueError("x values must be non-negative")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
            if self.sigma.shape != self.y.shape:
                raise ValueError("sigma must match y in length")
            if np.any(self.sigma <= 0):
                raise ValueError("sigma values must be strictly positive")

    @property
    def weights(self) -> np.ndarray:
        if self.sigma is None:
            return np.ones_like(self.y)
        return 1.0 / self.sigma**2


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates with rough curvature-based standard errors."""

    params: dict[str, float]
    stderr: dict[str, float]
    rss: float
    converged: bool
    n_evaluations: int
    notes: tuple[str, ...] = ()


def _require_role(data: DataSet, role: str) -> None:
    if data.role != role:
        raise ValueError(f"dataset role {data.role!r} does not match expected {role!r}")


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0
        self.exhausted = False

    def tick(self) -> None:
        self.count += 1
        if self.count > self.limit:
            self.exhausted = True


def _profiled_minimum(ssr, grid: np.ndarray) -> tuple[float, float]:
    """Coarse-grid scan followed by Brent refinement of a 1-d objective.

    Returns (argmin, min).  The result never exceeds the best grid value.
    """
    from scipy import optimize  # deferred, so that importing pairsim loads no scipy
    values = np.array([ssr(r) for r in grid])
    best = int(np.argmin(values))
    lo = grid[best - 1] if best > 0 else grid[best] / 4.0
    hi = grid[best + 1] if best < grid.size - 1 else grid[best] * 4.0
    res = optimize.minimize_scalar(
        ssr, bounds=(lo, hi), method="bounded", options={"xatol": grid[best] * 1e-13}
    )
    if res.fun <= values[best]:
        return float(res.x), float(res.fun)
    return float(grid[best]), float(values[best])


def _hessian_stderr(
    ssr_of_params, params: np.ndarray, rss: float, n_points: int, notes: list[str]
) -> np.ndarray:
    """Standard errors from the finite-difference curvature of the residual sum.

    Gauss-type approximation: cov = 2 * s^2 * H^-1 with s^2 the residual
    variance.  Returns +inf where the curvature cannot support an error bar.
    """
    n_par = params.size
    dof = n_points - n_par
    if dof <= 0:
        notes.append("exactly determined fit: no residual degrees of freedom")
        return np.full(n_par, math.inf)
    steps = np.where(np.abs(params) > 0, np.abs(params) * 1e-5, 1e-8)
    hess = np.empty((n_par, n_par))
    f0 = ssr_of_params(params)
    for i in range(n_par):
        for j in range(i, n_par):
            ei = np.zeros(n_par)
            ej = np.zeros(n_par)
            ei[i] = steps[i]
            ej[j] = steps[j]
            if i == j:
                second = (
                    ssr_of_params(params + ei) - 2.0 * f0 + ssr_of_params(params - ei)
                ) / steps[i] ** 2
            else:
                second = (
                    ssr_of_params(params + ei + ej)
                    - ssr_of_params(params + ei - ej)
                    - ssr_of_params(params - ei + ej)
                    + ssr_of_params(params - ei - ej)
                ) / (4.0 * steps[i] * steps[j])
            hess[i, j] = hess[j, i] = second
    s2 = rss / dof
    try:
        cov = 2.0 * s2 * np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        notes.append("singular curvature: parameter errors unbounded")
        return np.full(n_par, math.inf)
    diag = np.diag(cov)
    out = np.where(diag > 0, np.sqrt(np.abs(diag)), math.inf)
    if np.any(diag <= 0):
        notes.append("non-positive curvature: some parameter errors unbounded")
    return out


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
    budget = _Budget(10_000)

    def profile(rate: float) -> tuple[float, float]:
        budget.tick()
        m = np.exp(-rate * x)
        denom = float(np.sum(w * m * m))
        amp = float(np.sum(w * m * y)) / denom if denom > 0 else 0.0
        resid = y - amp * m
        return float(np.sum(w * resid**2)), amp

    # log-linear initialization on the positive subset
    pos = y > 0
    if pos.sum() >= 2 and np.ptp(x[pos]) > 0:
        slope = np.polyfit(x[pos], np.log(y[pos]), 1, w=np.sqrt(w[pos]))[0]
        rate0 = max(-slope, 1e-3 / float(np.mean(x)))
    else:
        rate0 = 1.0 / float(np.mean(x))
        notes.append("log-linear initialization unavailable; using 1/mean(x)")

    grid = rate0 * np.geomspace(1.0 / 30.0, 30.0, 49)
    rate, rss = _profiled_minimum(lambda r: profile(r)[0], grid)
    amp = profile(rate)[1]
    alpha_db_per_m = (rate / 2.0) * 10.0 / math.log(10.0)

    if x.size == 2:
        notes.append("two points for two parameters: fit is exact and unvalidated")

    def ssr_full(p: np.ndarray) -> float:
        budget.tick()
        a, alpha = p
        resid = y - a * np.exp(-2.0 * cm.db_to_neper(alpha) * x)
        return float(np.sum(w * resid**2))

    params = np.array([amp, alpha_db_per_m])
    err = _hessian_stderr(ssr_full, params, rss, x.size, notes)
    return FitResult(
        params={"amplitude": amp, "alpha_db_per_m": alpha_db_per_m},
        stderr={"amplitude": float(err[0]), "alpha_db_per_m": float(err[1])},
        rss=rss,
        converged=not budget.exhausted,
        n_evaluations=budget.count,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# nonlinear coefficient and nonlinear-waveguide loss from length data


def _length_shape(alpha_db_per_m: float, lengths: np.ndarray) -> np.ndarray:
    """Length dependence of the pair rate at unit gamma and peak power."""
    a = cm.db_to_neper(alpha_db_per_m)
    x = a * lengths
    small = x < 1e-6
    leff = np.where(small, lengths - a * lengths**2 / 2.0, (1.0 - np.exp(-x)) / np.where(a > 0, a, 1.0))
    return leff**2 * np.exp(-2.0 * x)


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
    notes: list[str] = []
    budget = _Budget(20_000)
    distinct = np.unique(x).size
    eta_down = np.broadcast_to(
        np.asarray(data.fixed_params.get("downstream_transmittance", 1.0), dtype=float), x.shape
    )
    k = scale * eta_down**2

    def profile(alpha: float) -> tuple[float, float]:
        budget.tick()
        m = k * _length_shape(alpha, x)
        denom = float(np.sum(w * m * m))
        amp = float(np.sum(w * m * y)) / denom if denom > 0 else 0.0
        resid = y - amp * m
        return float(np.sum(w * resid**2)), amp

    if distinct < 2:
        rss, amp = profile(0.0)
        gamma = math.sqrt(max(amp, 0.0))
        notes.append("single waveguide length: loss is non-identifiable, reported at 0")
        return FitResult(
            params={"gamma_per_w_m": gamma, "alpha_db_per_m": 0.0},
            stderr={"gamma_per_w_m": math.inf, "alpha_db_per_m": math.inf},
            rss=rss,
            converged=False,
            n_evaluations=budget.count,
            notes=tuple(notes),
        )

    grid = np.geomspace(1.0, 1e4, 61)  # dB/m, spans mm-scale to meter-scale decay
    alpha, rss = _profiled_minimum(lambda a: profile(a)[0], grid)
    amp = profile(alpha)[1]
    gamma = math.sqrt(max(amp, 0.0))

    if alpha * float(np.max(x)) * math.log(10.0) / 10.0 < 0.05:
        notes.append("all lengths well below 1/alpha: loss is weakly identified")

    def ssr_full(p: np.ndarray) -> float:
        budget.tick()
        g, a = p
        resid = y - g**2 * k * _length_shape(a, x)
        return float(np.sum(w * resid**2))

    params = np.array([gamma, alpha])
    err = _hessian_stderr(ssr_full, params, rss, x.size, notes)
    return FitResult(
        params={"gamma_per_w_m": gamma, "alpha_db_per_m": alpha},
        stderr={"gamma_per_w_m": float(err[0]), "alpha_db_per_m": float(err[1])},
        rss=rss,
        converged=not budget.exhausted,
        n_evaluations=budget.count,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# second-order polynomial for the singles flux versus peak power


def fit_singles_poly(data: DataSet) -> FitResult:
    """Closed-form weighted least squares for ``y = n0 + n1 x + a2 x**2``.

    When fixed_params carries ``expected_quadratic_coefficient`` (the value
    the quadratic pair term should have), the ratio is reported as a
    diagnostic note.
    """
    _require_role(data, "pp")
    x, y, w = data.x, data.y, data.weights
    if x.size < 3:
        raise DegenerateDataError("need at least three points for three coefficients")
    if np.unique(x).size < 3:
        raise DegenerateDataError("rank-deficient design: fewer than three distinct powers")
    notes: list[str] = []
    design = np.column_stack([np.ones_like(x), x, x**2])
    wd = design * w[:, None]
    normal = design.T @ wd
    coeffs = np.linalg.solve(normal, wd.T @ y)
    resid = y - design @ coeffs
    rss = float(np.sum(w * resid**2))
    dof = x.size - 3
    if dof > 0:
        cov = np.linalg.inv(normal) * (rss / dof if data.sigma is None else 1.0)
        err = np.sqrt(np.diag(cov))
    else:
        err = np.full(3, math.inf)
        notes.append("exactly determined fit: no residual degrees of freedom")
    if "expected_quadratic_coefficient" in data.fixed_params:
        expected = float(data.fixed_params["expected_quadratic_coefficient"])
        if expected > 0:
            notes.append(
                f"quadratic coefficient / pair-term prediction = {coeffs[2] / expected:.4g}"
            )
    return FitResult(
        params={"n0": float(coeffs[0]), "n1_per_w": float(coeffs[1]), "a2_per_w2": float(coeffs[2])},
        stderr={
            "n0": float(err[0]),
            "n1_per_w": float(err[1]),
            "a2_per_w2": float(err[2]),
        },
        rss=rss,
        converged=True,
        n_evaluations=1,
        notes=tuple(notes),
    )
