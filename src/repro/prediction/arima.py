"""ARIMA(p, d, q) from scratch (the paper's linear model, Table 2a).

No statsmodels offline, so the model is implemented directly:

- difference the series ``d`` times,
- fit the ARMA(p, q) coefficients by conditional sum of squares (CSS),
  with the MA recursion evaluated as an IIR filter via
  ``scipy.signal.lfilter`` (the recursion e_t = r_t - Σ θ_j e_{t-j} *is*
  a linear filter, which makes the objective fully vectorized),
- minimize with L-BFGS-B starting from an OLS AR fit.

scipy is imported inside the two methods that call it, so importing this
module (which ``repro.prediction``, and through it every site, does)
costs nothing until the first fit.

One-step forecasts recurse on the fitted coefficients and the running
residuals, then integrate the differences back.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.prediction.base import Predictor


def _lag_matrix(values: np.ndarray, p: int) -> np.ndarray:
    """Rows t = (values[t-1], ..., values[t-p]) for t in [p, len)."""
    return np.column_stack([values[p - i : len(values) - i] for i in range(1, p + 1)])


class ArimaModel:
    """Fitted ARMA coefficients over the d-times differenced series."""

    def __init__(self, p: int, d: int, q: int) -> None:
        if p < 0 or d < 0 or q < 0:
            raise ValueError("ARIMA orders must be non-negative")
        if p == 0 and q == 0:
            raise ValueError("need at least one of p, q to be positive")
        self.p = p
        self.d = d
        self.q = q
        self.intercept = 0.0
        self.phi = np.zeros(p)
        self.theta = np.zeros(q)
        self.fitted = False

    # -- fitting ---------------------------------------------------------

    def fit(self, series: Sequence[float]) -> None:
        from scipy import optimize

        values = np.asarray(series, dtype=float)
        for _ in range(self.d):
            values = np.diff(values)
        if len(values) < self.p + self.q + 8:
            raise ValueError(
                f"series too short to fit ARIMA({self.p},{self.d},{self.q}): "
                f"{len(values)} differenced points"
            )
        start = self._initial_params(values)
        bounds = [(None, None)] + [(-1.5, 1.5)] * (self.p + self.q)
        result = optimize.minimize(
            self._css_objective,
            start,
            args=(values,),
            method="L-BFGS-B",
            bounds=bounds,
        )
        params = result.x if result.success else start
        self.intercept = float(params[0])
        self.phi = np.array(params[1 : 1 + self.p])
        self.theta = np.array(params[1 + self.p :])
        self.fitted = True

    def _initial_params(self, values: np.ndarray) -> np.ndarray:
        """OLS AR(p) warm start; MA terms start at zero."""
        if self.p == 0:
            return np.concatenate([[float(np.mean(values))], np.zeros(self.q)])
        lags = _lag_matrix(values, self.p)
        design = np.column_stack([np.ones(len(lags)), lags])
        target = values[self.p :]
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        return np.concatenate([coef, np.zeros(self.q)])

    def _css_objective(self, params: np.ndarray, values: np.ndarray) -> float:
        with np.errstate(all="ignore"):
            residuals = self._residuals(params, values)
            burn_in = max(self.p, self.q)
            tail = residuals[burn_in:]
            loss = float(np.mean(tail * tail))
        if not np.isfinite(loss):
            # Explosive (non-invertible) parameter region: steer the
            # optimizer away instead of propagating inf/nan.
            return 1e300
        return loss

    def _residuals(self, params: np.ndarray, values: np.ndarray) -> np.ndarray:
        intercept = params[0]
        phi = params[1 : 1 + self.p]
        theta = params[1 + self.p :]
        ar_resid = values.copy() - intercept
        if self.p:
            ar_resid[self.p :] -= _lag_matrix(values, self.p) @ phi
            ar_resid[: self.p] = 0.0  # conditional: pre-sample residuals are 0
        if self.q:
            from scipy import signal

            # e_t = ar_resid_t - sum_j theta_j e_{t-j}  <=>  IIR filter.
            ar_resid = signal.lfilter([1.0], np.concatenate([[1.0], theta]), ar_resid)
        return ar_resid

    # -- one-step forecasting over the differenced series -----------------

    def step_residual(self, recent: Sequence[float], residuals: Sequence[float], value: float) -> float:
        """Residual of a newly observed differenced ``value``."""
        return value - self.step_forecast(recent, residuals)

    def step_forecast(self, recent: Sequence[float], residuals: Sequence[float]) -> float:
        """E[y_{t+1}] given the last p values and last q residuals
        (both most-recent-last; missing history treated as zero)."""
        prediction = self.intercept
        for i in range(1, self.p + 1):
            if len(recent) >= i:
                prediction += self.phi[i - 1] * recent[-i]
        for j in range(1, self.q + 1):
            if len(residuals) >= j:
                prediction += self.theta[j - 1] * residuals[-j]
        return float(prediction)


class ArimaPredictor(Predictor):
    """Live predictor wrapping :class:`ArimaModel`.

    ``fit`` trains on history; subsequent ``update`` calls maintain the
    differencing state and running residuals so ``forecast`` stays an
    O(p+q) operation.  ``refit_interval`` > 0 re-estimates coefficients
    periodically from the retained window.
    """

    def __init__(
        self,
        p: int = 6,
        d: int = 1,
        q: int = 1,
        refit_interval: int = 0,
        max_history: int = 4096,
    ) -> None:
        self.model = ArimaModel(p, d, q)
        self._refit_interval = refit_interval
        self._raw: deque[float] = deque(maxlen=max_history)
        #: Last observed value at each differencing level (level 0 = raw).
        self._diff_state: list[float | None] = [None] * d
        self._recent_diffed: deque[float] = deque(maxlen=max(p, 1))
        self._residuals: deque[float] = deque(maxlen=max(q, 1))
        self._updates_since_fit = 0

    def fit(self, series: Sequence[float]) -> None:
        values = list(series)
        self.model.fit(values)
        # Prime the online state by replaying the series from scratch.
        self._raw.clear()
        self._diff_state = [None] * self.model.d
        self._recent_diffed.clear()
        self._residuals.clear()
        for value in values:
            self._ingest(value)
        self._updates_since_fit = 0

    def update(self, value: float) -> None:
        self._ingest(value)
        self._updates_since_fit += 1
        should_refit = (
            self._refit_interval > 0
            and self._updates_since_fit >= self._refit_interval
            and len(self._raw) >= self.model.p + self.model.q + 16
        )
        if should_refit:
            history = list(self._raw)
            self.fit(history)

    def forecast(self) -> float:
        if not self.model.fitted:
            # Pre-fit fallback: behave like a random walk.
            return max(0.0, self._raw[-1]) if self._raw else 0.0
        diffed_forecast = self.model.step_forecast(
            list(self._recent_diffed), list(self._residuals)
        )
        # Integrate back through the differencing levels.
        prediction = diffed_forecast
        for level in range(self.model.d - 1, -1, -1):
            last = self._diff_state[level]
            prediction += last if last is not None else 0.0
        return max(0.0, prediction)

    def _ingest(self, value: float) -> None:
        self._raw.append(value)
        diffed: float | None = value
        for level in range(self.model.d):
            last = self._diff_state[level]
            self._diff_state[level] = diffed
            if last is None:
                diffed = None
                break
            diffed = diffed - last
        if diffed is None:
            return  # still priming the differencing pipeline
        if self.model.fitted:
            residual = self.model.step_residual(
                list(self._recent_diffed), list(self._residuals), diffed
            )
            self._residuals.append(residual)
        self._recent_diffed.append(diffed)
