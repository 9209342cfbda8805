"""Synthetic Azure-like VM workload trace (substitute for [15], §5.1).

Per 5-minute interval the generator emits VM creations (demand) and
deletions.  Demand is built from:

- a *diurnal* profile — an exponentiated sinusoid, so peaks are sharper
  than troughs (cloud demand is asymmetric; this nonlinearity is also
  what separates the LSTM from the linear ARIMA in Table 2a),
- a weekday/weekend modulation,
- multiplicative lognormal noise and occasional demand bursts,
- Poisson sampling of the resulting rate.

Deletions follow memorylessly from the outstanding-VM pool (each live VM
dies in an interval with probability 1/lifetime), which couples the two
series the way real create/delete logs are coupled and keeps the
outstanding count mean-reverting.

Only the creation column drives requests, so the deletion/outstanding
pair is drawn on first read (the Fig. 3a summary reads it), from the
generator the creation draws left behind: the arrays are the ones an
eager draw would make, and a run that never reads them never pays the
one-binomial-per-interval loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Original sampling interval, matching the Azure dataset (seconds).
INTERVAL_SECONDS = 300.0

#: Diurnal swing: demand ~ exp(amplitude * shape(t)), peak/mean ~ e^a.
DAILY_AMPLITUDE = 1.5

#: Per-interval probability of a demand burst.
BURST_PROBABILITY = 0.004

#: Burst size as a multiple of base demand.
BURST_SCALE = 1.5

#: Sigma of multiplicative lognormal noise on the rate.
NOISE_SIGMA = 0.10

#: Mean VM lifetime, in intervals (35 min at the original sampling).
VM_LIFETIME_INTERVALS = 7.0

#: Hour of (local) day at which demand peaks.
PEAK_HOUR = 14.0

#: Weekend demand multiplier (days 5, 6 of each week).
WEEKEND_FACTOR = 0.75


@dataclass
class TraceConfig:
    """Shape parameters for the synthetic trace."""

    days: float = 30.0
    #: Mean VM creations per interval for one region at the daily midline.
    base_demand: float = 100.0
    seed: int = 7

    @property
    def intervals_per_day(self) -> int:
        return int(round(86400.0 / INTERVAL_SECONDS))

    @property
    def num_intervals(self) -> int:
        return int(round(self.days * self.intervals_per_day))


class SyntheticAzureTrace:
    """Creations/deletions per interval, deterministically generated."""

    def __init__(self, config: TraceConfig | None = None) -> None:
        self.config = config or TraceConfig()
        self._rng = np.random.RandomState(self.config.seed)
        self.creations = self._draw_creations()

    @property
    def deletions(self) -> np.ndarray:
        """VMs deleted per interval."""
        return self._deaths[0]

    @property
    def outstanding(self) -> np.ndarray:
        """VMs alive at the end of each interval."""
        return self._deaths[1]

    @property
    def demand(self) -> np.ndarray:
        """Tokens (VMs) requested per interval — the prediction target."""
        return self.creations

    def _rate_profile(self) -> np.ndarray:
        """Deterministic (noise-free) demand rate per interval."""
        cfg = self.config
        n = cfg.num_intervals
        per_day = cfg.intervals_per_day
        index = np.arange(n)
        day_phase = 2.0 * math.pi * ((index % per_day) / per_day - PEAK_HOUR / 24.0)
        # Exponentiated sinusoid: sharp peaks, shallow troughs.  The
        # secondary harmonic adds the mid-morning shoulder real traces show.
        shape = np.cos(day_phase) + 0.35 * np.cos(2.0 * day_phase)
        diurnal = np.exp(DAILY_AMPLITUDE * shape)
        diurnal /= diurnal.mean()
        day_of_week = (index // per_day) % 7
        weekly = np.where(day_of_week >= 5, WEEKEND_FACTOR, 1.0)
        return cfg.base_demand * diurnal * weekly

    def _draw_creations(self) -> np.ndarray:
        cfg = self.config
        rng = self._rng
        rate = self._rate_profile()
        noise = np.exp(rng.normal(0.0, NOISE_SIGMA, size=len(rate)))
        bursts = (
            rng.random_sample(len(rate)) < BURST_PROBABILITY
        ) * rng.uniform(0.5, 1.0, size=len(rate)) * BURST_SCALE * cfg.base_demand
        return rng.poisson(rate * noise + bursts).astype(np.int64)

    @cached_property
    def _deaths(self) -> tuple[np.ndarray, np.ndarray]:
        """(deletions, outstanding), continuing the creation draws' stream."""
        rng, self._rng = self._rng, None
        creations = self.creations
        deletions = np.zeros_like(creations)
        outstanding = np.zeros_like(creations)
        death_probability = 1.0 / VM_LIFETIME_INTERVALS
        alive = 0
        for i in range(len(creations)):
            alive += int(creations[i])
            died = rng.binomial(alive, death_probability) if alive > 0 else 0
            deletions[i] = died
            alive -= died
            outstanding[i] = alive
        return deletions, outstanding

    # -- summary statistics used by the Fig. 3a bench --------------------------

    def demand_stats(self) -> dict[str, float]:
        demand = self.demand.astype(float)
        return {
            "intervals": float(len(demand)),
            "mean": float(demand.mean()),
            "max": float(demand.max()),
            "min": float(demand.min()),
            "std": float(demand.std()),
            "daily_autocorrelation": self.autocorrelation(self.config.intervals_per_day),
        }

    def autocorrelation(self, lag: int) -> float:
        """Pearson autocorrelation of demand at ``lag`` intervals."""
        demand = self.demand.astype(float)
        if lag <= 0 or lag >= len(demand):
            raise ValueError(f"lag must be in (0, {len(demand)})")
        a = demand[:-lag] - demand[:-lag].mean()
        b = demand[lag:] - demand[lag:].mean()
        denom = math.sqrt(float((a * a).sum()) * float((b * b).sum()))
        if denom == 0.0:
            return 0.0
        return float((a * b).sum()) / denom
