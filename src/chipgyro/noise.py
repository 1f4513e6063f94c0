"""Propagation of noise power spectral densities to interferometer phase.

All PSDs are one-sided and expressed against ordinary frequency f in Hz;
angular frequency enters only through explicit omega = 2 pi f factors inside
the propagation kernels. Results carry their integration band and convention
so no number leaves the module without its hypotheses.

Kernels (omega = 2 pi f):
  phase:        sigma^2 = int S_phi(f) |H(f)|^2 df
  acceleration: sigma^2 = int (k_eff^2 / omega^4) S_a(f) |H(f)|^2 df
  rotation:     sigma^2 = int ((2 k_eff R)^2 / omega^2) S_Omega(f) |H(f)|^2 df

Each kernel is written once, in ``phase_kernel``, and |H|^2 once, in
``interferometer.transfer_H_abs2``; ``phase_variance`` picks the kernel from
the PSD's own domain, and ``convert_psd`` reads the same kernels.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DegenerateOrientationError, DivergentIntegralError
from .interferometer import InterferometerConfig, _sinc, scale_factor, transfer_H_abs2

DOMAINS = ("phase", "acceleration", "rotation")

DEFAULT_F_MIN = 1e-4  # Hz, infrared cutoff
ONE_SIDED_CONVENTION = "one-sided, ordinary frequency"


@dataclass(frozen=True)
class PowerSpectralDensity:
    """One-sided PSD, either analytic (white + flicker + random walk
    components) or tabulated on a strictly increasing frequency grid with
    log-log interpolation and end-segment power-law extrapolation."""

    domain: str
    white: float = 0.0        # h0
    flicker: float = 0.0      # h_-1, S += h_-1 / f
    random_walk: float = 0.0  # h_-2, S += h_-2 / f^2
    frequencies: Optional[np.ndarray] = field(default=None, repr=False)
    values: Optional[np.ndarray] = field(default=None, repr=False)
    # log knots and log values (0 where S = 0), built once from the table
    _log_f: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _log_s: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    # (knots, log knots, values, log values) as float lists for the scalar route
    _lists: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown PSD domain {self.domain!r}; expected one of {DOMAINS}")
        if (self.frequencies is None) != (self.values is None):
            raise ConfigError("tabulated PSD needs both frequencies and values")
        if self.frequencies is not None:
            f = np.asarray(self.frequencies, dtype=float)
            s = np.asarray(self.values, dtype=float)
            if f.ndim != 1 or f.size < 2 or f.shape != s.shape:
                raise ConfigError("tabulated PSD needs 1D grids of equal length >= 2")
            if np.any(f <= 0) or np.any(np.diff(f) <= 0):
                raise ConfigError("PSD frequency grid must be strictly increasing and > 0")
            if np.any(s < 0) or not np.all(np.isfinite(s)):
                raise ConfigError("PSD values must be finite and >= 0")
            log_f = np.log(f)
            log_s = np.log(np.where(s > 0, s, 1.0))
            object.__setattr__(self, "frequencies", f)
            object.__setattr__(self, "values", s)
            object.__setattr__(self, "_log_f", log_f)
            object.__setattr__(self, "_log_s", log_s)
            object.__setattr__(self, "_lists", tuple(a.tolist() for a in (f, log_f, s, log_s)))
        for name in ("white", "flicker", "random_walk"):
            if getattr(self, name) < 0:
                raise ConfigError(f"analytic PSD component {name} must be >= 0")

    @property
    def is_tabulated(self) -> bool:
        return self.frequencies is not None

    def evaluate(self, f):
        """S(f) for f > 0 (vectorized). A float argument, as QUADPACK passes
        one point at a time, gives a float without numpy's per-call overhead:
        an analytic PSD takes the same expression on floats, a tabulated one
        a scalar route over the same tables."""
        if isinstance(f, float):
            if not f > 0:
                raise ConfigError("PSDs are one-sided: evaluation needs f > 0")
            if self.is_tabulated:
                return self._interpolate_scalar(f)
        else:
            f = np.asarray(f, dtype=float)
            if np.any(f <= 0):
                raise ConfigError("PSDs are one-sided: evaluation needs f > 0")
            if self.is_tabulated:
                return self._interpolate(f)
        return self.white + self.flicker / f + self.random_walk / (f * f)

    def _interpolate(self, f):
        grid, vals, log_grid, log_vals = self.frequencies, self.values, self._log_f, self._log_s
        # extrapolation is pinned to the end segments: out-of-range points
        # reuse idx = 0 / idx = n-2
        idx = np.clip(np.searchsorted(grid, f, side="right") - 1, 0, grid.size - 2)
        f0, f1 = grid[idx], grid[idx + 1]
        s0, s1 = vals[idx], vals[idx + 1]
        # log-log segments where both endpoints are positive, linear otherwise
        positive = (s0 > 0) & (s1 > 0)
        frac = (np.log(f) - log_grid[idx]) / (log_grid[idx + 1] - log_grid[idx])
        exponent = log_vals[idx] + frac * (log_vals[idx + 1] - log_vals[idx])
        loglog = np.exp(np.where(positive, exponent, 0.0))
        linear = s0 + (f - f0) / (f1 - f0) * (s1 - s0)
        # clamp the linear branch at >= 0
        return np.maximum(np.where(positive, loglog, linear), 0.0)

    def _interpolate_scalar(self, f: float) -> float:
        """_interpolate for one point, with bisect and math on float lists."""
        knots, log_knots, vals, log_vals = self._lists
        k = min(max(bisect.bisect_right(knots, f) - 1, 0), len(knots) - 2)
        s0, s1 = vals[k], vals[k + 1]
        if s0 > 0 and s1 > 0:
            frac = (math.log(f) - log_knots[k]) / (log_knots[k + 1] - log_knots[k])
            try:
                return math.exp(log_vals[k] + frac * (log_vals[k + 1] - log_vals[k]))
            except OverflowError:
                return math.inf
        f0, f1 = knots[k], knots[k + 1]
        return max(s0 + (f - f0) / (f1 - f0) * (s1 - s0), 0.0)

    @classmethod
    def from_csv(cls, path, domain: str) -> "PowerSpectralDensity":
        """Load a tabulated PSD from CSV with header ``f_hz,psd_value``."""
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read PSD file {path}: {exc}") from None
        try:
            f = np.atleast_1d(data["f_hz"]).astype(float)
            s = np.atleast_1d(data["psd_value"]).astype(float)
        except (KeyError, ValueError):
            raise ConfigError(f"PSD file {path} must have header 'f_hz,psd_value'") from None
        return cls(domain=domain, frequencies=f, values=s)


def phase_kernel(domain: str, f, k_eff: float, guide_radius: float):
    """Factor K(f) taking a ``domain`` PSD to the phase PSD it induces,
    S_phi = K S: 1 (phase), k_eff^2 / omega^4 (acceleration) or
    (2 k_eff R)^2 / omega^2 (rotation), with omega = 2 pi f. A float ``f``
    gives a float, without numpy; an array gives an array."""
    scalar = isinstance(f, float)
    omega = 2.0 * math.pi * (f if scalar else np.asarray(f, dtype=float))
    if domain == "phase":
        return 1.0 if scalar else np.ones_like(omega)
    if domain == "acceleration":
        try:
            return k_eff ** 2 / omega ** 4
        except OverflowError:  # a float omega^4 past the float range
            return 0.0
    if domain == "rotation":
        return (2.0 * k_eff * guide_radius) ** 2 / (omega * omega)
    raise ConfigError(f"unknown PSD domain {domain!r}; expected one of {DOMAINS}")


def convert_psd(
    psd: PowerSpectralDensity,
    target_domain: str,
    k_eff: float,
    guide_radius: float,
    grid: Optional[np.ndarray] = None,
) -> PowerSpectralDensity:
    """Re-express a PSD in another domain through the exact kernel identities
    S_a = (omega^4 / k_eff^2) S_phi and S_Omega = (omega^2 / (2 k_eff R)^2) S_phi.

    Tabulated PSDs convert pointwise on their own grid (round trips are exact);
    analytic PSDs need an explicit grid and come back tabulated.
    """
    if psd.is_tabulated:
        f = psd.frequencies
        s = psd.values
    else:
        if grid is None:
            raise ConfigError("converting an analytic PSD needs an explicit frequency grid")
        f = np.asarray(grid, dtype=float)
        s = psd.evaluate(f)
    s_phase = s * phase_kernel(psd.domain, f, k_eff, guide_radius)
    s_target = s_phase / phase_kernel(target_domain, f, k_eff, guide_radius)
    return PowerSpectralDensity(domain=target_domain, frequencies=f, values=s_target)


@dataclass(frozen=True)
class VarianceResult:
    """Quadrature result with its full hypothesis set."""

    value: float            # rad^2
    error_estimate: float   # rad^2
    band: tuple             # (f_min, f_max) in Hz
    domain: str
    convention: str = ONE_SIDED_CONVENTION
    notes: str = ""
    n_evals: int = 0        # PSD evaluations the quadrature made, one per point
    converged: bool = True  # no QUADPACK warning and error_estimate <= rtol |value|

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.value, 0.0))

    def as_record(self) -> dict:
        return {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "band": list(self.band),
            "domain": self.domain,
            "convention": self.convention,
            "notes": self.notes,
            "n_evals": self.n_evals,
            "converged": self.converged,
        }


def _integrate_band(psd, config, f_min, f_max, rtol):
    """int S K |H|^2 df over [f_min, f_max] on QUADPACK; returns the value, its
    error estimate, the number of points at which the PSD was evaluated and
    the (lo, hi) panels on which QUADPACK warned. The warnings are caught, so
    none escapes to the caller.

    K is the ``phase_kernel`` of the PSD's domain; |H|^2 = 2 sinc^2(pi f tau)
    (1 - cos 2 pi D f), D = 2T - tau. A panel that spans fewer than 8 periods
    of the cosine is integrated whole. A wider one is split into int g - int g
    cos(2 pi D f), g = 2 S K sinc^2, the second by QUADPACK's cosine-weight
    rule (QAWO), whose cost does not depend on D. On a narrow panel the two
    parts would cancel (to about 8 digits for the omega^-4 kernel near f_min,
    completely for a line on a zero of H). Panel edges are the band ends, the
    zeros m/D for m <= 8, the zeros n/tau of sinc, tabulated-PSD knots and one
    edge per octave; none above 8/D depends on 2T, so neither does the cost.

    QUADPACK calls the integrand with one float at a time, so the PSD, K and
    |H|^2 take their float routes, and the envelope g reads sinc from where
    |H|^2 does; config and PSD attributes are read once, outside the callbacks.
    """
    from scipy.integrate import IntegrationWarning, quad

    tau = config.pulse_duration
    d = config.interrogation_time - tau
    n_octaves = int(math.ceil(math.log2(f_max / f_min)))
    edges = [
        [f_min, f_max],
        np.arange(1, 9) / d,
        np.arange(1, math.floor(f_max * tau) + 1) / tau,
        f_min * 2.0 ** np.arange(1, n_octaves),
    ]
    if psd.is_tabulated:
        edges.append(psd.frequencies)
    edges = np.unique(np.concatenate(edges))
    edges = edges[(edges >= f_min) & (edges <= f_max)]

    domain, k_eff, radius = psd.domain, config.k_eff, config.guide_radius
    n_evals = 0
    warned = []

    def panel_quad(fn, lo, hi, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            result = quad(fn, lo, hi, **kwargs)
        for w in caught:
            if not issubclass(w.category, IntegrationWarning):
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            elif (lo, hi) not in warned:
                warned.append((lo, hi))
        return result

    def weighted(f):
        nonlocal n_evals
        n_evals += 1
        return psd.evaluate(f) * phase_kernel(domain, f, k_eff, radius)

    def integrand(f):
        return weighted(f) * transfer_H_abs2(f, config)

    def smooth(f):
        return 2.0 * weighted(f) * _sinc(math.pi * f * tau) ** 2

    total = err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if (hi - lo) * d < 8.0:
            value, value_err = panel_quad(integrand, lo, hi, epsabs=0.0, epsrel=rtol)
        else:
            value, value_err = panel_quad(smooth, lo, hi, epsabs=0.0, epsrel=rtol)
            if value == 0.0:
                # g >= 0 vanishes on the panel; quad rejects a zero tolerance
                continue
            # an epsrel on this small part only chases roundoff
            wave, wave_err = panel_quad(smooth, lo, hi, weight="cos", wvar=2.0 * math.pi * d,
                                        epsabs=rtol * abs(value), epsrel=0.0)
            value -= wave
            value_err += wave_err
        total += value
        err += value_err
    return total, err, n_evals, warned


def phase_variance(
    psd: PowerSpectralDensity,
    config: InterferometerConfig,
    f_min: float = DEFAULT_F_MIN,
    f_max: Optional[float] = None,
    rtol: float = 1e-6,
) -> VarianceResult:
    """sigma_phi^2 = int K S |H|^2 df over the declared band, with K the
    ``phase_kernel`` of the PSD's own domain.

    ``rtol`` is the relative accuracy asked of each quadrature panel, in
    [1e-13, 1); the reported ``error_estimate`` is the sum of the panels'
    absolute error estimates. ``f_max`` defaults to 10 / pulse duration.
    ``converged`` is false when QUADPACK warned on a panel, which ``notes``
    names, or when ``error_estimate`` exceeds rtol |value|.

    For an acceleration PSD the omega^-4 kernel makes the integrand grow like
    1/f^2 towards DC for white noise; the declared infrared cutoff bounds it
    and is echoed in the result's ``notes``.
    """
    if f_max is None:
        f_max = 10.0 / config.pulse_duration
    if not math.isfinite(f_min) or f_min < 0:
        raise ConfigError(f"band lower edge must be finite and >= 0, got f_min = {f_min}")
    if f_min == 0:
        raise DivergentIntegralError(
            f"infrared cutoff must be > 0 (band [{f_min}, {f_max}]): the kernel is "
            "non-integrable down to f = 0"
        )
    if not math.isfinite(f_max):
        raise ConfigError(f"band upper edge must be finite, got f_max = {f_max}")
    if f_max <= f_min:
        raise ConfigError(f"empty integration band [{f_min}, {f_max}]")
    if not 1e-13 <= rtol < 1.0:
        raise ConfigError(f"rtol must lie in [1e-13, 1), got {rtol}")

    value, err, n_evals, warned = _integrate_band(psd, config, f_min, f_max, rtol)
    if not math.isfinite(value):
        raise DivergentIntegralError(f"noise integral diverged on band [{f_min}, {f_max}]")
    notes = [f"QUADPACK warning on panel [{lo}, {hi}] Hz" for lo, hi in warned]
    if psd.domain == "acceleration":
        notes.insert(0, f"omega^-4 kernel bounded by infrared cutoff {f_min} Hz")
    return VarianceResult(
        value=value,
        error_estimate=err,
        band=(f_min, f_max),
        domain=psd.domain,
        notes="; ".join(notes),
        n_evals=n_evals,
        converged=not warned and err <= rtol * abs(value),
    )


def phase_sigma_to_rotation_sigma(sigma_phi: float, config: InterferometerConfig) -> float:
    """Rms output phase to rms rotation rate: sigma_phi over ``scale_factor``."""
    if math.sin(config.latitude) == 0.0:
        raise DegenerateOrientationError("sin(latitude) = 0: no rotation projection")
    return sigma_phi / scale_factor(config)
