"""Propagation of noise power spectral densities to interferometer phase.

All PSDs are one-sided and expressed against ordinary frequency f in Hz;
angular frequency enters only through explicit omega = 2 pi f factors inside
the propagation kernels. Results carry their integration band and convention
so no number leaves the module without its hypotheses.

Kernels (omega = 2 pi f, k_eff of the species, G = ``interferometer.rotation_gain``):
  phase:        sigma^2 = int S_phi(f) |H(f)|^2 df
  acceleration: sigma^2 = int (k_eff^2 / omega^4) S_a(f) |H(f)|^2 df
  rotation:     sigma^2 = int (G^2 / omega^2) S_Omega(f) |H(f)|^2 df

Each kernel is written once, in ``phase_kernel(domain, config)``, which
returns K(f) for that config (a slow rotation reads back as itself); |H|^2,
its pulse factor and that factor's zeros come from ``interferometer``. ``phase_variance``
picks the kernel from the PSD's own domain, ``convert_psd`` reads the same
kernels, and ``dick_sum_allan`` samples the chain at the harmonics of the
cycle rate for the Allan variance that dead time aliases in (the Dick effect).
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ._scipy import compiled_module
from .constants import DEFAULT_F_MIN, DOMAINS
from .errors import ConfigError, DivergentIntegralError
from .interferometer import (
    InterferometerConfig,
    _pulse_factor,
    band_grid,
    rotation_gain,
    scale_factor,
    transfer_H_abs2,
)

ONE_SIDED_CONVENTION = "one-sided, ordinary frequency"
DICK_TAIL_FRACTION = 1e-4  # converged Dick sum: the band above its last harmonic at most this share
DEFAULT_RTOL = 1e-6  # relative accuracy asked of each quadrature panel unless given


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
    # (knots, log knots, values, log values (0 where S = 0)) as float lists,
    # built once from the table; the array route reads them back as arrays
    _lists: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown PSD domain {self.domain!r}; expected one of {DOMAINS}")
        if (self.frequencies is None) != (self.values is None):
            raise ConfigError("tabulated PSD needs both frequencies and values")
        if self.frequencies is not None:
            if self.white or self.flicker or self.random_walk:
                raise ConfigError("a tabulated PSD takes no white, flicker or random_walk component")
            f = np.asarray(self.frequencies, dtype=float)
            s = np.asarray(self.values, dtype=float)
            if f.ndim != 1 or f.size < 2 or f.shape != s.shape:
                raise ConfigError("tabulated PSD needs 1D grids of equal length >= 2")
            if not np.all(np.isfinite(f)) or np.any(f <= 0) or np.any(np.diff(f) <= 0):
                raise ConfigError("PSD frequency grid must be finite, strictly increasing and > 0")
            if np.any(s < 0) or not np.all(np.isfinite(s)):
                raise ConfigError("PSD values must be finite and >= 0")
            log_s = np.log(np.where(s > 0, s, 1.0))
            object.__setattr__(self, "frequencies", f)
            object.__setattr__(self, "values", s)
            object.__setattr__(self, "_lists", tuple(a.tolist() for a in (f, np.log(f), s, log_s)))
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
        a scalar route over the same tables. On both routes a zero component
        adds exactly 0, and a power of f that underflows to 0 gives inf."""
        if isinstance(f, float):
            if not f > 0:
                raise ConfigError("PSDs are one-sided: evaluation needs f > 0")
            if self.is_tabulated:
                return self._interpolate_scalar(f)
            s = self.white
        else:
            f = np.asarray(f, dtype=float)
            if np.any(f <= 0):
                raise ConfigError("PSDs are one-sided: evaluation needs f > 0")
            if self.is_tabulated:
                return self._interpolate(f)
            s = np.full(f.shape, self.white)
        if self.flicker:
            s = s + self.flicker / f
        if self.random_walk:
            try:
                s = s + self.random_walk / (f * f)
            except ZeroDivisionError:  # a float f * f that underflowed to 0
                return math.inf
        return s

    def _interpolate(self, f):
        grid, log_grid, vals, log_vals = (np.asarray(a) for a in self._lists)
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
        """Load a tabulated PSD from CSV with header ``f_hz,psd_value``. Every
        error names the file; a non-numeric cell reads as NaN."""
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
        # ValueError: bad UTF-8, or genfromtxt's row of the wrong width with its line number
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read PSD file {path}: {' '.join(str(exc).split())}") from None
        try:
            f = np.atleast_1d(data["f_hz"]).astype(float)
            s = np.atleast_1d(data["psd_value"]).astype(float)
        except (KeyError, ValueError):
            raise ConfigError(f"PSD file {path} must have header 'f_hz,psd_value'") from None
        try:
            return cls(domain=domain, frequencies=f, values=s)
        except ConfigError as exc:
            raise ConfigError(f"PSD file {path}: {exc}") from None


def phase_kernel(domain: str, config: InterferometerConfig):
    """K(f), the factor taking a ``domain`` PSD of ``config`` to the phase PSD
    it induces, S_phi = K S: 1 (phase), k_eff^2 / omega^4 (acceleration, k_eff
    of the species) or G^2 / omega^2 (rotation, G = ``rotation_gain(config)``),
    omega = 2 pi f. Its constant is computed once, here. A float f gives a
    float, without numpy, and an array an array."""
    if domain == "phase":
        return lambda f: 1.0 if isinstance(f, float) else np.ones(np.shape(f))
    if domain not in DOMAINS:
        raise ConfigError(f"unknown PSD domain {domain!r}; expected one of {DOMAINS}")
    quartic = domain == "acceleration"
    constant = config.species.k_eff ** 2 if quartic else rotation_gain(config) ** 2

    def kernel(f):
        omega = 2.0 * math.pi * (f if isinstance(f, float) else np.asarray(f, dtype=float))
        try:
            return constant / (omega ** 4 if quartic else omega * omega)
        except OverflowError:  # a float omega^4 past the float range
            return 0.0
        except ZeroDivisionError:  # a float power of omega that underflowed to 0
            return math.inf

    return kernel


def convert_psd(
    psd: PowerSpectralDensity,
    target_domain: str,
    config: InterferometerConfig,
    grid: Optional[np.ndarray] = None,
) -> PowerSpectralDensity:
    """Re-express a PSD in another domain of ``config`` through the exact
    identity S_target = S K_source / K_target, each K a ``phase_kernel``.

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
    s_phase = s * phase_kernel(psd.domain, config)(f)
    s_target = s_phase / phase_kernel(target_domain, config)(f)
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
    converged: bool = True  # QUADPACK's ier = 0 on every panel and error_estimate <= rtol |value|

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.value, 0.0))


def _integrate_band(psd, config, f_min, f_max, rtol, pulses):
    """int S K |H|^2 df over [f_min, f_max] on QUADPACK; returns the value, its
    error estimate, the number of points at which the PSD was evaluated, the
    (lo, hi) panels on which QUADPACK's status ``ier`` was non-zero and the
    verdict ``converged``: no such panel, and the error at most rtol |value|.

    K is the ``phase_kernel`` of the PSD's domain for ``config``, and |H|^2 =
    2 p^2 (1 - cos 2 pi D f) the ``transfer_H_abs2`` of the pulse pair ``pulses``, p
    its ``_pulse_factor``, D = 2T - tau. A panel that spans fewer than 8 periods
    of the cosine is integrated whole; a wider one is split into int g - int g
    cos(2 pi D f), g = 2 S K p^2, the second by QUADPACK's cosine-weight rule
    (QAWO), whose cost does not depend on D. On a narrow panel the two parts would
    cancel (to about 8 digits for the omega^-4 kernel near f_min, completely for a
    line on a zero of H). Panel edges are the band ends, the zeros m/D for m <= 8,
    tabulated-PSD knots and one edge per octave, merged by ``band_grid`` with the
    zeros n/tau of p; none above 8/D depends on 2T, so neither does the cost.

    QUADPACK passes one float at a time, so S, K, |H|^2 and p take their float
    routes; QAGS and QAWO get the arguments ``scipy.integrate.quad`` passes them.
    """
    quadpack = compiled_module("scipy.integrate._quadpack")

    d = pulses.interrogation_time - pulses.pulse_duration
    n_octaves = int(math.ceil(math.log2(f_max) - math.log2(f_min)))
    octaves = np.ldexp(f_min, np.arange(1, n_octaves))
    knots = psd.frequencies if psd.is_tabulated else []
    edges = band_grid(pulses, f_min, f_max, [f_min, f_max], np.arange(1, 9) / d, octaves, knots)

    kernel = phase_kernel(psd.domain, config)
    n_evals = 0
    warned = []

    def panel_quad(fn, lo, hi, epsabs, epsrel, omega=None):
        """QAGS, or QAWO with weight cos(omega f) when ``omega`` is given."""
        if omega is None:
            value, value_err, ier = quadpack._qagse(fn, lo, hi, (), 0, epsabs, epsrel, 50)
        else:
            value, value_err, ier = quadpack._qawoe(fn, lo, hi, omega, 1, (), 0, epsabs, epsrel, 50, 50, 1)
        if ier == 6:
            raise ValueError(f"QUADPACK rejected its input on panel [{lo}, {hi}] Hz")
        if ier and (lo, hi) not in warned:
            warned.append((lo, hi))
        return value, value_err

    def weighted(f):
        nonlocal n_evals
        n_evals += 1
        return psd.evaluate(f) * kernel(f)

    def integrand(f):
        value = weighted(f) * transfer_H_abs2(f, pulses)
        if not math.isfinite(value) and psd.domain == "rotation":
            # omega^2 so small that K overflowed while |H|^2 underflowed; their
            # product tends to (G D)^2 as f -> 0, so take it from
            # sin(pi f D) / omega (the acceleration product grows like 1/f^2
            # and is left to diverge)
            ratio = math.sin(math.pi * f * d) / (2.0 * math.pi * f)
            value = psd.evaluate(f) * (2.0 * rotation_gain(config) * _pulse_factor(f, pulses) * ratio) ** 2
        return value

    def smooth(f):
        return 2.0 * weighted(f) * _pulse_factor(f, pulses) ** 2

    total = err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if (hi - lo) * d < 8.0:
            value, value_err = panel_quad(integrand, lo, hi, 0.0, rtol)
        else:
            value, value_err = panel_quad(smooth, lo, hi, 0.0, rtol)
            if value == 0.0:
                # g >= 0 vanishes on the panel; QAWO returns ier = 6 for
                # epsabs = epsrel = 0
                continue
            # an epsrel on this small part only chases roundoff; epsabs stays > 0 for a subnormal value
            epsabs = max(rtol * abs(value), sys.float_info.min)
            wave, wave_err = panel_quad(smooth, lo, hi, epsabs, 0.0, 2.0 * math.pi * d)
            value -= wave
            value_err += wave_err
        total += value
        err += value_err
    return total, err, n_evals, warned, not warned and err <= rtol * abs(total)


def phase_variance(
    psd: PowerSpectralDensity,
    config: InterferometerConfig,
    f_min: float = DEFAULT_F_MIN,
    f_max: Optional[float] = None,
    rtol: float = DEFAULT_RTOL,
) -> VarianceResult:
    """sigma_phi^2 = int K S |H|^2 df over the declared band, with K the
    ``phase_kernel`` of the PSD's own domain.

    ``rtol`` is the relative accuracy asked of each quadrature panel, in
    [1e-13, 1); the reported ``error_estimate`` is the sum of the panels'
    absolute error estimates. ``f_max`` defaults to 10 / pulse duration.
    ``converged`` is false when QUADPACK's ``ier`` was non-zero on a panel,
    which ``notes`` names, or when ``error_estimate`` exceeds rtol |value|.

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

    value, err, n_evals, warned, converged = _integrate_band(psd, config, f_min, f_max, rtol, config)
    if not math.isfinite(value):
        raise DivergentIntegralError(f"noise integral is not finite on band [{f_min}, {f_max}]")
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
        converged=converged,
    )


@dataclass(frozen=True)
class DickSumResult:
    sigma: float        # rad/s
    variance: float     # (rad/s)^2
    m_max: int          # harmonics summed, min(m_max, floor(f_max T_c))
    tail_bound: float   # (rad/s)^2, the estimate of the band above them, included in variance
    converged: bool


def dick_sum_allan(
    psd: PowerSpectralDensity,
    config: InterferometerConfig,
    tau_integration: float,
    m_max: int = 100_000,
    f_max: Optional[float] = None,
) -> DickSumResult:
    """Allan variance at tau_I of a sensor that samples the noise once per
    cycle T_c, which aliases it (the Dick effect):

        sigma^2(tau_I) = sum_{m=1..M} S K |H|^2 (m / T_c) / (tau_I SF^2)

    with K, |H|^2 and the scale factor SF of ``phase_variance``'s chain,
    M = min(m_max, floor(f_max T_c)), and f_max 10 / pulse duration unless
    given. If m_max stops short of the band's last harmonic, the band above
    (M + 1/2) / T_c adds T_c times its ``phase_variance``, with D = 2T - tau
    folded to T_c - D = tau + dead time when that is shorter: samples at
    m / T_c cannot tell the two apart, and the slower one follows them.
    ``converged``: that quadrature converged and its share of the total is at
    most DICK_TAIL_FRACTION. A rotation PSD goes through the same
    ``phase_kernel`` as in ``phase_variance``: a slow rotation reads back as itself.
    """
    if m_max < 1:
        raise ConfigError(f"m_max must be >= 1, got {m_max}")
    t_c = config.cycle_time
    if tau_integration < t_c:
        raise ConfigError(f"integration time {tau_integration} s is below one cycle ({t_c} s)")
    f_max = 10.0 / config.pulse_duration if f_max is None else f_max
    if not (math.isfinite(f_max) and f_max * t_c >= 1.0):
        raise ConfigError(f"band upper edge must be finite and >= 1 / T_c = {1.0 / t_c} Hz, got {f_max}")
    norm = tau_integration * scale_factor(config) ** 2  # raises at sin(latitude) = 0

    n_terms = min(m_max, math.floor(f_max * t_c))
    f = np.arange(1, n_terms + 1) / t_c
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range reads inf or nan
        kernel = phase_kernel(psd.domain, config)(f)
        total = float(np.sum(psd.evaluate(f) * kernel * transfer_H_abs2(f, config)))
    tail, converged = 0.0, True
    if m_max + 1 <= f_max * t_c:  # m_max truncates: harmonic m_max + 1 lies in the band
        # folded, D = 2T - tau is tau + dead time; T_c - D would round the m / D edges off n / tau
        two_t = min(config.interrogation_time, 2.0 * config.pulse_duration + config.cycle_dead_time)
        pulses = replace(config, interrogation_time=two_t)
        f_lo = (n_terms + 0.5) / t_c
        tail, _, _, _, converged = _integrate_band(psd, config, f_lo, f_max, DEFAULT_RTOL, pulses)
        tail *= t_c
    variance = (total + tail) / norm
    return DickSumResult(
        sigma=math.sqrt(variance), variance=variance, m_max=n_terms, tail_bound=tail / norm,
        converged=converged and tail <= DICK_TAIL_FRACTION * (total + tail),
    )
