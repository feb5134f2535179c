"""Far-field diffraction behind a collimation slit.

Conventions (fixed by requiring the Fourier-space sum, the Kirchhoff
integral, and the free Schroedinger propagator e^{+ik(dx)^2/2L} to agree):

* screen positions are measured in units of the peak separation Dx,
  apertures in units of the grating period d;
* the Fresnel chirp is e^{+2 pi i q^2 d/Dx} acting on the unconjugated
  grating operator M_l;
* densities carry the prefactor 1/(pi D/d), which makes the screen integral
  of the conditional density equal the transmission probability of that
  absorption count (checked by Parseval).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, RegimeError, ResolutionError
from .grating import MeasurementProfile, m_ell
from .params import GratingParameters
from . import talbot

FRAUNHOFER_MAX_RATIO = 1e-2


@dataclass
class FarFieldConfig:
    """Geometry and numerics for single-grating far-field diffraction.

    collimator_ratio: slit width over grating period, D/d
    period_over_sep: grating period over peak separation, d/Dx = L_T/L
    sigma_det: detector resolution in units of Dx (gaussian std)
    """

    grating: GratingParameters
    collimator_ratio: float = 10.0
    period_over_sep: float = 1e-3
    sigma_det: float = 0.1
    screen: np.ndarray = field(default_factory=lambda: np.linspace(-3.0, 3.0, 2401))
    j_max: int | None = None
    q_points_per_unit: int = 256
    tail: float = 1e-10

    def __post_init__(self):
        if self.collimator_ratio <= 0:
            raise InvalidInputError("collimator ratio D/d must be positive")
        if self.period_over_sep <= 0:
            raise InvalidInputError("d/Dx must be positive")
        self.screen = np.asarray(self.screen, float)

    def order_cutoff(self) -> int:
        if self.j_max is not None:
            return self.j_max
        z = self.grating.phi0 + self.grating.n0
        return int(abs(z) + 8.0 * math.sqrt(abs(z) + 1.0) + 12)


@dataclass
class ScreenDensity:
    """Screen density samples; positions in units of the peak separation."""

    positions: np.ndarray
    values: np.ndarray
    ell: object = None           # int, None for unconditional
    variant: str = "quantum"
    smoothed: bool = False
    sigma_det: float = 0.0

    def normalized_to_peak(self) -> "ScreenDensity":
        peak = float(np.max(self.values))
        return ScreenDensity(self.positions, self.values / peak, self.ell,
                             self.variant, self.smoothed, self.sigma_det)


def _sine_factor(j: int, q: np.ndarray, dd: float, ratio: float) -> np.ndarray:
    # sin[pi (D/d - |q|)(j - 2 q d/Dx)]/(j - 2 q d/Dx), removable at j = 2q d/Dx
    a = np.pi * (dd - np.abs(q))
    den = j - 2.0 * q * ratio
    small = np.abs(den) < 1e-12
    safe = np.where(small, 1.0, den)
    return np.where(small, a, np.sin(a * safe) / safe)


def _coefficient_rows(config: FarFieldConfig, ell, variant: str, orders, q: np.ndarray):
    if ell is None:
        return {j: talbot.b_unconditional(j, q, config.grating, variant)
                for j in orders}
    return talbot.conditional_rows(orders, q, ell, config.grating)


def _q_grid(config: FarFieldConfig):
    dd = config.collimator_ratio
    if config.q_points_per_unit < 64:
        raise ResolutionError("need >= 64 quadrature points per unit q")
    n = int(2 * dd * config.q_points_per_unit) + 1
    return np.linspace(-dd, dd, n)


def farfield_density(config: FarFieldConfig, ell=None, variant: str = "quantum",
                     fraunhofer: bool = False) -> ScreenDensity:
    """Screen density from the Talbot-coefficient sum (conditional for an
    integer `ell`, unconditional for ell=None)."""
    dd = config.collimator_ratio
    ratio = 0.0 if fraunhofer else config.period_over_sep
    q = _q_grid(config)
    j_max = config.order_cutoff()
    rows = _coefficient_rows(config, ell, variant, range(-j_max, j_max + 1), q)
    g = np.zeros(q.size, complex)
    for j, row in rows.items():
        g += row * _sine_factor(j, q, dd, ratio)
    edge = float(np.max(np.abs(rows[j_max])))
    if edge > config.tail:
        raise ResolutionError(
            f"order cutoff {j_max} too small: |B_jmax| = {edge:.2e} > {config.tail:.0e}")
    dq = q[1] - q[0]
    wts = np.full(q.size, dq)
    wts[0] = wts[-1] = 0.5 * dq
    phase = np.exp(2j * np.pi * np.outer(config.screen, q))
    w = (phase * (g * wts)[None, :]).sum(axis=1) / (math.pi * dd)
    return ScreenDensity(config.screen.copy(), w.real, ell,
                         "fraunhofer-" + variant if fraunhofer else variant)


def farfield_kirchhoff(config: FarFieldConfig, ell: int = 0,
                       n_aperture: int = 8193) -> ScreenDensity:
    """Screen density as a Kirchhoff integral over the slit aperture,
    |integral dq e^{2 pi i (q^2 d/Dx - q x/Dx)} M_l(d q)|^2 / (D/d).

    The slit transmits |x| <= D/2.  Dual route to farfield_density.
    """
    dd = config.collimator_ratio
    ratio = config.period_over_sep
    if n_aperture < 4096:
        raise ResolutionError("aperture must be sampled on >= 4096 points")
    q = np.linspace(-0.5 * dd, 0.5 * dd, n_aperture)
    dq = q[1] - q[0]
    chirp_step = 2.0 * np.pi * ratio * dd * dq  # max |d(phase)/dq| * dq at slit edge
    osc_step = 2.0 * np.pi * float(np.max(np.abs(config.screen))) * dq
    if max(chirp_step, osc_step) > np.pi / 4:
        raise ResolutionError("aperture sampling too coarse: phase advances > pi/4 per sample")
    profile = MeasurementProfile(config.grating, ell)
    t = m_ell(q, profile) * np.exp(2j * np.pi * ratio * q * q)
    wts = np.full(q.size, dq)
    wts[0] = wts[-1] = 0.5 * dq
    amp = (np.exp(-2j * np.pi * np.outer(config.screen, q)) * (t * wts)[None, :]).sum(axis=1)
    return ScreenDensity(config.screen.copy(), np.abs(amp) ** 2 / dd, ell, "kirchhoff")


def fraunhofer_density(config: FarFieldConfig, ell=None,
                       variant: str = "quantum") -> ScreenDensity:
    """Fraunhofer limit of farfield_density (the 2 q d/Dx term dropped).

    Identical for the quantum and classical variants.  Warns when d/Dx is
    too large for the limit to be meaningful.
    """
    if config.period_over_sep > FRAUNHOFER_MAX_RATIO:
        warnings.warn(
            f"d/Dx = {config.period_over_sep:.2e} exceeds the Fraunhofer regime bound "
            f"{FRAUNHOFER_MAX_RATIO:.0e}", RuntimeWarning, stacklevel=2)
    return farfield_density(config, ell, variant, fraunhofer=True)


def apply_detector_resolution(density: ScreenDensity, sigma: float | None = None) -> ScreenDensity:
    """Convolve with a normalized gaussian of std sigma (units of Dx).

    Preserves the screen integral; the grid spacing must resolve the kernel
    (spacing < sigma/4).
    """
    if sigma is None:
        sigma = density.sigma_det if density.sigma_det > 0 else 0.1
    x = density.positions
    dx = x[1] - x[0]
    if sigma == 0.0:
        return ScreenDensity(x.copy(), density.values.copy(), density.ell,
                             density.variant, True, 0.0)
    if dx >= sigma / 4.0:
        raise ResolutionError(
            f"grid spacing {dx:.3g} too coarse for sigma_det = {sigma:.3g}")
    half = int(math.ceil(6.0 * sigma / dx))
    k = np.exp(-0.5 * (np.arange(-half, half + 1) * dx / sigma) ** 2)
    k /= k.sum()
    smoothed = np.convolve(np.pad(density.values, half, mode="constant"), k, mode="same")
    smoothed = smoothed[half:-half]
    return ScreenDensity(x.copy(), smoothed, density.ell, density.variant, True, sigma)


# ---------------------------------------------------------------------------
# phase-space route (consistency oracle for the formulas above)
# ---------------------------------------------------------------------------

@dataclass
class PhaseSpaceState:
    """Wigner-like state on a (position, momentum) grid; position in units
    of the grating period d, momentum in units of hbar k_L."""

    y: np.ndarray
    nu: np.ndarray
    w: np.ndarray  # shape (y.size, nu.size)


def collimation_transform(state: PhaseSpaceState, slit_ratio: float) -> PhaseSpaceState:
    """Slit-aperture transform: multiply the support by the slit indicator
    and convolve the momentum axis with the aperture diffraction kernel
    sin[pi nu (D/d - 2|y|)]/(pi nu).

    The slit transmits |y| <= D/(2d) (positions in units of d).
    """
    from scipy.signal import fftconvolve
    if slit_ratio <= 0:
        raise InvalidInputError("slit ratio D/d must be positive")
    y, nu, w = state.y, state.nu, state.w
    dnu = nu[1] - nu[0]
    out = np.zeros_like(w)
    inside = np.abs(y) <= 0.5 * slit_ratio
    nu_k = np.arange(-(nu.size - 1), nu.size) * dnu  # kernel support, full overlap
    for i in np.nonzero(inside)[0]:
        a = slit_ratio - 2.0 * abs(y[i])
        if a * dnu > 0.5:
            raise ResolutionError(
                "momentum grid too coarse for the aperture kernel oscillation")
        kern = a * np.sinc(nu_k * a)
        out[i] = fftconvolve(w[i], kern[::-1], mode="valid") * dnu
    return PhaseSpaceState(y.copy(), nu.copy(), out)


def momentum_kick_amplitudes(kernel, y: np.ndarray, m_max: int, n_s: int = 512) -> dict:
    """Momentum-kick amplitudes A_m(y) of a grating kernel: Fourier series of
    K(y - s/2, y + s/2) in the separation s (period 2, units of d), so that
    the phase-space transform is w(y, nu) -> sum_m A_m(y) w(y, nu + m)."""
    s = 2.0 * np.arange(n_s) / n_s
    ymat = y[:, None]
    smat = s[None, :]
    if isinstance(kernel, MeasurementProfile):
        vals = m_ell(ymat - 0.5 * smat, kernel) * np.conj(m_ell(ymat + 0.5 * smat, kernel))
    elif hasattr(kernel, "pair_values"):
        vals = kernel.pair_values(ymat - 0.5 * smat, ymat + 0.5 * smat)
    else:
        vals = kernel(ymat - 0.5 * smat, ymat + 0.5 * smat)
    coeff = np.fft.fft(vals, axis=1) / n_s  # coeff[:, m] = A_m(y) for e^{+i pi m s}
    return {m: coeff[:, m % n_s] for m in range(-m_max, m_max + 1)}


def plane_wave_pipeline(kernel, slit_ratio: float, period_over_sep: float,
                        screen: np.ndarray, n_y: int = 257, n_nu: int = 8001,
                        nu_max: float = 40.0, m_max: int = 24) -> ScreenDensity:
    """Full phase-space pipeline: plane wave -> slit -> grating -> free
    flight -> screen density; consistency oracle for farfield_density in the
    Fraunhofer regime.

    A momentum kick of one hbar k_L displaces the screen position by Dx/2.
    """
    y = np.linspace(-0.5 * slit_ratio, 0.5 * slit_ratio, n_y)
    nu = np.linspace(-nu_max, nu_max, n_nu)
    dnu = nu[1] - nu[0]
    # plane wave through the slit: w2(y, nu) = collimation kernel itself
    a = (slit_ratio - 2.0 * np.abs(y))[:, None]
    numat = nu[None, :]
    w2 = a * np.sinc(numat * a)
    # grating kicks
    kicks = momentum_kick_amplitudes(kernel, y, m_max)
    shift = int(round(1.0 / dnu))
    if abs(shift * dnu - 1.0) > 1e-12:
        raise ResolutionError("momentum grid spacing must divide hbar k_L exactly")
    w3 = np.zeros_like(w2, complex)
    for m, am in kicks.items():
        rolled = np.zeros_like(w2)
        if m == 0:
            rolled = w2
        elif m > 0:
            rolled[:, : n_nu - m * shift] = w2[:, m * shift:]
        else:
            rolled[:, -m * shift:] = w2[:, : n_nu + m * shift]
        w3 += am[:, None] * rolled
    w3 = w3.real
    # shear to the screen: chi = y * (d/Dx) + nu / 2
    chi = y[:, None] * period_over_sep + 0.5 * numat
    lo = screen[0]
    dchi = screen[1] - screen[0]
    idx = (chi - lo) / dchi
    i0 = np.floor(idx).astype(int)
    frac = idx - i0
    dy = y[1] - y[0]
    weight = w3 * dy * dnu / dchi
    dens = np.zeros(screen.size)
    valid = (i0 >= 0) & (i0 < screen.size - 1)
    np.add.at(dens, i0[valid], (weight * (1 - frac))[valid])
    np.add.at(dens, i0[valid] + 1, (weight * frac)[valid])
    return ScreenDensity(np.asarray(screen, float).copy(), dens, None, "phase-space")
