"""Independent reference routes for the tests.

Production (src/lasergrating) computes every quantity by one closed-form
route on numpy alone.  The routes here compute the same quantities another
way, sharing with production at most the measurement operators M_l(x) or the
two-point kernel itself, and each is compared against the production route
named after it:

* `KernelSource`, `b_numeric_oracle`: Talbot coefficients as the numeric
  Fourier coefficients of sampled kernel lines K(u - xi/2, u + xi/2), one FFT
  per distinct line; against the closed forms of `talbot` (`ClosedForm`,
  `RankOneSource`, `conditional_rows`, `unconditional_rows`).
* `TwoPointKernel`, `channel`, `kernel_source`: a kernel K_l(x, x') with
  pair_values, one absorption count of it, and its sampled source.
* `SummedLadderKernel`: the ladder kernel summed over every absorption count
  in closed form, M_0 conj M_0 [1 + y expm1(w) / w]; sampled, against the
  "ladder" coefficients of `talbot.ClosedForm`.
* `ladder_ode_solve` (with `DOP853`): adaptive integration of the ladder
  equations under the Gaussian or the constant envelope; against
  `dynamics.ladder_analytic` and the measurement-operator kernel.
* `poisson_kernel`: M_l(x) conj M_l(x'), the eta = 1 ladder; against the
  conditional and unconditional closed forms.
* `t1_integral_kernel`: the first-absorption-time representation by
  Gauss-Legendre quadrature; against `dynamics.ladder_analytic`.
* `solve_pairs`: the nine-element Rabi master equation, by ODE or matrix
  exponential; against `rabi.amplitudes` and `rabi.rabi_solve`.
* `short_lifetime_parameters`, `rabi_short_lifetime_limit`: the incoherent
  single-absorber limit tau << t_L; against `solve_pairs`.
* `farfield_kirchhoff`: the screen density as a dense Kirchhoff sum over the
  slit aperture; against `farfield.farfield_densities`.
* `PhaseSpaceState`, `collimation_transform`, `momentum_kick_amplitudes`,
  `plane_wave_pipeline`: the far field by phase-space propagation; against
  `farfield.farfield_densities` in the Fraunhofer regime.
* `plane_wave_diffraction`, `DiffractionAmplitudes`: diffraction amplitudes
  of M_l on a plane wave from modified Bessel functions; against the FFT of
  M_l(x).
* `mean_transmission_closed`: f^2 B_0(0; l) as a double sum over recoil
  splittings with modified Bessel weights; against the conditional closed
  form and the mean of the conditional fringe signal.

Bessel functions come from scipy.special; `test_specfun` holds `iv` and `jv`
to 1e-10 of mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853 as _ScipyDOP853
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.signal import fftconvolve
from scipy.special import iv

from lasergrating.dynamics import ENVELOPES, _pair_coefficients
from lasergrating.errors import (CutoffError, InvalidInputError, RegimeError, ResolutionError,
                                 SimulationError)
from lasergrating.farfield import FarFieldConfig, ScreenDensity
from lasergrating.grating import MeasurementProfile, m_ell, poisson_ell_max
from lasergrating.params import GratingParameters
from lasergrating.rabi import RabiConfig

NYQUIST_MARGIN = 32
LINE_BLOCK = 1 << 14  # kernel pairs per evaluator call of KernelSource.rows


# ---------------------------------------------------------------------------
# sampled two-point kernels
# ---------------------------------------------------------------------------

def _check_grid(n_points: int, j_max: int):
    if n_points < 512:
        raise ResolutionError("kernel must be sampled on >= 512 points per period")
    if n_points // 2 < j_max + NYQUIST_MARGIN:
        raise ResolutionError(
            f"grid Nyquist order {n_points // 2} < |j| + {NYQUIST_MARGIN}")


@dataclass
class TwoPointKernel:
    """Multiplicative grating kernel K_l(x, x').

    `evaluator(x, xp)` returns an array of shape (n_channels, n_pairs);
    channels are absorption counts for ladder kernels.  pair_values is the
    sum of the channels.
    """

    model: str
    channels: tuple
    evaluator: object

    def channel_values(self, x, xp) -> np.ndarray:
        x = np.asarray(x, float)
        out = self.evaluator(np.ravel(x), np.ravel(np.asarray(xp, float)))
        return out.reshape((len(self.channels),) + x.shape)

    def pair_values(self, x, xp) -> np.ndarray:
        return self.channel_values(x, xp).sum(axis=0)


@dataclass
class KernelSource:
    """Numeric Fourier coefficients of a two-point kernel as a source.

    `kernel` is anything with pair_values(x, xp).  rows() samples
    K(u - xi/2, u + xi/2) on n_points values of u for each unique xi, in
    blocks of LINE_BLOCK pairs per kernel call, and takes one FFT per line.
    """

    kernel: object
    label: str = "kernel"
    n_points: int = 512

    def _line_rows(self, orders, xi):
        """(table, inverse): the rows of `orders` on the distinct lines of
        xi, and the index of each xi among those lines."""
        orders = np.asarray(orders, int).ravel()
        n = self.n_points
        _check_grid(n, int(np.max(np.abs(orders))))
        lines, inverse = np.unique(np.asarray(xi, float).ravel(), return_inverse=True)
        u = np.arange(n) / n
        out = np.empty((orders.size, lines.size), complex)
        step = max(1, LINE_BLOCK // n)
        for i in range(0, lines.size, step):
            half = 0.5 * lines[i:i + step, None]
            vals = self.kernel.pair_values((u - half).ravel(), (u + half).ravel())
            spec = np.fft.fft(vals.reshape(-1, n), axis=1)
            out[:, i:i + step] = spec[:, orders % n].T / n
        return out, inverse

    def rows(self, orders, xi) -> np.ndarray:
        out, inverse = self._line_rows(orders, xi)
        return out[:, inverse]

    def pairs(self, orders, xi) -> np.ndarray:
        """B_{orders[k]}(xi[k]) for paired 1-D arrays."""
        orders = np.asarray(orders, int).ravel()
        lo = int(np.min(orders, initial=0))
        span = np.arange(lo, int(np.max(orders, initial=0)) + 1)
        out, inverse = self._line_rows(span, xi)
        return out[orders - lo, inverse]


def _kernel_line(kernel, xi: float, n_points: int):
    """Sample K(u - xi/2, u + xi/2) on the uniform period grid."""
    u = np.arange(n_points) / n_points
    if isinstance(kernel, MeasurementProfile):
        return m_ell(u - 0.5 * xi, kernel) * np.conj(m_ell(u + 0.5 * xi, kernel))
    if hasattr(kernel, "pair_values"):
        return kernel.pair_values(u - 0.5 * xi, u + 0.5 * xi)
    return kernel(u - 0.5 * xi, u + 0.5 * xi)


def b_numeric_oracle(j: int, xi: float, kernel, n_points: int = 512):
    """Numeric Fourier definition of B_j(xi): trapezoid (= uniform mean) of
    e^{-2 pi i j u} K(u - xi/2, u + xi/2) over one period.

    `kernel` may be a MeasurementProfile, an object with pair_values(x, xp),
    or a plain callable K(x, xp).
    """
    j = int(j)
    _check_grid(n_points, abs(j))
    vals = _kernel_line(kernel, xi, n_points)
    u = np.arange(n_points) / n_points
    return complex(np.mean(vals * np.exp(-2j * np.pi * j * u)))


@dataclass
class ChannelKernel:
    """Single-channel view of a TwoPointKernel (usable as a kernel itself)."""

    parent: object
    index: int

    def pair_values(self, x, xp):
        return self.parent.channel_values(x, xp)[self.index]


def channel(kernel, ell) -> ChannelKernel:
    if ell not in kernel.channels:
        raise InvalidInputError(f"kernel has no channel {ell!r}")
    return ChannelKernel(kernel, kernel.channels.index(ell))


@dataclass
class SummedLadderKernel:
    """Ladder kernel summed over every absorption count:
    M_0 conj M_0 [1 + y expm1(w) / w], with y = n0 c c' and
    w = i (eta_p - 1) dphi - (eta_a - 1) nbar + eta_a y; expm1(w) / w is
    taken as 1 for |w| <= 1e-150, where complex division of subnormals
    would give nan."""

    grating: object
    model: str = "ladder-summed"

    def pair_values(self, x, xp) -> np.ndarray:
        x = np.asarray(x, float)
        g = self.grating
        c, cp, dphi, nbar = _pair_coefficients(np.ravel(x), np.ravel(np.asarray(xp, float)), g)
        y = g.n0 * c * cp
        w = 1j * (g.eta_p - 1.0) * dphi - (g.eta_a - 1.0) * nbar + g.eta_a * y
        ratio = np.divide(np.expm1(w), w, out=np.ones_like(w), where=np.abs(w) > 1e-150)
        return (np.exp(1j * dphi - nbar) * (1.0 + y * ratio)).reshape(x.shape)


def kernel_source(kernel, ell="sum", n_points: int = 512) -> KernelSource:
    """Sampled source of a kernel, channel-summed or one absorption count."""
    if ell == "sum":
        return KernelSource(kernel, kernel.model, n_points)
    return KernelSource(channel(kernel, ell), f"{kernel.model},ell={ell}", n_points)


# ---------------------------------------------------------------------------
# adaptive ODE whose result does not depend on the BLAS thread count
# ---------------------------------------------------------------------------

def _sq_norm(x) -> float:
    """Squared Euclidean norm, summed by numpy rather than BLAS."""
    return float(np.sum(x.real ** 2 + x.imag ** 2))


def _rms(x) -> float:
    return math.sqrt(_sq_norm(x)) / x.size ** 0.5


class DOP853(_ScipyDOP853):
    """scipy's DOP853 with thread-independent error and initial-step norms.

    scipy measures the local error and the initial step with
    np.linalg.norm, which reduces through BLAS dot products.  For state
    vectors beyond about 1e4 entries OpenBLAS splits that reduction across
    threads, so the rounding of the norm, and with it the accepted step
    sequence, changes with the thread count.  This class takes the same
    steps with norms summed by numpy's own (pairwise, single-threaded)
    reduction; pass it to solve_ivp as `method`."""

    def __init__(self, fun, t0, y0, t_bound, first_step=None, **options):
        span = abs(t_bound - t0)
        auto = first_step is None and span > 0 and np.size(y0) > 0
        super().__init__(fun, t0, y0, t_bound,
                         first_step=span if auto else first_step, **options)
        if auto:
            self.h_abs = self._initial_step()

    def _initial_step(self) -> float:
        # Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4, as in
        # scipy.integrate._ivp.common.select_initial_step
        span = abs(self.t_bound - self.t)
        scale = self.atol + np.abs(self.y) * self.rtol
        d0 = _rms(self.y / scale)
        d1 = _rms(self.f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, span)
        f1 = self.fun(self.t + h0 * self.direction, self.y + h0 * self.direction * self.f)
        d2 = _rms((f1 - self.f) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (self.error_estimator_order + 1))
        return min(100 * h0, h1, span, self.max_step)

    def _estimate_error_norm(self, K, h, scale):
        err5 = np.dot(K.T, self.E5) / scale
        err3 = np.dot(K.T, self.E3) / scale
        err5_norm_2 = _sq_norm(err5)
        err3_norm_2 = _sq_norm(err3)
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


# ---------------------------------------------------------------------------
# ladder dynamics
# ---------------------------------------------------------------------------

ENVELOPE_SPAN = 6.0  # gaussian integration half-range in units of w_z/v_z


def _ode_kernel_values(x, xp, grating: GratingParameters, envelope: str, ell_max: int,
                       rtol: float, atol: float) -> np.ndarray:
    g = grating
    c, cp, dphi, nbar = _pair_coefficients(x, xp, g)
    c0 = 1j * dphi - nbar
    c1 = 1j * g.eta_p * dphi - g.eta_a * nbar
    w_first = g.n0 * c * cp
    w_up = g.eta_a * w_first
    n_pairs = x.size
    y0 = np.zeros((ell_max + 1, n_pairs), complex)
    y0[0] = 1.0

    if envelope == "gaussian":
        span = (-ENVELOPE_SPAN, ENVELOPE_SPAN)
        norm = 1.0 / math.sqrt(math.pi / 2.0)

        def pulse(t):
            return norm * math.exp(-2.0 * t * t)
    else:
        span = (0.0, 1.0)

        def pulse(t):
            return 1.0

    def rhs(t, y):
        y = y.reshape(ell_max + 1, n_pairs)
        dy = np.empty_like(y)
        dy[0] = c0 * y[0]
        if ell_max >= 1:
            dy[1:] = c1 * y[1:]
            dy[1] += w_first * y[0]
        if ell_max >= 2:
            dy[2:] += w_up * y[1:-1]
        return (pulse(t) * dy).ravel()

    sol = solve_ivp(rhs, span, y0.ravel(), method=DOP853, rtol=rtol, atol=atol,
                    t_eval=[span[1]])
    if not sol.success:
        raise SimulationError(f"ladder integration failed: {sol.message}")
    return sol.y[:, -1].reshape(ell_max + 1, n_pairs)


def ladder_ode_solve(grating: GratingParameters, envelope: str = "gaussian",
                     ell_max: int | None = None, rtol: float = 1e-9,
                     atol: float = 1e-12) -> TwoPointKernel:
    """Adaptive integration of the coupled ladder equations: "gaussian"
    integrates the physical pulse gamma_0(t) with integral n0, "constant" a
    flat pulse of duration t_L.  Channels l = 0 .. ell_max (default:
    poisson_ell_max)."""
    if envelope not in ENVELOPES:
        raise InvalidInputError(f"unknown envelope {envelope!r}")
    if ell_max is None:
        ell_max = poisson_ell_max(grating)
    return TwoPointKernel(
        model=f"ladder-ode-{envelope}",
        channels=tuple(range(ell_max + 1)),
        evaluator=lambda x, xp: _ode_kernel_values(x, xp, grating, envelope, ell_max,
                                                   rtol, atol),
    )


def poisson_kernel(grating: GratingParameters, ell_max: int | None = None) -> TwoPointKernel:
    """Measurement-operator kernel K_l = M_l(x) conj(M_l(x')) (eta = 1)."""
    if ell_max is None:
        ell_max = poisson_ell_max(grating)

    def values(x, xp):
        out = np.empty((ell_max + 1, x.size), complex)
        for ell in range(ell_max + 1):
            prof = MeasurementProfile(grating, ell)
            out[ell] = m_ell(x, prof) * np.conj(m_ell(xp, prof))
        return out

    return TwoPointKernel(model="poisson", channels=tuple(range(ell_max + 1)),
                          evaluator=values)


def t1_integral_kernel(x, xp, ell: int, grating: GratingParameters,
                       n_nodes: int = 96) -> np.ndarray:
    """K_l(x, x') from the first-absorption-time representation: average over
    t1 in [0, t_L] of the generalized measurement-operator pair (l >= 1).

    Gauss-Legendre quadrature; independent of both the ODE and the
    hypergeometric routes.
    """
    if ell < 1:
        raise InvalidInputError("the t1 representation applies to ell >= 1")
    x = np.atleast_1d(np.asarray(x, float))
    xp = np.atleast_1d(np.asarray(xp, float))
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    s = 0.5 * (nodes + 1.0)          # t1/t_L in [0, 1]
    w = 0.5 * weights

    def m_tilde(pos, frac):
        c = np.cos(np.pi * pos)[:, None]
        ph = grating.phi0 * c * c
        nn = grating.n0 * c * c
        pref = np.sqrt((grating.eta_a * (1.0 - frac)) ** (ell - 1)
                       * grating.n0**ell / math.factorial(ell - 1))
        return pref * c**ell * np.exp((1j * ph - 0.5 * nn) * frac) \
            * np.exp((1j * grating.eta_p * ph - 0.5 * grating.eta_a * nn) * (1.0 - frac))

    frac = s[None, :]
    vals = m_tilde(x, frac) * np.conj(m_tilde(xp, frac))
    return vals @ w


# ---------------------------------------------------------------------------
# Rabi master equation
# ---------------------------------------------------------------------------

SHORT_LIFETIME_MAX = 1.0 / 50.0


def _liouvillian(x, xp, config: RabiConfig) -> np.ndarray:
    """Generator of the two-point master equation for each pair, shape
    (n_pairs, 9, 9), acting on rho(x, x') flattened row-major:
    -i [H(x) rho - rho H(x')] + (L rho L^+ - {L^+ L, rho}/2) / tau with
    H = Omega s - Delta |1><1| and L = |2><1|."""
    s = np.zeros((3, 3))
    s[0, 1] = s[1, 0] = 0.5
    jump = np.zeros((3, 3))
    jump[2, 1] = 1.0
    p1 = jump.T @ jump
    eye = np.eye(3)
    om = config.pulse_area * np.cos(np.pi * x)[:, None, None]
    omp = config.pulse_area * np.cos(np.pi * xp)[:, None, None]
    const = 1j * config.detuning * (np.kron(p1, eye) - np.kron(eye, p1)) \
        + (np.kron(jump, jump) - 0.5 * (np.kron(p1, eye) + np.kron(eye, p1))) / config.lifetime
    return const - 1j * (om * np.kron(s, eye) - omp * np.kron(eye, s))


def solve_pairs(x, xp, config: RabiConfig, method: str = "ode", t_eval=None,
                rtol: float = 1e-9, atol: float = 1e-12) -> np.ndarray:
    """Density matrices rho(x, x'; t = t_L) for each position pair, initial
    state |0><0|.  Returns shape (n_pairs, 3, 3), or (n_times, n_pairs, 3, 3)
    when t_eval is given (ODE route only); rtol and atol are the ODE
    tolerances."""
    x = np.atleast_1d(np.asarray(x, float))
    xp = np.atleast_1d(np.asarray(xp, float))
    gen = _liouvillian(x, xp, config)
    n = x.size
    if method == "expm":
        if t_eval is not None:
            raise InvalidInputError("t_eval is supported on the ODE route only")
        # |0><0| is the first basis vector of the flattened density matrix
        return expm(gen)[:, :, 0].reshape(n, 3, 3)
    if method != "ode":
        raise InvalidInputError(f"unknown solver method {method!r}")

    rho0 = np.zeros((n, 9), complex)
    rho0[:, 0] = 1.0

    def rhs(t, y):
        # einsum loops over the pairs in C; batched matmul would make one
        # BLAS call per 9x9 block
        return np.einsum("nab,nb->na", gen, y.reshape(n, 9)).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), rho0.ravel(), method=DOP853, rtol=rtol, atol=atol,
                    t_eval=[1.0] if t_eval is None else t_eval)
    if not sol.success:
        raise SimulationError(f"rabi integration failed: {sol.message}")
    out = sol.y.T.reshape(len(sol.t), n, 3, 3)
    return out[-1] if t_eval is None else out


def short_lifetime_parameters(config: RabiConfig) -> tuple[float, float]:
    """Effective (phi0, n0) of the incoherent single-absorber limit:
    phi0 = -t_L Delta tau^2 Omega_0^2 / (1 + 4 Delta^2 tau^2),
    n0 = t_L tau Omega_0^2 / (1 + 4 Delta^2 tau^2)."""
    area, det, tau = config.pulse_area, config.detuning, config.lifetime
    denom = 1.0 + 4.0 * det * det * tau * tau
    return -det * tau * tau * area * area / denom, tau * area * area / denom


def rabi_short_lifetime_limit(config: RabiConfig) -> TwoPointKernel:
    """Closed-form kernel of the short-lifetime reduction (tau << t_L):
    K_00(x,x') = e^{-n0 (c^2 + c'^2)/2} e^{i phi0 (c^2 - c'^2)} with the
    mapped parameters of short_lifetime_parameters."""
    if config.lifetime > SHORT_LIFETIME_MAX:
        raise RegimeError(
            f"short-lifetime limit requires tau <= t_L/50, got tau = {config.lifetime} t_L")
    phi0, n0 = short_lifetime_parameters(config)

    def evaluator(x, xp):
        c2 = np.cos(np.pi * x) ** 2
        cp2 = np.cos(np.pi * xp) ** 2
        vals = np.exp(-0.5 * n0 * (c2 + cp2)) * np.exp(1j * phi0 * (c2 - cp2))
        return vals[None, :]

    return TwoPointKernel(model="rabi-short-lifetime", channels=("00",), evaluator=evaluator)


# ---------------------------------------------------------------------------
# far field: Kirchhoff integral and phase-space pipeline
# ---------------------------------------------------------------------------

DENSE_BLOCK = 1 << 20    # phase-matrix entries per row block of a dense sum


def _dense_sum(x: np.ndarray, q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c_k e^{-2 pi i x_m q_k}, built from row blocks of the dense
    x x q phase matrix so that memory stays bounded."""
    out = np.empty(x.size, complex)
    step = max(1, DENSE_BLOCK // q.size)
    for i in range(0, x.size, step):
        phase = np.exp(-2j * np.pi * np.outer(x[i:i + step], q))
        out[i:i + step] = (phase * c[None, :]).sum(axis=1)
    return out


def farfield_kirchhoff(config: FarFieldConfig, ell: int = 0,
                       n_aperture: int = 8193) -> ScreenDensity:
    """Screen density as a Kirchhoff integral over the slit aperture,
    |integral dq e^{2 pi i (q^2 d/Dx - q x/Dx)} M_l(d q)|^2 / (D/d).

    The slit transmits |x| <= D/2.  Dual route to farfield_densities.
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
    amp = _dense_sum(config.screen, q, t * wts)
    return ScreenDensity(config.screen.copy(), np.abs(amp) ** 2 / dd, ell)


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
    flight -> screen density; consistency oracle for farfield_densities in
    the Fraunhofer regime.

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
    return ScreenDensity(np.asarray(screen, float).copy(), dens)


# ---------------------------------------------------------------------------
# Bessel-function sums of the measurement operators
# ---------------------------------------------------------------------------

@dataclass
class DiffractionAmplitudes:
    """Plane-wave diffraction amplitudes keyed by momentum offset in units
    of hbar k_L.  Offsets carry the parity of the absorption count."""

    ell: int
    amplitudes: dict = field(default_factory=dict)

    def probability(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def offsets(self):
        return sorted(self.amplitudes)


def plane_wave_diffraction(profile: MeasurementProfile, cutoff: int | None = None,
                           tail: float = 1e-10) -> DiffractionAmplitudes:
    """Diffraction amplitudes of M_l acting on a plane wave.

    Amplitude at offset (2 nu + l - 2n) hbar k_L is
    e^{i phi0/2 - n0/4} 2^{-l} sqrt(n0^l/l!) I_nu(i phi0/2 - n0/4) C(l, n),
    accumulated coherently over (nu, n).  `cutoff` bounds |nu|; amplitudes
    dropped at the boundary must have modulus below `tail`, else CutoffError.
    """
    g = profile.grating
    ell = profile.ell
    a = 0.5j * g.phi0 - 0.25 * g.n0
    pref = math.exp(-0.25 * g.n0) * complex(math.cos(0.5 * g.phi0), math.sin(0.5 * g.phi0))
    pref *= 2.0**-ell * math.sqrt(g.n0**ell / math.factorial(ell)) if ell else 1.0
    if cutoff is None:
        cutoff = max(8, int(2 * abs(a)) + 12)
    nus = range(-cutoff, cutoff + 1)
    bess = dict(zip(nus, iv(np.array(nus), a)))
    edge = max(abs(pref * bess[cutoff]), abs(pref * bess[-cutoff]))
    if edge >= tail:
        raise CutoffError(
            f"cutoff {cutoff} too small: boundary amplitude {edge:.2e} >= {tail:.0e}")
    amps: dict[int, complex] = {}
    for nu in nus:
        base = pref * bess[nu]
        for n in range(ell + 1):
            q = 2 * nu + ell - 2 * n
            amps[q] = amps.get(q, 0.0) + base * math.comb(ell, n)
    amps = {q: a for q, a in amps.items() if abs(a) >= tail}
    return DiffractionAmplitudes(ell=ell, amplitudes=amps)


def mean_transmission_closed(grating: GratingParameters, ell: int,
                             open_fraction: float) -> float:
    """Mean conditional signal S_bar_l = f^2 B_0(0; l), the transmission
    probability of molecules with absorption count l, as a direct double sum
    over recoil splittings with modified Bessel weights (independent of the
    Talbot coefficient route)."""
    n0 = grating.n0
    s = 0.0
    for n in range(ell + 1):
        for r in range(n + 1):
            s += float(iv(2 * r - n, -0.5 * n0)) \
                / (2.0**n * math.factorial(r) * math.factorial(n - r) * math.factorial(ell - n))
    return open_fraction**2 * math.exp(-0.5 * n0) * (0.5 * n0) ** ell * s
