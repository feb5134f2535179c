"""Reference computations for checking lasergrating outputs.

Everything here is written from the physics definitions with numpy and
scipy alone; nothing imports lasergrating, so a fault in the package cannot
reach the reference it is checked against.

Conventions (positions in units of the grating period d, c = cos(pi x)):

* Talbot coefficient B_j(xi) = mean over u in [0, 1) of
  e^{-2 pi i j u} K(u - xi/2, u + xi/2), taken as an FFT of the sampled line.
* Unconditional kernel K = exp(i phi0 (c^2 - c'^2) - n0 (c^2 + c'^2)/2 + n0 c c');
  the classical random-walk variant is the same with phi0 -> -phi0.
* Conditional kernel for l absorbed photons K_l = M_l(x) conj(M_l(x')) with
  M_l = sqrt(n0^l / l!) c^l exp(i phi0 c^2 - n0 c^2 / 2).
* Fringe component S_j = f^2 sinc^2(j pi f) B_2j(j L/L_T).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.ndimage import correlate1d

POISSON_TAIL = 1e-10
LINE_POINTS = 1024


def poisson_cutoff(rate: float, tail: float = POISSON_TAIL) -> int:
    """Smallest L with P(N > L) <= tail for N ~ Poisson(rate)."""
    if rate == 0.0:
        return 0
    term = cum = math.exp(-rate)
    ell = 0
    while 1.0 - cum > tail:
        ell += 1
        term *= rate / ell
        cum += term
    return ell


# ---------------------------------------------------------------------------
# grating kernels
# ---------------------------------------------------------------------------

def unconditional_kernel(phi0: float, n0: float, classical: bool = False):
    sign = -1.0 if classical else 1.0

    def kernel(x, xp):
        c, cp = np.cos(np.pi * x), np.cos(np.pi * xp)
        return np.exp(1j * sign * phi0 * (c * c - cp * cp)
                      - 0.5 * n0 * (c * c + cp * cp) + n0 * c * cp)

    return kernel


def measurement_operator(x, phi0: float, n0: float, ell: int):
    c = np.cos(np.pi * np.asarray(x, float))
    return math.sqrt(n0 ** ell / math.factorial(ell)) * c ** ell \
        * np.exp(1j * phi0 * c * c - 0.5 * n0 * c * c)


def conditional_kernel(phi0: float, n0: float, ell: int):
    def kernel(x, xp):
        return measurement_operator(x, phi0, n0, ell) \
            * np.conj(measurement_operator(xp, phi0, n0, ell))

    return kernel


def kernel_for(curve, phi0: float, n0: float):
    """Kernel for a curve label: 'quantum', 'classical' or an absorption count."""
    if curve == "quantum":
        return unconditional_kernel(phi0, n0)
    if curve == "classical":
        return unconditional_kernel(phi0, n0, classical=True)
    return conditional_kernel(phi0, n0, int(curve))


# ---------------------------------------------------------------------------
# Talbot coefficients and fringe signals
# ---------------------------------------------------------------------------

def _lines(kernel, xis, n: int):
    u = np.arange(n) / n
    xis = np.asarray(xis, float)[:, None]
    return kernel(u[None, :] - 0.5 * xis, u[None, :] + 0.5 * xis)


def talbot_table(kernel, orders, xis, n: int = LINE_POINTS):
    """B_j(xi) for every order and xi, shape (len(orders), len(xis))."""
    coeffs = np.fft.fft(_lines(kernel, xis, n), axis=1) / n
    return coeffs[:, np.asarray(orders) % n].T


def talbot_pairs(kernel, orders, xis, n: int = LINE_POINTS):
    """B_{orders[k]}(xis[k]) for paired orders and arguments."""
    u = np.arange(n) / n
    lines = _lines(kernel, xis, n)
    phases = np.exp(-2j * np.pi * np.outer(np.asarray(orders, float), u))
    return (lines * phases).mean(axis=1)


def fringe_components(kernel, open_fraction: float, talbot_parameter: float,
                      j_max: int = 32, n: int = LINE_POINTS):
    """S_j for j = -j_max..j_max."""
    j = np.arange(-j_max, j_max + 1)
    weight = open_fraction ** 2 * np.sinc(j * open_fraction) ** 2
    return weight * talbot_pairs(kernel, 2 * j, j * talbot_parameter, n)


def fringe_signal(components, n_shift: int = 512):
    """Real signal on x_s = k / n_shift from components S_j, j = -J..J."""
    j_max = (len(components) - 1) // 2
    j = np.arange(-j_max, j_max + 1)
    xs = np.arange(n_shift) / n_shift
    return (components[None, :] * np.exp(2j * np.pi * np.outer(xs, j))).sum(axis=1).real


def kdtli_signal(kernel, open_fraction: float, talbot_parameter: float,
                 j_max: int = 32, velocity_spread: float = 0.0, n: int = LINE_POINTS,
                 n_samples: int = 21, n_sigma: float = 3.0):
    """Fringe signal, averaged over a gaussian velocity spread dv/v when it is
    positive: L/L_T scales as v/v_mean on n_samples points within n_sigma."""
    if velocity_spread <= 0:
        return fringe_signal(fringe_components(kernel, open_fraction,
                                               talbot_parameter, j_max, n))
    rel = 1.0 + velocity_spread * np.linspace(-n_sigma, n_sigma, n_samples)
    rel = rel[rel > 0.05]
    w = np.exp(-0.5 * ((rel - 1.0) / velocity_spread) ** 2)
    w /= w.sum()
    return sum(wk * fringe_signal(fringe_components(kernel, open_fraction,
                                                    talbot_parameter / rk, j_max, n))
               for wk, rk in zip(w, rel))


def sine_visibility(kernel, open_fraction: float, talbot_parameters,
                    n: int = LINE_POINTS):
    """2 sinc^2(pi f) Re[B_2(L/L_T) / B_0(0)] for each L/L_T."""
    lts = np.atleast_1d(np.asarray(talbot_parameters, float))
    b2 = talbot_pairs(kernel, np.full(lts.size, 2), lts, n)
    b0 = talbot_pairs(kernel, [0], [0.0], n)[0]
    return (2.0 * np.sinc(open_fraction) ** 2 * b2 / b0).real


def minmax_visibility(signal) -> float:
    return float((signal.max() - signal.min()) / (signal.max() + signal.min()))


# ---------------------------------------------------------------------------
# internal-state dynamics
# ---------------------------------------------------------------------------

def ladder_kernel(x, xp, phi0, n0, eta_p, eta_a, ell_max=None):
    """K_l(x, x') for l = 0..ell_max as exp(A) e_0 with the lower-bidiagonal
    ladder generator A; the pulse envelope drops out because it only
    rescales time and integrates to 1.  Shape (ell_max + 1, n_pairs)."""
    if ell_max is None:
        ell_max = poisson_cutoff(max(1.0, eta_a) * n0)
    c, cp = np.cos(np.pi * np.ravel(x)), np.cos(np.pi * np.ravel(xp))
    dphi = phi0 * (c * c - cp * cp)
    nbar = 0.5 * n0 * (c * c + cp * cp)
    size = ell_max + 1
    gen = np.zeros((c.size, size, size), complex)
    idx = np.arange(size)
    gen[:, 0, 0] = 1j * dphi - nbar
    gen[:, idx[1:], idx[1:]] = (1j * eta_p * dphi - eta_a * nbar)[:, None]
    gen[:, idx[1:], idx[:-1]] = (n0 * c * cp)[:, None] * eta_a ** np.minimum(idx[:-1], 1)
    return expm(gen)[:, :, 0].T


def ladder_line(xi, n_points, **params):
    u = np.arange(n_points) / n_points
    return ladder_kernel(u - 0.5 * xi, u + 0.5 * xi, **params)


def rabi_amplitudes(x, pulse_area, detuning, lifetime):
    """(c0, c1): ground and excited amplitudes after a unit-length pulse,
    exp(-i H_eff) |0> with H_eff = [[0, W/2], [W/2, -D - i/(2 tau)]] and
    W = pulse_area cos(pi x).  Decay leaves the driven pair for the dark
    state, so p_dark = 1 - |c0|^2 - |c1|^2."""
    w = pulse_area * np.cos(np.pi * np.ravel(np.asarray(x, float)))
    h = np.zeros((w.size, 2, 2), complex)
    h[:, 0, 1] = h[:, 1, 0] = 0.5 * w
    h[:, 1, 1] = -detuning - 0.5j / lifetime
    amp = expm(-1j * h)[:, :, 0]
    return amp[:, 0], amp[:, 1]


def rabi_ground_kernel(pulse_area, detuning, lifetime):
    """K_00(x, x') = c0(x) conj(c0(x'))."""
    def kernel(x, xp):
        shape = np.shape(x)
        c0x = rabi_amplitudes(x, pulse_area, detuning, lifetime)[0]
        c0p = rabi_amplitudes(xp, pulse_area, detuning, lifetime)[0]
        return (c0x * np.conj(c0p)).reshape(shape)

    return kernel


def summed_kernel(kernel_per_channel):
    """Channel sum of a (channels, pairs) kernel evaluator."""
    def kernel(x, xp):
        shape = np.shape(x)
        return kernel_per_channel(np.ravel(x), np.ravel(xp)).sum(axis=0).reshape(shape)

    return kernel


# ---------------------------------------------------------------------------
# far field
# ---------------------------------------------------------------------------

def kirchhoff_densities(screen, columns, collimator_ratio, period_over_sep,
                        n_aperture: int = 8193, chunk: int = 256):
    """Screen densities |integral dq e^{2 pi i (q^2 d/Dx - q x)} T(q)|^2 / (D/d)
    over the slit |q| <= D/(2d), one per aperture function T in `columns`
    (callables of q); Simpson rule on n_aperture points."""
    dd = collimator_ratio
    q = np.linspace(-0.5 * dd, 0.5 * dd, n_aperture)
    wts = np.full(q.size, 2.0)
    wts[1:-1:2] = 4.0
    wts[0] = wts[-1] = 1.0
    wts *= (q[1] - q[0]) / 3.0
    chirp = np.exp(2j * np.pi * period_over_sep * q * q) * wts
    tmat = np.stack([col(q) * chirp for col in columns], axis=1)
    screen = np.asarray(screen, float)
    amp = np.empty((screen.size, len(columns)), complex)
    for start in range(0, screen.size, chunk):
        block = screen[start:start + chunk]
        amp[start:start + chunk] = np.exp(-2j * np.pi * np.outer(block, q)) @ tmat
    return (np.abs(amp) ** 2 / dd).T


def farfield_reference(screen, ells, phi0, n0, collimator_ratio, period_over_sep):
    """Conditional densities for each count in `ells`; None stands for the
    unconditional density, the sum over every count up to the Poisson tail."""
    top = poisson_cutoff(n0)
    counts = sorted({e for e in ells if e is not None}
                    | (set(range(top + 1)) if None in ells else set()))
    cols = [lambda q, e=e: measurement_operator(q, phi0, n0, e) for e in counts]
    dens = dict(zip(counts, kirchhoff_densities(screen, cols, collimator_ratio,
                                                period_over_sep)))
    out = {e: dens[e] for e in ells if e is not None}
    if None in ells:
        out[None] = sum(dens[e] for e in range(top + 1))
    return out


def detector_smoothing(values, spacing: float, sigma: float):
    """Convolution with a gaussian of std sigma sampled out to 6 sigma and
    normalised on its samples; the screen is zero beyond its ends."""
    half = int(math.ceil(6.0 * sigma / spacing))
    k = np.exp(-0.5 * (np.arange(-half, half + 1) * spacing / sigma) ** 2)
    return correlate1d(np.asarray(values, float), k / k.sum(), mode="constant", cval=0.0)
