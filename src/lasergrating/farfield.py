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

The Talbot sums g_k run on the q grid folded by `talbot.fold_xi`: the
coefficients repeat with period 2 in q, and B_j(-q) = B_{-j}(q), so they are
evaluated once per distinct value of q folded onto [0, 1] (exact argument
reduction) and gathered, flipped in j where needed, at every q point.

The screen sum w(x_m) = sum_k g_k e^{2 pi i x_m q_k} runs as a centred
Bluestein chirp-z transform, so no screen x q matrix is built; the screen
must therefore be uniform, and FarFieldConfig rejects any other.  The
Kirchhoff integral over the slit and the phase-space pipeline, the two
independent routes the densities are checked against, are oracles of the
tests (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, ResolutionError
from .params import GratingParameters
from . import talbot

ALIAS_MARGIN = 4.0       # screen units kept clear of the aliased density, see _q_grid
Q_BLOCK = 1 << 16        # Talbot-table entries (orders x q) per block of the q sum


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
        if not 0 < self.collimator_ratio < math.inf:
            raise InvalidInputError("collimator ratio D/d must be finite and positive")
        if not 0 < self.period_over_sep < math.inf:
            raise InvalidInputError("d/Dx must be finite and positive")
        if not 0 <= self.sigma_det < math.inf:
            raise InvalidInputError("sigma_det must be finite and >= 0")
        self.screen = np.asarray(self.screen, float)
        if self.screen.ndim != 1 or self.screen.size == 0:
            raise InvalidInputError("screen must be a non-empty 1-D array of positions")
        if not np.isfinite(self.screen).all():
            raise InvalidInputError("screen positions must be finite")
        if not _is_uniform(self.screen):
            raise InvalidInputError("screen positions must be uniformly spaced")

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


def _sine_factor(orders: np.ndarray, q: np.ndarray, dd: float, ratio: float) -> np.ndarray:
    # sin[pi (D/d - |q|)(j - 2 q d/Dx)]/(j - 2 q d/Dx) as an (orders x q)
    # array, removable at j = 2q d/Dx
    a = np.pi * (dd - np.abs(q))
    den = orders[:, None] - 2.0 * q * ratio
    small = np.abs(den) < 1e-12
    den[small] = 1.0
    out = a * den
    np.sin(out, out=out)
    out /= den
    out[small] = np.broadcast_to(a, out.shape)[small]
    return out


def _q_grid(config: FarFieldConfig, j_max: int, ratio: float):
    dd = config.collimator_ratio
    if config.q_points_per_unit < 64:
        raise ResolutionError("need >= 64 quadrature points per unit q")
    n = int(2 * dd * config.q_points_per_unit) + 1
    q = np.linspace(-dd, dd, n)
    # the trapezoid sum repeats with period 1/dq in x; the density lies
    # within the orders' peaks at x = j/2 widened by the slit's Fresnel
    # shadow D/d * d/Dx, and the screen must stay clear of its next copy
    period = 1.0 / (q[1] - q[0])
    reach = float(np.max(np.abs(config.screen))) + 0.5 * j_max + dd * ratio + ALIAS_MARGIN
    if reach > period:
        raise ResolutionError(
            f"screen reaches the aliased copy of the density: max|x| + j_max/2 + "
            f"shadow + {ALIAS_MARGIN:g} = {reach:.4g} > {period:.4g}; "
            "raise q_points_per_unit")
    return q


def _is_uniform(v: np.ndarray) -> bool:
    if v.size < 3:
        return True
    grid = v[0] + np.arange(v.size) * ((v[-1] - v[0]) / (v.size - 1))
    return bool(np.max(np.abs(v - grid)) <= 8 * np.finfo(float).eps * np.max(np.abs(v)))


def _turns(coef: Fraction, n: np.ndarray) -> np.ndarray:
    """A value of order one congruent to coef * n modulo 1, for integer n.

    coef is split into a 21-bit head, whose product with |n| < 2**32 is
    exact in double precision and is reduced exactly, and a small tail, so
    the phase 2 pi coef n carries the round-off of its reduced size, not of
    its full size."""
    m, e = math.frexp(float(coef))
    head = math.ldexp(round(math.ldexp(m, 20)), e - 20)
    tail = float(coef - Fraction(head))
    n = np.asarray(n, float)
    v = head * n
    v -= np.round(v)
    return v + tail * n


def _screen_transform(x: np.ndarray, q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """w_m = sum_k c_k e^{2 pi i x_m q_k} over every point x_m of a uniform
    screen, for a uniform q grid.

    This is a centred Bluestein chirp-z transform: with
    x_m = x_c + m dx, q_k = q_c + k dq and m, k counted from the grid
    midpoints (half-integers for even sizes),
    m k = (m^2 + k^2 - (m - k)^2)/2 makes the sum over k a convolution with
    the chirp e^{-i pi dx dq n^2}, taken by FFT.  Centring keeps the largest
    chirp phase 4 times smaller than counting from the grid ends, and the
    phases are reduced exactly (integer squares, `_turns`) before rounding.
    """
    n_x, n_q = x.size, q.size
    x0, x1, q0, q1 = (Fraction(float(v)) for v in (x[0], x[-1], q[0], q[-1]))
    dx = (x1 - x0) / max(n_x - 1, 1)
    dq = (q1 - q0) / (n_q - 1)
    xc, qc = (x0 + x1) / 2, (q0 + q1) / 2
    beta = dx * dq / 8                       # pi dx dq m^2 = 2 pi beta (2m)^2
    m2 = 2 * np.arange(n_x) - (n_x - 1)      # 2m
    k2 = 2 * np.arange(n_q) - (n_q - 1)      # 2k
    # 2(m - k) at the lags 0 .. n_x - 1, then -(n_q - 1) .. -1 (wrapped)
    lag2 = np.concatenate((2 * np.arange(n_x), -2 * np.arange(n_q - 1, 0, -1))) + (n_q - n_x)
    size = 1 << (n_x + n_q - 2).bit_length()
    u = np.zeros(size, complex)
    u[:n_q] = c * np.exp(2j * np.pi * (_turns(xc * dq / 2, k2) + _turns(beta, k2 * k2)))
    chirp = np.exp(-2j * np.pi * _turns(beta, lag2 * lag2))
    h = np.zeros(size, complex)
    h[:n_x] = chirp[:n_x]
    h[size - n_q + 1:] = chirp[n_x:]
    conv = np.fft.ifft(np.fft.fft(u) * np.fft.fft(h))[:n_x]
    post = float((xc * qc) % 1) + _turns(qc * dx / 2, m2) + _turns(beta, m2 * m2)
    return conv * np.exp(2j * np.pi * post)


def _talbot_block(grating, j_max: int, distinct, ells, variant: str) -> np.ndarray:
    """Talbot rows (len(ells), 2 j_max + 1, len(distinct)) at folded q
    values: conditional for a count, unconditional for None.  A function of
    its own, so that the per-kind tables are freed before the q points
    gather from the stack."""
    counts = [ell for ell in ells if ell is not None]
    cond = iter(talbot.symmetric_rows(j_max, distinct, counts, grating) if counts else ())
    return np.stack([talbot.symmetric_rows(j_max, distinct, variant, grating)
                     if ell is None else next(cond) for ell in ells])


def _screen_coefficients(config: FarFieldConfig, ells, variant: str):
    """q grid and the weighted Talbot sums c_k = g(q_k) w_k of the screen
    transform (trapezoid weights w_k), one row per entry of `ells`: a count,
    or None for the unconditional sum.

    The q grid is folded once (`talbot.fold_xi`): the Talbot rows run on
    blocks of the distinct folded values, and each block's q points gather
    their rows, flipped in j where the fold says so, in blocks of their
    own.  Every array holds at most Q_BLOCK table entries, however often a
    folded value repeats."""
    ratio = config.period_over_sep
    j_max = config.order_cutoff()
    q = _q_grid(config, j_max, ratio)
    orders = np.arange(-j_max, j_max + 1)
    distinct, index, flip = talbot.fold_xi(q)
    by_value = np.argsort(index, kind="stable")
    step = max(1, Q_BLOCK // (len(ells) * orders.size))
    starts = np.searchsorted(index, np.arange(0, distinct.size + step, step), sorter=by_value)
    g = np.empty((len(ells), q.size))
    edge = 0.0
    for i, lo, hi in zip(range(0, distinct.size, step), starts, starts[1:]):
        rows = _talbot_block(config.grating, j_max, distinct[i:i + step], ells, variant)
        edge = max(edge, float(np.max(np.abs(rows[:, [0, -1]]))))
        for k in range(lo, hi, step):
            pts = by_value[k:min(k + step, hi)]
            for sel, tab in ((pts[~flip[pts]], rows), (pts[flip[pts]], rows[:, ::-1])):
                part = tab[:, :, index[sel] - i]
                part *= _sine_factor(orders, q[sel], config.collimator_ratio, ratio)
                g[:, sel] = part.sum(axis=1)
    if edge > config.tail:
        raise ResolutionError(
            f"order cutoff {j_max} too small: |B_jmax| = {edge:.2e} > {config.tail:.0e}")
    dq = q[1] - q[0]
    wts = np.full(q.size, dq)
    wts[0] = wts[-1] = 0.5 * dq
    return q, g * wts


def farfield_densities(config: FarFieldConfig, ells,
                       variant: str = "quantum") -> list[ScreenDensity]:
    """Screen densities from the Talbot-coefficient sum, one per entry of
    `ells`: conditional for a count, unconditional for None, from one pass
    over q.  The Fraunhofer limit is d/Dx -> 0: at period_over_sep = 1e-20
    the 2 q d/Dx term lies below half an ulp of every nonzero order."""
    q, c = _screen_coefficients(config, ells, variant)
    w = [_screen_transform(config.screen, q, ck) / (math.pi * config.collimator_ratio) for ck in c]
    return [ScreenDensity(config.screen.copy(), wk.real, ell) for ell, wk in zip(ells, w)]


def apply_detector_resolution(density: ScreenDensity, sigma: float) -> ScreenDensity:
    """Convolve with a normalized gaussian of std sigma (units of Dx).

    Preserves the screen integral; the grid spacing must resolve the kernel
    (spacing < sigma/4).
    """
    x = density.positions
    dx = x[1] - x[0]
    if sigma == 0.0:
        return ScreenDensity(x.copy(), density.values.copy(), density.ell)
    if dx >= sigma / 4.0:
        raise ResolutionError(
            f"grid spacing {dx:.3g} too coarse for sigma_det = {sigma:.3g}")
    half = int(math.ceil(6.0 * sigma / dx))
    k = np.exp(-0.5 * (np.arange(-half, half + 1) * dx / sigma) ** 2)
    k /= k.sum()
    smoothed = np.convolve(np.pad(density.values, half, mode="constant"), k, mode="same")
    smoothed = smoothed[half:-half]
    return ScreenDensity(x.copy(), smoothed, density.ell)
