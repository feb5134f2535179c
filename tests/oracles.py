"""Sampled reference routes for the tests.

Production takes every Talbot coefficient from a closed form (`talbot`).
The routes here sample a two-point kernel K(x, x') instead and take the
Fourier coefficient numerically, so they share nothing with the closed forms
but the kernel itself:

* `KernelSource`: rows(orders, xi) and pairs(orders, xi) from one FFT per
  distinct kernel line K(u - xi/2, u + xi/2), sampled on n_points values of u;
* `b_numeric_oracle`: the trapezoid of one coefficient over a kernel line;
* `channel` and `SummedLadderKernel`: one absorption count of a
  TwoPointKernel, and the ladder kernel summed over every count in closed
  form, K = M_0 conj M_0 [1 + y expm1(w) / w], as kernels with pair_values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lasergrating.dynamics import _pair_coefficients
from lasergrating.errors import InvalidInputError, ResolutionError
from lasergrating.grating import MeasurementProfile, m_ell

NYQUIST_MARGIN = 32
LINE_BLOCK = 1 << 14  # kernel pairs per evaluator call of KernelSource.rows


def _check_grid(n_points: int, j_max: int):
    if n_points < 512:
        raise ResolutionError("kernel must be sampled on >= 512 points per period")
    if n_points // 2 < j_max + NYQUIST_MARGIN:
        raise ResolutionError(
            f"grid Nyquist order {n_points // 2} < |j| + {NYQUIST_MARGIN}")


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
