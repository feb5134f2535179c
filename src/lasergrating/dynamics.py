"""Internal-state ladder dynamics of the grating interaction.

The master equation is diagonal in the position pair (x, x'), so each pair
evolves as an independent lower-bidiagonal linear ODE envelope(t) A y over
the internal ladder.  A does not depend on t and both envelopes integrate to
one, so the kernel K_l(x, x') = [exp(A) y0]_l is the same closed form
(confluent hypergeometric, ladder_analytic) for either envelope; it is the
production route.  The adaptive ODE (ladder_ode_solve) and the
first-absorption-time quadrature are kept as oracles for the tests.
Internal ladder energies only contribute a global phase per level and drop
out of the populations, so they are omitted from the integrated equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import InvalidInputError, SimulationError
from .ode import DOP853
from .grating import MeasurementProfile, m_ell, poisson_ell_max
from .params import GratingParameters
from . import talbot

ENVELOPES = ("gaussian", "constant")
ENVELOPE_SPAN = 6.0  # gaussian integration half-range in units of w_z/v_z


@dataclass
class LadderConfig:
    """Ladder-model configuration.

    envelope "gaussian" integrates the physical pulse gamma_0(t) with
    integral n0; "constant" uses a flat pulse of duration t_L (same kernel).
    """

    grating: GratingParameters
    envelope: str = "gaussian"
    ell_max: int | None = None
    n_points: int = 256
    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        if self.envelope not in ENVELOPES:
            raise InvalidInputError(f"unknown envelope {self.envelope!r}")
        if self.ell_max is None:
            self.ell_max = poisson_ell_max(self.grating)


@dataclass
class TwoPointKernel:
    """Multiplicative grating kernel K_l(x, x') with lazy line evaluation.

    `evaluator(x, xp)` returns an array of shape (n_channels, n_pairs);
    channels are absorption counts for ladder kernels.  pair_values sums
    channels, making the kernel usable directly as an unconditional kernel
    in talbot.b_numeric_oracle.
    """

    model: str
    channels: tuple
    evaluator: object
    meta: dict = field(default_factory=dict)
    _lines: dict = field(default_factory=dict, repr=False)

    def channel_values(self, x, xp) -> np.ndarray:
        x = np.asarray(x, float)
        out = self.evaluator(np.ravel(x), np.ravel(np.asarray(xp, float)))
        return out.reshape((len(self.channels),) + x.shape)

    def pair_values(self, x, xp) -> np.ndarray:
        return self.channel_values(x, xp).sum(axis=0)

    def channel(self, ell) -> "ChannelKernel":
        if ell not in self.channels:
            raise InvalidInputError(f"kernel has no channel {ell!r}")
        return ChannelKernel(self, self.channels.index(ell))

    def line(self, xi: float, n_points: int) -> np.ndarray:
        """K_l sampled on x = u - xi/2, x' = u + xi/2, u uniform on [0, 1)."""
        key = (round(float(xi), 12), n_points)
        if key not in self._lines:
            u = np.arange(n_points) / n_points
            self._lines[key] = self.channel_values(u - 0.5 * xi, u + 0.5 * xi)
        return self._lines[key]

    def line_values(self, xi: float, n_points: int) -> np.ndarray:
        """Channel-summed kernel line (cache-backed)."""
        return self.line(xi, n_points).sum(axis=0)

    def prefetch_lines(self, xis, n_points: int):
        """Batch-solve all requested lines in one evaluator call."""
        todo = [xi for xi in xis
                if (round(float(xi), 12), n_points) not in self._lines]
        if not todo:
            return
        u = np.arange(n_points) / n_points
        xs = np.concatenate([u - 0.5 * xi for xi in todo])
        xps = np.concatenate([u + 0.5 * xi for xi in todo])
        vals = self.evaluator(xs, xps)
        for k, xi in enumerate(todo):
            block = vals[:, k * n_points:(k + 1) * n_points]
            self._lines[(round(float(xi), 12), n_points)] = block

    def write_csv(self, path, xi: float = 0.0, n_points: int = 256):
        from .output import format_float
        vals = self.line(xi, n_points)
        u = np.arange(n_points) / n_points
        with open(path, "w", newline="") as fh:
            fh.write("channel,u,x,xp,re,im\n")
            for ic, ch in enumerate(self.channels):
                for k in range(n_points):
                    v = vals[ic, k]
                    fh.write(f"{ch},{format_float(u[k])},{format_float(u[k] - 0.5 * xi)},"
                             f"{format_float(u[k] + 0.5 * xi)},"
                             f"{format_float(v.real)},{format_float(v.imag)}\n")


@dataclass
class ChannelKernel:
    """Single-channel view of a TwoPointKernel (usable as a kernel itself)."""

    parent: TwoPointKernel
    index: int

    def pair_values(self, x, xp):
        return self.parent.channel_values(x, xp)[self.index]

    def line_values(self, xi: float, n_points: int) -> np.ndarray:
        return self.parent.line(xi, n_points)[self.index]


def _pair_coefficients(x, xp, grating: GratingParameters):
    c = np.cos(np.pi * x)
    cp = np.cos(np.pi * xp)
    dphi = grating.phi0 * (c * c - cp * cp)
    nbar = 0.5 * grating.n0 * (c * c + cp * cp)
    return c, cp, dphi, nbar


def _ode_kernel_values(x, xp, config: LadderConfig) -> np.ndarray:
    g = config.grating
    ell_max = config.ell_max
    c, cp, dphi, nbar = _pair_coefficients(x, xp, g)
    c0 = 1j * dphi - nbar
    c1 = 1j * g.eta_p * dphi - g.eta_a * nbar
    w_first = g.n0 * c * cp
    w_up = g.eta_a * w_first
    n_pairs = x.size
    y0 = np.zeros((ell_max + 1, n_pairs), complex)
    y0[0] = 1.0

    if config.envelope == "gaussian":
        span = (-ENVELOPE_SPAN, ENVELOPE_SPAN)
        norm = 1.0 / math.sqrt(math.pi / 2.0)

        def envelope(t):
            return norm * math.exp(-2.0 * t * t)
    else:
        span = (0.0, 1.0)

        def envelope(t):
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
        return (envelope(t) * dy).ravel()

    sol = solve_ivp(rhs, span, y0.ravel(), method=DOP853,
                    rtol=config.rtol, atol=config.atol, t_eval=[span[1]])
    if not sol.success:
        raise SimulationError(f"ladder integration failed: {sol.message}")
    return sol.y[:, -1].reshape(ell_max + 1, n_pairs)


def ladder_ode_solve(config: LadderConfig) -> TwoPointKernel:
    """Oracle kernel: adaptive integration of the coupled ladder equations."""
    return TwoPointKernel(
        model=f"ladder-ode-{config.envelope}",
        channels=tuple(range(config.ell_max + 1)),
        evaluator=lambda x, xp: _ode_kernel_values(x, xp, config),
        meta={"grating": config.grating, "envelope": config.envelope},
    )


def _analytic_kernel_values(x, xp, config: LadderConfig) -> np.ndarray:
    from .specfun import hyp1f1_ladder
    g = config.grating
    ell_max = config.ell_max
    c, cp, dphi, nbar = _pair_coefficients(x, xp, g)
    z = 1j * (g.eta_p - 1.0) * dphi - (g.eta_a - 1.0) * nbar
    out = np.empty((ell_max + 1, x.size), complex)
    base = np.exp(1j * dphi - nbar)          # M_0(x) conj(M_0(x'))
    out[0] = base
    mm = base.copy()
    for ell in range(1, ell_max + 1):
        mm = mm * (g.n0 * c * cp / ell)      # M_l(x) conj(M_l(x'))
        out[ell] = mm * g.eta_a ** (ell - 1) * hyp1f1_ladder(ell, z)
    return out


def ladder_analytic(config: LadderConfig) -> TwoPointKernel:
    """Closed-form kernel for either envelope,
    K_l = M_l(x) conj(M_l(x')) eta_a^{l-1} 1F1(l; l+1; z(x, x'))."""
    return TwoPointKernel(
        model="ladder-analytic",
        channels=tuple(range(config.ell_max + 1)),
        evaluator=lambda x, xp: _analytic_kernel_values(x, xp, config),
        meta={"grating": config.grating, "envelope": config.envelope},
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
                          evaluator=values, meta={"grating": grating})


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


def kernel_to_talbot(kernel: TwoPointKernel, xi_grid, j_max: int = 32,
                     n_points: int = 512) -> talbot.TalbotCoefficientSet:
    """Numeric-Fourier Talbot coefficients of a dynamical kernel, per channel
    and channel-summed, tabulated over a xi grid."""
    xi_grid = np.asarray(xi_grid, float)
    kernel.prefetch_lines(xi_grid, n_points)
    orders = np.arange(-j_max, j_max + 1)
    u = np.arange(n_points) / n_points
    phases = np.exp(-2j * np.pi * np.outer(orders, u)) / n_points
    tables = {ch: np.empty((orders.size, xi_grid.size), complex)
              for ch in kernel.channels}
    total = np.zeros((orders.size, xi_grid.size), complex)
    for ix, xi in enumerate(xi_grid):
        vals = kernel.line(float(xi), n_points)
        col = phases @ vals.T                    # (n_orders, n_channels)
        for ic, ch in enumerate(kernel.channels):
            tables[ch][:, ix] = col[:, ic]
        total[:, ix] = col.sum(axis=1)
    grating = kernel.meta.get("grating", GratingParameters(0.0, 0.0))
    out = talbot.TalbotCoefficientSet(grating=grating, xi=xi_grid, orders=orders)
    out.tables = {"sum": total, **tables}
    return out


def kernel_source(kernel: TwoPointKernel, channel="sum", n_points: int = 512):
    """B(j, xi) callable backed by the numeric Fourier reduction of a
    dynamical kernel; supports prefetching for batched line solves."""
    if channel == "sum":
        view = kernel
        label = kernel.model
    else:
        view = kernel.channel(channel)
        label = f"{kernel.model},ell={channel}"

    def source(j: int, xi: float) -> complex:
        return talbot.b_numeric_oracle(j, float(xi), view, n_points)

    def prefetch(pairs):
        kernel.prefetch_lines(sorted({round(float(xi), 12) for _, xi in pairs}), n_points)

    source.label = label
    source.prefetch = prefetch
    return source
