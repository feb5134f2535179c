"""Internal-state ladder dynamics of the grating interaction.

The master equation is diagonal in the position pair (x, x'), so each pair
evolves as an independent lower-bidiagonal linear ODE envelope(t) A y over
the internal ladder.  A does not depend on t and both envelopes integrate to
one, so the kernel K_l(x, x') = [exp(A) y0]_l is the same closed form
(confluent hypergeometric, ladder_analytic) for either envelope; it is the
production route of the `ladder_kernel` lines.  Its channels stop at the
Poisson cutoff ell_max and come from one Gauss-Legendre product
(specfun.hyp1f1_ladder_quad).  Summed over every absorption count the kernel
is M_0(x) conj M_0(x') [1 + y (e^w - 1) / w], y = n0 c c',
w = i (eta_p - 1) dphi - (eta_a - 1) nbar + eta_a y (DLMF 13.4.1); ladder
visibilities take its Talbot coefficients in closed form (the "ladder" kind
of talbot.ClosedForm).  The adaptive ODE (ladder_ode_solve) and the
first-absorption-time quadrature are kept as oracles for the tests.
Internal ladder energies only contribute a global phase per level and drop
out of the populations, so they are omitted from the integrated equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SimulationError
from .grating import MeasurementProfile, m_ell, poisson_ell_max
from .params import GratingParameters
from .specfun import hyp1f1_ladder_quad

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
    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        if self.envelope not in ENVELOPES:
            raise InvalidInputError(f"unknown envelope {self.envelope!r}")
        if self.ell_max is None:
            self.ell_max = poisson_ell_max(self.grating)


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


def _pair_coefficients(x, xp, grating: GratingParameters):
    c = np.cos(np.pi * x)
    cp = np.cos(np.pi * xp)
    dphi = grating.phi0 * (c * c - cp * cp)
    nbar = 0.5 * grating.n0 * (c * c + cp * cp)
    return c, cp, dphi, nbar


def _ode_kernel_values(x, xp, config: LadderConfig) -> np.ndarray:
    from scipy.integrate import solve_ivp
    from .ode import DOP853
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
    )


def _analytic_kernel_values(x, xp, config: LadderConfig) -> np.ndarray:
    g = config.grating
    ell_max = config.ell_max
    c, cp, dphi, nbar = _pair_coefficients(x, xp, g)
    out = np.empty((ell_max + 1, x.size), complex)
    out[0] = np.exp(1j * dphi - nbar)        # M_0(x) conj(M_0(x'))
    if ell_max:
        ells = np.arange(1, ell_max + 1)[:, None]
        # M_l(x) conj(M_l(x')) = M_0(x) conj(M_0(x')) (n0 c c')^l / l!
        weight = g.n0 * c * cp / ells
        for ell in range(1, ell_max):
            weight[ell] *= weight[ell - 1]
        weight *= g.eta_a ** (ells - 1)
        np.multiply(weight, out[0], out=out[1:])
        z = 1j * (g.eta_p - 1.0) * dphi - (g.eta_a - 1.0) * nbar
        out[1:] *= hyp1f1_ladder_quad(ell_max, z)
    return out


def ladder_analytic(config: LadderConfig) -> TwoPointKernel:
    """Closed-form kernel for either envelope,
    K_l = M_l(x) conj(M_l(x')) eta_a^{l-1} 1F1(l; l+1; z(x, x')) for
    l <= ell_max."""
    return TwoPointKernel(
        model="ladder-analytic",
        channels=tuple(range(config.ell_max + 1)),
        evaluator=lambda x, xp: _analytic_kernel_values(x, xp, config),
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
