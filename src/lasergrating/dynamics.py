"""Internal-state ladder dynamics of the grating interaction.

The master equation is diagonal in the position pair (x, x'), so each pair
evolves as an independent lower-bidiagonal linear ODE envelope(t) A y over
the internal ladder.  A does not depend on t and both envelopes integrate to
one, so the kernel K_l(x, x') = [exp(A) y0]_l is the same closed form
(confluent hypergeometric, ladder_analytic) for either envelope; it is the
production route of the `ladder_kernel` lines.  Its channels stop at the
Poisson cutoff ell_max and come from one Gauss-Legendre rule summed node by
node in numpy (specfun.hyp1f1_ladder_quad), so no BLAS kernel touches them.
Summed over every absorption count the kernel is
M_0(x) conj M_0(x') [1 + y (e^w - 1) / w], y = n0 c c',
w = i (eta_p - 1) dphi - (eta_a - 1) nbar + eta_a y (DLMF 13.4.1); ladder
visibilities take its Talbot coefficients in closed form (the "ladder" kind
of talbot.ClosedForm).  The adaptive ODE of either envelope, the
measurement-operator kernel and the first-absorption-time quadrature are
oracles of the tests (tests/oracles.py).  Internal ladder energies only
contribute a global phase per level and drop out of the populations, so
they are omitted from the integrated equations.
"""

from __future__ import annotations

import numpy as np

from .grating import poisson_ell_max
from .params import GratingParameters
from .specfun import hyp1f1_ladder_quad

# pulse envelopes of the ladder equations: "gaussian" is the physical pulse
# gamma_0(t) with integral n0, "constant" a flat pulse of duration t_L; both
# give the same kernel
ENVELOPES = ("gaussian", "constant")


def _pair_coefficients(x, xp, grating: GratingParameters):
    c = np.cos(np.pi * x)
    cp = np.cos(np.pi * xp)
    dphi = grating.phi0 * (c * c - cp * cp)
    nbar = 0.5 * grating.n0 * (c * c + cp * cp)
    return c, cp, dphi, nbar


def ladder_analytic(x, xp, grating: GratingParameters, ell_max: int | None = None) -> np.ndarray:
    """Closed-form ladder channels for either envelope,
    K_l = M_l(x) conj(M_l(x')) eta_a^{l-1} 1F1(l; l+1; z(x, x')) for
    l = 0 .. ell_max (default: poisson_ell_max) over paired 1-D arrays of
    positions: shape (ell_max + 1, len(x))."""
    if ell_max is None:
        ell_max = poisson_ell_max(grating)
    g = grating
    c, cp, dphi, nbar = _pair_coefficients(np.asarray(x, float), np.asarray(xp, float), g)
    out = np.empty((ell_max + 1, c.size), complex)
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
