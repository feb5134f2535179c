"""Generalized-measurement description of the standing-wave grating:
position-space operators M_l(x) and Poisson absorption probabilities.  The
plane-wave diffraction amplitudes of M_l, a Bessel sum over recoil orders,
are an oracle of the tests (tests/oracles.py).

Positions are dimensionless (units of the grating period d) throughout, so
k_L x = pi * x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, InvalidInputError
from .params import GratingParameters

POISSON_TAIL = 1e-10


@dataclass(frozen=True)
class MeasurementProfile:
    """A grating together with a fixed absorbed-photon count."""

    grating: GratingParameters
    ell: int = 0

    def __post_init__(self):
        if self.ell < 0:
            raise InvalidInputError(f"absorption count must be >= 0, got {self.ell}")


def mean_absorption(x, grating: GratingParameters):
    """Mean absorption number n(x) = n0 cos^2(pi x)."""
    return grating.n0 * np.cos(np.pi * np.asarray(x, float)) ** 2


def m_ell(x, profile: MeasurementProfile):
    """Measurement operator M_l(x) = sqrt(n0^l/l!) cos^l(pi x) e^{i phi(x) - n(x)/2}."""
    g = profile.grating
    ell = profile.ell
    x = np.asarray(x, float)
    c = np.cos(np.pi * x)
    pref = math.sqrt(g.n0**ell / math.factorial(ell)) if ell else 1.0
    out = pref * c**ell * np.exp(1j * g.phi0 * c**2 - 0.5 * g.n0 * c**2)
    return out if out.ndim else complex(out)


def absorption_probability(x, ell: int, grating: GratingParameters):
    """Poisson probability p_l(x) = e^{-n(x)} n(x)^l / l!; equals |M_l(x)|^2."""
    if ell < 0:
        raise InvalidInputError("absorption count must be >= 0")
    n = mean_absorption(x, grating)
    out = np.exp(-n) * n**ell / math.factorial(ell)
    return out if np.ndim(out) else float(out)


def poisson_ell_max(grating: GratingParameters, tail: float = POISSON_TAIL) -> int:
    """Smallest L with antinode Poisson tail below `tail`.

    For excited-state absorption ratios eta_a > 1 the effective antinode
    rate max(1, eta_a) * n0 bounds the ladder occupation from above.
    """
    rate = max(1.0, grating.eta_a) * grating.n0
    if rate == 0.0:
        return 0
    term = math.exp(-rate)
    cum = term
    ell = 0
    while 1.0 - cum > tail:
        ell += 1
        term *= rate / ell
        cum += term
        if ell > 10_000:
            raise CutoffError("Poisson tail rule did not terminate")
    return ell
