"""Three-level Rabi model of the grating: ground |0>, excited |1> with
lifetime tau decaying into a dark state |2>, driven at the position-dependent
Rabi frequency Omega(x) = Omega_0 cos(pi x).

All times are expressed in units of the interaction time t_L (constant
envelope).  The two-point master equation evolves rho(x, x') with the
Hamiltonian acting at x from the left and at x' from the right and the
position-independent jump |2><1|/sqrt(tau).  The jump never feeds the
driven {|0>,|1>} sector, so the production route is closed form:
K_00(x,x') = c0(x) conj(c0(x')) and p_1 = |c1|^2 with the damped two-level
amplitudes of `amplitudes`; K_00 is rank one, so its Talbot coefficients
come from one FFT of c0 (`rabi_source`).  The nine-element master equation
(ODE or matrix exponential) and its short-lifetime limit are oracles of the
tests (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RegimeError
from .specfun import sinc
from . import nearfield, talbot

MAX_GROWTH = 700.0  # largest exponent t/(4 tau) the closed-form amplitudes take


@dataclass
class RabiConfig:
    """Drive parameters in interaction-time units.

    pulse_area: Omega_0 t_L at the antinode
    detuning: Delta t_L
    lifetime: tau / t_L
    n_points: points of the period grid of the populations of rabi_solve
    """

    pulse_area: float
    detuning: float = 0.0
    lifetime: float = 1.0
    n_points: int = 256

    def __post_init__(self):
        if not all(map(math.isfinite, (self.pulse_area, self.detuning, self.lifetime))):
            raise InvalidInputError("pulse area, detuning and lifetime must be finite")
        if self.lifetime <= 0:
            raise InvalidInputError("excited-state lifetime must be positive")
        if self.pulse_area < 0:
            raise InvalidInputError("pulse area must be >= 0")


def amplitudes(omega_tl, det_tl: float, tau_over_tl: float, t: float = 1.0):
    """(c0, c1) = exp(-i H_eff t) |0> after a constant pulse of duration t
    (units of t_L), H_eff = [[0, W/2], [W/2, d]], d = -D - i/(2 tau),
    s^2 = d^2 + W^2: c0 = e^{-i d t/2} [cos(s t/2) + i (d t/2) sinc(s t/2)],
    c1 = -i (W t/2) sinc(s t/2) e^{-i d t/2}.  Both are entire in s^2, so the
    exceptional point s = 0 is not special.  As |Im s| <= |Im d|, cos(s t/2)
    grows at most as e^{t/(4 tau)}; beyond e^700 it would overflow, so
    tau < t/2800 raises RegimeError."""
    if 0.25 * t / tau_over_tl > MAX_GROWTH:
        raise RegimeError(f"lifetime_tl = {tau_over_tl:g} is below the range of the closed-form "
                          f"amplitudes: tau < t/2800 = {t / 2800:.3g} t_L overflows them")
    w = np.asarray(omega_tl)
    d = -det_tl - 0.5j / tau_over_tl
    half = 0.5 * t * np.sqrt(d * d + w * w)
    phase = np.exp(-0.5j * d * t)
    sc = sinc(half)
    return phase * (np.cos(half) + 0.5j * d * t * sc), -0.5j * w * t * sc * phase


@dataclass
class RabiProfile:
    """Populations (p0, p1, p2) of the three levels after the pulse, on the
    period grid `positions`."""

    positions: np.ndarray
    populations: np.ndarray  # shape (3, n_points)

    def transmission_profile(self):
        """p_0(x) = K_00(x, x) over one period."""
        return self.positions, self.populations[0]


def rabi_solve(config: RabiConfig) -> RabiProfile:
    """Closed-form populations (p0, p1, p2) = (|c0|^2, |c1|^2,
    1 - |c0|^2 - |c1|^2) on the period grid."""
    xs = np.arange(config.n_points) / config.n_points
    c0, c1 = amplitudes(config.pulse_area * np.cos(np.pi * xs), config.detuning,
                        config.lifetime)
    p0, p1 = np.abs(c0) ** 2, np.abs(c1) ** 2
    return RabiProfile(positions=xs, populations=np.stack([p0, p1, 1.0 - p0 - p1]))


def rabi_source(config: RabiConfig) -> talbot.RankOneSource:
    """Talbot coefficients of K_00 = c0(x) conj c0(x'); c0 oscillates like
    cos((pulse_area/2) cos(pi x)), with Fourier coefficients decaying beyond
    order pulse_area/4."""
    return talbot.RankOneSource(
        lambda x: amplitudes(config.pulse_area * np.cos(np.pi * x), config.detuning,
                             config.lifetime)[0],
        0.25 * config.pulse_area)


def rabi_kdtli(config: RabiConfig, open_fraction: float, talbot_parameter: float,
               j_max: int = 24) -> nearfield.FringeSignal:
    """KDTLI fringe signal for ground-state-only detection: the coefficients
    of `rabi_source` into the fringe synthesis."""
    cfg = nearfield.KdtliConfig(
        grating=None,
        open_fraction=open_fraction,
        talbot_parameter=talbot_parameter,
        source=rabi_source(config),
        j_max=j_max,
    )
    return nearfield.kdtli_signal(cfg)
