"""Three-level Rabi model of the grating: ground |0>, excited |1> with
lifetime tau decaying into a dark state |2>, driven at the position-dependent
Rabi frequency Omega(x) = Omega_0 cos(pi x).

All times are expressed in units of the interaction time t_L (constant
envelope).  The two-point master equation evolves rho(x, x') with the
Hamiltonian acting at x from the left and at x' from the right and the
position-independent jump |2><1|/sqrt(tau).  The jump never feeds the
driven {|0>,|1>} sector, so the production route is closed form:
K_00(x,x') = c0(x) conj(c0(x')) and p_1 = |c1|^2 with the damped two-level
amplitudes of `amplitudes`.  solve_pairs integrates all nine elements (ODE
or matrix exponential) and is kept as the oracle of the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import InvalidInputError, RegimeError, SimulationError
from .ode import DOP853
from .specfun import sinc
from .params import GratingParameters
from .dynamics import TwoPointKernel, kernel_source
from . import nearfield

SHORT_LIFETIME_MAX = 1.0 / 50.0
MAX_GROWTH = 700.0  # largest exponent t/(4 tau) the closed-form amplitudes take


@dataclass
class RabiConfig:
    """Drive parameters in interaction-time units.

    pulse_area: Omega_0 t_L at the antinode
    detuning: Delta t_L
    lifetime: tau / t_L
    rtol, atol: tolerances of the solve_pairs ODE oracle
    """

    pulse_area: float
    detuning: float = 0.0
    lifetime: float = 1.0
    n_points: int = 256
    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        if self.lifetime <= 0:
            raise InvalidInputError("excited-state lifetime must be positive")
        if self.pulse_area < 0:
            raise InvalidInputError("pulse area must be >= 0")

    @classmethod
    def from_physical(cls, rabi_frequency: float, detuning: float, lifetime: float,
                      interaction_time: float, **kw) -> "RabiConfig":
        """Build from dimensional inputs (rad/s, rad/s, s, s)."""
        if interaction_time <= 0:
            raise InvalidInputError("interaction time must be positive")
        return cls(pulse_area=rabi_frequency * interaction_time,
                   detuning=detuning * interaction_time,
                   lifetime=lifetime / interaction_time, **kw)


def amplitudes(omega_tl, det_tl: float, tau_over_tl: float, t: float = 1.0):
    """(c0, c1) = exp(-i H_eff t) |0> after a constant pulse of duration t
    (units of t_L), H_eff = [[0, W/2], [W/2, d]], d = -D - i/(2 tau),
    s^2 = d^2 + W^2: c0 = e^{-i d t/2} [cos(s t/2) + i (d t/2) sinc(s t/2)],
    c1 = -i (W t/2) sinc(s t/2) e^{-i d t/2}.  Both are entire in s^2, so the
    exceptional point s = 0 is not special.  As |Im s| <= |Im d|, cos(s t/2)
    grows at most as e^{t/(4 tau)}; beyond e^700 it would overflow, so
    tau < t/2800 raises RegimeError (the short-lifetime limit holds there)."""
    if 0.25 * t / tau_over_tl > MAX_GROWTH:
        raise RegimeError(f"lifetime tau = {tau_over_tl} t_L is below the closed "
                          "form's range; use rabi_short_lifetime_limit")
    w = np.asarray(omega_tl)
    d = -det_tl - 0.5j / tau_over_tl
    half = 0.5 * t * np.sqrt(d * d + w * w)
    phase = np.exp(-0.5j * d * t)
    sc = sinc(half)
    return phase * (np.cos(half) + 0.5j * d * t * sc), -0.5j * w * t * sc * phase


def ground_amplitude(omega_tl, det_tl: float, tau_over_tl: float, t: float = 1.0):
    """Ground-state amplitude c0 of `amplitudes`."""
    out = amplitudes(omega_tl, det_tl, tau_over_tl, t)[0]
    return out if out.ndim else complex(out)


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


def solve_pairs(x, xp, config: RabiConfig, method: str = "ode",
                t_eval=None) -> np.ndarray:
    """Density matrices rho(x, x'; t = t_L) for each position pair, initial
    state |0><0|.  Returns shape (n_pairs, 3, 3), or (n_times, n_pairs, 3, 3)
    when t_eval is given (ODE route only)."""
    x = np.atleast_1d(np.asarray(x, float))
    xp = np.atleast_1d(np.asarray(xp, float))
    gen = _liouvillian(x, xp, config)
    n = x.size
    if method == "expm":
        if t_eval is not None:
            raise InvalidInputError("t_eval is supported on the ODE route only")
        from scipy.linalg import expm
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

    sol = solve_ivp(rhs, (0.0, 1.0), rho0.ravel(), method=DOP853, rtol=config.rtol,
                    atol=config.atol, t_eval=[1.0] if t_eval is None else t_eval)
    if not sol.success:
        raise SimulationError(f"rabi integration failed: {sol.message}")
    out = sol.y.T.reshape(len(sol.t), n, 3, 3)
    return out[-1] if t_eval is None else out


@dataclass
class RabiKernel:
    """Ground-state two-point kernel with diagnostic diagonal populations."""

    config: RabiConfig
    kernel: TwoPointKernel
    positions: np.ndarray = field(default=None)
    populations: np.ndarray = field(default=None)  # shape (3, n_points)

    def pair_values(self, x, xp):
        return self.kernel.pair_values(x, xp)

    def line_values(self, xi, n_points):
        return self.kernel.line_values(xi, n_points)

    def transmission_profile(self):
        """p_0(x) = K_00(x, x) over one period."""
        return self.positions, self.populations[0]


def rabi_solve(config: RabiConfig) -> RabiKernel:
    """Closed-form ground-state kernel K_00(x, x') = c0(x) conj(c0(x')) and
    the populations (p0, p1, p2) on the period grid."""

    def sector(x):
        return amplitudes(config.pulse_area * np.cos(np.pi * x),
                          config.detuning, config.lifetime)

    def evaluator(x, xp):
        return (sector(x)[0] * np.conj(sector(xp)[0]))[None, :]

    kern = TwoPointKernel(model="rabi", channels=("00",), evaluator=evaluator,
                          meta={"config": config, "grating": GratingParameters(0.0, 0.0)})
    xs = np.arange(config.n_points) / config.n_points
    c0, c1 = sector(xs)
    p0, p1 = np.abs(c0) ** 2, np.abs(c1) ** 2
    pops = np.stack([p0, p1, 1.0 - p0 - p1])
    return RabiKernel(config=config, kernel=kern, positions=xs, populations=pops)


def short_lifetime_parameters(config: RabiConfig) -> tuple[float, float]:
    """Effective (phi0, n0) of the incoherent single-absorber limit:
    phi0 = -t_L Delta tau^2 Omega_0^2 / (1 + 4 Delta^2 tau^2),
    n0 = t_L tau Omega_0^2 / (1 + 4 Delta^2 tau^2)."""
    area, det, tau = config.pulse_area, config.detuning, config.lifetime
    denom = 1.0 + 4.0 * det * det * tau * tau
    return -det * tau * tau * area * area / denom, tau * area * area / denom


def rabi_short_lifetime_limit(config: RabiConfig) -> RabiKernel:
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

    kern = TwoPointKernel(model="rabi-short-lifetime", channels=("00",),
                          evaluator=evaluator,
                          meta={"config": config, "phi0": phi0, "n0": n0,
                                "grating": GratingParameters(phi0, n0)})
    xs = np.arange(config.n_points) / config.n_points
    p0 = np.exp(-n0 * np.cos(np.pi * xs) ** 2)
    pops = np.stack([p0, np.zeros_like(p0), 1.0 - p0])
    return RabiKernel(config=config, kernel=kern, positions=xs, populations=pops)


def rabi_kdtli(config: RabiConfig, open_fraction: float, talbot_parameter: float,
               j_max: int = 24, n_shift: int = 512) -> nearfield.FringeSignal:
    """KDTLI fringe signal for ground-state-only detection: pipes K_00
    through the numeric Talbot bridge into the fringe synthesis."""
    kern = rabi_solve(config).kernel
    source = kernel_source(kern, channel="sum", n_points=max(512, config.n_points))
    source.label = f"rabi,area={config.pulse_area / math.pi:g}pi"
    cfg = nearfield.KdtliConfig(
        grating=None,
        open_fraction=open_fraction,
        talbot_parameter=talbot_parameter,
        source=source,
        n_shift=n_shift,
        j_max=j_max,
    )
    return nearfield.kdtli_signal(cfg)
