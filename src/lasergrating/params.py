"""Physical beam/particle inputs and the dimensionless grating parameters
derived from them.

Convention: the dipole potential is V(x,t) = -alpha_SI I(x,0,v_z t)/(2 eps0 c)
with alpha_SI the SI polarizability (C m^2/V).  The volume polarizability
found in molecular tables converts as alpha_SI = 4 pi eps0 * alpha_vol.
With this choice the absorption-to-phase ratio obeys
n0/(2 phi0) = Im(chi)/Re(chi) for chi = alpha_SI + i c eps0 sigma_abs/omega_L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants as const
from .errors import InvalidInputError


def polarizability_si_from_volume(alpha_vol_m3: float) -> float:
    """Convert volume polarizability (m^3) to SI units (C m^2/V)."""
    return const.FOUR_PI_EPS0 * alpha_vol_m3


def polarizability_si_from_angstrom3(alpha_A3: float) -> float:
    """Convert volume polarizability in cubic angstroms to SI units."""
    return polarizability_si_from_volume(alpha_A3 * 1e-30)


@dataclass(frozen=True)
class BeamSetup:
    """Laser and particle inputs for a standing-wave grating.

    power: running-wave laser power (W)
    waist_y, waist_z: gaussian beam waists (m)
    wavelength: laser wavelength (m)
    polarizability: SI polarizability alpha_SI (C m^2/V)
    cross_section: absorption cross-section (m^2)
    velocity: longitudinal particle speed (m/s)
    mass: particle mass (kg)
    """

    power: float
    waist_y: float
    waist_z: float
    wavelength: float
    polarizability: float
    cross_section: float
    velocity: float
    mass: float

    def __post_init__(self):
        strict = {
            "waist_y": self.waist_y,
            "waist_z": self.waist_z,
            "wavelength": self.wavelength,
            "polarizability": self.polarizability,
            "velocity": self.velocity,
            "mass": self.mass,
        }
        for name, value in strict.items():
            if not (math.isfinite(value) and value > 0):
                raise InvalidInputError(f"{name} must be finite and positive, got {value}")
        for name, value in (("power", self.power), ("cross_section", self.cross_section)):
            if not (math.isfinite(value) and value >= 0):
                raise InvalidInputError(f"{name} must be finite and non-negative, got {value}")

    @property
    def omega_laser(self) -> float:
        """Laser angular frequency (rad/s)."""
        return 2.0 * math.pi * const.SPEED_OF_LIGHT / self.wavelength


@dataclass(frozen=True)
class GratingParameters:
    """Dimensionless grating strength: peak phase phi0, mean antinode
    absorption number n0, excited-state ratios, and the period d (m)."""

    phi0: float
    n0: float
    eta_p: float = 1.0
    eta_a: float = 1.0
    period: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.phi0)):
            raise InvalidInputError(f"phi0 must be finite, got {self.phi0}")
        if not np.all(np.isfinite(self.n0) & (np.asarray(self.n0) >= 0)):
            raise InvalidInputError(f"n0 must be >= 0, got {self.n0}")
        if not np.all(np.isfinite(self.eta_a) & (np.asarray(self.eta_a) >= 0)):
            raise InvalidInputError(f"eta_a must be >= 0, got {self.eta_a}")
        if not np.all(np.isfinite(self.eta_p)):
            raise InvalidInputError(f"eta_p must be finite, got {self.eta_p}")
        if not (math.isfinite(self.period) and self.period > 0):
            raise InvalidInputError(f"period must be positive, got {self.period}")


@dataclass(frozen=True)
class InterferometerScales:
    """Length and time scales of a grating interferometer."""

    talbot_length: float
    de_broglie: float
    separation: float
    talbot_parameter: float = field(init=False)
    interaction_time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "talbot_parameter", self.separation / self.talbot_length)


def derive_phi0(setup: BeamSetup) -> float:
    """Peak eikonal phase phi0 = (2 sqrt(2)/(sqrt(pi) eps0)) (alpha/(hbar c)) P/(w_y v_z)."""
    phi0 = (2.0 * math.sqrt(2.0) / (math.sqrt(math.pi) * const.EPSILON_0)) \
        * (setup.polarizability / (const.HBAR * const.SPEED_OF_LIGHT)) \
        * setup.power / (setup.waist_y * setup.velocity)
    if not math.isfinite(phi0):
        raise InvalidInputError("phi0 evaluated to a non-finite value")
    return phi0


def derive_n0(setup: BeamSetup) -> float:
    """Mean antinode absorption number n0 = (8/sqrt(2 pi)) (sigma/(hbar omega_L)) P/(w_y v_z)."""
    n0 = (8.0 / math.sqrt(2.0 * math.pi)) \
        * (setup.cross_section / (const.HBAR * setup.omega_laser)) \
        * setup.power / (setup.waist_y * setup.velocity)
    if not math.isfinite(n0):
        raise InvalidInputError("n0 evaluated to a non-finite value")
    return n0


def derive_grating(setup: BeamSetup, eta_p: float = 1.0, eta_a: float = 1.0) -> GratingParameters:
    """Bundle phi0, n0 and the period d = lambda_L/2 into GratingParameters."""
    return GratingParameters(
        phi0=derive_phi0(setup),
        n0=derive_n0(setup),
        eta_p=eta_p,
        eta_a=eta_a,
        period=0.5 * setup.wavelength,
    )


def derive_scales(setup: BeamSetup, separation: float) -> InterferometerScales:
    """Talbot length, de Broglie wavelength and mean interaction time for a
    grating separation L."""
    if not (math.isfinite(separation) and separation > 0):
        raise InvalidInputError(f"separation must be positive, got {separation}")
    lam_db = const.PLANCK / (setup.mass * setup.velocity)
    d = 0.5 * setup.wavelength
    talbot_length = d * d / lam_db
    t_int = math.sqrt(math.pi / 2.0) * setup.waist_z / setup.velocity
    return InterferometerScales(
        talbot_length=talbot_length,
        de_broglie=lam_db,
        separation=separation,
        interaction_time=t_int,
    )


def absorption_phase_ratio(setup: BeamSetup) -> float:
    """beta = Im(chi)/Re(chi) = n0/(2 phi0) for the complex susceptibility."""
    return const.SPEED_OF_LIGHT * const.EPSILON_0 * setup.cross_section \
        / (setup.omega_laser * setup.polarizability)
