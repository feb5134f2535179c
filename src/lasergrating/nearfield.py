"""Kapitza-Dirac-Talbot-Lau (mask / laser grating / mask) fringe signals.

The detected signal is a Fourier series in the third-grating shift
S(x_s) = sum_j f^2 sinc^2(j pi f) B_2j(j L/L_T) e^{2 pi i j x_s / d},
synthesized from any Talbot-coefficient source with pairs(orders, xi)
(talbot.ClosedForm: the unconditional closed form, its classical
random-walk variant, a conditional absorption count or the summed ladder
kernel; talbot.RankOneSource: the ground-state kernel of the Rabi model),
all closed forms.  `kdtli_signal(config, velocity_spread)` is the one
signal route: the plain signal is its average at zero spread.  A signal,
velocity-averaged or not, and a whole visibility curve each take one pairs
call, and the synthesis is one complex inverse FFT per velocity sample,
whose imaginary residue is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, InvalidInputError
from .params import GratingParameters
from . import talbot
from .specfun import sinc

REALITY_TOL = 1e-10
VELOCITY_SAMPLES = 21    # gaussian velocity samples of a nonzero spread
VELOCITY_SIGMAS = 3.0    # half-width of the sampled range, in standard deviations


@dataclass
class KdtliConfig:
    """Interferometer configuration.

    source: "quantum" | "classical" | "ladder" | ell (int) | an object with
    pairs(orders, xi), such as talbot.RankOneSource.  grating may be None
    when the source carries its own parameters.
    """

    grating: GratingParameters | None
    open_fraction: float
    talbot_parameter: float
    source: object = "quantum"
    n_shift: int = 512
    j_max: int = 32
    tail: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.open_fraction < 1.0:
            raise InvalidInputError(f"open fraction must be in (0,1), got {self.open_fraction}")
        if not 0 < self.talbot_parameter < math.inf:
            raise InvalidInputError(
                f"talbot parameter must be finite and positive, got {self.talbot_parameter!r}")
        if self.n_shift < 256:
            raise InvalidInputError("need >= 256 shift samples per period")
        if self.grating is None and not hasattr(self.source, "pairs"):
            raise InvalidInputError("closed-form sources need grating parameters")


@dataclass
class FringeSignal:
    """Sampled fringe signal with its Fourier components."""

    shifts: np.ndarray            # x_s grid, units of d
    values: np.ndarray            # real signal
    components: dict              # j -> S_j (real for the closed forms)


def resolve_source(config: KdtliConfig):
    """The config's source spec as an object with pairs(orders, xi)."""
    src = config.source
    return src if hasattr(src, "pairs") else talbot.ClosedForm(config.grating, src)


def _components(config: KdtliConfig, source, talbot_parameters):
    """(orders, S) with S_j = f^2 sinc^2(j pi f) B_2j(j L/L_T) for
    j = -j_max..j_max and each L/L_T, shape (len(talbot_parameters),
    2 j_max + 1), from one pairs call.  Every row passes the j_max tail check."""
    f = config.open_fraction
    orders = np.arange(-config.j_max, config.j_max + 1)
    xi = np.outer(talbot_parameters, orders).ravel()
    paired = source.pairs(np.tile(2 * orders, len(talbot_parameters)), xi)
    comps = f * f * sinc(np.pi * orders * f) ** 2 * paired.reshape(-1, orders.size)
    edge = np.maximum(np.abs(comps[:, 0]), np.abs(comps[:, -1]))
    scale = np.max(np.abs(comps), axis=1)
    for e, s in zip(edge, scale):
        if s > 0 and e > config.tail * s:
            raise CutoffError(
                f"j_max={config.j_max} too small: edge component {e:.2e} "
                f"above tail bound {config.tail:.0e} of scale {s:.2e}")
    return orders, comps


def _synthesize(orders, comps, n_shift: int) -> np.ndarray:
    """Real signals on x_s = k / n_shift, one per row of `comps`, from one
    complex inverse FFT; a row with an imaginary residue is an error."""
    spec = np.zeros((comps.shape[0], n_shift), complex)
    np.add.at(spec, (slice(None), orders % n_shift), comps)
    vals = np.fft.ifft(spec, axis=1) * n_shift
    resid = np.max(np.abs(vals.imag), axis=1)
    scale = np.maximum(np.max(np.abs(vals.real), axis=1), 1e-300)
    if np.any(resid > REALITY_TOL * scale):
        raise InvalidInputError(
            f"signal has imaginary residue {np.max(resid):.2e}; "
            "coefficient source is inconsistent")
    return vals.real


def sinusoidal_visibility(config: KdtliConfig, talbot_parameters=None):
    """Signed sine visibility 2 sinc^2(pi f) B_2(L/L_T) / B_0(0).

    For the unconditional closed form B_0(0) = 1; for conditional or
    kernel sources the mean transmission normalizes the contrast.  Negative
    values indicate a phase-flipped fringe.  Without `talbot_parameters` the
    value at config.talbot_parameter; with an array of L/L_T, the curve over
    it, from one pairs call.
    """
    lts = np.atleast_1d(np.asarray(
        config.talbot_parameter if talbot_parameters is None else talbot_parameters, float))
    if not np.all((lts > 0) & (lts < math.inf)):
        raise InvalidInputError("talbot parameter must be finite and positive")
    b = resolve_source(config).pairs(np.repeat([0, 2], [1, lts.size]),
                                     np.concatenate(([0.0], lts)))
    b0 = b[0]
    if abs(b0) < 1e-14:
        raise InvalidInputError(
            "visibility undefined: zero mean transmission for this source")
    v = 2.0 * float(sinc(math.pi * config.open_fraction)) ** 2 * (b[1:] / b0)
    resid = np.abs(v.imag) - REALITY_TOL * np.maximum(1.0, np.abs(v.real))
    if np.any(resid > 0):
        raise InvalidInputError(f"visibility has imaginary residue {np.max(np.abs(v.imag)):.2e}")
    return float(v[0].real) if talbot_parameters is None else v.real


def kdtli_signal(config: KdtliConfig, velocity_spread: float = 0.0) -> FringeSignal:
    """Fringe signal over one period of the third-grating shift, averaged
    over a gaussian longitudinal-velocity spread dv/v (one sample of weight
    1 at zero spread).

    Only the Talbot parameter is rescaled (L/L_T scales as 1/v); the grating
    parameters are held at their mean-velocity values.  All samples share
    one (samples x orders) coefficient table; each sample passes the j_max
    tail check and the imaginary-residue check on its own.
    """
    if not 0 <= velocity_spread < math.inf:
        raise InvalidInputError(
            f"velocity spread must be finite and >= 0, got {velocity_spread!r}")
    if velocity_spread == 0:
        rel = weights = np.ones(1)
    else:
        rel = 1.0 + velocity_spread * np.linspace(-VELOCITY_SIGMAS, VELOCITY_SIGMAS,
                                                  VELOCITY_SAMPLES)
        rel = rel[rel > 0.05]
        weights = np.exp(-0.5 * ((rel - 1.0) / velocity_spread) ** 2)
        weights /= weights.sum()
    orders, comps = _components(config, resolve_source(config), config.talbot_parameter / rel)
    values = _synthesize(orders, comps, config.n_shift)
    # sums over axis 0 add the samples in order, so no BLAS reduction is involved
    return FringeSignal(
        shifts=np.arange(config.n_shift) / config.n_shift,
        values=(weights[:, None] * values).sum(axis=0),
        components=dict(zip(orders.tolist(), (weights[:, None] * comps).sum(axis=0))),
    )
