"""Talbot coefficients of the laser grating.

Every coefficient source answers one array-valued call,
pairs(orders, xi) -> B_{orders[k]}(xi[k]) for paired 1-D arrays:

* `ClosedForm`: the unconditional closed form B_j(xi), its classical
  random-walk variant, the conditional closed form B_j(xi; l), or ("ladder")
  the dynamical ladder kernel summed over every absorption count, all real;
  `ladder_pairs` gives the ladder form over arrays of grating parameters;
* `RankOneSource`: a rank-one kernel g(x) conj g(x'), such as the
  ground-state kernel of the Rabi model, from one FFT of its factor g.

The closed forms are Fourier coefficients of
exp(a e^{it} + b e^{-it} + c) P(t)^l / l! with real a, b, c (l = 0 but for
the conditional form), never the textbook (ratio)^{j/2} J_j(sqrt(...))
form, which is ambiguous where |zeta_coh| = |zeta_abs|.  They run on the
spectral kernel `specfun.exp_fourier_rows`, once per xi array for all
orders and counts.  The prefactor is folded into c, so the integrand has
modulus <= 1 and nothing cancels at any phi0 or n0; an FFT size above its
cap or an aliasing tail raises CutoffError (see `specfun.spectral_points`).
The ladder form adds a Gauss-Legendre rule over the first-absorption
fraction (`specfun.legendre_unit_nodes`, DomainError past its node cap).

The closed forms depend on xi only through cos(pi xi) and sin(pi xi), and
zeta_coh is odd in xi while zeta_abs and zeta_abs' are even, so
B_j(xi + 2) = B_j(xi) and B_j(-xi) = B_{-j}(xi).  `fold_xi` maps every xi
onto [0, 1] with exact arithmetic (fmod by 2, then 2 - r by Sterbenz) and
records where j flips sign; the kernel runs once per distinct folded value,
on the symmetric orders -m..m (`symmetric_rows`, which the far field calls
on its own folded q, and the talbot command on its xi grid), and each
requested (j, xi) is gathered from that table.  No digits of sin(pi xi) are
lost at large xi.

No route samples a kernel line: the numeric Fourier reduction of a sampled
two-point kernel is the oracle of the tests, in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, DomainError, InvalidInputError
from .params import GratingParameters
from .specfun import SPECTRAL_TAIL, exp_fourier_rows, legendre_unit_nodes, spectral_points

VARIANTS = ("quantum", "classical")
KINDS = VARIANTS + ("ladder",)  # string kinds of a closed-form source


def zeta(xi, grating: GratingParameters):
    """(zeta_abs, zeta_coh, zeta_abs') at Talbot argument xi."""
    xi = np.asarray(xi, float)
    za = 0.5 * grating.n0 * np.cos(np.pi * xi)
    zc = grating.phi0 * np.sin(np.pi * xi)
    zap = grating.n0 * np.sin(0.5 * np.pi * xi) ** 2
    return za, zc, zap


def fold_xi(xi):
    """(distinct, index, flip) for a xi array: `distinct` holds the sorted
    distinct values of xi folded onto [0, 1], and
    B_j(xi[k]) = B_{-j if flip[k] else j}(distinct[index[k]]).

    r = fmod(|xi|, 2) is exact, and so is 2 - r for r > 1 (Sterbenz); j
    flips where xi < 0 or r > 1, but not both."""
    xi = np.asarray(xi, float).ravel()
    if not np.isfinite(xi).all():
        raise DomainError("Talbot coefficients need finite xi")
    r = np.fmod(np.abs(xi), 2.0)
    over = r > 1.0
    r[over] = 2.0 - r[over]
    distinct, index = np.unique(r, return_inverse=True)
    return distinct, index, (xi < 0) ^ over


def symmetric_rows(m: int, distinct, kind, grating: GratingParameters) -> np.ndarray:
    """Closed-form B_j for j = -m..m at xi already folded onto [0, 1] (the
    `distinct` of `fold_xi`): shape (2m + 1, len(distinct)), with a leading
    count axis for a sequence of counts.  `kind` is "quantum", "classical",
    "ladder" (the dynamical ladder kernel summed over counts), a count or a
    sequence of counts; one exp_fourier_rows call, two for "ladder"."""
    if isinstance(kind, str):
        if kind not in KINDS:
            raise InvalidInputError(f"unknown variant {kind!r}")
        if kind == "ladder":
            g = grating
            return _ladder_rows(m, distinct, g.phi0, g.n0, g.eta_p, g.eta_a)
    elif np.any(np.asarray(kind) < 0):
        raise InvalidInputError("absorption count must be >= 0")
    za, zc, zap = zeta(distinct, grating)
    symmetric = np.arange(-m, m + 1)
    if isinstance(kind, str):
        # exponent: i zc sin(t) + zap cos(t) - zap, real part <= 0
        table = exp_fourier_rows(symmetric, 0.5 * (zc + zap), 0.5 * (zap - zc), -zap)
        # the classical random-walk variant flips the sign of zeta_coh, which
        # is the same as exchanging j with -j
        return table[::-1] if kind == "classical" else table
    # l = 0 exponent: i zc sin(t) - za cos(t) - n0/2 = a e^{it} + b e^{-it} + c
    # with a = (zc - za)/2, b = -(zc + za)/2; its real part is <= |za| - n0/2 <= 0
    return exp_fourier_rows(symmetric, 0.5 * (zc - za), -0.5 * (zc + za), -0.5 * grating.n0,
                            kind, za, 0.5 * grating.n0)


def _folded(orders, xi, kind, grating: GratingParameters) -> np.ndarray:
    """Closed-form B_j(xi) at `orders` broadcast against the 1-D xi: an
    (n, 1) column of orders gives an (n, len(xi)) table, a len(xi) array
    one value per xi; a sequence of counts adds a leading count axis.
    Gathered from the symmetric rows at the distinct folded xi."""
    distinct, index, flip = fold_xi(xi)
    m = int(np.max(np.abs(orders), initial=0))
    table = symmetric_rows(m, distinct, kind, grating)
    return table[..., np.where(flip, -orders, orders) + m, index]


def conditional_rows(orders, xi, ell, grating: GratingParameters) -> np.ndarray:
    """B_j(xi; l) for every j in `orders` over a 1-D xi array: shape
    (len(orders), len(xi)) for one count `ell`, (len(ell), len(orders),
    len(xi)) for a sequence of counts.

    The l = 0 photo-depletion integrand times P(t)^l / l!,
    P(t) = za + (n0/2) cos t, which resums the recoil splittings; all counts
    share one exp table.
    """
    return _folded(np.asarray(orders, int).reshape(-1, 1), xi, ell, grating)


def unconditional_rows(orders, xi, grating: GratingParameters,
                       variant: str = "quantum") -> np.ndarray:
    """B_j(xi) for every j in `orders` over a 1-D xi array, shape
    (len(orders), len(xi)), for the quantum or the classical random-walk
    variant."""
    return _folded(np.asarray(orders, int).reshape(-1, 1), xi, variant, grating)


@dataclass(frozen=True)
class ClosedForm:
    """Closed-form coefficient source; `kind` is "quantum", "classical",
    "ladder" or an absorption count l >= 0."""

    grating: GratingParameters
    kind: object = "quantum"

    def __post_init__(self):
        if not (self.kind in KINDS
                or (isinstance(self.kind, (int, np.integer)) and self.kind >= 0)):
            raise InvalidInputError(f"cannot resolve coefficient source {self.kind!r}")

    def pairs(self, orders, xi) -> np.ndarray:
        """B_{orders[k]}(xi[k]) for paired 1-D arrays."""
        return _folded(np.asarray(orders, int).ravel(), xi, self.kind, self.grating)


def _ladder_rows(m: int, r, phi0, n0, eta_p, eta_a) -> np.ndarray:
    """Summed-ladder B_j for j = -m..m at xi folded onto [0, 1], grating
    parameters broadcast against r: shape (2m + 1, len(r)).  F_j[l = 0] plus
    sum_k w_k F_j[s_k; count 1] over Gauss-Legendre nodes s_k of the
    first-absorption fraction, |w| <= |eta_p - 1| |phi0| + |eta_a - 1| n0 +
    eta_a n0.  At s the exponent has a + b = (beta_s - nu_s cos pi xi)/2,
    a - b = phi_s sin pi xi, c = (beta_s cos pi xi - nu_s)/2 and real part
    <= 0, with phi_s = phi0 (1 + s (eta_p - 1)), nu_s = n0 (1 + s (eta_a - 1)),
    beta_s = s eta_a n0; y = n0 c c' is P(t) = n0 (cos pi xi + cos t)/2."""
    r, phi0, n0, eta_p, eta_a = (v[:, None] for v in np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, float)) for v in (r, phi0, n0, eta_p, eta_a))))
    if np.any(n0 < 0) or np.any(eta_a < 0):
        raise InvalidInputError("the ladder kernel needs n0 >= 0 and eta_a >= 0")
    reach = float(np.max(np.abs(eta_p - 1.0) * np.abs(phi0) + np.abs(eta_a - 1.0) * n0
                         + eta_a * n0, initial=0.0))
    s, w = legendre_unit_nodes(1, reach)
    cos, sin = np.cos(np.pi * r), np.sin(np.pi * r)
    symmetric = np.arange(-m, m + 1)
    # s = 0, no absorption: the l = 0 exponent of symmetric_rows
    za, zc = 0.5 * n0 * cos, phi0 * sin
    rows = exp_fourier_rows(symmetric, 0.5 * (zc - za), -0.5 * (zc + za), -0.5 * n0)
    phi_s = phi0 * (1.0 + s * (eta_p - 1.0))
    nu_s = n0 * (1.0 + s * (eta_a - 1.0))
    beta_s = s * (eta_a * n0)
    apb, amb = 0.5 * (beta_s - nu_s * cos), phi_s * sin
    first = exp_fourier_rows(symmetric, 0.5 * (apb + amb), 0.5 * (apb - amb),
                             0.5 * (beta_s * cos - nu_s), 1, za, 0.5 * n0)
    return rows + (first.reshape(symmetric.size, r.size, s.size) * w).sum(axis=2)


def ladder_pairs(orders, xi, phi0, n0, eta_p=1.0, eta_a=1.0) -> np.ndarray:
    """B_{orders[k]}(xi[k]) of the ladder kernel summed over every absorption
    count (see `dynamics`), with orders, xi and the grating parameters
    broadcast together: a curve over gratings is one call."""
    orders, xi, *grating = (v.ravel() for v in np.broadcast_arrays(
        np.asarray(orders, int), *(np.asarray(v, float) for v in (xi, phi0, n0, eta_p, eta_a))))
    distinct, index, flip = fold_xi(xi)
    m = int(np.max(np.abs(orders), initial=0))
    table = _ladder_rows(m, distinct[index], *grating)
    return table[np.where(flip, -orders, orders) + m, np.arange(orders.size)]


@dataclass
class RankOneSource:
    """Talbot coefficients of K(x, x') = g(x) conj g(x') for an even factor g
    of period 1, |g| <= 1, g = sum_m a_m e^{2 pi i m x}: real B_j(xi) =
    e^{i pi j xi} sum_m a_m conj(a_{m-j}) e^{-2 pi i m xi}, which has the
    period and parity of `fold_xi`.  The a_m come from one FFT of `factor`
    on N = spectral_points(reach, 0) points, |a_m| decaying beyond |m| ~
    reach; a coefficient above SPECTRAL_TAIL around order N/2 raises
    CutoffError."""

    factor: object
    reach: float

    def __post_init__(self):
        n = spectral_points(self.reach, 0)
        a = np.fft.fftshift(np.fft.fft(self.factor(np.arange(n) / n), norm="forward"))
        tail = float(np.max(np.abs(np.concatenate((a[:5], a[-4:])))))
        if tail > SPECTRAL_TAIL:
            raise CutoffError(f"rank-one factor aliases: |a_m| = {tail:.2e} near order "
                              f"N/2 = {n // 2} exceeds {SPECTRAL_TAIL:.0e}")
        self._a = a  # a_m for m = -N/2 .. N/2 - 1

    def pairs(self, orders, xi) -> np.ndarray:
        """B_{orders[k]}(xi[k]) for paired 1-D arrays."""
        distinct, index, flip = fold_xi(xi)
        j = np.asarray(orders, int).ravel()
        j = np.where(flip, -j, j)[:, None]
        a, half = self._a, self._a.size // 2
        m = np.arange(-half, half)
        k = m - j + half  # position of a_{m-j}, zero outside the band
        shifted = np.where((k >= 0) & (k < a.size), a[np.clip(k, 0, a.size - 1)], 0.0)
        phase = np.exp(1j * np.pi * ((j - 2 * m) * distinct[index][:, None]))
        return (a * np.conj(shifted) * phase).sum(axis=1).real
