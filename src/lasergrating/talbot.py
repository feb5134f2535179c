"""Talbot coefficients of the laser grating.

Every coefficient source answers one array-valued call,
pairs(orders, xi) -> B_{orders[k]}(xi[k]) for paired 1-D arrays:

* `ClosedForm`: the unconditional closed form B_j(xi), its classical
  random-walk variant, the conditional closed form B_j(xi; l), or ("ladder")
  the dynamical ladder kernel summed over every absorption count, all real,
  for one grating or for arrays of grating parameters broadcast against xi;
* `RankOneSource`: a rank-one kernel g(x) conj g(x'), such as the
  ground-state kernel of the Rabi model, from one FFT of its factor g.

A table is one pairs call on np.repeat(orders, len(xi)) and
np.tile(xi, len(orders)), reshaped to (len(orders), len(xi)).

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
records where j flips sign; the kernel runs once per distinct folded value
(once per xi where the grating parameters are arrays).  `symmetric_rows`
yields them one kind at a time, each table made when it is asked for: a table
of the given orders per kind for the far field (on its folded q) and the
talbot command (on its xi grid), and for a `ClosedForm` pairs call only its
pairs.  No digits of sin(pi xi) are lost at large xi.

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


def _check_kind(kind, kinds=KINDS):
    """InvalidInputError unless `kind` is one of the strings `kinds` or an
    absorption count, an integer >= 0 (so no fractional count is truncated)
    and not a bool (so True is not taken as count 1)."""
    count = isinstance(kind, (int, np.integer)) and not isinstance(kind, bool)
    if not (kind in kinds or (count and kind >= 0)):
        raise InvalidInputError(f"unknown coefficient kind {kind!r} for this call")


def symmetric_rows(orders, distinct, kinds, grating: GratingParameters, index=None):
    """Closed-form B_j for every j of the 1-D `orders` at xi already folded onto
    [0, 1] (the `distinct` of `fold_xi`), grating parameters broadcast against it:
    an iterator of one table of shape (len(orders), len(distinct)) per entry of
    `kinds`, in its order, each computed when it is asked for; each kind is
    "quantum", "classical", "ladder" (the dynamical ladder kernel summed over
    counts) or a count.  Each variant takes one exp_fourier_rows call, all counts
    one more, whose iterator holds one table of f, and "ladder" two.  Given a
    nondecreasing `index` (the only form of "ladder"), each entry is the pair
    B_{orders[k]}(distinct[index[k]])."""
    for kind in kinds:
        _check_kind(kind, KINDS if index is not None else VARIANTS)
    za, zc, zap = zeta(distinct, grating)
    if counts := [kind for kind in kinds if not isinstance(kind, str)]:
        # l = 0 exponent: i zc sin(t) - za cos(t) - n0/2 = a e^{it} + b e^{-it} + c
        # with a = (zc - za)/2, b = -(zc + za)/2; its real part is <= |za| - n0/2 <= 0
        conditional = exp_fourier_rows(orders, 0.5 * (zc - za), -0.5 * (zc + za),
                                       -0.5 * grating.n0, counts, za, 0.5 * grating.n0,
                                       elements=index)

    def table(kind):
        if kind == "ladder":
            return _ladder_rows(orders, distinct, grating, index)
        if isinstance(kind, str):
            # exponent: i zc sin(t) + zap cos(t) - zap, real part <= 0; the classical
            # variant flips zeta_coh, i.e. j -> -j
            return exp_fourier_rows(-orders if kind == "classical" else orders,
                                    0.5 * (zc + zap), 0.5 * (zap - zc), -zap, elements=index)
        return next(conditional)
    return map(table, kinds)


def _paired(orders, xi) -> np.ndarray:
    """The orders of a pairs call, checked to be integers below 2**53, one per xi."""
    if not (np.size(orders) == np.size(xi) and np.all(np.abs(np.asarray(orders, float)) < 2**53)
            and np.all(np.mod(orders, 1) == 0)):
        raise InvalidInputError("pairs takes integer orders below 2**53, one per xi")
    return np.ravel(orders).astype(int)


@dataclass(frozen=True)
class ClosedForm:
    """Closed-form coefficient source; `kind` is "quantum", "classical",
    "ladder" or an absorption count l >= 0.  Grating parameters may be
    arrays, broadcast against the xi of each pairs call."""

    grating: GratingParameters
    kind: object = "quantum"

    def __post_init__(self):
        _check_kind(self.kind)

    def pairs(self, orders, xi) -> np.ndarray:
        """B_{orders[k]}(xi[k]) for paired 1-D arrays, from the distinct folded xi
        (every folded xi where a grating parameter is an array)."""
        orders, g = _paired(orders, xi), self.grating
        distinct, index, flip = fold_xi(xi)
        if any(np.ndim(v) for v in (g.phi0, g.n0, g.eta_p, g.eta_a)):
            distinct, index = distinct[index], np.arange(index.size)
        # pairs sorted by xi and put back; float keys reuse fold_xi's sort code
        by_xi = np.argsort(index.astype(float))
        values = next(symmetric_rows(np.where(flip, -orders, orders)[by_xi], distinct,
                                     [self.kind], g, index[by_xi]))
        return values[np.argsort(by_xi.astype(float))]


def _ladder_rows(orders, r, g: GratingParameters, index) -> np.ndarray:
    """Summed-ladder B_{orders[k]} at xi = r[index[k]] folded onto [0, 1]
    (`index` nondecreasing), grating parameters broadcast against r.  F_j[l = 0] plus
    sum_k w_k F_j[s_k; count 1] over Gauss-Legendre nodes s_k of the
    first-absorption fraction, |w| <= |eta_p - 1| |phi0| + |eta_a - 1| n0 +
    eta_a n0.  At s the exponent has a + b = (beta_s - nu_s cos pi xi)/2,
    a - b = phi_s sin pi xi, c = (beta_s cos pi xi - nu_s)/2 and real part
    <= 0, with phi_s = phi0 (1 + s (eta_p - 1)), nu_s = n0 (1 + s (eta_a - 1)),
    beta_s = s eta_a n0; y = n0 c c' is P(t) = n0 (cos pi xi + cos t)/2."""
    r, phi0, n0, eta_p, eta_a = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, float)) for v in (r, g.phi0, g.n0, g.eta_p, g.eta_a)))
    reach = float(np.max(np.abs(eta_p - 1.0) * np.abs(phi0) + np.abs(eta_a - 1.0) * n0
                         + eta_a * n0, initial=0.0))
    s, w = legendre_unit_nodes(1, reach)
    s = s[:, None]  # node-major: element j len(r) + i is node j at r[i]
    cos, sin = np.cos(np.pi * r), np.sin(np.pi * r)
    # s = 0, no absorption: the l = 0 exponent of symmetric_rows
    za, zc = 0.5 * n0 * cos, phi0 * sin
    rows = exp_fourier_rows(orders, 0.5 * (zc - za), -0.5 * (zc + za), -0.5 * n0, elements=index)
    phi_s = phi0 * (1.0 + s * (eta_p - 1.0))
    nu_s = n0 * (1.0 + s * (eta_a - 1.0))
    beta_s = s * (eta_a * n0)
    apb, amb = 0.5 * (beta_s - nu_s * cos), phi_s * sin
    first = exp_fourier_rows(np.tile(orders, s.size), 0.5 * (apb + amb), 0.5 * (apb - amb),
                             0.5 * (beta_s * cos - nu_s), 1, za, 0.5 * n0,
                             elements=(np.arange(s.size)[:, None] * r.size + index).ravel())
    # each pair's nodes summed along a contiguous axis, in numpy's pairwise order
    return rows + (np.ascontiguousarray(first.reshape(s.size, -1).T) * w).sum(axis=-1)


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
        j, (distinct, index, flip) = _paired(orders, xi), fold_xi(xi)
        j = np.where(flip, -j, j)[:, None]
        a, half = self._a, self._a.size // 2
        m = np.arange(-half, half)
        k = m - j + half  # position of a_{m-j}, zero outside the band
        shifted = np.where((k >= 0) & (k < a.size), a[np.clip(k, 0, a.size - 1)], 0.0)
        phase = np.exp(1j * np.pi * ((j - 2 * m) * distinct[index][:, None]))
        return (a * np.conj(shifted) * phase).sum(axis=1).real
