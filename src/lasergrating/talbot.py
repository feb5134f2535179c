"""Talbot coefficients of the laser grating.

Every coefficient source answers one array-valued call,
pairs(orders, xi) -> B_{orders[k]}(xi[k]) for paired 1-D arrays:

* `ClosedForm`: the unconditional closed form B_j(xi), its classical
  random-walk variant, or the conditional closed form B_j(xi; l), all real;
* `KernelSource`: the numeric Fourier reduction of a two-point kernel, the
  bridge for dynamical models, with one FFT per unique kernel line; its
  rows(orders, xi) gives the whole (orders x xi) table.

The closed forms are Fourier coefficients of
exp(a e^{it} + b e^{-it} + c) P(t)^l / l! with real a, b, c (l = 0 but for
the conditional form), never the textbook (ratio)^{j/2} J_j(sqrt(...))
form, which is ambiguous where |zeta_coh| = |zeta_abs|.  They run on the
spectral kernel `specfun.exp_fourier_rows`, once per xi array for all
orders and counts.  The prefactor is folded into c, so the integrand has
modulus <= 1 and nothing cancels at any phi0 or n0; an FFT size above its
cap or an aliasing tail raises CutoffError (see `specfun.spectral_points`).

The closed forms depend on xi only through cos(pi xi) and sin(pi xi), and
zeta_coh is odd in xi while zeta_abs and zeta_abs' are even, so
B_j(xi + 2) = B_j(xi) and B_j(-xi) = B_{-j}(xi).  `fold_xi` maps every xi
onto [0, 1] with exact arithmetic (fmod by 2, then 2 - r by Sterbenz) and
records where j flips sign; the kernel runs once per distinct folded value,
on the symmetric orders -m..m (`symmetric_rows`, which the far field calls
on its own folded q), and each requested (j, xi) is gathered from that
table.  No digits of sin(pi xi) are lost at large xi.

`b_numeric_oracle`, the trapezoid of one coefficient over a kernel line, is
the oracle of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInputError, ResolutionError
from .grating import MeasurementProfile, m_ell, poisson_ell_max
from .params import GratingParameters
from .specfun import exp_fourier_rows, spectral_points

VARIANTS = ("quantum", "classical")
NYQUIST_MARGIN = 32
LINE_BLOCK = 1 << 14  # kernel pairs per evaluator call of KernelSource.rows


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
    a count or a sequence of counts; one exp_fourier_rows call."""
    if isinstance(kind, str):
        if kind not in VARIANTS:
            raise InvalidInputError(f"unknown variant {kind!r}")
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


def _at(rows: np.ndarray, xi):
    return rows[0].reshape(np.shape(xi)) if np.ndim(xi) else complex(rows[0, 0])


def b_conditional(j: int, xi, ell: int, grating: GratingParameters):
    """Conditional Talbot coefficient B_j(xi; l) at one order, for scalar or
    array xi."""
    return _at(conditional_rows([int(j)], np.ravel(xi), ell, grating), xi)


def b_unconditional(j: int, xi, grating: GratingParameters, variant: str = "quantum"):
    """Unconditional Talbot coefficient B_j(xi) at one order, for scalar or
    array xi."""
    return _at(unconditional_rows([int(j)], np.ravel(xi), grating, variant), xi)


@dataclass(frozen=True)
class ClosedForm:
    """Closed-form coefficient source; `kind` is "quantum", "classical" or an
    absorption count l >= 0."""

    grating: GratingParameters
    kind: object = "quantum"

    def __post_init__(self):
        if not (self.kind in VARIANTS
                or (isinstance(self.kind, (int, np.integer)) and self.kind >= 0)):
            raise InvalidInputError(f"cannot resolve coefficient source {self.kind!r}")

    @property
    def label(self) -> str:
        return self.kind if isinstance(self.kind, str) else f"ell={self.kind}"

    def pairs(self, orders, xi) -> np.ndarray:
        """B_{orders[k]}(xi[k]) for paired 1-D arrays."""
        return _folded(np.asarray(orders, int).ravel(), xi, self.kind, self.grating)


def _check_grid(n_points: int, j_max: int):
    if n_points < 512:
        raise ResolutionError("kernel must be sampled on >= 512 points per period")
    if n_points // 2 < j_max + NYQUIST_MARGIN:
        raise ResolutionError(
            f"grid Nyquist order {n_points // 2} < |j| + {NYQUIST_MARGIN}")


@dataclass
class KernelSource:
    """Numeric Fourier coefficients of a two-point kernel as a source.

    `kernel` is anything with pair_values(x, xp): a TwoPointKernel, one of
    its channels, or a RabiKernel.  rows() samples K(u - xi/2, u + xi/2) on
    n_points values of u for each unique xi, in blocks of LINE_BLOCK pairs
    per kernel call, and takes one FFT per line.
    """

    kernel: object
    label: str = "kernel"
    n_points: int = 512

    def _line_rows(self, orders, xi):
        """(table, inverse): the rows of `orders` on the distinct lines of
        xi, and the index of each xi among those lines."""
        orders = np.asarray(orders, int).ravel()
        n = self.n_points
        _check_grid(n, int(np.max(np.abs(orders))))
        lines, inverse = np.unique(np.asarray(xi, float).ravel(), return_inverse=True)
        u = np.arange(n) / n
        out = np.empty((orders.size, lines.size), complex)
        step = max(1, LINE_BLOCK // n)
        for i in range(0, lines.size, step):
            half = 0.5 * lines[i:i + step, None]
            vals = self.kernel.pair_values((u - half).ravel(), (u + half).ravel())
            spec = np.fft.fft(vals.reshape(-1, n), axis=1)
            out[:, i:i + step] = spec[:, orders % n].T / n
        return out, inverse

    def rows(self, orders, xi) -> np.ndarray:
        out, inverse = self._line_rows(orders, xi)
        return out[:, inverse]

    def pairs(self, orders, xi) -> np.ndarray:
        """B_{orders[k]}(xi[k]) for paired 1-D arrays, gathered from the rows
        of the order range spanning 0 and every requested order, on the
        distinct lines; a range, not np.unique, so the orders need no sort."""
        orders = np.asarray(orders, int).ravel()
        lo = int(np.min(orders, initial=0))
        span = np.arange(lo, int(np.max(orders, initial=0)) + 1)
        out, inverse = self._line_rows(span, xi)
        return out[orders - lo, inverse]


def _kernel_line(kernel, xi: float, n_points: int):
    """Sample K(u - xi/2, u + xi/2) on the uniform period grid."""
    u = np.arange(n_points) / n_points
    if isinstance(kernel, MeasurementProfile):
        return m_ell(u - 0.5 * xi, kernel) * np.conj(m_ell(u + 0.5 * xi, kernel))
    if hasattr(kernel, "pair_values"):
        return kernel.pair_values(u - 0.5 * xi, u + 0.5 * xi)
    return kernel(u - 0.5 * xi, u + 0.5 * xi)


def b_numeric_oracle(j: int, xi: float, kernel, n_points: int = 512):
    """Numeric Fourier definition of B_j(xi): trapezoid (= uniform mean) of
    e^{-2 pi i j u} K(u - xi/2, u + xi/2) over one period.

    `kernel` may be a MeasurementProfile, an object with pair_values(x, xp),
    or a plain callable K(x, xp).
    """
    j = int(j)
    _check_grid(n_points, abs(j))
    vals = _kernel_line(kernel, xi, n_points)
    u = np.arange(n_points) / n_points
    return complex(np.mean(vals * np.exp(-2j * np.pi * j * u)))


@dataclass
class TalbotCoefficientSet:
    """Dense coefficient table over (variant/l, j, xi grid)."""

    grating: GratingParameters
    xi: np.ndarray
    orders: np.ndarray
    tables: dict = field(default_factory=dict)  # key: "quantum"|"classical"|ell -> (n_j, n_xi)


def build_coefficient_table(grating: GratingParameters,
                            xi_grid=None,
                            j_max: int = 64,
                            ells=(),
                            variants=VARIANTS) -> TalbotCoefficientSet:
    """Tabulate closed-form coefficients on a xi grid.

    Defaults: 512 xi points on [0, 2), |j| <= 64.  Conditional tables are
    added for each absorption count in `ells`; pass ells="auto" to include
    every count up to the Poisson tail rule.
    """
    if xi_grid is None:
        xi_grid = np.linspace(0.0, 2.0, 512, endpoint=False)
    xi_grid = np.asarray(xi_grid, float)
    if ells == "auto":
        ells = range(poisson_ell_max(grating) + 1)
    ells = [int(ell) for ell in ells]
    spectral_points(0.0, j_max + max(ells, default=0))  # the cap, before any array
    orders = np.arange(-j_max, j_max + 1)
    out = TalbotCoefficientSet(grating=grating, xi=xi_grid, orders=orders)
    for variant in variants:
        out.tables[variant] = unconditional_rows(orders, xi_grid, grating, variant)
    if ells:
        out.tables.update(zip(ells, conditional_rows(orders, xi_grid, ells, grating)))
    return out
