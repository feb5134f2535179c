"""Special-function kernels: spectral Fourier coefficients, the confluent
hypergeometric 1F1(l; l+1; z), and sinc.

`exp_fourier_rows` is the production route of every closed-form Talbot
coefficient: a trapezoid rule in t with real arguments, one real FFT per
count giving every order.  `hyp1f1_ladder_quad` takes 1F1 from its
integral form by Gauss-Legendre quadrature.  Both run on numpy alone, and
no route of the package evaluates a Bessel function; the oracles of the
tests take I_nu from a special-function library.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CutoffError, DomainError

SPECTRAL_MARGIN = 32          # orders kept between the decay width and N/2
SPECTRAL_MAX_POINTS = 1 << 14
SPECTRAL_TAIL = 1e-13         # largest |coefficient| allowed around order N/2
SPECTRAL_BLOCK = 1 << 16      # samples (arguments x N) held at once
LADDER_MAX_NODES = 128        # Gauss-Legendre nodes validated for DLMF 13.4.1


def sinc(u):
    """sin(u)/u with sinc(0) = 1."""
    return np.sinc(np.asarray(u) / np.pi)


def spectral_points(reach: float, j_max: int) -> int:
    """FFT size N of exp_fourier_rows: the smallest power of two with
    N/2 >= j_max + reach + 12 reach^(1/3) + SPECTRAL_MARGIN.

    `reach` bounds |a| + |b|; past order reach + 12 reach^(1/3) the
    coefficients decay super-exponentially (Bessel-type, beyond the turning
    point), so every alias of a requested order lies far out in that tail.
    N above SPECTRAL_MAX_POINTS raises CutoffError."""
    half = j_max + reach + 12.0 * reach ** (1.0 / 3.0) + SPECTRAL_MARGIN
    if not math.isfinite(half):
        raise DomainError("spectral coefficients need finite arguments")
    n = 1 << math.ceil(math.log2(2.0 * half))
    if n > SPECTRAL_MAX_POINTS:
        raise CutoffError(
            f"spectral Talbot kernel needs N = {n} > {SPECTRAL_MAX_POINTS} points "
            f"(|a| + |b| up to {reach:.4g}, |j| up to {j_max})")
    return n


def exp_fourier_rows(orders, a, b, c=0.0, counts=0, p0=0.0, p1=0.0) -> np.ndarray:
    """Fourier coefficients of exp(a e^{it} + b e^{-it} + c) P(t)^l / l!,
    P(t) = p0 + p1 cos t, for every j in `orders`, every element of the real
    1-D arrays a, b, c, p0, p1 (broadcast together) and every count l in
    `counts`: shape (len(orders), len(a)) for one count, (len(counts),
    len(orders), len(a)) for a sequence.

    The integrand f has f(-t) = conj f(t), so the coefficients are real: exp
    is taken once on the half period 0 <= t <= pi, times P^l / l! (a running
    product) for each count, and one np.fft.hfft per count gives every order
    by the trapezoid rule on N = spectral_points(max(|a| + |b|), max|j| +
    max l) points.  Callers choose c so that |f| <= 1; then nothing cancels,
    and the error is round-off plus aliasing, which falls off exponentially
    in N (Trefethen & Weideman, SIAM Review 56, 2014).  Coefficients around
    order N/2 above SPECTRAL_TAIL raise CutoffError.  Elements are taken in
    blocks of SPECTRAL_BLOCK // N, so no array of all elements times N is built.
    """
    if any(np.iscomplexobj(v) for v in (a, b, c, p0, p1)) or np.any(np.asarray(counts) < 0):
        raise DomainError("exp_fourier_rows takes real arguments and counts >= 0")
    orders = np.asarray(orders, int).ravel()
    a, b, c, p0, p1 = (v.ravel() for v in np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, float)) for v in (a, b, c, p0, p1))))
    single, counts = np.ndim(counts) == 0, np.atleast_1d(np.asarray(counts, int))
    l_max = int(np.max(counts, initial=0))
    reach = float(np.max(np.abs(a) + np.abs(b), initial=0.0))
    n = spectral_points(reach, int(np.max(np.abs(orders), initial=0)) + l_max)
    t = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    cos_t, sin_t = np.cos(t), np.sin(t)
    cols = orders % n
    guard = np.arange(n // 2 - 4, n // 2 + 5)
    out = np.empty((counts.size, orders.size, a.size))
    step = max(1, SPECTRAL_BLOCK // n)
    for i in range(0, a.size, step):
        blk = slice(i, i + step)
        # a e^{it} + b e^{-it} + c = (a + b) cos t + c + i (a - b) sin t
        f = np.multiply.outer(a[blk] + b[blk], cos_t) + c[blk, None] + 0j
        f.imag = np.multiply.outer(a[blk] - b[blk], sin_t)
        np.exp(f, out=f)
        poly = p0[blk, None] + np.multiply.outer(p1[blk], cos_t) if l_max else None
        for ell in range(l_max + 1):
            if ell:
                f *= poly / ell
            if (hit := np.flatnonzero(counts == ell)).size:
                spec = np.fft.hfft(f, n, axis=1, norm="forward")
                tail = float(np.max(np.abs(spec[:, guard])))
                if tail > SPECTRAL_TAIL:
                    raise CutoffError(f"spectral Talbot kernel aliases: |c_j| = {tail:.2e} near "
                                      f"order N/2 = {n // 2} exceeds {SPECTRAL_TAIL:.0e}")
                out[hit, :, blk] = spec[:, cols].T
    return out[0] if single else out


def _legendre_p(n: int, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence, |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def _unit_legendre(n: int):
    """n Gauss-Legendre nodes and weights on [0, 1], read-only: Newton on P_n
    from cos(pi (k - 1/4) / (n + 1/2)), converged in four steps for every
    n <= LADDER_MAX_NODES.  numpy's leggauss gives the same nodes but imports
    numpy.polynomial, about 1.7 MB of resident memory per process."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(16):
        step = np.divide(*_legendre_p(n, x))
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * _legendre_p(n, x)[1] ** 2)
    s, w = 0.25 * (x - x[::-1]) + 0.5, 0.25 * (w + w[::-1])
    s.flags.writeable = w.flags.writeable = False
    return s, w


def legendre_unit_nodes(ell_max: int, reach: float):
    """Gauss-Legendre nodes s and weights w on [0, 1] for the integrals
    l int_0^1 s^(l-1) e^(zs) ds of DLMF 13.4.1, l <= ell_max, |z| <= reach.

    The integrand is entire, so n = 16 + (ell_max + reach) / 2 nodes reach
    round-off of l int_0^1 s^(l-1) |e^(zs)| ds for either sign of Re z.  The
    rule is validated against mpmath up to LADDER_MAX_NODES nodes; beyond it
    DomainError is raised.  Nodes are computed once per count (read-only)."""
    if not math.isfinite(reach):
        raise DomainError("Gauss-Legendre nodes need a finite reach")
    n = 16 + int(0.5 * (ell_max + reach))
    if n > LADDER_MAX_NODES:
        raise DomainError(f"Gauss-Legendre rule needs {n} > {LADDER_MAX_NODES} nodes "
                          f"(ell_max = {ell_max}, |z| up to {reach:.4g})")
    return _unit_legendre(n)


def hyp1f1_ladder_quad(ell_max: int, z) -> np.ndarray:
    """1F1(l; l+1; z) for l = 1 .. ell_max over a 1-D array z, shape
    (ell_max, z.size), by the Gauss-Legendre rule of `legendre_unit_nodes`
    applied to DLMF 13.4.1, 1F1(l; l+1; z) = l int_0^1 s^(l-1) e^(zs) ds:
    every row comes from one (ell_max x n) @ (n x z.size) product."""
    ell_max = int(ell_max)
    if ell_max < 1:
        raise DomainError("hyp1f1_ladder_quad requires ell_max >= 1")
    z = np.atleast_1d(np.asarray(z, complex)).ravel()
    s, w = legendre_unit_nodes(ell_max, float(np.max(np.abs(z), initial=0.0)))
    ells = np.arange(1, ell_max + 1)[:, None]
    return (ells * w * s ** (ells - 1)) @ np.exp(np.multiply.outer(s, z))
