"""Special-function kernels against arbitrary-precision and quadrature oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import iv as bessel_i_complex
from scipy.special import jv as bessel_j

from lasergrating.errors import CutoffError, DomainError
from lasergrating.specfun import (SPECTRAL_MAX_POINTS, exp_fourier_rows, hyp1f1_ladder_quad,
                                  legendre_unit_nodes, sinc, spectral_points)

mpmath.mp.dps = 40


def mp_j(n, x):
    return float(mpmath.besselj(n, x))


def mp_i(n, z):
    v = mpmath.besseli(n, mpmath.mpc(z))
    return complex(v)


# ---------------------------------------------------------------------------
# Bessel functions of the oracles (scipy.special)
#
# No route of the package evaluates a Bessel function; the plane-wave and
# mean-transmission oracles take I_nu from scipy.special.  These tests hold
# jv (bessel_j) and iv (bessel_i_complex) to 1e-10 of mpmath over integer
# orders up to 40, |x| up to 50 and |z| up to 99, and check the identities
# the coefficient derivations use.
# ---------------------------------------------------------------------------

def test_bessel_j_trivial():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_bessel_j_derived_value():
    # independent arbitrary-precision series evaluation
    assert bessel_j(2, 3.0) == pytest.approx(mp_j(2, 3.0), rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 23, 40])
@pytest.mark.parametrize("x", [0.05, 0.9, 4.2, 9.7, 14.0, 27.3, 48.5])
def test_bessel_j_matrix(n, x):
    ref = mp_j(n, x)
    val = bessel_j(n, x)
    if abs(ref) > 1e-280:
        assert val == pytest.approx(ref, rel=1e-10)
    else:
        assert abs(val) <= 1e-280


@pytest.mark.parametrize("n,x", [(3, 7.1), (4, -7.1), (6, 2.0), (7, -2.0)])
def test_bessel_j_parity(n, x):
    assert bessel_j(-n, x) == pytest.approx((-1) ** n * bessel_j(n, x), abs=1e-14)
    assert bessel_j(n, -x) == pytest.approx((-1) ** n * bessel_j(n, x), abs=1e-14)


def test_bessel_j_high_order_underflow():
    # J_1000(30) ~ 1e-1000: underflows to zero rather than raising
    assert bessel_j(1000, 30.0) == 0.0


@given(st.integers(min_value=0, max_value=30),
       st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
@example(n=0, x=5e-324)
@example(n=0, x=-5e-324)
def test_bessel_j_vs_mpmath_property(n, x):
    ref = mp_j(n, x)
    val = bessel_j(n, x)
    assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("n,x", [(151, 1e-100), (151, -1e-100), (400, 1e-70),
                                 (1000, 1e-300), (2, 5e-324)])
def test_bessel_j_tiny_x_high_order(n, x):
    # neither log(x/2) nor the Miller ratio 2k/x may fail at tiny x; the
    # leading term (x/2)^n/n! underflows to 0 here
    ref = mp_j(n, x)
    val = bessel_j(n, x)
    assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# I_nu of complex argument
# ---------------------------------------------------------------------------

def test_bessel_i_trivial():
    assert bessel_i_complex(0, 0.0) == 1.0
    assert bessel_i_complex(3, 0.0) == 0.0


@pytest.mark.parametrize("nu", range(6))
def test_bessel_i_vs_j_identity(nu):
    x = 1.7
    lhs = bessel_i_complex(nu, 1j * x)
    rhs = 1j**nu * bessel_j(nu, x)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_bessel_i_derived_value():
    ref = mp_i(1, 0.5 + 0.25j)
    assert bessel_i_complex(1, 0.5 + 0.25j) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("nu", [0, 1, 2, 7, 19])
@pytest.mark.parametrize("z", [0.3, 2.0 - 1.0j, -4.0 + 2.5j, 30.0j, 25.0 - 40.0j,
                               -60.0 + 10.0j, 95.0j, 99.0])
def test_bessel_i_matrix(nu, z):
    ref = mp_i(nu, z)
    val = bessel_i_complex(nu, z)
    assert abs(val - ref) <= 1e-10 * max(abs(ref), 1e-250)


def test_bessel_i_symmetries():
    z = 3.0 - 2.0j
    assert bessel_i_complex(-4, z) == pytest.approx(bessel_i_complex(4, z), rel=1e-12)
    assert bessel_i_complex(3, -z) == pytest.approx(-bessel_i_complex(3, z), rel=1e-12)


# ---------------------------------------------------------------------------
# addition theorems used in the coefficient derivations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [0, 1, 2])
def test_neumann_addition(nu):
    u, v = 0.8, 0.5
    total = sum(bessel_i_complex(j - nu, u) * bessel_i_complex(j, v)
                for j in range(-60, 61))
    assert total == pytest.approx(bessel_i_complex(nu, u + v), abs=1e-8)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_graf_special_case(n):
    u, v = 2.0, 0.7  # u > v > 0
    total = sum(bessel_j(j, u) * complex(bessel_i_complex(j + n, v)).real
                for j in range(-60, 61))
    ratio = ((u - v) / (u + v)) ** (n / 2)
    ref = ratio * bessel_j(-n, math.copysign(1.0, u + v) * math.sqrt(u * u - v * v))
    assert total == pytest.approx(ref, abs=1e-8)


# ---------------------------------------------------------------------------
# exp_fourier_rows (spectral kernel)
# ---------------------------------------------------------------------------

def mp_exp_coeff(j, a, b, c, dps=60):
    """e^c sum_n a^(n+j) b^n / (n! (n+j)!), the two-index series of the
    j-th Fourier coefficient of exp(a e^{it} + b e^{-it} + c), in `dps`
    digits, where the double-precision series cancels."""
    if j < 0:
        return mp_exp_coeff(-j, b, a, c, dps)
    with mpmath.workdps(dps):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        term = a ** j / mpmath.factorial(j)
        total, n = term, 0
        while n < 10 or abs(term) > mpmath.mpf(10) ** -45 * (1 + abs(total)):
            n += 1
            term *= a * b / (n * (n + j))
            total += term
        return complex(mpmath.exp(c) * total)


@pytest.mark.parametrize("phi0, n0, xi", [(3.14, 1.0, 0.3), (45.0, 0.5, 0.77),
                                          (100.0, 20.0, 1.31)])
def test_exp_fourier_rows_vs_mpmath(phi0, n0, xi):
    """The unconditional Talbot exponent i zc sin t + zap cos t - zap, up to
    the phi0 and n0 the package supports, against a 60-digit series."""
    zc = phi0 * math.sin(math.pi * xi)
    zap = n0 * math.sin(0.5 * math.pi * xi) ** 2
    a, b = 0.5 * (zc + zap), 0.5 * (zap - zc)
    orders = np.arange(-130, 131, 3)
    got = exp_fourier_rows(orders, [a], [b], [-zap])[:, 0]
    ref = np.array([mp_exp_coeff(int(j), a, b, -zap) for j in orders])
    assert np.max(np.abs(got - ref)) < 1e-14


def test_exp_fourier_rows_matches_series_where_it_holds():
    a = np.array([0.8, 0.1, -1.2, -0.5])
    b = np.array([-1.1, 0.0, 0.4, -0.7])
    c = -(np.abs(a) + np.abs(b))
    got = exp_fourier_rows(range(-6, 7), a, b, c)
    assert got.shape == (13, 4)
    assert got.dtype == float
    for ij, j in enumerate(range(-6, 7)):
        ref = [mp_exp_coeff(j, *abc, dps=30).real for abc in zip(a, b, c)]
        assert got[ij] == pytest.approx(ref, abs=1e-15)
    with pytest.raises(DomainError):
        exp_fourier_rows([0], [0.8 - 0.4j], [0.1])
    with pytest.raises(DomainError):
        exp_fourier_rows([0], [0.8], [0.1], counts=1, p0=[1j])


def test_spectral_points_rule_and_cap():
    assert spectral_points(0.0, 0) == 64
    assert spectral_points(math.pi + 1.0, 2) == 128     # figure 1
    assert spectral_points(45.5, 64) == 512             # kdtli at phi0 = 45
    with pytest.raises(CutoffError):
        spectral_points(0.0, SPECTRAL_MAX_POINTS // 2)
    with pytest.raises(CutoffError):
        exp_fourier_rows([0], [1e5], [1e5])
    with pytest.raises(DomainError):
        spectral_points(math.inf, 0)


def test_exp_fourier_rows_alias_guard():
    """The tail check catches an integrand the N rule does not cover:
    exp(100 e^{it}) has modulus up to e^100 and coefficients 100^j / j!
    that are still large at order N/2.  With the prefactor e^-100 that makes
    its modulus <= 1, the same exponent passes."""
    with pytest.raises(CutoffError):
        exp_fourier_rows([0, 1], [100.0], [0.0])
    got = exp_fourier_rows([0, 100], [100.0], [0.0], [-100.0])[:, 0]
    assert got[0] == pytest.approx(math.exp(-100.0), rel=1e-12)
    assert got[1] == pytest.approx(math.exp(100 * math.log(100) - math.lgamma(101) - 100),
                                   rel=1e-12)


# ---------------------------------------------------------------------------
# hyp1f1_ladder_quad
# ---------------------------------------------------------------------------

def one_f1(ell, z):
    return complex(hyp1f1_ladder_quad(ell, [z])[ell - 1, 0])


def test_hyp1f1_at_zero():
    assert one_f1(1, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert one_f1(4, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_hyp1f1_ell1_closed_form():
    z = 0.3 - 0.2j
    assert one_f1(1, z) == pytest.approx((np.exp(z) - 1.0) / z, rel=1e-12)


@pytest.mark.parametrize("ell", [1, 2, 3, 6])
@pytest.mark.parametrize("z", [1.5 + 0.5j, -2.0 + 1.0j, -40.0, 12.0 - 9.0j, -30.0 + 25.0j])
def test_hyp1f1_vs_mpmath(ell, z):
    ref = complex(mpmath.hyp1f1(ell, ell + 1, mpmath.mpc(z)))
    assert one_f1(ell, z) == pytest.approx(ref, rel=1e-10)


def test_hyp1f1_integral_representation():
    # l * int_0^1 e^{z a} a^{l-1} da via adaptive quadrature
    ell, z = 3, 1.5 + 0.5j

    def f(a):
        return np.exp(z * a) * a ** (ell - 1)

    re = quad(lambda a: f(a).real, 0, 1, epsabs=1e-13)[0]
    im = quad(lambda a: f(a).imag, 0, 1, epsabs=1e-13)[0]
    ref = ell * (re + 1j * im)
    assert one_f1(ell, z) == pytest.approx(ref, rel=1e-8)


def mp_rows(ell_max, zs):
    return np.array([[complex(mpmath.hyp1f1(ell, ell + 1, mpmath.mpc(z))) for z in zs]
                     for ell in range(1, ell_max + 1)])


def abs_scale(ell_max, zs):
    """l int_0^1 s^(l-1) |e^(zs)| ds: the size of the terms the rule adds,
    against which its round-off is measured where Re z < 0 cancels."""
    return mp_rows(ell_max, np.real(zs))


def test_hyp1f1_ladder_rows_in_figure5_range():
    """|z| <= 2 (figure 5) with the rows of a large-n0 kernel: every row
    agrees with mpmath to round-off."""
    zs = np.linspace(-2.0, 2.0, 9) + 1j * np.linspace(1.5, -1.5, 9)
    got = hyp1f1_ladder_quad(30, zs)
    assert got.shape == (30, zs.size)
    assert np.max(np.abs(got / mp_rows(30, zs) - 1.0)) < 1e-13


def test_hyp1f1_quadrature_large_z_vs_mpmath():
    """|z| up to 100 in every direction, both signs of Re z: the error stays
    at round-off of the terms summed (relative where nothing cancels)."""
    zs = np.array([20j, 40j, 95j, -5.0 + 40.0j, 3.0 + 20.0j, 50.0, -50.0, 10.0 - 80.0j,
                   -100.0, 100.0, -20.0 + 97.0j, 60.0 - 75.0j, 0.0])
    got = hyp1f1_ladder_quad(30, zs)
    ref = mp_rows(30, zs)
    assert np.max(np.abs(got - ref) / abs_scale(30, zs)) < 1e-11
    pos = zs.real >= 0
    assert np.max(np.abs(got[:, pos] / ref[:, pos] - 1.0)) < 1e-11


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 100), st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
def test_hyp1f1_quadrature_property(ell_max, radius, angle):
    """Up to the largest node count accepted: ell_max + |z| = 2 (128 - 16)."""
    z = radius * (224 - ell_max) * complex(math.cos(angle), math.sin(angle))
    rows = [ell_max // 2, ell_max - 1]
    got = hyp1f1_ladder_quad(ell_max, [z])[rows, 0]
    ref = mp_rows(ell_max, [z])[rows, 0]
    scale = abs_scale(ell_max, [z])[rows, 0]
    assert np.max(np.abs(got - ref) / scale) < 1e-11


def test_hyp1f1_rejects_bad_input():
    with pytest.raises(DomainError):
        hyp1f1_ladder_quad(0, [1.0])
    with pytest.raises(DomainError):
        hyp1f1_ladder_quad(2, [300.0])
    with pytest.raises(DomainError):
        hyp1f1_ladder_quad(240, [0.0])
    with pytest.raises(DomainError):
        hyp1f1_ladder_quad(2, [complex(math.nan, 0.0)])
    assert hyp1f1_ladder_quad(24, [200.0j]).shape == (24, 1)


def test_legendre_nodes_are_one_rule_cached_per_count():
    """16 + (ell_max + reach)/2 nodes on [0, 1], computed once per count and
    read-only; past 128 nodes a DomainError."""
    s, w = legendre_unit_nodes(1, 3.0)
    assert s.size == 18 and w.sum() == pytest.approx(1.0, abs=1e-15)
    assert 0.0 < s.min() and s.max() < 1.0
    again = legendre_unit_nodes(2, 2.5)
    assert again[0] is s and again[1] is w
    assert not s.flags.writeable and not w.flags.writeable
    with pytest.raises(DomainError):
        legendre_unit_nodes(1, 226.0)
    with pytest.raises(DomainError):
        legendre_unit_nodes(1, math.inf)


@pytest.mark.parametrize("n", [16, 17, 40, 77, 128])
def test_legendre_nodes_integrate_polynomials_exactly(n):
    """Every node count the rule can pick: nodes as numpy's leggauss, and
    the rule exact for s^k, k <= 2n - 1, on [0, 1]."""
    s, w = legendre_unit_nodes(2 * (n - 16), 0.0)
    assert s.size == n
    x = np.polynomial.legendre.leggauss(n)[0]
    assert np.max(np.abs(s - 0.5 * (x + 1.0))) < 2e-16
    k = np.arange(2 * n)
    moments = (w * s ** k[:, None]).sum(axis=1)
    assert np.max(np.abs(moments * (k + 1) - 1.0)) < 1e-13


# ---------------------------------------------------------------------------
# sinc
# ---------------------------------------------------------------------------

def test_sinc_convention():
    assert float(sinc(0.0)) == 1.0
    assert float(sinc(np.pi)) == pytest.approx(0.0, abs=1e-16)
    u = 0.73
    assert float(sinc(u)) == pytest.approx(math.sin(u) / u, rel=1e-14)
