"""Ladder master equation: ODE route vs closed forms vs the first-absorption
quadrature representation, and the closed-form Talbot coefficients against
the sampled oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from csvio import read_csv
from oracles import (KernelSource, SummedLadderKernel, TwoPointKernel, b_numeric_oracle,
                     channel, kernel_source, ladder_ode_solve, poisson_kernel,
                     t1_integral_kernel)
from lasergrating import talbot
from lasergrating.dynamics import ladder_analytic
from lasergrating.errors import InvalidInputError
from lasergrating.grating import MeasurementProfile, m_ell
from lasergrating.nearfield import KdtliConfig, sinusoidal_visibility
from lasergrating.output import write_csv
from lasergrating.params import GratingParameters

G1 = GratingParameters(phi0=math.pi, n0=1.0)
G_ETA = GratingParameters(phi0=1.875, n0=1.5)

RNG = np.random.default_rng(7)
X = RNG.uniform(-1.0, 1.0, 24)
XP = RNG.uniform(-1.0, 1.0, 24)


def tight(grating, envelope, ell_max=None):
    """ODE oracle at tolerances tight enough for the closed-form checks."""
    return ladder_ode_solve(grating, envelope, ell_max, rtol=1e-11, atol=1e-13)


def analytic_kernel(grating, ell_max):
    """The closed-form channels as a kernel with channels and pair_values."""
    return TwoPointKernel("ladder-analytic", tuple(range(ell_max + 1)),
                          lambda x, xp: ladder_analytic(x, xp, grating, ell_max))


def expm_reference(grating, x, xp, ell_max=70):
    """K_l(x, x') for l = 0..ell_max as exp(A) e_0 with the lower-bidiagonal
    ladder generator A, shape (ell_max + 1, n_pairs)."""
    c, cp = np.cos(np.pi * x), np.cos(np.pi * xp)
    dphi = grating.phi0 * (c * c - cp * cp)
    nbar = 0.5 * grating.n0 * (c * c + cp * cp)
    idx = np.arange(ell_max + 1)
    gen = np.zeros((x.size, ell_max + 1, ell_max + 1), complex)
    gen[:, 0, 0] = 1j * dphi - nbar
    gen[:, idx[1:], idx[1:]] = (1j * grating.eta_p * dphi - grating.eta_a * nbar)[:, None]
    gen[:, idx[1:], idx[:-1]] = (grating.n0 * c * cp)[:, None] \
        * grating.eta_a ** np.minimum(idx[:-1], 1)
    return expm(gen)[:, :, 0].T


def poisson_reference(grating, ell_max):
    out = np.empty((ell_max + 1, X.size), complex)
    for ell in range(ell_max + 1):
        prof = MeasurementProfile(grating, ell)
        out[ell] = m_ell(X, prof) * np.conj(m_ell(XP, prof))
    return out


# ---------------------------------------------------------------------------
# ODE route
# ---------------------------------------------------------------------------

def test_ode_pure_phase_kernel():
    g = GratingParameters(phi0=1.3, n0=0.0)
    kern = tight(g, "gaussian", ell_max=3)
    vals = kern.channel_values(X, XP)
    c2 = np.cos(np.pi * X) ** 2
    cp2 = np.cos(np.pi * XP) ** 2
    expected = np.exp(1j * 1.3 * (c2 - cp2))
    assert np.max(np.abs(vals[0] - expected)) < 1e-9
    assert np.max(np.abs(vals[1:])) < 1e-12


@pytest.mark.parametrize("envelope", ["gaussian", "constant"])
def test_ode_eta_one_matches_measurement_operators(envelope):
    kern = tight(G1, envelope, ell_max=16)
    vals = kern.channel_values(X, XP)
    ref = poisson_reference(G1, 16)
    assert np.max(np.abs(vals - ref)) < 1e-8


def test_ode_antinode_poisson_value():
    kern = tight(G1, "gaussian", ell_max=8)
    vals = kern.channel_values(np.array([0.0]), np.array([0.0]))
    assert vals[1, 0].real == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_trace_conservation_all_eta():
    for eta_p, eta_a in ((1.0, 1.0), (1.5, 1.0), (1.0, 1.5), (1.3, 1.7)):
        g = GratingParameters(phi0=1.875, n0=1.5, eta_p=eta_p, eta_a=eta_a)
        for envelope in ("gaussian", "constant"):
            kern = tight(g, envelope)
            diag = kern.channel_values(X, X).sum(axis=0)
            assert np.max(np.abs(diag - 1.0)) < 1e-9


def test_envelope_invariance_at_eta_one():
    a = tight(G1, "gaussian", ell_max=14).channel_values(X, XP)
    b = tight(G1, "constant", ell_max=14).channel_values(X, XP)
    assert np.max(np.abs(a - b)) < 1e-8


def test_hermiticity_preserved():
    g = GratingParameters(phi0=1.875, n0=1.5, eta_p=1.5, eta_a=1.2)
    kern = tight(g, "gaussian")
    a = kern.channel_values(X, XP)
    b = kern.channel_values(XP, X)
    assert np.max(np.abs(a - np.conj(b))) < 1e-9


# ---------------------------------------------------------------------------
# closed form and the t1 representation
# ---------------------------------------------------------------------------

def test_analytic_matches_gaussian_envelope_ode():
    """The right-hand side is envelope(t) A y with A fixed and a unit-area
    envelope, so the closed form also serves the Gaussian pulse at eta != 1."""
    g = GratingParameters(phi0=1.875, n0=1.5, eta_p=1.3, eta_a=1.7)
    num = tight(g, "gaussian").channel_values(X, XP)
    ana = ladder_analytic(X, XP, g)
    assert np.max(np.abs(num - ana)) < 1e-10


def test_analytic_eta_one_reduces_to_poisson():
    got = ladder_analytic(X, XP, G1, ell_max=12)
    assert np.max(np.abs(got - poisson_reference(G1, 12))) < 1e-12


@pytest.mark.parametrize("eta_p,eta_a", [(1.5, 1.0), (1.0, 1.5)])
def test_ode_matches_hypergeometric_form(eta_p, eta_a):
    g = GratingParameters(phi0=1.875, n0=1.5, eta_p=eta_p, eta_a=eta_a)
    num = tight(g, "constant").channel_values(X, XP)
    ana = ladder_analytic(X, XP, g)
    assert np.max(np.abs(num - ana)) < 1e-7


@pytest.mark.parametrize("phi0", [1.875, 20.0, 60.0, 100.0])
@pytest.mark.parametrize("eta_p,eta_a", [(1.5, 1.0), (1.0, 1.5), (0.5, 0.7)])
def test_summed_kernel_matches_expm(phi0, eta_p, eta_a):
    """The untruncated sum over l (the oracle the summed coefficients are
    checked against) against exp(A) at ell_max = 70, and the channels (cut
    at the Poisson tail) against the same reference; eta_a = 0.7 makes
    Re z > 0."""
    g = GratingParameters(phi0=phi0, n0=1.5, eta_p=eta_p, eta_a=eta_a)
    ref = expm_reference(g, X, XP)
    assert np.max(np.abs(SummedLadderKernel(g).pair_values(X, XP) - ref.sum(axis=0))) < 1e-13
    chans = ladder_analytic(X, XP, g)
    assert np.max(np.abs(chans - ref[:chans.shape[0]])) < 1e-13


def test_summed_kernel_at_eta_one_is_unconditional():
    kern = SummedLadderKernel(G_ETA)
    c2, cp2 = np.cos(np.pi * X) ** 2, np.cos(np.pi * XP) ** 2
    cc = np.cos(np.pi * X) * np.cos(np.pi * XP)
    ref = np.exp(1j * G_ETA.phi0 * (c2 - cp2) - G_ETA.n0 * (c2 + cp2) / 2 + G_ETA.n0 * cc)
    assert np.max(np.abs(kern.pair_values(X, XP) - ref)) < 1e-15


def test_summed_kernel_at_w_zero():
    """w = 0 (no absorption; a node pair) takes the limit 1 of expm1(w)/w
    without a division warning."""
    kern = SummedLadderKernel(GratingParameters(phi0=1.3, n0=0.0))
    c2, cp2 = np.cos(np.pi * X) ** 2, np.cos(np.pi * XP) ** 2
    assert np.max(np.abs(kern.pair_values(X, XP) - np.exp(1.3j * (c2 - cp2)))) < 1e-15
    kern = SummedLadderKernel(G_ETA)
    assert kern.pair_values(np.array([0.5]), np.array([0.5]))[0] == pytest.approx(1.0, abs=1e-15)


def mp_channels(grating, x, xp, ell_max):
    """K_l = M_0 conj M_0 y^l / l! eta_a^(l-1) 1F1(l; l+1; z) in mpmath."""
    c, cp = mpmath.cos(mpmath.pi * x), mpmath.cos(mpmath.pi * xp)
    dphi = grating.phi0 * (c * c - cp * cp)
    nbar = grating.n0 * (c * c + cp * cp) / 2
    y = grating.n0 * c * cp
    z = 1j * (grating.eta_p - 1) * dphi - (grating.eta_a - 1) * nbar
    m0 = mpmath.exp(1j * dphi - nbar)
    out = [m0]
    for ell in range(1, ell_max + 1):
        out.append(m0 * y**ell / mpmath.factorial(ell) * mpmath.mpf(grating.eta_a) ** (ell - 1)
                   * mpmath.hyp1f1(ell, ell + 1, z))
    return np.array([complex(v) for v in out])


@settings(max_examples=15, deadline=None)
@given(st.floats(0.0, 100.0), st.floats(0.0, 20.0), st.floats(0.0, 2.0),
       st.floats(0.5, 1.5), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@example(100.0, 20.0, 2.0, 0.5, 0.05, 0.45)     # Re z = +5, |Im z| near 100
@example(100.0, 20.0, 0.0, 1.5, 0.05, 0.45)     # Re z < 0
def test_analytic_channels_vs_mpmath(phi0, n0, eta_p, eta_a, x, xp):
    """Channels from the Gauss-Legendre rule up to phi0 = 100 and n0 = 20,
    both signs of Re z = -(eta_a - 1) nbar."""
    g = GratingParameters(phi0=phi0, n0=n0, eta_p=eta_p, eta_a=eta_a)
    got = ladder_analytic(np.array([x]), np.array([xp]), g)[:, 0]
    with mpmath.workdps(30):
        ref = mp_channels(g, mpmath.mpf(x), mpmath.mpf(xp), got.size - 1)
    assert np.max(np.abs(got - ref)) < 1e-12


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_t1_integral_matches_hypergeometric(ell):
    g = GratingParameters(phi0=1.875, n0=1.5, eta_p=1.5, eta_a=1.3)
    quadr = t1_integral_kernel(X[:6], XP[:6], ell, g)
    ana = ladder_analytic(X[:6], XP[:6], g, ell_max=ell)[ell]
    assert np.max(np.abs(quadr - ana)) < 1e-7


def test_t1_integral_rejects_ell_zero():
    with pytest.raises(InvalidInputError):
        t1_integral_kernel(X[:2], XP[:2], 0, G_ETA)


# ---------------------------------------------------------------------------
# closed-form coefficients and the sampled oracle
# ---------------------------------------------------------------------------

def test_poisson_kernel_coefficients_match_closed_form():
    kern = poisson_kernel(G1, ell_max=16)
    for ell in (0, 1, 2):
        for (j, xi) in ((0, 0.0), (2, 0.5), (-3, 1.3)):
            num = b_numeric_oracle(j, xi, channel(kern, ell))
            ref = talbot.conditional_rows([j], [xi], ell, G1)[0, 0]
            assert num == pytest.approx(ref, abs=1e-8)
    # channel-summed kernel reproduces the unconditional coefficients
    num = b_numeric_oracle(2, 0.7, kern)
    assert num == pytest.approx(talbot.unconditional_rows([2], [0.7], G1)[0, 0], abs=1e-8)


def test_identity_kernel_gives_delta():
    g0 = GratingParameters(phi0=0.0, n0=0.0)
    kern = poisson_kernel(g0, ell_max=0)
    assert b_numeric_oracle(0, 0.3, kern) == pytest.approx(1.0, abs=1e-13)
    assert b_numeric_oracle(2, 0.3, kern) == pytest.approx(0.0, abs=1e-13)


def test_kernel_to_talbot_table():
    """The summed-ladder closed form at eta = 1 against the unconditional
    closed form and the sampled summed kernel; one sampled channel against
    the conditional closed form."""
    kern = analytic_kernel(G1, ell_max=10)
    orders, xi = (v.ravel() for v in np.meshgrid(np.arange(-4, 5), [0.0, 0.5, 1.3]))
    total = talbot.ClosedForm(G1, "ladder").pairs(orders, xi)
    sampled = KernelSource(SummedLadderKernel(G1)).pairs(orders, xi)
    one = kernel_source(kern, 1).pairs(orders, xi)
    ref = talbot.ClosedForm(G1).pairs(orders, xi)
    ref1 = talbot.ClosedForm(G1, 1).pairs(orders, xi)
    for k in range(orders.size):
        assert total[k] == pytest.approx(ref[k], abs=1e-8)
        assert total[k] == pytest.approx(sampled[k], abs=1e-13)
        assert one[k] == pytest.approx(ref1[k], abs=1e-8)


def test_kernel_source_one_line_per_unique_xi():
    """The sampled oracle evaluates each distinct kernel line once, in one
    kernel call, and labels a channel source."""
    pairs = []
    summed = SummedLadderKernel(G1)

    class Counting:
        model = "counting"

        def pair_values(self, x, xp):
            pairs.append(x.size)
            return summed.pair_values(x, xp)

    src = kernel_source(Counting(), "sum")
    tab = src.rows([2, 0], [0.5, 0.0, 0.5])
    assert pairs == [2 * 512]          # two unique lines, one kernel call
    assert tab[0, 0] == tab[0, 2]
    assert tab[0, 0] == pytest.approx(talbot.unconditional_rows([2], [0.5], G1)[0, 0], abs=1e-8)
    child = kernel_source(analytic_kernel(G1, ell_max=10), 0)
    assert child.label.endswith("ell=0")
    assert child.rows([0], [0.0])[0, 0] == pytest.approx(
        talbot.conditional_rows([0], [0.0], 0, G1)[0, 0], abs=1e-10)


def test_kernel_line_csv(tmp_path):
    kern = poisson_kernel(G1, ell_max=3)
    u = np.arange(512) / 512
    line = kern.channel_values(u - 0.25, u + 0.25)
    assert line.shape == (4, 512)
    path = tmp_path / "kernel.csv"
    write_csv(path, {"xi": 0.5}, ["channel", "u", "x", "xp", "re", "im"],
              [(ch, u, u - 0.25, u + 0.25, v.real, v.imag) for ch, v in zip(kern.channels, line)])
    meta, cols, back = read_csv(path)
    assert meta["xi"] == "0.5"
    assert cols == ["channel", "u", "x", "xp", "re", "im"]
    assert len(back) == 4 * 512
    assert back[512 + 7][4] + 1j * back[512 + 7][5] == line[1, 7]


# ---------------------------------------------------------------------------
# excited-state sensitivity (near-field consequence)
# ---------------------------------------------------------------------------

def eta_visibility(n0, eta_p, eta_a, lt=2.2, f=0.42):
    g = GratingParameters(phi0=1.25 * n0, n0=n0, eta_p=eta_p, eta_a=eta_a)
    return sinusoidal_visibility(KdtliConfig(g, f, lt, source="ladder"))


def test_polarizability_change_matters_more_than_absorption_change():
    """At high laser power the visibility responds to the excited-state
    polarizability but barely to the excited-state cross-section."""
    v_ref = eta_visibility(4.0, 1.0, 1.0)
    v_pol = eta_visibility(4.0, 1.5, 1.0)
    v_abs = eta_visibility(4.0, 1.0, 1.5)
    assert abs(v_pol - v_ref) > abs(v_abs - v_ref)
    assert abs(v_pol - v_ref) > 0.1
    assert abs(v_abs - v_ref) < 0.05
