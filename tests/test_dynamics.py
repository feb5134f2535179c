"""Ladder master equation: ODE route vs closed forms vs the first-absorption
quadrature representation, and the Talbot bridge."""

import math

import numpy as np
import pytest

from csvio import read_csv
from lasergrating import talbot
from lasergrating.dynamics import (LadderConfig, kernel_source, ladder_analytic,
                                   ladder_ode_solve, poisson_kernel, t1_integral_kernel)
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


def tight(grating, envelope, **kw):
    return LadderConfig(grating, envelope=envelope, rtol=1e-11, atol=1e-13, **kw)


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
    kern = ladder_ode_solve(tight(g, "gaussian", ell_max=3))
    vals = kern.channel_values(X, XP)
    c2 = np.cos(np.pi * X) ** 2
    cp2 = np.cos(np.pi * XP) ** 2
    expected = np.exp(1j * 1.3 * (c2 - cp2))
    assert np.max(np.abs(vals[0] - expected)) < 1e-9
    assert np.max(np.abs(vals[1:])) < 1e-12


@pytest.mark.parametrize("envelope", ["gaussian", "constant"])
def test_ode_eta_one_matches_measurement_operators(envelope):
    kern = ladder_ode_solve(tight(G1, envelope, ell_max=16))
    vals = kern.channel_values(X, XP)
    ref = poisson_reference(G1, 16)
    assert np.max(np.abs(vals - ref)) < 1e-8


def test_ode_antinode_poisson_value():
    kern = ladder_ode_solve(tight(G1, "gaussian", ell_max=8))
    vals = kern.channel_values(np.array([0.0]), np.array([0.0]))
    assert vals[1, 0].real == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_trace_conservation_all_eta():
    for eta_p, eta_a in ((1.0, 1.0), (1.5, 1.0), (1.0, 1.5), (1.3, 1.7)):
        g = GratingParameters(phi0=1.875, n0=1.5, eta_p=eta_p, eta_a=eta_a)
        for envelope in ("gaussian", "constant"):
            kern = ladder_ode_solve(tight(g, envelope))
            diag = kern.channel_values(X, X).sum(axis=0)
            assert np.max(np.abs(diag - 1.0)) < 1e-9


def test_envelope_invariance_at_eta_one():
    a = ladder_ode_solve(tight(G1, "gaussian", ell_max=14)).channel_values(X, XP)
    b = ladder_ode_solve(tight(G1, "constant", ell_max=14)).channel_values(X, XP)
    assert np.max(np.abs(a - b)) < 1e-8


def test_hermiticity_preserved():
    g = GratingParameters(phi0=1.875, n0=1.5, eta_p=1.5, eta_a=1.2)
    kern = ladder_ode_solve(tight(g, "gaussian"))
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
    num = ladder_ode_solve(tight(g, "gaussian")).channel_values(X, XP)
    ana = ladder_analytic(tight(g, "gaussian")).channel_values(X, XP)
    assert np.max(np.abs(num - ana)) < 1e-10


def test_analytic_eta_one_reduces_to_poisson():
    kern = ladder_analytic(tight(G1, "constant", ell_max=12))
    assert np.max(np.abs(kern.channel_values(X, XP) - poisson_reference(G1, 12))) < 1e-12


@pytest.mark.parametrize("eta_p,eta_a", [(1.5, 1.0), (1.0, 1.5)])
def test_ode_matches_hypergeometric_form(eta_p, eta_a):
    g = GratingParameters(phi0=1.875, n0=1.5, eta_p=eta_p, eta_a=eta_a)
    num = ladder_ode_solve(tight(g, "constant")).channel_values(X, XP)
    ana = ladder_analytic(tight(g, "constant")).channel_values(X, XP)
    assert np.max(np.abs(num - ana)) < 1e-7


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_t1_integral_matches_hypergeometric(ell):
    g = GratingParameters(phi0=1.875, n0=1.5, eta_p=1.5, eta_a=1.3)
    quadr = t1_integral_kernel(X[:6], XP[:6], ell, g)
    ana = ladder_analytic(tight(g, "constant", ell_max=ell)).channel_values(
        X[:6], XP[:6])[ell]
    assert np.max(np.abs(quadr - ana)) < 1e-7


def test_t1_integral_rejects_ell_zero():
    with pytest.raises(InvalidInputError):
        t1_integral_kernel(X[:2], XP[:2], 0, G_ETA)


# ---------------------------------------------------------------------------
# Talbot bridge
# ---------------------------------------------------------------------------

def test_poisson_kernel_coefficients_match_closed_form():
    kern = poisson_kernel(G1, ell_max=16)
    for ell in (0, 1, 2):
        for (j, xi) in ((0, 0.0), (2, 0.5), (-3, 1.3)):
            num = talbot.b_numeric_oracle(j, xi, kern.channel(ell))
            ref = complex(talbot.b_conditional(j, xi, ell, G1))
            assert num == pytest.approx(ref, abs=1e-8)
    # channel-summed kernel reproduces the unconditional coefficients
    num = talbot.b_numeric_oracle(2, 0.7, kern)
    assert num == pytest.approx(complex(talbot.b_unconditional(2, 0.7, G1)), abs=1e-8)


def test_identity_kernel_gives_delta():
    g0 = GratingParameters(phi0=0.0, n0=0.0)
    kern = poisson_kernel(g0, ell_max=0)
    assert talbot.b_numeric_oracle(0, 0.3, kern) == pytest.approx(1.0, abs=1e-13)
    assert talbot.b_numeric_oracle(2, 0.3, kern) == pytest.approx(0.0, abs=1e-13)


def test_kernel_to_talbot_table():
    kern = ladder_analytic(tight(G1, "constant", ell_max=10))
    xi = np.array([0.0, 0.5, 1.3])
    orders = np.arange(-4, 5)
    total = kernel_source(kern, "sum").rows(orders, xi)
    one = kernel_source(kern, 1).rows(orders, xi)
    for ix, x in enumerate(xi):
        for ij, j in enumerate(orders):
            ref = complex(talbot.b_unconditional(int(j), float(x), G1))
            assert total[ij, ix] == pytest.approx(ref, abs=1e-8)
            ref0 = complex(talbot.b_conditional(int(j), float(x), 1, G1))
            assert one[ij, ix] == pytest.approx(ref0, abs=1e-8)


def test_kernel_source_one_line_per_unique_xi():
    kern = ladder_analytic(tight(G1, "constant", ell_max=10))
    pairs = []
    evaluator = kern.evaluator
    kern.evaluator = lambda x, xp: pairs.append(x.size) or evaluator(x, xp)
    src = kernel_source(kern, "sum")
    tab = src.rows([2, 0], [0.5, 0.0, 0.5])
    assert pairs == [2 * 512]          # two unique lines, one kernel call
    assert tab[0, 0] == tab[0, 2]
    assert tab[0, 0] == pytest.approx(complex(talbot.b_unconditional(2, 0.5, G1)), abs=1e-8)
    child = kernel_source(kern, 0)
    assert child.label.endswith("ell=0")
    assert child.rows([0], [0.0])[0, 0] == pytest.approx(
        complex(talbot.b_conditional(0, 0.0, 0, G1)), abs=1e-10)


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
    kern = ladder_analytic(LadderConfig(g, envelope="constant"))
    src = kernel_source(kern, "sum")
    return sinusoidal_visibility(KdtliConfig(None, f, lt, source=src))


def test_polarizability_change_matters_more_than_absorption_change():
    """At high laser power the visibility responds to the excited-state
    polarizability but barely to the excited-state cross-section."""
    v_ref = eta_visibility(4.0, 1.0, 1.0)
    v_pol = eta_visibility(4.0, 1.5, 1.0)
    v_abs = eta_visibility(4.0, 1.0, 1.5)
    assert abs(v_pol - v_ref) > abs(v_abs - v_ref)
    assert abs(v_pol - v_ref) > 0.1
    assert abs(v_abs - v_ref) < 0.05
