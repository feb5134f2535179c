"""Three-level Rabi grating: master-equation solve, limiting cases, and
Rabi-modulated fringe signals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (KernelSource, TwoPointKernel, rabi_short_lifetime_limit,
                     short_lifetime_parameters, solve_pairs)
from lasergrating.errors import CutoffError, DomainError, InvalidInputError, RegimeError
from lasergrating.rabi import RabiConfig, amplitudes, rabi_kdtli, rabi_solve, rabi_source

XS = np.linspace(-0.5, 0.5, 13)
TIGHT = dict(rtol=1e-11, atol=1e-13)   # ODE tolerances of the oracle comparisons


def k00(config, x, xp):
    """Closed-form ground-state kernel K_00(x, x') = c0(x) conj c0(x')."""
    c0, c0p = (amplitudes(config.pulse_area * np.cos(np.pi * np.asarray(v)), config.detuning,
                          config.lifetime)[0] for v in (x, xp))
    return c0 * np.conj(c0p)


def test_no_drive_is_identity():
    config = RabiConfig(pulse_area=0.0, lifetime=1.0, n_points=32)
    prof = rabi_solve(config)
    assert np.max(np.abs(k00(config, XS, XS[::-1]) - 1.0)) < 1e-12
    assert np.max(np.abs(prof.populations[0] - 1.0)) < 1e-12
    assert np.max(np.abs(prof.populations[1:])) < 1e-12


def test_no_decay_rabi_oscillation():
    """tau -> infinity, Delta = 0: ground population follows
    cos^2(Omega(x) t/2)."""
    config = RabiConfig(pulse_area=4 * math.pi, detuning=0.0, lifetime=1e6, n_points=32)
    rho = solve_pairs(XS, XS, config, **TIGHT)
    p0 = rho[:, 0, 0].real
    expected = np.cos(0.5 * 4 * math.pi * np.cos(np.pi * XS)) ** 2
    assert np.max(np.abs(p0 - expected)) < 1e-6


def test_node_is_transparent():
    config = RabiConfig(pulse_area=4 * math.pi, lifetime=1.0)
    rho = solve_pairs(np.array([0.5]), np.array([0.5]), config)
    assert rho[0, 0, 0].real == pytest.approx(1.0, abs=1e-9)


def test_detuned_rabi_frequency():
    """No decay, finite detuning: population oscillates at
    Omega_R = sqrt(Delta^2 + Omega^2)."""
    area, det = 3.0, 2.0
    config = RabiConfig(pulse_area=area, detuning=det, lifetime=1e7)
    x = np.array([0.0])
    rho = solve_pairs(x, x, config, **TIGHT)
    omega_r = math.hypot(area, det)
    expected = 1.0 - (area / omega_r) ** 2 * math.sin(0.5 * omega_r) ** 2
    assert rho[0, 0, 0].real == pytest.approx(expected, abs=1e-8)


def test_populations_conserve_and_dark_state_grows():
    config = RabiConfig(pulse_area=4 * math.pi, detuning=0.0, lifetime=1.0)
    times = np.linspace(0.0, 1.0, 21)
    rho_t = solve_pairs(XS, XS, config, t_eval=times, **TIGHT)
    pops = np.stack([rho_t[:, :, i, i].real for i in range(3)])  # (3, nt, nx)
    total = pops.sum(axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-9
    assert np.min(pops) > -1e-10
    dark = pops[2]
    assert np.min(np.diff(dark, axis=0)) > -1e-9  # nondecreasing in t


def test_expm_oracle_matches_ode():
    config = RabiConfig(pulse_area=4 * math.pi, detuning=1.7, lifetime=0.8)
    a = solve_pairs(XS, XS + 0.3, config, **TIGHT)
    b = solve_pairs(XS, XS + 0.3, config, method="expm")
    assert np.max(np.abs(a - b)) < 1e-9


def test_amplitude_closed_form_matches_solver():
    """The driven sector never gets refilled, so K_00(x, x') equals the
    product of damped two-level amplitudes; independent analytic route."""
    config = RabiConfig(pulse_area=4 * math.pi, detuning=0.9, lifetime=1.3)
    x, xp = XS, XS + 0.21
    rho = solve_pairs(x, xp, config, **TIGHT)
    assert np.max(np.abs(rho[:, 0, 0] - k00(config, x, xp))) < 1e-9


# Omega t_L = 1/(2 tau/t_L) at Delta = 0: H_eff is a Jordan block (s = 0)
EXCEPTIONAL = dict(pulse_area=0.625, detuning=0.0, lifetime=0.8)


def test_ground_amplitude_at_exceptional_point():
    from scipy.linalg import expm
    w, det, tau = EXCEPTIONAL["pulse_area"], EXCEPTIONAL["detuning"], EXCEPTIONAL["lifetime"]
    h_eff = np.array([[0.0, 0.5 * w], [0.5 * w, -det - 0.5j / tau]])
    ref = expm(-1j * h_eff)[:, 0]
    c0, c1 = amplitudes(w, det, tau)
    assert abs(c0 - ref[0]) < 1e-14 and abs(c1 - ref[1]) < 1e-14
    assert complex(c0) == pytest.approx(0.96024551299247, abs=1e-13)
    # antinode of a pulse of area w: K_00(0, 0) of the nine-element oracle
    rho = solve_pairs(np.array([0.0]), np.array([0.0]), RabiConfig(**EXCEPTIONAL),
                      method="expm")
    assert abs(rho[0, 0, 0] - abs(c0) ** 2) < 1e-14


@pytest.mark.parametrize("params", [
    dict(pulse_area=2 * math.pi, detuning=0.0, lifetime=1.0),
    dict(pulse_area=8 * math.pi, detuning=0.0, lifetime=1.0),
    dict(pulse_area=3.3 * math.pi, detuning=0.4, lifetime=0.8),
    EXCEPTIONAL,
], ids=["2pi", "8pi", "detuned", "exceptional"])
def test_rabi_solve_matches_expm_oracle(params):
    """Closed-form populations and K_00 against the matrix exponential of
    the full two-point master equation."""
    config = RabiConfig(n_points=64, **params)
    prof = rabi_solve(config)
    rho = solve_pairs(prof.positions, prof.positions, config, method="expm")
    pops = np.stack([rho[:, i, i].real for i in range(3)])
    assert np.max(np.abs(prof.populations - pops)) < 1e-10
    x, xp = XS, XS + 0.21
    ref = solve_pairs(x, xp, config, method="expm")[:, 0, 0]
    assert np.max(np.abs(k00(config, x, xp) - ref)) < 1e-10


def test_closed_form_range_of_lifetimes():
    """Below tau = t_L/2800 cos(s t/2) would overflow: typed error, not
    nan.  Just inside the range the closed form still matches the oracle."""
    with pytest.raises(RegimeError):
        rabi_solve(RabiConfig(pulse_area=1.0, lifetime=1e-4))
    config = RabiConfig(pulse_area=3.0, detuning=200.0, lifetime=1.0 / 2700)
    vals = k00(config, XS, XS[::-1])
    ref = solve_pairs(XS, XS[::-1], config, method="expm")[:, 0, 0]
    assert np.max(np.abs(vals - ref)) < 1e-10


def test_hermiticity_of_ground_kernel():
    config = RabiConfig(pulse_area=3 * math.pi, detuning=0.4, lifetime=0.7)
    a = k00(config, XS, XS + 0.17)
    b = k00(config, XS + 0.17, XS)
    assert np.max(np.abs(a - np.conj(b))) < 1e-9


# ---------------------------------------------------------------------------
# short-lifetime reduction
# ---------------------------------------------------------------------------

def test_short_lifetime_regime_guard():
    with pytest.raises(RegimeError):
        rabi_short_lifetime_limit(RabiConfig(pulse_area=1.0, lifetime=0.5))


def test_short_lifetime_parameter_maps():
    # resonant: pure absorptive grating with n0 = t_L tau Omega0^2
    cfg = RabiConfig(pulse_area=10.0, detuning=0.0, lifetime=0.01)
    phi0, n0 = short_lifetime_parameters(cfg)
    assert phi0 == 0.0
    assert n0 == pytest.approx(0.01 * 100.0, rel=1e-12)
    # far off-resonance (|Delta| tau = 20): pure phase grating with
    # phi0 -> -Omega0^2 t_L/(4 Delta)
    cfg = RabiConfig(pulse_area=10.0, detuning=1000.0, lifetime=0.02)
    phi0, n0 = short_lifetime_parameters(cfg)
    assert phi0 == pytest.approx(-(10.0 ** 2) / (4 * 1000.0), rel=0.001)
    assert abs(n0) < abs(phi0) / 10


def test_full_solve_matches_short_lifetime_kernel():
    """tau = t_L/100: the solved kernel matches the closed form within 2%."""
    cfg = RabiConfig(pulse_area=10.0, detuning=50.0, lifetime=0.01)
    limit = rabi_short_lifetime_limit(cfg)
    x, xp = np.meshgrid(np.linspace(-0.5, 0.5, 11), np.linspace(-0.5, 0.5, 11))
    num = solve_pairs(x.ravel(), xp.ravel(), cfg, **TIGHT)[:, 0, 0]
    ref = limit.pair_values(x.ravel(), xp.ravel())
    assert np.max(np.abs(num - ref)) / np.max(np.abs(ref)) < 0.02


def test_mapped_parameters_recovered_by_fitting():
    """Extract (phi0, n0) from the solved kernel and compare with the
    analytic map within 2%."""
    cfg = RabiConfig(pulse_area=10.0, detuning=50.0, lifetime=0.01)
    phi0_map, n0_map = short_lifetime_parameters(cfg)
    anti = np.array([0.0])
    node = np.array([0.5])
    n0_fit = -math.log(solve_pairs(anti, anti, cfg, **TIGHT)[0, 0, 0].real)
    phi0_fit = float(np.angle(solve_pairs(anti, node, cfg, **TIGHT)[0, 0, 0]))
    assert n0_fit == pytest.approx(n0_map, rel=0.02)
    assert phi0_fit == pytest.approx(phi0_map, rel=0.02)


# ---------------------------------------------------------------------------
# transmission profile and damped-oscillation regime
# ---------------------------------------------------------------------------

def test_transmission_profile_minima_are_pi_pulses():
    """Omega0 t_L = 4 pi, tau = t_L: minima of p_0(x) sit where the local
    pulse area is an odd multiple of pi, and the antinode transmission stays
    below one."""
    config = RabiConfig(pulse_area=4 * math.pi, detuning=0.0, lifetime=1.0,
                        n_points=512)
    xs, p0 = rabi_solve(config).transmission_profile()
    assert p0[0] < 0.9  # antinode (x = 0): losses into the dark state
    # near the nodes the residual pulse area is 4 pi cos(pi x); transmission
    # deviates from one only at second order in it
    near_node = np.abs(np.cos(np.pi * xs)) < 0.01
    assert np.max(np.abs(p0[near_node] - 1.0)) < 5e-3
    # minima on x in (0, 0.5): local areas near the odd multiples pi, 3 pi,
    # shifted upward by the finite damping.  The exact damped-oscillator
    # prediction: area = 2 sqrt(nu^2 + 1/16) with tan(nu) = -4 nu.
    half = (xs > 0.0) & (xs < 0.5)
    xh, ph = xs[half], p0[half]
    idx = [i for i in range(1, len(xh) - 1)
           if ph[i] < ph[i - 1] and ph[i] < ph[i + 1]]
    minima = sorted(float(np.cos(np.pi * xh[i])) * 4.0 for i in idx)  # areas/pi
    assert len(minima) == 2
    assert minima[0] == pytest.approx(1.0, abs=0.15)  # ~pi pulse
    assert minima[1] == pytest.approx(3.0, abs=0.15)  # ~3 pi pulse
    from scipy.optimize import brentq
    for found, (lo, hi) in zip(minima, ((1.6, 1.75), (4.75, 4.86))):
        nu_star = brentq(lambda nu: math.tan(nu) + 4.0 * nu, lo, hi)
        predicted = 2.0 * math.hypot(nu_star, 0.25) / math.pi
        assert found == pytest.approx(predicted, abs=0.02)


def test_intermediate_regime_is_distinct():
    """tau = t_L sits genuinely between the coherent cos^2 oscillation and
    the incoherent exponential profile."""
    config = RabiConfig(pulse_area=4 * math.pi, detuning=0.0, lifetime=1.0)
    p0_anti = solve_pairs(np.array([0.0]), np.array([0.0]), config)[0, 0, 0].real
    coherent = math.cos(0.5 * 4 * math.pi) ** 2
    phi0_map, n0_map = short_lifetime_parameters(config)
    incoherent = math.exp(-n0_map)
    assert abs(p0_anti - coherent) > 0.05
    assert abs(p0_anti - incoherent) > 0.05


def test_profile_comparable_to_ladder_reference():
    """Fig-6(a) style overlay: the Rabi profile oscillates around the
    ladder zero-absorption profile e^{-1.2 cos^2}."""
    config = RabiConfig(pulse_area=4 * math.pi, detuning=0.0, lifetime=1.0,
                        n_points=256)
    xs, p0 = rabi_solve(config).transmission_profile()
    ladder = np.exp(-1.2 * np.cos(np.pi * xs) ** 2)
    diff = p0 - ladder
    assert diff.max() > 0.05 and diff.min() < -0.05  # oscillates through it
    assert np.all(p0 >= -1e-9) and np.all(p0 <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Rabi-modulated KDTLI
# ---------------------------------------------------------------------------

def test_rabi_kdtli_zero_drive_reduces_to_flat_mask_signal():
    sig = rabi_kdtli(RabiConfig(pulse_area=0.0, lifetime=1.0, n_points=64),
                     open_fraction=0.1, talbot_parameter=2.0, j_max=6)
    assert np.max(np.abs(sig.values - 0.01)) < 1e-10


def test_rabi_kdtli_signal_real_nonnegative_and_structured():
    sig = rabi_kdtli(RabiConfig(pulse_area=2 * math.pi, detuning=0.0, lifetime=1.0,
                                n_points=128),
                     open_fraction=0.1, talbot_parameter=2.0, j_max=10)
    assert np.min(sig.values) >= 0.0
    # strong first harmonic 2|S_1| against the mean S_0 at 2 pi pulses
    assert 2 * abs(sig.components[1]) / abs(sig.components[0]) > 0.5


@settings(max_examples=25, deadline=None)
@given(st.floats(2.0, 20.0), st.floats(-0.5, 0.5), st.floats(-2.5, 0.5),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
@example(2.0, 0.0, None, [0.0, 2.0])     # exceptional point at the antinode
@example(20.0, 0.5, None, [0.77, -1.3])
@example(20.0, -0.5, -2.5, [2.0])
def test_rabi_source_matches_sampled_kernel(area_pi, detuning, log_tau, xi):
    """The rank-one coefficients from 2 pi to 20 pi pulses, detuning +-0.5
    and lifetimes from 0.003 t_L to 3 t_L, through the exceptional point
    W = 1/(2 tau) (log_tau None: tau = 1/(2 pulse_area)), against the FFT of
    the K_00 lines at 4096 points: 1e-13, or a typed error."""
    area = area_pi * math.pi
    tau = 0.5 / area if log_tau is None else 10.0 ** log_tau
    config = RabiConfig(pulse_area=area, detuning=detuning, lifetime=tau)
    orders, x = (v.ravel() for v in np.meshgrid(np.arange(-48, 49), xi))
    try:
        got = rabi_source(config).pairs(orders, x)
    except (DomainError, CutoffError):
        return
    kernel = TwoPointKernel("rabi", ("00",), lambda x, xp: k00(config, x, xp)[None])
    ref = KernelSource(kernel, n_points=4096).pairs(orders, x)
    assert np.max(np.abs(got - ref)) < 1e-13


def test_config_validation():
    with pytest.raises(InvalidInputError):
        RabiConfig(pulse_area=-1.0)
    with pytest.raises(InvalidInputError):
        RabiConfig(pulse_area=1.0, lifetime=0.0)
    with pytest.raises(InvalidInputError):
        solve_pairs(XS, XS, RabiConfig(pulse_area=1.0), method="bogus")
