"""Far-field densities: Fourier sum vs the Kirchhoff oracle vs Fraunhofer
limit, detector resolution, and the phase-space pipeline oracle."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from oracles import (PhaseSpaceState, collimation_transform, farfield_kirchhoff,
                     plane_wave_pipeline)
from lasergrating.errors import InvalidInputError, ResolutionError
from lasergrating.farfield import (ALIAS_MARGIN, FarFieldConfig, ScreenDensity,
                                   _screen_coefficients, _screen_transform, _sine_factor,
                                   apply_detector_resolution, farfield_densities)
from lasergrating.grating import MeasurementProfile, poisson_ell_max
from lasergrating.params import GratingParameters
from lasergrating.talbot import conditional_rows, fold_xi, unconditional_rows

FIG4 = GratingParameters(phi0=2.5, n0=2.0)
FRAUNHOFER = 1e-20  # d/Dx at which 2 q d/Dx is below half an ulp of every nonzero order


def fig4_config(**kw):
    base = dict(grating=FIG4, collimator_ratio=10.0, period_over_sep=1e-3,
                sigma_det=0.1, screen=np.linspace(-3.0, 3.0, 1201))
    base.update(kw)
    return FarFieldConfig(**base)


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# ---------------------------------------------------------------------------
# dual-formula equivalence (Fourier sum vs Kirchhoff)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ell", [0, 1, 2])
def test_dual_formula_agreement(ell):
    config = fig4_config()
    w_sum = farfield_densities(config, [ell])[0]
    w_kir = farfield_kirchhoff(config, ell)
    assert rel_l2(w_sum.values, w_kir.values) < 1e-4


def test_single_slit_envelope_no_grating():
    g0 = GratingParameters(phi0=0.0, n0=0.0)
    config = fig4_config(grating=g0)
    w = farfield_densities(config, [0])[0]
    w_kir = farfield_kirchhoff(config, 0)
    assert rel_l2(w.values, w_kir.values) < 1e-6
    # central peak at the axis, even in x
    assert np.argmax(w.values) == w.values.size // 2
    assert np.max(np.abs(w.values - w.values[::-1])) < 1e-8 * np.max(w.values)


def test_unconditional_is_sum_of_conditionals():
    config = fig4_config(screen=np.linspace(-3.0, 3.0, 601), q_points_per_unit=64)
    total = sum(w.values for w in farfield_densities(config, list(range(14))))
    uncond = farfield_densities(config, [None])[0].values
    assert np.max(np.abs(total - uncond)) < 1e-6


def test_density_even_in_x():
    config = fig4_config()
    for w in (d.values for d in farfield_densities(config, [None, 0, 1])):
        assert np.max(np.abs(w - w[::-1])) < 1e-8 * np.max(np.abs(w))


def test_density_integral_is_transmission():
    """Parseval normalization: screen integral of the conditional density is
    the transmission probability of that channel, summing to one."""
    config = fig4_config(screen=np.linspace(-6.0, 6.0, 2401), q_points_per_unit=128)
    total = 0.0
    for w in farfield_densities(config, list(range(14))):
        total += np.trapezoid(w.values, w.positions)
    assert total == pytest.approx(1.0, abs=2e-3)


# ---------------------------------------------------------------------------
# Fraunhofer limit
# ---------------------------------------------------------------------------

def test_fraunhofer_variant_independent():
    config = fig4_config(period_over_sep=FRAUNHOFER)
    wq = farfield_densities(config, [None])[0]
    wc = farfield_densities(config, [None], "classical")[0]
    assert np.max(np.abs(wq.values - wc.values)) < 1e-10


def test_fraunhofer_matches_exact_at_small_ratio():
    # D/d = 2 keeps the first-order near-field correction inside the stated
    # tolerance at the pinned d/Dx = 1e-3
    config = fig4_config(collimator_ratio=2.0)
    exact = farfield_densities(config, [None])[0]
    frau = farfield_densities(fig4_config(collimator_ratio=2.0, period_over_sep=FRAUNHOFER),
                              [None])[0]
    assert rel_l2(frau.values, exact.values) < 1e-3


def test_fraunhofer_regime_warning():
    """The Fraunhofer limit holds only for d/Dx well below 1e-2: at d/Dx =
    0.05 (D/d = 10) it misses the exact density by 90 % in the l2 norm."""
    config = fig4_config(period_over_sep=0.05)
    exact = farfield_densities(config, [0])[0]
    frau = farfield_densities(fig4_config(period_over_sep=FRAUNHOFER), [0])[0]
    assert rel_l2(frau.values, exact.values) > 0.5


def test_fraunhofer_ell0_peaks_at_integers():
    (w,) = farfield_densities(fig4_config(period_over_sep=FRAUNHOFER), [0])
    w = apply_detector_resolution(w, 0.1)
    x, v = w.positions, w.values
    peaks = [x[i] for i in range(1, x.size - 1)
             if v[i] > v[i - 1] and v[i] > v[i + 1] and v[i] > 0.05 * v.max()]
    assert peaks, "no peaks found"
    assert all(abs(p - round(p)) < 0.05 for p in peaks)


def test_half_integer_peaks_for_single_absorption():
    config = fig4_config()
    w = apply_detector_resolution(farfield_densities(config, [1])[0], 0.1)
    x, v = w.positions, w.values
    peaks = [x[i] for i in range(1, x.size - 1)
             if v[i] > v[i - 1] and v[i] > v[i + 1] and v[i] > 0.05 * v.max()]
    assert peaks, "no peaks found"
    for p in peaks:
        nearest_half = round(abs(p) - 0.5) + 0.5
        assert abs(abs(p) - nearest_half) < 0.05


def test_absorption_populates_half_integer_peaks():
    """Unconditional density: integer peaks reduced and half-integer peaks
    raised relative to the phase-only curve."""
    config = fig4_config(screen=np.linspace(-1.6, 1.6, 1281))
    w_abs = apply_detector_resolution(farfield_densities(config, [None])[0], 0.1)
    g0 = GratingParameters(phi0=2.5, n0=0.0)
    w_ref = apply_detector_resolution(
        farfield_densities(fig4_config(grating=g0, screen=config.screen), [None])[0], 0.1)

    def value_at(w, pos):
        return float(np.interp(pos, w.positions, w.values))

    norm_abs = np.trapezoid(w_abs.values, w_abs.positions)
    norm_ref = np.trapezoid(w_ref.values, w_ref.positions)
    assert value_at(w_abs, 0.5) / norm_abs > 2.0 * value_at(w_ref, 0.5) / norm_ref
    assert value_at(w_abs, 1.0) / norm_abs < value_at(w_ref, 1.0) / norm_ref


# ---------------------------------------------------------------------------
# detector resolution
# ---------------------------------------------------------------------------

def test_resolution_identity_at_zero_sigma():
    config = fig4_config()
    w = farfield_densities(config, [0])[0]
    same = apply_detector_resolution(w, 0.0)
    assert np.allclose(same.values, w.values)


def test_resolution_preserves_integral():
    # compactly supported density: discrete mass conservation is exact
    x = np.linspace(-3.0, 3.0, 2401)
    vals = np.exp(-((x / 0.5) ** 2)) * (1.0 + 0.4 * np.cos(8 * np.pi * x))
    w = ScreenDensity(x, vals)
    sm = apply_detector_resolution(w, 0.1)
    assert np.trapezoid(sm.values, x) == pytest.approx(
        np.trapezoid(vals, x), rel=1e-10)
    # physical slit density: conservation limited only by the mass smoothed
    # past the window edge (slow 1/x^2 aperture tails)
    config = fig4_config(screen=np.linspace(-4.0, 4.0, 3201), q_points_per_unit=128)
    wd = farfield_densities(config, [0])[0]
    smd = apply_detector_resolution(wd, 0.1)
    assert np.trapezoid(smd.values, wd.positions) == pytest.approx(
        np.trapezoid(wd.values, wd.positions), rel=1e-4)


def test_resolution_grid_guard():
    coarse = ScreenDensity(np.linspace(-3, 3, 61), np.ones(61))
    with pytest.raises(ResolutionError):
        apply_detector_resolution(coarse, 0.1)


# ---------------------------------------------------------------------------
# quantum vs classical discriminability
# ---------------------------------------------------------------------------

def test_far_field_cannot_discriminate_models_but_near_field_can():
    """Deep Fraunhofer regime: quantum and classical unconditional densities
    differ below 1e-3 of the peak, while the KDTLI visibility gap at the
    same grating parameters exceeds 0.1."""
    g = GratingParameters(phi0=math.pi, n0=1.0)
    config = fig4_config(grating=g, period_over_sep=1e-5,
                         screen=np.linspace(-3.0, 3.0, 1201))
    wq = farfield_densities(config, [None], "quantum")[0].values
    wc = farfield_densities(config, [None], "classical")[0].values
    assert np.max(np.abs(wq - wc)) < 1e-3 * np.max(wq)

    from lasergrating.nearfield import KdtliConfig, sinusoidal_visibility
    vq = sinusoidal_visibility(KdtliConfig(g, 0.42, 3.25, source="quantum"))
    vc = sinusoidal_visibility(KdtliConfig(g, 0.42, 3.25, source="classical"))
    assert abs(vq - vc) > 0.1


# ---------------------------------------------------------------------------
# numerics guards
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InvalidInputError):
        FarFieldConfig(FIG4, collimator_ratio=-1.0)
    with pytest.raises(InvalidInputError):
        FarFieldConfig(FIG4, period_over_sep=0.0)


@pytest.mark.parametrize("screen", [np.array([]), np.zeros((3, 3))], ids=["empty", "2-D"])
def test_screen_validation(screen):
    with pytest.raises(InvalidInputError):
        FarFieldConfig(FIG4, screen=screen)


def test_quadrature_guards():
    config = fig4_config(q_points_per_unit=16)
    with pytest.raises(ResolutionError):
        farfield_densities(config, [0])
    config = fig4_config(j_max=2)
    with pytest.raises(ResolutionError):
        farfield_densities(config, [None])
    with pytest.raises(ResolutionError):
        farfield_kirchhoff(fig4_config(), 0, n_aperture=2048)


# ---------------------------------------------------------------------------
# screen transform (centred chirp-z) and the alias guard
# ---------------------------------------------------------------------------

EXTENDED = np.finfo(np.longdouble).eps < 1e-18


def extended_sum(x, q, c):
    """sum_k c_k e^{2 pi i x_m q_k} in np.longdouble on the uniform grids
    through the end points of x and q (linspace rounds its points by up to
    an ulp; the transform works on the grid they sample)."""
    ld = np.longdouble

    def grid(v):
        v = np.asarray(v, ld)
        if v.size == 1:
            return v
        return v[0] + np.arange(v.size, dtype=ld) * ((v[-1] - v[0]) / (v.size - 1))

    phase = 2 * np.arccos(ld(-1)) * np.outer(grid(x), grid(q))
    cos, sin = np.cos(phase), np.sin(phase)
    cr, ci = np.asarray(c.real, ld), np.asarray(c.imag, ld)
    return (cos @ cr - sin @ ci).astype(float) + 1j * (sin @ cr + cos @ ci).astype(float)


@pytest.mark.skipif(not EXTENDED, reason="np.longdouble is not extended precision here")
@pytest.mark.parametrize("ell", [None, 0, 2])
def test_screen_transform_vs_extended_precision(ell):
    """Full figure-4 size (2401 x 5121), reference on every 8th screen row;
    no less accurate than the dense double sum it replaced."""
    config = fig4_config(screen=np.linspace(-3.0, 3.0, 2401))
    q, (c,) = _screen_coefficients(config, [ell], "quantum")
    w = _screen_transform(config.screen, q, c)
    rows = config.screen[::8]
    ref = extended_sum(rows, q, c)
    dense = (np.exp(2j * np.pi * np.outer(rows, q)) * c[None, :]).sum(axis=1)
    peak = np.max(np.abs(ref))
    assert np.max(np.abs(w[::8] - ref)) < 1e-14 * peak
    assert np.max(np.abs(w[::8] - ref)) <= np.max(np.abs(dense - ref))


@pytest.mark.skipif(not EXTENDED, reason="np.longdouble is not extended precision here")
@pytest.mark.parametrize("screen, ratio", [
    (np.linspace(-3.0, 3.0, 601), 1e-3),
    (np.linspace(-3.0, 3.0, 600), 1e-3),
    (np.linspace(-1.3, 4.1, 517), 1e-3),
    (np.array([0.7]), 1e-3),
    (np.array([-0.25, 1.5]), 1e-3),
    (np.linspace(2.5, -1.5, 400), 1e-3),
    (np.linspace(-3.0, 3.0, 601), FRAUNHOFER),
], ids=["odd", "even", "asymmetric", "M=1", "M=2", "descending", "fraunhofer"])
def test_screen_transform_grid_shapes(screen, ratio):
    config = fig4_config(screen=screen, q_points_per_unit=64, period_over_sep=ratio)
    q, (c,) = _screen_coefficients(config, [None], "quantum")
    ref = extended_sum(screen, q, c)
    w = _screen_transform(screen, q, c)
    assert w.shape == screen.shape
    peak = abs(np.sum(c))  # the density's maximum, at x = 0
    assert np.max(np.abs(w - ref)) < 1e-14 * peak


def test_nonuniform_screen_is_the_dense_sum():
    """The chirp-z transform needs a uniform screen, so the dense sum that
    served a non-uniform one is gone and such a screen is rejected: an
    InvalidInputError (CLI exit 2), never a density."""
    for screen in (3.0 * np.linspace(-1.0, 1.0, 601) ** 3, np.array([-1.0, 0.0, 2.5])):
        with pytest.raises(InvalidInputError):
            fig4_config(screen=screen)
    # ulp-level jitter of a linspace grid is uniform
    assert fig4_config(screen=np.linspace(-1.3, 4.1, 517)).screen.size == 517


def test_screen_transform_time_and_memory():
    x = np.linspace(-3.0, 3.0, 2401)
    q = np.linspace(-10.0, 10.0, 5121)
    c = np.exp(-q * q) * (1.0 + 0.5j * np.sin(q))
    tracemalloc.start()
    _screen_transform(x, q, c)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 20e6
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _screen_transform(x, q, c)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.05


@pytest.mark.parametrize("ratio", [10.0, 10.3])
def test_screen_coefficients_memory(ratio):
    """A `farfield --ell all` pass of the benchmark's size (7 counts), with
    about 20 q points per folded value at D/d = 10 and none repeated at
    D/d = 10.3, stays within a few Q_BLOCK arrays."""
    g = GratingParameters(phi0=2.4, n0=0.1)
    ells = list(range(poisson_ell_max(g) + 1))
    assert len(ells) == 7
    config = FarFieldConfig(grating=g, collimator_ratio=ratio, period_over_sep=1e-3,
                            sigma_det=0.1, screen=np.linspace(-3.0, 3.0, 801))
    tracemalloc.start()
    try:
        _screen_coefficients(config, ells, "quantum")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_non_dyadic_collimator_matches_per_q_rows():
    """At D/d = 10.3 no folded q repeats but its mirror image; the blocked
    gather equals the rows taken at every q point and summed directly."""
    config = fig4_config(collimator_ratio=10.3)
    ells = [None, 0, 2]
    q, c = _screen_coefficients(config, ells, "quantum")
    assert fold_xi(q)[0].size >= q.size // 2
    orders = np.arange(-config.order_cutoff(), config.order_cutoff() + 1)
    sine = _sine_factor(orders, q, config.collimator_ratio, config.period_over_sep)
    rows = [unconditional_rows(orders, q, FIG4), *conditional_rows(orders, q, [0, 2], FIG4)]
    wts = np.full(q.size, q[1] - q[0])
    wts[0] = wts[-1] = 0.5 * (q[1] - q[0])
    for ck, r in zip(c, rows):
        assert np.max(np.abs(ck - (r * sine).sum(axis=0) * wts)) <= 1e-15


def alias_bound(config):
    """Largest |x| the alias guard admits."""
    return (config.q_points_per_unit - 0.5 * config.order_cutoff()
            - config.collimator_ratio * config.period_over_sep - ALIAS_MARGIN)


def test_alias_guard_rejects_screen_near_period():
    # at 64 points per unit, x = 60 lies 4 Dx from the centre of the density's copy
    with pytest.raises(ResolutionError):
        farfield_densities(fig4_config(screen=np.array([60.0]), q_points_per_unit=64), [None])
    edge = alias_bound(fig4_config(q_points_per_unit=64)) + 0.01
    for ell in (None, 0):
        with pytest.raises(ResolutionError):
            farfield_densities(fig4_config(screen=np.linspace(-edge, 0.0, 3),
                                           q_points_per_unit=64), [ell])


@pytest.mark.parametrize("ell", [None, 0, 2])
def test_alias_guard_admits_only_accurate_screens(ell):
    """Screen points on the zeros x = k d/D of the slit's 1/x^2 diffraction
    tail.  That tail aliases at every x and sets a floor of about 3e-6 of
    the peak at 64 points per unit elsewhere; on its zeros what remains is
    the spill of the aliased orders, which the guard bounds."""
    config = fig4_config(q_points_per_unit=64)
    dd = config.collimator_ratio
    k = math.floor(alias_bound(config) * dd)
    screen = np.linspace(-k / dd, k / dd, 2 * k + 1)
    w = farfield_densities(fig4_config(screen=screen, q_points_per_unit=64), [ell])[0].values
    ref = farfield_densities(fig4_config(screen=screen, q_points_per_unit=512), [ell])[0].values
    assert np.max(np.abs(w - ref)) < 1e-10 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# phase-space route
# ---------------------------------------------------------------------------

def test_collimation_identity_for_wide_slit():
    # slit much wider than the state's support acts as the identity
    y = np.linspace(-1.0, 1.0, 41)
    nu = np.linspace(-20.0, 20.0, 10241)
    w = np.exp(-y[:, None] ** 2 / 0.1) * np.exp(-nu[None, :] ** 2 / 4.0)
    state = PhaseSpaceState(y, nu, w)
    out = collimation_transform(state, slit_ratio=20.0)
    keep = np.abs(nu) < 10.0
    assert np.max(np.abs(out.w[:, keep] - w[:, keep])) < 1e-2 * np.max(w)


def test_collimation_preserves_symmetry():
    y = np.linspace(-2.0, 2.0, 81)
    nu = np.linspace(-20.0, 20.0, 2001)
    w = np.exp(-y[:, None] ** 2) * np.exp(-nu[None, :] ** 2)
    out = collimation_transform(PhaseSpaceState(y, nu, w), slit_ratio=2.0)
    assert np.max(np.abs(out.w - out.w[::-1, :])) < 1e-12
    assert np.max(np.abs(out.w - out.w[:, ::-1])) < 1e-12


def test_collimation_clips_support():
    y = np.linspace(-3.0, 3.0, 61)
    nu = np.linspace(-10.0, 10.0, 801)
    w = np.ones((61, 801))
    out = collimation_transform(PhaseSpaceState(y, nu, w), slit_ratio=2.0)
    outside = np.abs(y) > 1.0
    assert np.max(np.abs(out.w[outside])) == 0.0


def test_plane_wave_pipeline_matches_density():
    """Full phase-space propagation (plane wave, slit, grating kicks, free
    flight) against the Fourier-sum density in the Fraunhofer regime."""
    g = GratingParameters(phi0=1.5, n0=1.0)
    screen = np.linspace(-2.5, 2.5, 1001)
    config = FarFieldConfig(grating=g, collimator_ratio=8.0, period_over_sep=1e-4,
                            sigma_det=0.1, screen=screen)
    kernel = lambda x, xp: (  # noqa: E731  unconditional closed-form kernel
        np.exp(g.n0 * np.cos(np.pi * x) * np.cos(np.pi * xp))
        * np.exp(1j * g.phi0 * (np.cos(np.pi * x) ** 2 - np.cos(np.pi * xp) ** 2))
        * np.exp(-0.5 * g.n0 * (np.cos(np.pi * x) ** 2 + np.cos(np.pi * xp) ** 2)))
    pipe = plane_wave_pipeline(kernel, slit_ratio=8.0, period_over_sep=1e-4,
                               screen=screen)
    ref = farfield_densities(config, [None])[0]
    pipe_s = apply_detector_resolution(pipe, 0.1)
    ref_s = apply_detector_resolution(ref, 0.1)
    a = pipe_s.values / np.trapezoid(pipe_s.values, screen)
    b = ref_s.values / np.trapezoid(ref_s.values, screen)
    assert rel_l2(a, b) < 1e-3


def test_plane_wave_pipeline_conditional():
    g = GratingParameters(phi0=1.5, n0=1.0)
    screen = np.linspace(-2.5, 2.5, 1001)
    config = FarFieldConfig(grating=g, collimator_ratio=8.0, period_over_sep=1e-4,
                            sigma_det=0.1, screen=screen)
    profile = MeasurementProfile(g, 1)
    pipe = apply_detector_resolution(
        plane_wave_pipeline(profile, 8.0, 1e-4, screen), 0.1)
    ref = apply_detector_resolution(farfield_densities(config, [1])[0], 0.1)
    a = pipe.values / np.trapezoid(pipe.values, screen)
    b = ref.values / np.trapezoid(ref.values, screen)
    assert rel_l2(a, b) < 1e-3
