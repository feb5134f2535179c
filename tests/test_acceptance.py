"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from lasergrating import dynamics, farfield, nearfield, rabi, talbot
from lasergrating.cli import main as cli_main
from lasergrating.grating import MeasurementProfile, m_ell
from lasergrating.params import GratingParameters

GOLDEN_DIR = Path(__file__).parent / "goldens"

G1 = GratingParameters(phi0=math.pi, n0=1.0)
F42 = 0.42


class criterion:
    """Context manager printing the acceptance verdict for one criterion."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        dt = time.perf_counter() - self.start
        print(f"[{status}] criterion {self.number:2d} ({dt:6.1f} s): {self.description}")
        return False


def test_criterion_01_transmission_weights():
    with criterion(1, "conditional transmission weights 64/24/8/4 % at n0 = 1"):
        t0 = time.perf_counter()
        weights = talbot.conditional_rows([0], [0.0], range(3), G1)[:, 0, 0]
        assert weights[0] == pytest.approx(0.64, abs=0.01)
        assert weights[1] == pytest.approx(0.24, abs=0.01)
        assert weights[2] == pytest.approx(0.08, abs=0.01)
        assert 1.0 - sum(weights) == pytest.approx(0.04, abs=0.015)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_conditional_visibility_window():
    with criterion(2, "max conditional |V_sin| over (0, 2] in [0.65, 0.75]"):
        t0 = time.perf_counter()
        lts = np.linspace(0.005, 2.0, 800)
        best = 0.0
        ells = (0, 1, 2)
        b2 = talbot.conditional_rows([2], lts, ells, G1)[:, 0]
        b0 = talbot.conditional_rows([0], [0.0], ells, G1)[:, 0, 0]
        for ell in ells:
            vis = np.abs(2.0 * float(np.sinc(F42)) ** 2 * b2[ell] / b0[ell])
            best = max(best, float(np.max(vis)))
        assert 0.65 <= best <= 0.75
        assert time.perf_counter() - t0 < 30.0


def _vis(grating, lts, variant):
    b2 = talbot.unconditional_rows([2], lts, grating, variant)[0]
    return 2.0 * float(np.sinc(F42)) ** 2 * b2


def test_criterion_03_period_doubling():
    with criterion(3, "absorption doubles the visibility period to 2 L_T"):
        xi = np.linspace(0.005, 1.0, 200)
        g0 = GratingParameters(phi0=math.pi, n0=0.0)
        assert np.max(np.abs(_vis(g0, xi, "quantum")
                             - _vis(g0, xi + 1.0, "quantum"))) < 1e-8
        v = _vis(G1, xi, "quantum")
        assert np.max(np.abs(v - _vis(G1, xi + 1.0, "quantum"))) > 0.05
        assert np.max(np.abs(v - _vis(G1, xi + 2.0, "quantum"))) < 1e-8


def test_criterion_04_quantum_classical_mirror():
    with criterion(4, "classical visibility mirrors quantum: V_c(xi) = V_q(2 - xi)"):
        xi = np.linspace(0.005, 1.995, 399)
        vq = _vis(G1, xi, "quantum")
        vc = _vis(G1, xi, "classical")
        vq_mirror = _vis(G1, 2.0 - xi, "quantum")
        assert np.max(np.abs(vc - vq_mirror)) < 1e-8
        assert np.max(np.abs(vq - vc)) > 0.1


def test_criterion_05_talbot_oracle_triangle():
    with criterion(5, "closed form = conditional sum = numeric Fourier (20 samples)"):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = GratingParameters(phi0=rng.uniform(0.0, 2 * math.pi),
                                  n0=rng.uniform(0.0, 3.0))
            j = int(rng.integers(-6, 7))
            xi = rng.uniform(0.0, 2.0)
            ell_max = oracles.poisson_kernel(g).channels[-1]
            closed = talbot.unconditional_rows([j], [xi], g)[0, 0]
            summed = talbot.conditional_rows([j], [xi], range(ell_max + 1), g)[:, 0, 0].sum()
            oracle = oracles.b_numeric_oracle(j, xi, oracles.poisson_kernel(g), n_points=1024)
            assert abs(closed - summed) < 1e-7
            assert abs(summed - oracle) < 1e-7
            assert abs(oracle - closed) < 1e-7


def test_criterion_06_farfield_dual_formula():
    with criterion(6, "far-field: dual formula, variant-free Fraunhofer, "
                      "half-integer peaks"):
        t0 = time.perf_counter()
        fig4 = GratingParameters(phi0=2.5, n0=2.0)
        config = farfield.FarFieldConfig(
            grating=fig4, collimator_ratio=10.0, period_over_sep=1e-3,
            sigma_det=0.1, screen=np.linspace(-3.0, 3.0, 1201))
        sums = farfield.farfield_densities(config, [0, 1, 2])
        for ell, w_sum in enumerate(sums):
            w_kir = oracles.farfield_kirchhoff(config, ell)
            rel = np.linalg.norm(w_sum.values - w_kir.values) \
                / np.linalg.norm(w_sum.values)
            assert rel < 1e-4
        # the Fraunhofer limit d/Dx -> 0, reached in every bit at d/Dx = 1e-20
        frau = farfield.FarFieldConfig(
            grating=fig4, collimator_ratio=10.0, period_over_sep=1e-20,
            sigma_det=0.1, screen=config.screen)
        (wq,) = farfield.farfield_densities(frau, [None], "quantum")
        (wc,) = farfield.farfield_densities(frau, [None], "classical")
        assert np.max(np.abs(wq.values - wc.values)) < 1e-10
        w1 = farfield.apply_detector_resolution(sums[1], 0.1)
        x, v = w1.positions, w1.values
        peaks = [x[i] for i in range(1, x.size - 1)
                 if v[i] > v[i - 1] and v[i] > v[i + 1] and v[i] > 0.05 * v.max()]
        assert peaks
        for p in peaks:
            nearest = round(abs(p) - 0.5) + 0.5
            assert abs(abs(p) - nearest) < 0.05
        assert time.perf_counter() - t0 < 60.0


def test_criterion_07_dynamics_closure():
    with criterion(7, "ladder ODE = operators (eta=1) = 1F1 = t1 integral; "
                      "polarizability beats absorption sensitivity"):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, 24)
        xp = rng.uniform(-1.0, 1.0, 24)
        ref = np.empty((17, x.size), complex)
        for ell in range(17):
            prof = MeasurementProfile(G1, ell)
            ref[ell] = m_ell(x, prof) * np.conj(m_ell(xp, prof))
        for envelope in ("gaussian", "constant"):
            kern = oracles.ladder_ode_solve(G1, envelope, ell_max=16, rtol=1e-11, atol=1e-13)
            got = kern.channel_values(x, xp)
            assert np.max(np.abs(got - ref)) < 1e-8
        for eta_p, eta_a in ((1.5, 1.0), (1.0, 1.5)):
            g = GratingParameters(phi0=1.875, n0=1.5, eta_p=eta_p, eta_a=eta_a)
            kern = oracles.ladder_ode_solve(g, "constant", rtol=1e-11, atol=1e-13)
            ode = kern.channel_values(x, xp)
            ana = dynamics.ladder_analytic(x, xp, g)
            assert np.max(np.abs(ode - ana)) < 1e-7
            for ell in (1, 2, 3):
                t1 = oracles.t1_integral_kernel(x[:8], xp[:8], ell, g)
                assert np.max(np.abs(t1 - ana[ell][:8])) < 1e-7

        def vis(eta_p, eta_a):
            g = GratingParameters(phi0=1.25 * 4.0, n0=4.0,
                                  eta_p=eta_p, eta_a=eta_a)
            return nearfield.sinusoidal_visibility(
                nearfield.KdtliConfig(g, F42, 2.2, source="ladder"))

        v_ref, v_pol, v_abs = vis(1.0, 1.0), vis(1.5, 1.0), vis(1.0, 1.5)
        assert abs(v_pol - v_ref) > abs(v_abs - v_ref)


def test_criterion_08_rabi_reductions():
    with criterion(8, "Rabi solver: short-lifetime kernel, parameter map, "
                      "no-decay limit, population conservation"):
        xs = np.linspace(-0.5, 0.5, 11)
        tight = dict(rtol=1e-11, atol=1e-13)
        cfg = rabi.RabiConfig(pulse_area=10.0, detuning=50.0, lifetime=0.01)
        limit = oracles.rabi_short_lifetime_limit(cfg)
        xg, xpg = np.meshgrid(xs, xs)
        num = oracles.solve_pairs(xg.ravel(), xpg.ravel(), cfg, **tight)[:, 0, 0]
        ref = limit.pair_values(xg.ravel(), xpg.ravel())
        assert np.max(np.abs(num - ref)) / np.max(np.abs(ref)) < 0.02

        phi0_map, n0_map = oracles.short_lifetime_parameters(cfg)
        anti, node = np.array([0.0]), np.array([0.5])
        n0_fit = -math.log(oracles.solve_pairs(anti, anti, cfg, **tight)[0, 0, 0].real)
        phi0_fit = float(np.angle(oracles.solve_pairs(anti, node, cfg, **tight)[0, 0, 0]))
        assert n0_fit == pytest.approx(n0_map, rel=0.02)
        assert phi0_fit == pytest.approx(phi0_map, rel=0.02)

        nodecay = rabi.RabiConfig(pulse_area=4 * math.pi, detuning=0.0, lifetime=1e6)
        p0 = oracles.solve_pairs(xs, xs, nodecay, **tight)[:, 0, 0].real
        expected = np.cos(0.5 * 4 * math.pi * np.cos(np.pi * xs)) ** 2
        assert np.max(np.abs(p0 - expected)) < 1e-6

        damped = rabi.RabiConfig(pulse_area=4 * math.pi, detuning=0.0, lifetime=1.0)
        rho_t = oracles.solve_pairs(xs, xs, damped, t_eval=np.linspace(0, 1, 9), **tight)
        pops = np.stack([rho_t[:, :, i, i].real for i in range(3)])
        assert np.max(np.abs(pops.sum(axis=0) - 1.0)) < 1e-9


def test_criterion_09_rabi_harmonic_staircase():
    with criterion(9, "KDTLI harmonic count grows with each Rabi cycle "
                      "(2pi..8pi pulses)"):
        t0 = time.perf_counter()
        counts = []
        for area_pi in (2.0, 4.0, 6.0, 8.0):
            cfg = rabi.RabiConfig(pulse_area=area_pi * math.pi, detuning=0.0,
                                  lifetime=1.0)
            sig = rabi.rabi_kdtli(cfg, open_fraction=0.1, talbot_parameter=2.0,
                                  j_max=24)
            s0 = abs(sig.components[0])  # harmonic amplitudes 2|S_j| against S_0
            counts.append(sum(1 for j, s in sig.components.items()
                              if j >= 1 and 2 * abs(s) / s0 > 1e-2))
        assert all(b > a for a, b in zip(counts, counts[1:])), counts
        assert time.perf_counter() - t0 < 300.0


@pytest.mark.parametrize("fig", ["1", "2", "4", "5", "6"])
def test_criterion_10_figure_regression(fig, tmp_path):
    golden = GOLDEN_DIR / f"figure{fig}"
    with criterion(10, f"figure {fig} output byte-identical to golden"):
        assert golden.is_dir(), (
            f"goldens missing at {golden}; generate with scripts/make_goldens.py"
        )
        out = tmp_path / f"figure{fig}"
        assert cli_main(["figure", fig, "--out", str(out)]) == 0
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert filecmp.cmp(out / name, golden / name, shallow=False), \
                f"figure {fig}: {name} differs from golden"
