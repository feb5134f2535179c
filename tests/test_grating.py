"""Measurement operators, Poisson probabilities, and the plane-wave diffraction
oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DiffractionAmplitudes, plane_wave_diffraction
from lasergrating.errors import CutoffError, InvalidInputError
from lasergrating.grating import (MeasurementProfile, absorption_probability, m_ell,
                                  mean_absorption, poisson_ell_max)
from lasergrating.params import GratingParameters

G_DEFAULT = GratingParameters(phi0=math.pi, n0=1.0)


def test_m_ell_vanishes_at_node():
    prof = MeasurementProfile(G_DEFAULT, ell=1)
    assert m_ell(0.5, prof) == pytest.approx(0.0, abs=1e-15)


def test_m_ell_pure_phase_grating():
    prof = MeasurementProfile(GratingParameters(phi0=2.2, n0=0.0), ell=0)
    x = np.linspace(-1, 1, 101)
    assert np.max(np.abs(np.abs(m_ell(x, prof)) - 1.0)) < 1e-14


def test_m_ell_derived_value():
    # l = 2, n0 = 1, phi0 = pi at the antinode: sqrt(1/2) e^{i pi - 1/2}
    prof = MeasurementProfile(GratingParameters(phi0=math.pi, n0=1.0), ell=2)
    expected = math.sqrt(0.5) * np.exp(1j * math.pi - 0.5)
    assert m_ell(0.0, prof) == pytest.approx(expected, rel=1e-14)


def test_m_ell_even_in_x():
    prof = MeasurementProfile(G_DEFAULT, ell=3)
    x = np.linspace(0.01, 0.49, 25)
    assert np.allclose(m_ell(x, prof), m_ell(-x, prof), rtol=0, atol=1e-15)


def test_absorption_probability_is_mod_squared():
    x = np.linspace(-0.6, 0.6, 41)
    for ell in range(4):
        prof = MeasurementProfile(G_DEFAULT, ell)
        assert np.allclose(absorption_probability(x, ell, G_DEFAULT),
                           np.abs(m_ell(x, prof)) ** 2, rtol=0, atol=1e-15)


def test_absorption_probability_completeness():
    x = np.linspace(0.0, 1.0, 17)
    total = np.zeros_like(x)
    ell = 0
    while np.min(total) <= 1.0 - 1e-12:
        total += absorption_probability(x, ell, G_DEFAULT)
        ell += 1
        assert ell < 60
    assert np.max(np.abs(total - 1.0)) < 1e-10 or np.all(total <= 1.0 + 1e-12)


def test_absorption_probability_node_and_antinode():
    assert absorption_probability(0.5, 0, G_DEFAULT) == pytest.approx(1.0)
    assert absorption_probability(0.5, 2, G_DEFAULT) == pytest.approx(0.0, abs=1e-60)
    assert absorption_probability(0.0, 0, G_DEFAULT) == pytest.approx(
        math.exp(-1.0), rel=1e-14)


def test_profiles():
    g = GratingParameters(phi0=1.5, n0=0.8)
    assert mean_absorption(0.25, g) == pytest.approx(0.4, rel=1e-14)


def test_poisson_ell_max_tail():
    g = GratingParameters(phi0=0.0, n0=1.0)
    lmax = poisson_ell_max(g)
    # tail beyond lmax is below 1e-10 at the antinode
    tail = 1.0 - sum(math.exp(-1.0) / math.factorial(k) for k in range(lmax + 1))
    assert tail < 1e-10
    assert poisson_ell_max(GratingParameters(phi0=0.0, n0=0.0)) == 0
    # eta_a > 1 raises the effective rate
    ga = GratingParameters(phi0=0.0, n0=1.0, eta_a=2.0)
    assert poisson_ell_max(ga) > lmax


def test_plane_wave_identity():
    prof = MeasurementProfile(GratingParameters(phi0=0.0, n0=0.0), ell=0)
    amps = plane_wave_diffraction(prof)
    assert amps.offsets() == [0]
    assert amps.amplitudes[0] == pytest.approx(1.0)


def test_plane_wave_unitarity_pure_phase():
    prof = MeasurementProfile(GratingParameters(phi0=math.pi, n0=0.0), ell=0)
    amps = plane_wave_diffraction(prof)
    assert amps.probability() == pytest.approx(1.0, abs=1e-12)


def test_plane_wave_offset_parity():
    for ell in range(4):
        amps = plane_wave_diffraction(MeasurementProfile(G_DEFAULT, ell))
        assert all(q % 2 == ell % 2 for q in amps.offsets())


def test_plane_wave_total_probability_over_ell():
    # brute-force sum over absorption channels
    total = sum(plane_wave_diffraction(MeasurementProfile(G_DEFAULT, ell)).probability()
                for ell in range(21))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_plane_wave_mirror_symmetry_ell0():
    amps = plane_wave_diffraction(MeasurementProfile(G_DEFAULT, 0))
    for q in amps.offsets():
        assert abs(amps.amplitudes[q]) == pytest.approx(
            abs(amps.amplitudes[-q]), rel=1e-12)


def test_plane_wave_matches_fourier_transform():
    """Numeric Fourier series of x -> M_l(x) over period 2d reproduces the
    diffraction amplitudes (oracle equivalence)."""
    n = 4096
    x = 2.0 * np.arange(n) / n
    for ell in (0, 1, 2, 3):
        prof = MeasurementProfile(G_DEFAULT, ell)
        coeff = np.fft.fft(m_ell(x, prof)) / n  # component q multiplies e^{i pi q x}
        amps = plane_wave_diffraction(prof)
        for q in range(-12, 13):
            num = coeff[(-q) % n]  # e^{-2 pi i (-q) k/n} = e^{+i pi q x}
            ana = amps.amplitudes.get(q, 0.0)
            assert num == pytest.approx(ana, abs=1e-8)


def test_plane_wave_cutoff_error():
    prof = MeasurementProfile(GratingParameters(phi0=6.0, n0=2.0), ell=0)
    with pytest.raises(CutoffError):
        plane_wave_diffraction(prof, cutoff=2)


def test_measurement_profile_validation():
    with pytest.raises(InvalidInputError):
        MeasurementProfile(G_DEFAULT, ell=-1)


@given(st.integers(min_value=0, max_value=6),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_probability_bounds_property(ell, x):
    p = absorption_probability(x, ell, G_DEFAULT)
    assert 0.0 <= p <= 1.0


def test_amplitudes_container():
    d = DiffractionAmplitudes(ell=0, amplitudes={0: 0.6, 2: 0.8j})
    assert d.probability() == pytest.approx(1.0)
    assert d.offsets() == [0, 2]
