"""KDTLI fringe signals, visibilities, and transmission weights."""

import math
import tracemalloc

import numpy as np
import pytest

from coefficients import coefficient_table
from oracles import mean_transmission_closed
from lasergrating.errors import CutoffError, InvalidInputError
from lasergrating.nearfield import KdtliConfig, kdtli_signal, sinusoidal_visibility
from lasergrating.params import GratingParameters
from lasergrating.talbot import ClosedForm

G = GratingParameters(phi0=math.pi, n0=1.0)
F = 0.42


def cfg(source="quantum", lt=3.25, f=F, grating=G, **kw):
    return KdtliConfig(ClosedForm(grating, source), f, lt, **kw)


def test_no_grating_signal_is_flat():
    g0 = GratingParameters(phi0=0.0, n0=0.0)
    for f in (0.42, 0.9):
        sig = kdtli_signal(cfg(grating=g0, f=f, lt=1.7))
        assert np.max(np.abs(sig.values - f * f)) < 1e-14


def test_signal_real_and_periodic():
    sig = kdtli_signal(cfg())
    assert sig.values.dtype == float
    assert np.min(sig.values) >= 0.0
    assert sig.components[0].real == pytest.approx(F * F, rel=1e-12)  # B_0(0) = 1


def test_conditional_signals_sum_to_unconditional():
    total = None
    for ell in range(18):
        sig = kdtli_signal(cfg(source=ell))
        total = sig.values if total is None else total + sig.values
    uncond = kdtli_signal(cfg()).values
    assert np.max(np.abs(total - uncond)) < 1e-8


def mean_transmission(grating, ells, open_fraction):
    """Mean conditional signals f^2 B_0(0; l), one per count in `ells`."""
    return open_fraction**2 * coefficient_table([0], [0.0], grating, ells)[:, 0, 0]


def test_transmission_weights_64_24_8():
    w = mean_transmission(G, range(3), 1.0)
    assert w[0] == pytest.approx(0.64, abs=0.01)
    assert w[1] == pytest.approx(0.24, abs=0.01)
    assert w[2] == pytest.approx(0.08, abs=0.01)
    assert 1.0 - sum(w) == pytest.approx(0.04, abs=0.015)


def test_mean_transmissions_sum_to_f_squared():
    total = mean_transmission(G, range(25), F).sum()
    assert total == pytest.approx(F * F, abs=1e-10)


def test_mean_transmission_closed_form_matches_signal_average():
    means = mean_transmission(G, range(5), F)
    for ell in range(5):
        closed = mean_transmission_closed(G, ell, F)
        sig = kdtli_signal(cfg(source=ell))
        assert closed == pytest.approx(float(np.mean(sig.values)), abs=1e-8)
        assert closed == pytest.approx(means[ell], abs=1e-10)


def test_visibility_zero_without_grating():
    g0 = GratingParameters(phi0=0.0, n0=0.0)
    assert sinusoidal_visibility(cfg(grating=g0, lt=0.7)) == pytest.approx(0.0, abs=1e-14)


def test_visibility_period_doubling():
    """n0 = 0: V is 1-periodic in L/L_T; n0 = 1 only 2-periodic."""
    lts = np.linspace(0.005, 1.0, 50)
    g0 = GratingParameters(phi0=math.pi, n0=0.0)
    v0 = np.array([sinusoidal_visibility(cfg(grating=g0, lt=t)) for t in lts])
    v0s = np.array([sinusoidal_visibility(cfg(grating=g0, lt=t + 1)) for t in lts])
    assert np.max(np.abs(v0 - v0s)) < 1e-10
    v1 = np.array([sinusoidal_visibility(cfg(lt=t)) for t in lts])
    v1s = np.array([sinusoidal_visibility(cfg(lt=t + 1)) for t in lts])
    v2s = np.array([sinusoidal_visibility(cfg(lt=t + 2)) for t in lts])
    assert np.max(np.abs(v1 - v1s)) > 0.05
    assert np.max(np.abs(v1 - v2s)) < 1e-10


def test_conditional_visibility_can_reach_seventy_percent():
    lts = np.linspace(0.01, 2.0, 400)
    best = 0.0
    for ell in (0, 1, 2):
        vals = [abs(sinusoidal_visibility(cfg(source=ell, lt=t))) for t in lts]
        best = max(best, max(vals))
    assert best >= 0.68


def test_mirror_relation_classical_quantum():
    lts = np.linspace(0.02, 1.98, 99)
    for t in lts:
        vc = sinusoidal_visibility(cfg(source="classical", lt=t))
        vq = sinusoidal_visibility(cfg(source="quantum", lt=2.0 - t))
        assert vc == pytest.approx(vq, abs=1e-8)


def test_phase_flip_between_odd_and_even_integer():
    """Between an odd and the next even Talbot integer the l = 1 fringe is
    shifted by half a period against l = 0: the first harmonics have
    opposite sign."""
    for lt in (3.25, 3.5, 3.75):
        s0 = kdtli_signal(cfg(source=0, lt=lt)).components[1].real
        s1 = kdtli_signal(cfg(source=1, lt=lt)).components[1].real
        assert s0 * s1 < 0
    # panel (b) regime: no flip
    s0 = kdtli_signal(cfg(source=0, lt=4.25)).components[1].real
    s1 = kdtli_signal(cfg(source=1, lt=4.25)).components[1].real
    assert s0 * s1 > 0


def visibility_minmax(values) -> float:
    """(S_max - S_min)/(S_max + S_min) of a sampled signal."""
    smax, smin = float(np.max(values)), float(np.min(values))
    return (smax - smin) / (smax + smin)


def test_visibility_minmax_trivials():
    flat = kdtli_signal(cfg(grating=GratingParameters(phi0=0.0, n0=0.0), lt=1.7))
    assert visibility_minmax(flat.values) == pytest.approx(0.0, abs=1e-14)
    vals = 0.5 + 0.2 * np.cos(2 * np.pi * np.arange(512) / 512)
    assert visibility_minmax(vals) == pytest.approx(0.4, rel=1e-10)


def test_visibility_minmax_close_to_sine_visibility():
    config = cfg(lt=4.25)
    sig = kdtli_signal(config)
    vsin = sinusoidal_visibility(config)
    vmm = visibility_minmax(sig.values)
    # difference bounded by relative higher-harmonic content
    comps = sig.components
    higher = sum(2 * abs(comps[j]) for j in comps if j >= 2) / comps[0].real
    assert abs(vmm - abs(vsin)) <= higher + 1e-12


def test_velocity_average_washes_out_the_model_difference():
    """A broad velocity distribution hides the quantum/classical gap, which
    is why earlier experiments missed it."""
    def gap(spread):
        vis = {}
        for variant in ("quantum", "classical"):
            sig = kdtli_signal(cfg(source=variant, lt=3.25), spread)
            vis[variant] = 2 * sig.components[1].real / sig.components[0].real
        return abs(vis["quantum"] - vis["classical"])

    assert gap(0.0) > 0.25
    assert gap(0.2) < 0.05 * gap(0.0)


def test_velocity_average_zero_spread_is_identity():
    """The plain signal (zero spread, one sample) is the limit of the
    21-sample average as the spread goes to zero."""
    config = cfg(lt=3.25)
    sharp = kdtli_signal(config)
    narrow = kdtli_signal(config, 1e-9)
    assert np.allclose(narrow.values, sharp.values, rtol=0, atol=1e-10)
    assert narrow.components[1] == pytest.approx(sharp.components[1], abs=1e-10)
    avg = kdtli_signal(config, 0.1)
    assert avg.values.shape == sharp.values.shape
    assert np.max(np.abs(avg.values - sharp.values)) > 1e-3


def test_config_validation():
    with pytest.raises(InvalidInputError):
        KdtliConfig(ClosedForm(G), 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        KdtliConfig(ClosedForm(G), 0.5, -1.0)
    with pytest.raises(InvalidInputError):
        kdtli_signal(cfg(source="bogus"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_talbot_parameter_must_be_finite_and_positive(bad):
    with pytest.raises(InvalidInputError):
        KdtliConfig(ClosedForm(G), 0.5, bad)
    with pytest.raises(InvalidInputError):
        sinusoidal_visibility(cfg(), [1.0, bad])


def test_jmax_tail_guard():
    g = GratingParameters(phi0=8.0, n0=4.0)
    with pytest.raises(CutoffError):
        kdtli_signal(KdtliConfig(ClosedForm(g), 0.42, 0.5, j_max=3))


@pytest.mark.parametrize("source, bound_mib", [("quantum", 0.75), (1, 0.75), ("ladder", 4.0)])
def test_velocity_average_holds_no_coefficient_table(source, bound_mib):
    """One velocity-averaged signal (21 samples x 65 orders, m = 64) takes
    its 1365 coefficients pair by pair: the (2m + 1) x (distinct xi) table
    of 0.62 MiB, and the ladder's table times its Gauss-Legendre nodes (about
    23 MiB), are never built."""
    kdtli_signal(cfg(source), velocity_spread=0.07)   # warm the node and FFT caches
    tracemalloc.start()
    try:
        kdtli_signal(cfg(source), velocity_spread=0.07)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20
