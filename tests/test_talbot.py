"""Talbot coefficients: closed forms, classical variant, numeric oracle."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coefficients import coefficient_table
from csvio import read_csv
from oracles import KernelSource, SummedLadderKernel, b_numeric_oracle, channel, poisson_kernel
from lasergrating.cli import main
from lasergrating.errors import CutoffError, DomainError, InvalidInputError, ResolutionError
from lasergrating.grating import MeasurementProfile, poisson_ell_max
from lasergrating import farfield, specfun, talbot
from lasergrating.output import write_csv
from lasergrating.params import GratingParameters
from lasergrating.specfun import exp_fourier_rows
from lasergrating.talbot import ClosedForm, RankOneSource, fold_xi, zeta

mpmath.mp.dps = 30

G = GratingParameters(phi0=math.pi, n0=1.0)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def test_zeta_endpoints():
    za, zc, zap = zeta(0.0, G)
    assert (za, zc, zap) == pytest.approx((0.5, 0.0, 0.0), abs=1e-15)
    za, zc, zap = zeta(1.0, G)
    assert (za, zc, zap) == pytest.approx((-0.5, 0.0, 1.0), abs=1e-15)


def test_zeta_golden():
    g = GratingParameters(phi0=2.0, n0=1.2)
    za, zc, zap = zeta(0.37, g)
    assert za == pytest.approx(float(0.6 * mpmath.cos(0.37 * mpmath.pi)), rel=1e-14)
    assert zc == pytest.approx(float(2 * mpmath.sin(0.37 * mpmath.pi)), rel=1e-14)
    assert zap == pytest.approx(float(1.2 * mpmath.sin(0.185 * mpmath.pi) ** 2), rel=1e-14)


# ---------------------------------------------------------------------------
# conditional coefficients
# ---------------------------------------------------------------------------

def test_conditional_no_grating_is_delta():
    g0 = GratingParameters(phi0=0.0, n0=0.0)
    orders = np.arange(-4, 5)
    vals = coefficient_table(orders, [0.63], g0, 0)[:, 0]
    assert vals == pytest.approx((orders == 0).astype(float), abs=1e-15)


def test_conditional_b00_value():
    # B_0(0; 0) = e^{-n0/2} I_0(n0/2); cross-checked by the mean of e^{-n(x)}
    ref = float(mpmath.exp(-0.5) * mpmath.besseli(0, 0.5))
    b00 = coefficient_table([0], [0.0], G, 0)[0, 0]
    assert b00 == pytest.approx(ref, rel=1e-12)
    x = np.arange(4096) / 4096
    avg = np.mean(np.exp(-np.cos(np.pi * x) ** 2))
    assert b00 == pytest.approx(avg, rel=1e-10)


def test_conditional_matches_numeric_oracle_matrix():
    orders, xis, ells = range(-6, 7), (0.0, 0.25, 0.5, 1.3), (0, 1, 2)
    table = coefficient_table(orders, xis, G, ells)
    for ij, j in enumerate(orders):
        for ix, xi in enumerate(xis):
            for ell in ells:
                oracle = b_numeric_oracle(j, xi, MeasurementProfile(G, ell),
                                          n_points=1024)
                assert table[ell, ij, ix] == pytest.approx(oracle, abs=1e-8)


def test_conditional_example_b2():
    oracle = b_numeric_oracle(2, 0.5, MeasurementProfile(G, 1), n_points=2048)
    assert coefficient_table([2], [0.5], G, 1)[0, 0] == pytest.approx(oracle, abs=1e-10)


# ---------------------------------------------------------------------------
# unconditional coefficients and the classical variant
# ---------------------------------------------------------------------------

def test_unconditional_delta_at_zero_argument():
    orders = np.arange(-3, 4)
    vals = coefficient_table(orders, [0.0], G)[:, 0]
    assert vals == pytest.approx((orders == 0).astype(float), abs=1e-15)


def test_classical_is_quantum_mirrored():
    orders, xi = np.array([-3, -1, 0, 2, 5]), [0.13, 0.77, 1.45]
    cls = coefficient_table(orders, xi, G, "classical")
    qnt = coefficient_table(-orders, xi, G, "quantum")
    assert cls == pytest.approx(qnt, abs=1e-14)
    # a classical table is the quantum one reversed in j, bit for bit
    classical, quantum = talbot.symmetric_rows(np.arange(-6, 7), fold_xi(xi)[0],
                                               ["classical", "quantum"], G)
    assert classical.tobytes() == quantum[::-1].tobytes()


def test_conditional_sum_rule_single_point():
    total = coefficient_table([2], [0.7], G, range(26))[:, 0, 0].sum()
    assert total == pytest.approx(coefficient_table([2], [0.7], G)[0, 0], abs=1e-8)


def test_conditional_sum_rule_random_sample():
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        n0 = rng.uniform(0.0, 3.0)
        phi0 = rng.uniform(0.0, 2 * math.pi)
        g = GratingParameters(phi0=phi0, n0=n0)
        j = int(rng.integers(-4, 5))
        xi = rng.uniform(0.0, 2.0)
        total = coefficient_table([j], [xi], g, range(40))[:, 0, 0].sum()
        assert total == pytest.approx(coefficient_table([j], [xi], g)[0, 0], abs=1e-7)


def test_periodicity():
    xi = np.array([0.21, 0.9, 1.55])
    for variant in ("quantum", "classical"):
        a = coefficient_table([0, 1, 3], xi, G, variant)
        b = coefficient_table([0, 1, 3], xi + 2.0, G, variant)
        assert a == pytest.approx(b, abs=1e-10)


def test_periodicity_pure_phase():
    """For n0 = 0 the shift xi -> xi + 1 maps B_j to (-1)^j B_j, so even
    orders (the only ones entering the fringe signal) are 1-periodic."""
    g0 = GratingParameters(phi0=math.pi, n0=0.0)
    a, b = coefficient_table([-4, -2, 0, 2, 6], [0.33, 1.33], g0).T
    assert a == pytest.approx(b, abs=1e-10)
    a, b = coefficient_table([-3, 1, 5], [0.33, 1.33], g0).T
    assert b == pytest.approx(-a, abs=1e-10)


def test_reflection_identity():
    orders, xi = np.array([-3, -1, 0, 2, 4]), np.array([0.18, 0.6, 1.7])
    assert coefficient_table(orders, -xi, G) == pytest.approx(
        coefficient_table(-orders, xi, G), abs=1e-13)
    assert coefficient_table(orders, -xi, G, 1) == pytest.approx(
        coefficient_table(-orders, xi, G, 1), abs=1e-13)


@given(st.floats(min_value=0.0, max_value=2.0),
       st.integers(min_value=-4, max_value=4))
@settings(max_examples=40, deadline=None)
def test_variants_degenerate_without_phase_or_absorption(xi, j):
    """Pure absorption: variants identical at every order.  Pure phase:
    the mirror map sends B_j to (-1)^j B_j, so the variants coincide on the
    even orders - which are the only ones entering observable signals."""
    ga = GratingParameters(phi0=0.0, n0=1.3)
    q = coefficient_table([j], [xi], ga, "quantum")[0, 0]
    c = coefficient_table([j], [xi], ga, "classical")[0, 0]
    assert q == pytest.approx(c, abs=1e-12)
    gp = GratingParameters(phi0=2.1, n0=0.0)
    q = coefficient_table([2 * j], [xi], gp, "quantum")[0, 0]
    c = coefficient_table([2 * j], [xi], gp, "classical")[0, 0]
    assert q == pytest.approx(c, abs=1e-12)


# ---------------------------------------------------------------------------
# numeric oracle behavior
# ---------------------------------------------------------------------------

def test_oracle_identity_kernel():
    kern = lambda x, xp: np.ones_like(np.asarray(x))  # noqa: E731
    assert b_numeric_oracle(0, 0.4, kern) == pytest.approx(1.0, abs=1e-14)
    assert b_numeric_oracle(3, 0.4, kern) == pytest.approx(0.0, abs=1e-14)


def test_oracle_hermitian_symmetry():
    """Hermitian kernel: B_{-j}(-xi) = conj(B_j(xi))."""
    prof = MeasurementProfile(G, 1)
    for j in (0, 1, 4):
        for xi in (0.3, 1.1):
            a = b_numeric_oracle(j, xi, prof)
            b = b_numeric_oracle(-j, -xi, prof)
            assert b == pytest.approx(np.conj(a), abs=1e-12)


def test_oracle_resolution_guards():
    prof = MeasurementProfile(G, 0)
    with pytest.raises(ResolutionError):
        b_numeric_oracle(0, 0.1, prof, n_points=128)
    with pytest.raises(ResolutionError):
        b_numeric_oracle(300, 0.1, prof, n_points=512)
    kern = poisson_kernel(G, ell_max=0)
    with pytest.raises(ResolutionError):
        KernelSource(kern, n_points=512).rows(np.arange(-300, 301), [0.1])
    with pytest.raises(ResolutionError):
        KernelSource(kern, n_points=256).rows([0], [0.1])


def test_numeric_row_matches_single_calls():
    """KernelSource.rows, one FFT per unique line over more lines than one
    kernel call takes, against the per-coefficient oracle."""
    prof = MeasurementProfile(G, 1)
    xi = np.concatenate((np.linspace(-1.0, 1.0, 41), [0.6, 0.6]))
    orders = np.arange(-5, 6)
    tab = KernelSource(channel(poisson_kernel(G, ell_max=3), 1)).rows(orders, xi)
    assert tab.shape == (orders.size, xi.size)
    for ix, x in enumerate(xi):
        for ij, j in enumerate(orders):
            assert tab[ij, ix] == pytest.approx(b_numeric_oracle(j, x, prof), abs=1e-13)


# ---------------------------------------------------------------------------
# coefficient table and sources
# ---------------------------------------------------------------------------

def test_table_hermiticity_and_reality():
    """Closed-form kernels are hermitian and even, so the unconditional
    table is real and satisfies B_{-j}(2 - xi) = conj(B_j(xi))."""
    xi = np.linspace(0.0, 2.0, 64, endpoint=False)
    orders = list(range(-6, 7))
    quantum = coefficient_table(orders, xi, G)
    assert np.max(np.abs(quantum.imag)) < 1e-12
    for ij, j in enumerate(orders):
        im = orders.index(-j)
        # -xi maps to (2 - xi) mod 2 on the grid: index flip
        flipped = np.roll(quantum[im][::-1], 1)
        assert np.allclose(np.conj(quantum[ij]), flipped, atol=1e-12)


def test_table_csv_round_trip(tmp_path):
    xi = np.linspace(0.0, 2.0, 8, endpoint=False)
    orders = np.arange(-2, 3)
    tables = [(v, "", coefficient_table(orders, xi, G, v)) for v in talbot.VARIANTS]
    tables += [("conditional", ell, tab)
               for ell, tab in zip((0, 1), coefficient_table(orders, xi, G, (0, 1)))]
    path = tmp_path / "coeffs.csv"
    write_csv(path, {}, ["variant", "ell", "j", "xi", "re", "im"],
              [(label, ell, j, xi, row, 0.0) for label, ell, tab in tables
               for j, row in zip(orders.tolist(), tab)])
    _, columns, rows = read_csv(path)
    assert columns == ["variant", "ell", "j", "xi", "re", "im"]
    # one row per (variant/ell, j, xi)
    assert len(rows) == (2 + 2) * 5 * 8
    want = coefficient_table([1], [xi[3]], G, 1)[0, 0]
    got = [r for r in rows if r[0] == "conditional" and r[1] == 1 and r[2] == 1
           and abs(r[3] - xi[3]) < 1e-12]
    assert len(got) == 1
    assert got[0][4] + 1j * got[0][5] == pytest.approx(want, abs=1e-15)


def test_sources():
    """Every (j, xi) of the grid, so the flip of xi = 1.45 > 1 is checked at
    nonzero j for the classical and the conditional source."""
    o, x = np.meshgrid([2, -3, 0], [0.0, 0.7, 1.45])
    o, x = o.ravel(), x.ravel()
    src = ClosedForm(G, "classical")
    for j, xi, b in zip(o, x, src.pairs(o, x)):
        assert b == pytest.approx(coefficient_table([j], [xi], G, "classical")[0, 0])
    csrc = ClosedForm(G, 1)
    for j, xi, b in zip(o, x, csrc.pairs(o, x)):
        assert b == pytest.approx(coefficient_table([j], [xi], G, 1)[0, 0])
    for bad in ("bogus", -1, None, 1.5, 2.0):
        with pytest.raises(InvalidInputError):
            ClosedForm(G, bad)
        with pytest.raises(InvalidInputError):
            talbot.symmetric_rows(np.arange(-2, 3), np.array([0.3]), [bad], G)


# ---------------------------------------------------------------------------
# spectral closed forms at large phi0
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi0", [20.0, 45.0, 60.0, 100.0])
def test_closed_forms_match_oracle_at_large_phi0(phi0):
    """The spectral closed forms against the numeric Fourier oracle over the
    Poisson kernel at 4096 points, where the power series cancelled (an error
    of 25 at phi0 = 45).  The classical variant is the quantum kernel at
    -phi0."""
    n0 = 0.5
    g = GratingParameters(phi0=phi0, n0=n0)
    summed = poisson_kernel(g, ell_max=12)   # Poisson tail 2e-14
    mirror = poisson_kernel(GratingParameters(phi0=-phi0, n0=n0), ell_max=12)
    channels = poisson_kernel(g, ell_max=2)
    xi = np.array([0.13, 0.77, 1.54])
    orders = np.arange(-140, 141, 10)
    cases = [(coefficient_table(orders, xi, g, "quantum"), summed),
             (coefficient_table(orders, xi, g, "classical"), mirror),
             (coefficient_table(orders, xi, g, 0), channel(channels, 0)),
             (coefficient_table(orders, xi, g, 2), channel(channels, 2))]
    for tab, oracle in cases:
        for ix, x in enumerate(xi):
            ref = np.array([b_numeric_oracle(j, x, oracle, 4096) for j in orders])
            assert np.max(np.abs(tab[:, ix] - ref)) < 1e-10


def test_spectral_size_above_cap_raises():
    g = GratingParameters(phi0=1e5, n0=1.0)
    with pytest.raises(CutoffError):
        coefficient_table([0, 2], [0.5], g)
    with pytest.raises(CutoffError):
        coefficient_table([0], [0.5], g, 1)


# ---------------------------------------------------------------------------
# conditional product form up to n0 = 20
# ---------------------------------------------------------------------------

def mp_conditional_rows(orders, xi, ells, g, m=256):
    """B_j(xi; l) as the m-point trapezoid in 40 digits of the product form
    exp(i zc sin t - za cos t - n0/2) (za + (n0/2) cos t)^l / l!.

    The integrand satisfies f(-t) = conj f(t), so the trapezoid is taken over
    the half period with weights 1, 2, ..., 2, 1.  At n0 = 20 and phi0 <= 20
    the aliases of |j| <= 20 lie past order 236, far below double precision:
    256 and 384 points give the same doubles."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(xi)) * mpmath.pi
        half = mpmath.mpf(g.n0) / 2
        za = half * mpmath.cos(x)
        zc = mpmath.mpf(g.phi0) * mpmath.sin(x)
        roots = [mpmath.expj(-2 * mpmath.pi * k / m) for k in range(m)]
        ks = range(m // 2 + 1)
        wts = [1 if k in (0, m // 2) else 2 for k in ks]
        e = [w * mpmath.exp(mpmath.mpc(-za * roots[k].real - half, -zc * roots[k].imag))
             for k, w in zip(ks, wts)]
        h = [[mpmath.re(e[k] * roots[(int(j) * k) % m]) for k in ks] for j in orders]
        p = [za + half * roots[k].real for k in ks]
        g_l = [mpmath.mpf(1)] * len(ks)
        out = {}
        for ell in range(max(ells) + 1):
            if ell:
                g_l = [gk * pk / ell for gk, pk in zip(g_l, p)]
            if ell in ells:
                out[ell] = [float(mpmath.fdot(g_l, hj) / m) for hj in h]
        return np.array([out[ell] for ell in ells])


@pytest.mark.parametrize("phi0", [1.0, 20.0])
@pytest.mark.parametrize("xi", [0.0, 0.77])
def test_conditional_rows_vs_mpmath_at_n0_20(phi0, xi):
    """Every count up to the Poisson tail rule (l <= 54) at n0 = 20.  The
    double sum over shifted l = 0 rows missed by 3e-10 at xi = 0."""
    g = GratingParameters(phi0=phi0, n0=20.0)
    orders = np.arange(-20, 21)
    ells = list(range(poisson_ell_max(g) + 1))
    assert ells[-1] == 54
    got = coefficient_table(orders, [xi], g, ells)[:, :, 0]
    ref = mp_conditional_rows(orders, xi, ells, g)
    assert np.max(np.abs(got - ref)) < 1e-13


def test_batched_counts_match_single_counts():
    """The table route takes all counts from one spectrum per xi, as the far
    field and the talbot command ask for them; each count agrees with a
    pairs call of its own."""
    g = GratingParameters(phi0=7.0, n0=12.0)
    orders = np.arange(-30, 31)
    xi = np.linspace(0.0, 1.0, 19)
    ells = range(poisson_ell_max(g) + 1)
    batched = np.stack(list(talbot.symmetric_rows(orders, xi, ells, g)))
    assert batched.shape == (len(ells), orders.size, xi.size)
    for ell in ells:
        assert np.max(np.abs(batched[ell] - coefficient_table(orders, xi, g, ell))) <= 1e-15
    # counts in any order, repeated
    picked = np.stack(list(talbot.symmetric_rows(orders, xi, [5, 0, 5], g)))
    assert np.max(np.abs(picked - batched[[5, 0, 5]])) <= 1e-15


@pytest.mark.parametrize("kind", ["quantum", "classical", 0, 3])
def test_closed_form_rows_are_real(kind):
    """f(-t) = conj f(t) for every closed-form integrand, so the coefficients
    are real; the complex kernel left imaginary parts of about 1e-16."""
    g = GratingParameters(phi0=45.0, n0=3.0)
    orders, xi = np.meshgrid(np.arange(-60, 61), np.linspace(0.0, 2.0, 50))
    assert np.all(np.imag(ClosedForm(g, kind).pairs(orders.ravel(), xi.ravel())) == 0)


def test_table_j_max_checked_before_allocation(tmp_path):
    """No FFT size serves |j| = 1e9, and the talbot command checks that
    before it builds an array of 2e9 + 1 orders (16 GB): exit 3."""
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"[grating]\nphi0 = {G.phi0!r}\nn0 = {G.n0!r}\n\n[talbot]\nj_max = 1000000000\n")
    tracemalloc.start()
    try:
        assert main(["talbot", "--config", str(cfg), "--ell", "all", "--out", str(tmp_path)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# the xi fold
# ---------------------------------------------------------------------------

def direct_rows(orders, xi, kind, g):
    """exp_fourier_rows at the raw xi, with zeta taken from mpmath's sinpi
    and cospi, which reduce the argument exactly."""
    x = [mpmath.mpf(float(v)) for v in xi]
    za = np.array([float(g.n0 / 2 * mpmath.cospi(v)) for v in x])
    zc = np.array([float(g.phi0 * mpmath.sinpi(v)) for v in x])
    zap = np.array([float(g.n0 * mpmath.sinpi(v / 2) ** 2) for v in x])
    if isinstance(kind, str):
        zc = -zc if kind == "classical" else zc
        return exp_fourier_rows(orders, 0.5 * (zc + zap), 0.5 * (zap - zc), -zap)
    return np.stack(list(exp_fourier_rows(orders, 0.5 * (zc - za), -0.5 * (zc + za),
                                          -0.5 * g.n0, kind, za, 0.5 * g.n0)))


XI = st.one_of(st.floats(-200.0, 200.0), st.integers(-200, 200).map(float),
               st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0]))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(0.0, 3.0),
       st.sampled_from([[0, 2], [-3, 5], [7], [-9, -1, 0, 4], list(range(-12, 13))]),
       st.sampled_from(["quantum", "classical", 0, 3, [2, 0, 5]]),
       st.lists(XI, min_size=1, max_size=12))
def test_folded_rows_match_direct_evaluation(phi0, n0, orders, kind, xi):
    """Rows from the folded, deduplicated xi equal the spectral kernel run
    at every raw xi (exact trigonometry), whatever the order set, sign or
    size of xi."""
    g = GratingParameters(phi0=phi0, n0=n0)
    got = coefficient_table(orders, xi, g, kind)
    ref = direct_rows(orders, xi, kind, g)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-15


def test_fold_xi_is_exact():
    xi = np.array([0.0, -0.0, 0.25, -0.25, 1.75, 2.25, -1.75, 1.0, -1.0, 3.0, 199.5, -200.0,
                   0.1 + 2 * 37])
    distinct, index, flip = fold_xi(xi)
    assert np.all(np.diff(distinct) > 0) and distinct[0] >= 0 and distinct[-1] <= 1
    assert distinct[index].tolist() == [0.0, 0.0, 0.25, 0.25, 0.25, 0.25, 0.25, 1.0, 1.0,
                                        1.0, 0.5, 0.0, math.fmod(0.1 + 2 * 37, 2.0)]
    assert flip.tolist() == [False, False, False, True, True, False, False, False, True,
                             False, True, True, False]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_xi_is_domain_error(bad, recwarn):
    with pytest.raises(DomainError):
        coefficient_table([0, 2], [0.5, bad], G)
    assert not recwarn.list


def test_farfield_evaluates_each_folded_q_once(monkeypatch):
    """On the figure-4 configs the spectral kernel sees each folded q once
    per pass and kind: q_points_per_unit + 1 values, not the 5121 points
    of the q grid."""
    seen = []

    def counting(orders, a, *args, **kwargs):
        seen.append((np.ndim(args[2]) if len(args) > 2 else None, np.size(a)))
        return exp_fourier_rows(orders, a, *args, **kwargs)

    monkeypatch.setattr(talbot, "exp_fourier_rows", counting)
    for n0, ells in [(0.0, [None]), (10.0, [None]), (2.0, [None, 0, 1, 2])]:
        fc = farfield.FarFieldConfig(grating=GratingParameters(phi0=2.5, n0=n0),
                                     collimator_ratio=10.0, period_over_sep=1e-3,
                                     sigma_det=0.1, screen=np.linspace(-3.0, 3.0, 2401))
        seen.clear()
        farfield.farfield_densities(fc, ells)
        kinds = {kind for kind, _ in seen}
        assert len(kinds) == (1 if ells == [None] else 2)
        for kind in kinds:
            assert sum(n for k, n in seen if k == kind) <= fc.q_points_per_unit + 1


# ---------------------------------------------------------------------------
# dynamical closed forms against the sampled oracle
# ---------------------------------------------------------------------------

def ladder_gap(g, orders, xi, n_points=4096):
    """Largest |closed form - sampled summed-ladder kernel| over orders x xi."""
    o, x = (v.ravel() for v in np.meshgrid(orders, xi))
    got = ClosedForm(g, "ladder").pairs(o, x)
    ref = KernelSource(SummedLadderKernel(g), n_points=n_points).pairs(o, x)
    return np.max(np.abs(got - ref))


@settings(max_examples=25, deadline=None)
@given(st.floats(-100.0, 100.0), st.floats(0.0, 20.0), st.floats(0.0, 2.0),
       st.floats(0.0, 2.0), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
@example(100.0, 20.0, 2.0, 2.0, [0.0, 0.77])
@example(100.0, 20.0, 0.0, 0.0, [1.0, 2.2])
@example(-60.0, 5.0, 1.3, 0.5, [0.13, -1.54])
def test_ladder_closed_form_matches_sampled_kernel(phi0, n0, eta_p, eta_a, xi):
    """The summed-ladder coefficients, up to phi0 = 100 and n0 = 20 with
    eta_p - 1 and eta_a - 1 of either sign, against the FFT of the summed
    kernel line at 4096 points: 1e-13 of the unit scale, or a typed error."""
    g = GratingParameters(phi0=phi0, n0=n0, eta_p=eta_p, eta_a=eta_a)
    try:
        gap = ladder_gap(g, np.arange(-8, 9), xi)
    except (DomainError, CutoffError):
        return
    assert gap < 1e-13


def test_ladder_at_eta_one_is_unconditional():
    orders, xi = (v.ravel() for v in np.meshgrid(np.arange(-6, 7), [0.0, 0.3, 1.7, 2.2]))
    got = ClosedForm(G, "ladder").pairs(orders, xi)
    assert np.max(np.abs(got - ClosedForm(G).pairs(orders, xi))) < 1e-15


def test_ladder_pairs_over_grating_arrays():
    """One call over an array of gratings agrees with one source per grating
    (the node count follows the largest reach, so only to round-off)."""
    n0 = np.linspace(0.02, 4.0, 7)
    orders, xi = np.repeat([0, 2, -3], n0.size), np.repeat([0.0, 2.2, -0.6], n0.size)
    gratings = GratingParameters(np.tile(1.25 * n0, 3), np.tile(n0, 3), 1.5, 1.2)
    got = ClosedForm(gratings, "ladder").pairs(orders, xi)
    for k, (j, x, n) in enumerate(zip(orders, xi, np.tile(n0, 3))):
        g = GratingParameters(phi0=1.25 * n, n0=n, eta_p=1.5, eta_a=1.2)
        assert got[k] == pytest.approx(ClosedForm(g, "ladder").pairs([j], [x])[0], abs=1e-15)


def test_ladder_caps_raise():
    """Past the Gauss-Legendre node cap (|w| up to 500 needs 266 nodes) and
    past the FFT size cap the ladder route raises, never returns numbers."""
    with pytest.raises(DomainError):
        ClosedForm(GratingParameters(phi0=1000.0, n0=1.0, eta_p=1.5), "ladder").pairs([2], [0.5])
    with pytest.raises(CutoffError):
        ClosedForm(GratingParameters(phi0=1e5, n0=1.0), "ladder").pairs([2], [0.5])
    with pytest.raises(InvalidInputError):
        GratingParameters(np.ones(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        GratingParameters(np.array([1.0, np.nan, 1.0]), np.ones(3))


def test_rank_one_source_matches_sampled_kernel():
    """A rank-one kernel with a known factor: closed form against the FFT of
    its kernel lines, and the symmetries B_j(xi + 2) = B_j(xi) and
    B_j(-xi) = B_{-j}(xi)."""
    factor = lambda x: np.exp(-0.4 * np.cos(np.pi * x) ** 2 + 2.5j * np.cos(2 * np.pi * x))  # noqa: E731
    kern = lambda x, xp: factor(x) * np.conj(factor(xp))  # noqa: E731
    kern.pair_values = kern
    src = RankOneSource(factor, 3.0)
    orders, xi = (v.ravel() for v in np.meshgrid(np.arange(-12, 13), [0.0, 0.3, 1.4, -2.7]))
    got = src.pairs(orders, xi)
    ref = KernelSource(kern, n_points=4096).pairs(orders, xi)
    assert np.max(np.abs(got - ref)) < 1e-13
    assert np.max(np.abs(src.pairs(orders, xi + 2.0) - got)) < 1e-15
    assert np.max(np.abs(src.pairs(-orders, -xi) - got)) < 1e-15


def test_rank_one_source_checks_its_factor_tail():
    factor = lambda x: np.exp(40j * np.cos(2 * np.pi * x))  # noqa: E731
    with pytest.raises(CutoffError):
        RankOneSource(factor, 1.0)   # band ~40, FFT sized for 1
    with pytest.raises(CutoffError):
        RankOneSource(factor, 1e5)   # FFT size above its cap
    assert RankOneSource(factor, 40.0).pairs([0], [0.0])[0] == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# the pairs form: each pair read from its spectrum, no table
# ---------------------------------------------------------------------------

PAIR_KINDS = ["quantum", "classical", 0, 1, 2, 3, "ladder"]
M = 12


def _pairs_case(n):
    """n pairs with orders up to +-M, xi < 0, xi > 2, xi exactly 0 and 1 and
    duplicate pairs."""
    rng = np.random.default_rng(7)
    orders, xi = rng.integers(-M, M + 1, n), rng.uniform(-5.0, 5.0, n)
    orders[:2] = M, -M
    xi[2:8] = 0.0, 1.0, -1.0, 2.0, 0.0, 1.0
    orders[9], xi[9] = orders[8], xi[8]
    return orders, xi


def _ladder_table(m, r, g):
    """The summed-ladder table of j = -m..m at every folded xi in r, as the
    table route built it before the pairs form replaced it: Gauss-Legendre
    nodes innermost in the elements of one exp_fourier_rows call, and summed
    along that contiguous axis."""
    symmetric = np.arange(-m, m + 1)
    r, phi0, n0, eta_p, eta_a = (v[:, None] for v in np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, float)) for v in (r, g.phi0, g.n0, g.eta_p, g.eta_a))))
    reach = float(np.max(np.abs(eta_p - 1.0) * np.abs(phi0) + np.abs(eta_a - 1.0) * n0
                         + eta_a * n0, initial=0.0))
    s, w = specfun.legendre_unit_nodes(1, reach)
    cos, sin = np.cos(np.pi * r), np.sin(np.pi * r)
    za, zc = 0.5 * n0 * cos, phi0 * sin
    rows = exp_fourier_rows(symmetric, 0.5 * (zc - za), -0.5 * (zc + za), -0.5 * n0)
    phi_s = phi0 * (1.0 + s * (eta_p - 1.0))
    nu_s = n0 * (1.0 + s * (eta_a - 1.0))
    beta_s = s * (eta_a * n0)
    apb, amb = 0.5 * (beta_s - nu_s * cos), phi_s * sin
    first = exp_fourier_rows(symmetric, 0.5 * (apb + amb), 0.5 * (apb - amb),
                             0.5 * (beta_s * cos - nu_s), 1, za, 0.5 * n0)
    return rows + (first.reshape(symmetric.size, r.size, s.size) * w).sum(axis=2)


@pytest.mark.parametrize("kind", PAIR_KINDS)
@pytest.mark.parametrize("grating", [
    GratingParameters(phi0=3.0, n0=0.95, eta_p=1.3, eta_a=0.7),
    GratingParameters(phi0=np.linspace(0.5, 5.0, 40), n0=np.linspace(0.1, 2.0, 40))],
    ids=["scalar", "array"])
def test_pairs_equal_gathered_tables(kind, grating):
    """A pairs call gives, bit for bit, the entries of the symmetric table
    that it replaced (for the ladder, of the table route that built it)."""
    orders, xi = _pairs_case(40)
    distinct, index, flip = fold_xi(xi)
    if np.ndim(grating.phi0):
        distinct, index = distinct[index], np.arange(index.size)
    table = _ladder_table(M, distinct, grating) if kind == "ladder" else \
        next(talbot.symmetric_rows(np.arange(-M, M + 1), distinct, [kind], grating))
    want = table[np.where(flip, -orders, orders) + M, index]
    assert ClosedForm(grating, kind).pairs(orders, xi).tobytes() == want.tobytes()


def test_pairs_raise_the_aliasing_tail_where_tables_do(monkeypatch):
    """With the spectral margin cut below its safe value the tail check of
    exp_fourier_rows fires for some gratings; the pairs form raises on
    exactly the inputs where the table does."""
    monkeypatch.setattr(specfun, "SPECTRAL_MARGIN", -8)
    orders, xi = np.array([0, 3, -6]), np.array([0.3, 1.7, -0.4])
    outcomes = []
    for phi0 in (0.5, 2.0, 5.0):
        g = GratingParameters(phi0=phi0, n0=1.0, eta_p=1.2, eta_a=0.8)
        for kind in ("quantum", "classical", 1, "ladder"):
            raised = []
            table = _ladder_table if kind == "ladder" else \
                lambda m, r, g: next(talbot.symmetric_rows(np.arange(-m, m + 1), r, [kind], g))
            for call in (lambda: ClosedForm(g, kind).pairs(orders, xi),
                         lambda: table(6, fold_xi(xi)[0], g)):
                try:
                    call()
                    raised.append(False)
                except CutoffError as err:
                    assert "aliases" in str(err)
                    raised.append(True)
            assert raised[0] == raised[1], (phi0, kind)
            outcomes.append(raised[0])
    assert any(outcomes) and not all(outcomes)


SOURCES = [lambda: ClosedForm(G), lambda: ClosedForm(G, "ladder"),
           lambda: RankOneSource(lambda x: np.exp(0.3j * np.cos(2 * np.pi * x)), 1.0)]


@pytest.mark.parametrize("source", SOURCES, ids=["closed", "ladder", "rank_one"])
def test_pairs_reject_non_integer_orders(source):
    """Orders that are not integers, or too large for an exact cast to
    int64, are rejected; integral floats are accepted."""
    for bad in ([0.5], [np.nan], [np.inf], [1e300], [-2**63]):
        with pytest.raises(InvalidInputError):
            source().pairs(bad, [0.2])
    assert source().pairs([2.0], [0.2]).tobytes() == source().pairs([2], [0.2]).tobytes()


@pytest.mark.parametrize("source", SOURCES, ids=["closed", "ladder", "rank_one"])
def test_pairs_reject_orders_and_xi_of_different_lengths(source):
    with pytest.raises(InvalidInputError):
        source().pairs([0, 2], [0.2, 0.3, 0.4])
    with pytest.raises(InvalidInputError):
        source().pairs([0, 2], [0.2])


@pytest.mark.parametrize("kind", ["quantum", "classical", 1, "ladder"])
def test_pairs_huge_order_is_cutoff_before_allocation(kind):
    """Order 2^40 needs an FFT far above the cap: CutoffError, with nothing
    of its size allocated (a table of its orders would take 16 TiB)."""
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError):
            ClosedForm(G, kind).pairs([2**40], [0.3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ladder_has_no_table():
    """The summed ladder is asked for by pairs only."""
    with pytest.raises(InvalidInputError):
        talbot.symmetric_rows(np.arange(-2, 3), np.array([0.3]), ["ladder"], G)
