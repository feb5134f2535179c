"""Output checks: each reads what one CLI command wrote and compares it with
the reference computations in oracles.py.  A check returns a list of
problems; an empty list means the outputs are right.

Tolerances:
* VALUE_TOL = 1e-10, the accuracy target for closed-form and
  numeric-Fourier numbers (Talbot coefficients, fringe signals,
  visibilities).  Dropping the Poisson tail beyond 1e-10 stays inside it.
* ODE_TOL = 1e-8 for numbers integrated at the default rtol 1e-9 /
  atol 1e-12 (ladder kernel, Rabi populations): ten times rtol, for the
  global error of an adaptive solve.
* QUADRATURE_TOL = 1e-4 relative L2 between the far-field Fourier sum and
  the Kirchhoff integral, as stated for the dual formula in the test suite.
* EXACT_TOL = 1e-12 of the peak for the detector smoothing, which holds up
  to round-off; the sum of the conditional densities is held to VALUE_TOL
  of the peak, since the counts stop at the Poisson tail 1e-10.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles

VALUE_TOL = 1e-10
ODE_TOL = 1e-8
QUADRATURE_TOL = 1e-4
EXACT_TOL = 1e-12
KIRCHHOFF_STRIDE = 8


def read_csv(path):
    """(meta, columns, rows) of a CSV with '# key=value' lines on top; cells
    stay strings."""
    meta, columns, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, columns, rows


def _key(cell: str):
    """Numeric cells as floats (except nan), others as strings."""
    try:
        value = float(cell)
    except ValueError:
        return cell
    return cell if math.isnan(value) else value


def _group(rows, key_cols, value_cols):
    """{key tuple: float array (n_rows, len(value_cols))}, in file order."""
    out = {}
    for r in rows:
        out.setdefault(tuple(_key(r[k]) for k in key_cols), []).append(
            [float(r[k]) for k in value_cols])
    return {k: np.array(v) for k, v in out.items()}


def _deviation(label, got, ref, tol, relative_to=None):
    got, ref = np.asarray(got), np.asarray(ref)
    if got.shape != ref.shape:
        return [f"{label}: {got.shape} values, expected {ref.shape}"]
    scale = 1.0 if relative_to is None else relative_to
    err = float(np.max(np.abs(got - ref))) / scale if got.size else 0.0
    if not err <= tol:
        return [f"{label}: deviates by {err:.3g} (tolerance {tol:g})"]
    return []


def _rel_l2(label, got, ref, tol):
    err = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    return [] if err <= tol else [f"{label}: relative L2 deviation {err:.3g} > {tol:g}"]


def _expect_keys(label, got, expected):
    if set(got) != set(expected):
        return [f"{label}: found {sorted(got)}, expected {sorted(expected)}"]
    return []


# ---------------------------------------------------------------------------
# near field
# ---------------------------------------------------------------------------

def _signal_problems(label, shifts_signal, kernel, f, lt, j_max=32, spread=0.0,
                     n=512):
    shifts, values = shifts_signal[:, 0], shifts_signal[:, 1]
    problems = _deviation(f"{label} shifts", shifts, np.arange(512) / 512, 0.0)
    ref = oracles.kdtli_signal(kernel, f, lt, j_max, spread, n=n)
    scale = float(np.max(np.abs(ref)))
    bad = _deviation(f"{label} signal", values, ref, VALUE_TOL, scale)
    if bad and values.shape == ref.shape:
        bad[0] += (f"; min-max visibility {oracles.minmax_visibility(values):.4g}, "
                   f"reference {oracles.minmax_visibility(ref):.4g}")
    return problems + bad


def check_figure1(out: Path):
    _, _, rows = read_csv(out / "figure1_visibility.csv")
    curves = _group(rows, (0, 1), (2, 3))
    kernels = {("a", "phase_only"): ("quantum", math.pi, 0.0),
               ("a", "quantum_n0_1"): ("quantum", math.pi, 1.0),
               ("a", "classical_n0_1"): ("classical", math.pi, 1.0),
               ("b", "ell=0"): (0, math.pi, 1.0), ("b", "ell=1"): (1, math.pi, 1.0),
               ("b", "ell=2"): (2, math.pi, 1.0),
               ("b", "unconditional"): ("quantum", math.pi, 1.0)}
    problems = _expect_keys("figure 1 curves", curves, kernels)
    for key, (curve, phi0, n0) in kernels.items():
        if key not in curves:
            continue
        lt, vis = curves[key].T
        problems += _deviation(f"figure 1 {key} grid", lt, np.linspace(0.005, 4.0, 800),
                               1e-15)
        ref = oracles.sine_visibility(oracles.kernel_for(curve, phi0, n0), 0.42, lt, n=512)
        problems += _deviation(f"figure 1 {key} visibility", vis, ref, VALUE_TOL)
    return problems


def check_figure2(out: Path):
    _, _, rows = read_csv(out / "figure2_interferograms.csv")
    curves = _group(rows, (0, 1, 2), (3, 4))
    sources = {"ell=0": 0, "ell=1": 1, "ell=2": 2, "unconditional": "quantum"}
    expected = [(p, c, lt) for p, lt in (("a", 3.25), ("b", 4.25)) for c in sources]
    problems = _expect_keys("figure 2 curves", curves, expected)
    for key in expected:
        if key in curves:
            kernel = oracles.kernel_for(sources[key[1]], math.pi, 1.0)
            problems += _signal_problems(f"figure 2 {key}", curves[key], kernel, 0.42,
                                         key[2])
    return problems


def check_figure5(out: Path):
    """eta = 1 curves against the unconditional kernel; two points of each
    eta != 1 curve against the ladder generator's matrix exponential."""
    _, _, rows = read_csv(out / "figure5_visibility.csv")
    curves = _group(rows, (0, 1), (2, 3))
    etas = {"eta_1": (1.0, 1.0), "eta_a_1.5": (1.0, 1.5), "eta_p_1.5": (1.5, 1.0)}
    problems = _expect_keys("figure 5 curves", curves,
                            [(p, c) for p in "ab" for c in etas])
    grid = np.linspace(0.02, 4.0, 200)  # L/L_T in panel a, n0 in panel b
    for (panel, curve), data in curves.items():
        if curve not in etas:
            continue
        x, vis = data.T
        problems += _deviation(f"figure 5 {panel}/{curve} grid", x, grid, 1e-15)
        eta_p, eta_a = etas[curve]
        picks = range(len(x)) if curve == "eta_1" else (0, len(x) // 2)
        ref = []
        for k in picks:
            n0, lt = (1.5, x[k]) if panel == "a" else (x[k], 2.2)
            if curve == "eta_1":
                kernel = oracles.unconditional_kernel(1.25 * n0, n0)
            else:
                kernel = oracles.summed_kernel(
                    lambda a, b, n0=n0: oracles.ladder_kernel(
                        a, b, 1.25 * n0, n0, eta_p, eta_a))
            ref.append(oracles.sine_visibility(kernel, 0.42, lt, n=512)[0])
        problems += _deviation(f"figure 5 {panel}/{curve} visibility",
                               vis[list(picks)], ref, VALUE_TOL)
    return problems


def check_kdtli(out: Path, params: dict):
    """kdtli sweep or single point: signals (velocity-averaged when the spread
    is positive) and sine visibilities of both variants at every point, and
    the conditional signal of every absorption count with --ell all."""
    phi0, n0, f = params["phi0"], params["n0"], params["open_fraction"]
    spread = params.get("velocity_spread", 0.0)
    n = params.get("line_points", 512)
    _, _, sig_rows = read_csv(out / "kdtli_signal.csv")
    _, _, vis_rows = read_csv(out / "kdtli_visibility.csv")
    signals = _group(sig_rows, (1, 2, 3), (4, 5))
    vis = _group(vis_rows, (1, 2, 3), (4,))
    if "sweep" in params:
        lts = [float(v) for v in np.linspace(*params["sweep"])]
        points = lts
    else:
        points, lts = ["nan"], [params["talbot_parameter"]]
    counts = oracles.poisson_cutoff(n0) + 1 if params.get("ells") else 0
    expected = [(p, v, lt) for p, lt in zip(points, lts) for v in ("quantum", "classical")]
    expected += [("nan", f"ell={e}", params["talbot_parameter"]) for e in range(counts)]
    problems = _expect_keys("kdtli signals", signals, expected)
    problems += _expect_keys("kdtli visibilities", vis, expected)
    for key in expected:
        variant, lt = key[1], key[2]
        curve = int(variant[4:]) if variant.startswith("ell=") else variant
        kernel = oracles.kernel_for(curve, phi0, n0)
        if key in signals:
            problems += _signal_problems(f"kdtli {key}", signals[key], kernel, f, lt,
                                         spread=0.0 if variant.startswith("ell=")
                                         else spread, n=n)
        if key in vis:
            ref = oracles.sine_visibility(kernel, f, lt, n=n)
            problems += _deviation(f"kdtli {key} visibility", vis[key][:, 0], ref,
                                   VALUE_TOL)
    return problems


# ---------------------------------------------------------------------------
# far field
# ---------------------------------------------------------------------------

def check_figure4(out: Path):
    """Smoothed densities against the Kirchhoff integral on the whole screen,
    smoothed by the check itself."""
    _, _, rows = read_csv(out / "figure4_farfield.csv")
    curves = _group(rows, (0, 1), (2, 3))
    specs = {("a", "phase_only"): (0.0, None), ("a", "absorbing_n0_2"): (2.0, None),
             ("b", "phase_only"): (0.0, None), ("b", "absorbing_n0_10"): (10.0, None),
             ("c", "ell=0"): (2.0, 0), ("c", "ell=1"): (2.0, 1),
             ("c", "ell=2"): (2.0, 2), ("c", "unconditional"): (2.0, None)}
    problems = _expect_keys("figure 4 curves", curves, specs)
    screen = np.linspace(-3.0, 3.0, 2401)
    refs = {}
    for n0 in (0.0, 2.0, 10.0):
        ells = sorted({e for m, e in specs.values() if m == n0}, key=str)
        refs.update({(n0, e): d for e, d in oracles.farfield_reference(
            screen, ells, 2.5, n0, 10.0, 1e-3).items()})
    for key, spec in specs.items():
        if key not in curves:
            continue
        x, dens = curves[key].T
        problems += _deviation(f"figure 4 {key} screen", x, screen, 1e-15)
        ref = oracles.detector_smoothing(refs[spec], screen[1] - screen[0], 0.1)
        if dens.shape == ref.shape:
            problems += _rel_l2(f"figure 4 {key} density", dens, ref, QUADRATURE_TOL)
    return problems


def _farfield_table(out: Path):
    _, _, rows = read_csv(out / "farfield_density.csv")
    return _group(rows, (0, 1), (2, 3, 4))


def _screen(params):
    return np.linspace(-params["screen_max"], params["screen_max"], params["screen_points"])


def _farfield_common(label, data, screen, params, ell):
    x, raw, smooth = data.T
    problems = _deviation(f"{label} screen", x, screen, 1e-15)
    if problems:
        return problems
    peak = float(np.max(np.abs(raw)))
    problems += _deviation(f"{label} smoothing", smooth,
                           oracles.detector_smoothing(raw, screen[1] - screen[0],
                                                      params["sigma_det"]),
                           EXACT_TOL, peak)
    sub = screen[::KIRCHHOFF_STRIDE]
    ref = oracles.farfield_reference(sub, [ell], params["phi0"], params["n0"],
                                     params["collimator_ratio"],
                                     params["period_over_sep"])[ell]
    problems += _rel_l2(f"{label} density vs Kirchhoff", raw[::KIRCHHOFF_STRIDE], ref,
                        QUADRATURE_TOL)
    return problems


def check_farfield_conditional(out: Path, params: dict):
    table, screen = _farfield_table(out), _screen(params)
    ells = range(oracles.poisson_cutoff(params["n0"]) + 1)
    problems = _expect_keys("farfield curves", table, [("quantum", float(e)) for e in ells])
    for e in ells:
        if ("quantum", float(e)) in table:
            problems += _farfield_common(f"farfield ell={e}", table[("quantum", float(e))],
                                         screen, params, e)
    return problems


def check_farfield_sum(out: Path, params: dict, conditional_out: Path):
    """The unconditional density, and that it equals the sum of the
    conditional densities written by the --ell all command."""
    table, screen = _farfield_table(out), _screen(params)
    problems = _expect_keys("farfield curves", table, [("quantum", "sum")])
    if problems:
        return problems
    data = table[("quantum", "sum")]
    problems += _farfield_common("farfield sum", data, screen, params, None)
    try:
        parts = _farfield_table(conditional_out)
    except OSError as exc:
        return problems + [f"no conditional densities to sum: {exc}"]
    total = sum(d[:, 1] for d in parts.values())
    problems += _deviation("farfield sum of conditionals", data[:, 1], total,
                           VALUE_TOL, float(np.max(np.abs(data[:, 1]))))
    return problems


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def check_ladder(out: Path, params: dict):
    model = {k: params[k] for k in ("phi0", "n0", "eta_p", "eta_a")}
    _, _, rows = read_csv(out / "ladder_kernel.csv")
    channels = _group(rows, (0,), (1, 2, 3))
    ref = oracles.ladder_line(params["kernel_xi"], 512, **model)
    problems = _expect_keys("ladder channels", channels,
                            [(float(e),) for e in range(ref.shape[0])])
    for e in range(ref.shape[0]):
        if (float(e),) in channels:
            u, re, im = channels[(float(e),)].T
            problems += _deviation(f"ladder kernel ell={e} grid", u,
                                   np.arange(512) / 512, 0.0)
            problems += _deviation(f"ladder kernel ell={e}", re + 1j * im, ref[e], ODE_TOL)
    _, _, rows = read_csv(out / "ladder_visibility.csv")
    lt, vis = np.array(rows, dtype=float).T
    problems += _deviation("ladder sweep grid", lt, np.linspace(*params["sweep"]), 0.0)
    kernel = oracles.summed_kernel(lambda a, b: oracles.ladder_kernel(a, b, **model))
    ref = oracles.sine_visibility(kernel, params["open_fraction"], lt, n=512)
    problems += _deviation("ladder visibility", vis, ref, ODE_TOL)
    return problems


def check_rabi(out: Path, params: dict):
    area = params["pulse_area_pi"] * math.pi
    det, tau = params["detuning_tl"], params["lifetime_tl"]
    _, _, rows = read_csv(out / "rabi_profile.csv")
    x, p0, p1, p2 = np.array(rows, dtype=float).T
    problems = _deviation("rabi profile grid", x, np.arange(256) / 256, 0.0)
    c0, c1 = oracles.rabi_amplitudes(x, area, det, tau)
    ref0, ref1 = np.abs(c0) ** 2, np.abs(c1) ** 2
    problems += _deviation("rabi p_ground", p0, ref0, ODE_TOL)
    problems += _deviation("rabi p_excited", p1, ref1, ODE_TOL)
    problems += _deviation("rabi p_dark", p2, 1.0 - ref0 - ref1, ODE_TOL)
    _, _, rows = read_csv(out / "rabi_kdtli.csv")
    data = np.array(rows, dtype=float)
    kernel = oracles.rabi_ground_kernel(area, det, tau)
    return problems + _signal_problems("rabi kdtli", data, kernel,
                                       params["open_fraction"],
                                       params["talbot_parameter"], j_max=24)


# ---------------------------------------------------------------------------
# Talbot table
# ---------------------------------------------------------------------------

def _talbot_rows(out: Path, fmt: str):
    if fmt == "csv":
        return read_csv(out / "talbot_coefficients.csv")[2]
    with open(out / "talbot_coefficients.json") as fh:
        return json.load(fh)["rows"]


def check_talbot(out: Path, params: dict, fmt: str = "csv", csv_out: Path | None = None):
    """Every coefficient against the kernel FFT; the JSON table must hold the
    same cells as the CSV table written from the same config."""
    rows = _talbot_rows(out, fmt)
    phi0, n0, j_max = params["phi0"], params["n0"], params["j_max"]
    xi = np.linspace(0.0, 2.0, params["xi_points"], endpoint=False)
    orders = np.arange(-j_max, j_max + 1)
    tables = {}
    for r in rows:
        tables.setdefault((r[0], r[1]), []).append(r[2:])
    expected = [("quantum", ""), ("classical", "")] + \
        [("conditional", str(e)) for e in range(oracles.poisson_cutoff(n0) + 1)]
    problems = _expect_keys(f"talbot {fmt} tables", tables, expected)
    for key in expected:
        if key not in tables:
            continue
        tab = np.array(tables[key], dtype=float)
        if tab.shape != (orders.size * xi.size, 4):
            problems.append(f"talbot {fmt} {key}: shape {tab.shape}")
            continue
        problems += _deviation(f"talbot {fmt} {key} orders", tab[:, 0],
                               np.repeat(orders, xi.size), 0.0)
        problems += _deviation(f"talbot {fmt} {key} xi", tab[:, 1], np.tile(xi, orders.size),
                               0.0)
        curve = key[0] if key[1] == "" else int(key[1])
        ref = oracles.talbot_table(oracles.kernel_for(curve, phi0, n0), orders, xi, n=512)
        got = (tab[:, 2] + 1j * tab[:, 3]).reshape(orders.size, xi.size)
        problems += _deviation(f"talbot {fmt} {key} coefficients", got, ref, VALUE_TOL)
    if csv_out is not None:
        try:
            same = _talbot_rows(csv_out, "csv") == rows
        except OSError as exc:
            return problems + [f"no CSV table to compare: {exc}"]
        if not same:
            problems.append("talbot JSON table differs from the CSV table")
    return problems
