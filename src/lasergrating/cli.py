"""Batch command-line front end.

Commands: derive-params, talbot, kdtli, farfield, ladder, rabi, figure.
Configuration is a sectioned key/value file with units spelled out in the
key names (see docs/formats.md).  Outputs are deterministic: fixed float
formatting, sorted manifests, no timestamps; sweep points are computed by a
work pool but written in input order.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import dynamics, farfield, nearfield, output, rabi, talbot
from .errors import (ConfigError, CutoffError, DomainError, InvalidInputError,
                     RegimeError, ResolutionError, SimulationError)
from . import constants
from .params import (BeamSetup, GratingParameters, derive_grating, derive_scales,
                     absorption_phase_ratio, polarizability_si_from_angstrom3)

EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_IO = 4

OUT_ENV = "LASERGRATING_OUT"

FIGURES = ("1", "2", "4", "5", "6")


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def _getfloat(section, key, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key {key!r} in section [{section.name}]")
        return default
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError:
        raise
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parser


def beam_from_config(cfg: configparser.ConfigParser) -> BeamSetup:
    if "beam" not in cfg:
        raise ConfigError("config has no [beam] section")
    b = cfg["beam"]
    if "polarizability_A3" in b:
        alpha = polarizability_si_from_angstrom3(_getfloat(b, "polarizability_A3"))
    else:
        alpha = _getfloat(b, "polarizability_si")
    if "cross_section_A2" in b:
        sigma = _getfloat(b, "cross_section_A2") * 1e-20
    else:
        sigma = _getfloat(b, "cross_section_m2", 0.0)
    try:
        return BeamSetup(
            power=_getfloat(b, "power_watt"),
            waist_y=_getfloat(b, "waist_y_um") * 1e-6,
            waist_z=_getfloat(b, "waist_z_um") * 1e-6,
            wavelength=_getfloat(b, "wavelength_nm") * 1e-9,
            polarizability=alpha,
            cross_section=sigma,
            velocity=_getfloat(b, "velocity_mps"),
            mass=_getfloat(b, "mass_amu") * constants.ATOMIC_MASS,
        )
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


def grating_from_config(cfg: configparser.ConfigParser) -> GratingParameters:
    """[grating] pins dimensionless parameters directly; otherwise they are
    derived from [beam]."""
    eta_p = eta_a = 1.0
    if "grating" in cfg:
        g = cfg["grating"]
        eta_p = _getfloat(g, "eta_p", 1.0)
        eta_a = _getfloat(g, "eta_a", 1.0)
        if "phi0" in g or "n0" in g:
            try:
                return GratingParameters(
                    phi0=_getfloat(g, "phi0"),
                    n0=_getfloat(g, "n0"),
                    eta_p=eta_p,
                    eta_a=eta_a,
                    period=_getfloat(g, "period_nm", 266.0) * 1e-9,
                )
            except InvalidInputError as exc:
                raise ConfigError(str(exc)) from exc
    return derive_grating(beam_from_config(cfg), eta_p=eta_p, eta_a=eta_a)


def talbot_parameter_from_config(cfg: configparser.ConfigParser) -> float:
    sec = cfg["interferometer"] if "interferometer" in cfg else {}
    if "talbot_parameter" in sec:
        return _getfloat(cfg["interferometer"], "talbot_parameter")
    if "separation_mm" in sec:
        setup = beam_from_config(cfg)
        scales = derive_scales(setup, _getfloat(cfg["interferometer"], "separation_mm") * 1e-3)
        return scales.talbot_parameter
    raise ConfigError("need interferometer.talbot_parameter or separation_mm")


def open_fraction_from_config(cfg) -> float:
    if "interferometer" not in cfg:
        raise ConfigError("config has no [interferometer] section")
    return _getfloat(cfg["interferometer"], "open_fraction")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def parse_sweep(expr: str):
    """'section.key=start:stop:count' -> (section, key, values)."""
    try:
        target, _, rng = expr.partition("=")
        section, _, key = target.partition(".")
        if not key:
            section, key = _default_sweep_section(target), target
        start, stop, count = rng.split(":")
        values = np.linspace(float(start), float(stop), int(count))
    except (ValueError, AttributeError) as exc:
        raise ConfigError(f"cannot parse sweep {expr!r}: {exc}") from exc
    if values.size < 1:
        raise ConfigError("sweep needs at least one point")
    return section, key, values


def _default_sweep_section(key: str) -> str:
    if key in ("phi0", "n0", "eta_p", "eta_a"):
        return "grating"
    if key in ("talbot_parameter", "open_fraction", "separation_mm"):
        return "interferometer"
    if key in ("power_watt", "velocity_mps", "waist_y_um", "waist_z_um",
               "wavelength_nm", "mass_amu"):
        return "beam"
    if key in ("pulse_area_pi", "detuning_tl", "lifetime_tl"):
        return "rabi"
    if key in ("collimator_ratio", "period_over_sep", "sigma_det"):
        return "farfield"
    raise ConfigError(f"cannot infer config section for sweep key {key!r}")


def apply_override(cfg: configparser.ConfigParser, section: str, key: str, value: float):
    clone = configparser.ConfigParser()
    clone.read_dict({s: dict(cfg[s]) for s in cfg.sections()})
    if section not in clone:
        clone.add_section(section)
    clone[section][key] = repr(float(value))
    return clone


def sweep_values_or_single(cfg, args):
    if args.sweep:
        section, key, values = parse_sweep(args.sweep)
        return [(f"{section}.{key}", float(v), apply_override(cfg, section, key, v))
                for v in values]
    return [("", math.nan, cfg)]


def run_pool(worker, tasks, jobs: int):
    """Map `worker` over `tasks`, preserving input order."""
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _writer(args):
    return output.write_json_table if args.format == "json" else output.write_csv


def _ext(args):
    return "json" if args.format == "json" else "csv"


def _ell_list(args, grating) -> list:
    if args.ell == "all":
        from .grating import poisson_ell_max
        return list(range(poisson_ell_max(grating) + 1))
    if args.ell in ("sum", None):
        return []
    try:
        return [int(args.ell)]
    except ValueError as exc:
        raise ConfigError(f"bad --ell value {args.ell!r}") from exc


def cmd_derive_params(cfg, args, outdir: Path) -> list[str]:
    setup = beam_from_config(cfg)
    grating = derive_grating(setup)
    rows = [
        ("phi0", grating.phi0),
        ("n0", grating.n0),
        ("beta_im_over_re", absorption_phase_ratio(setup)),
        ("period_m", grating.period),
        ("de_broglie_m", constants.PLANCK / (setup.mass * setup.velocity)),
    ]
    sec = cfg["interferometer"] if "interferometer" in cfg else {}
    if "separation_mm" in sec:
        scales = derive_scales(setup, _getfloat(cfg["interferometer"], "separation_mm") * 1e-3)
        rows += [
            ("talbot_length_m", scales.talbot_length),
            ("talbot_parameter", scales.talbot_parameter),
            ("interaction_time_s", scales.interaction_time),
        ]
    name = f"derived_parameters.{_ext(args)}"
    _writer(args)(outdir / name, {"command": "derive-params"}, ["name", "value"], rows)
    return [name]


def cmd_talbot(cfg, args, outdir: Path) -> list[str]:
    grating = grating_from_config(cfg)
    sec = cfg["talbot"] if "talbot" in cfg else {}
    j_max = int(_getfloat(cfg["talbot"], "j_max", 8)) if sec else 8
    n_xi = int(_getfloat(cfg["talbot"], "xi_points", 256)) if sec else 256
    xi = np.linspace(0.0, 2.0, n_xi, endpoint=False)
    variants = (args.variant,) if args.variant else talbot.VARIANTS
    table = talbot.build_coefficient_table(
        grating, xi_grid=xi, j_max=j_max,
        ells=_ell_list(args, grating) or (), variants=variants)
    rows = [(label, ell, j, x, v.real, v.imag) for label, ell, j, x, v in table.rows()]
    name = f"talbot_coefficients.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "talbot", "phi0": grating.phi0, "n0": grating.n0,
                   "j_max": j_max},
                  ["variant", "ell", "j", "xi", "re", "im"], rows)
    return [name]


def _kdtli_point(task):
    label, value, cfg = task
    grating = grating_from_config(cfg)
    lt = talbot_parameter_from_config(cfg)
    f = open_fraction_from_config(cfg)
    sources = [("quantum", "quantum"), ("classical", "classical")]
    rows = []
    for src, tag in sources:
        kc = nearfield.KdtliConfig(grating, f, lt, source=src)
        spread = _getfloat(cfg["interferometer"], "velocity_spread", 0.0)
        sig = nearfield.velocity_average(kc, spread) if spread > 0 else nearfield.kdtli_signal(kc)
        vis = nearfield.sinusoidal_visibility(kc)
        rows.append((label, value, tag, lt, vis, sig))
    return rows


def cmd_kdtli(cfg, args, outdir: Path) -> list[str]:
    tasks = sweep_values_or_single(cfg, args)
    results = run_pool(_kdtli_point, tasks, args.jobs)
    grating = grating_from_config(cfg)
    f = open_fraction_from_config(cfg)
    ells = _ell_list(args, grating)
    sig_rows, vis_rows = [], []
    for point in results:
        for label, value, tag, lt, vis, sig in point:
            if args.variant and tag != args.variant:
                continue
            vis_rows.append((label, value, tag, lt, vis))
            for xs, s in zip(sig.shifts, sig.values):
                sig_rows.append((label, value, tag, lt, float(xs), float(s)))
    for ell in ells:
        lt = talbot_parameter_from_config(cfg)
        kc = nearfield.KdtliConfig(grating, f, lt, source=ell)
        sig = nearfield.kdtli_signal(kc)
        vis_rows.append(("", math.nan, f"ell={ell}", lt,
                         nearfield.sinusoidal_visibility(kc)))
        for xs, s in zip(sig.shifts, sig.values):
            sig_rows.append(("", math.nan, f"ell={ell}", lt, float(xs), float(s)))
    meta = {"command": "kdtli", "phi0": grating.phi0, "n0": grating.n0,
            "open_fraction": f}
    names = [f"kdtli_signal.{_ext(args)}", f"kdtli_visibility.{_ext(args)}"]
    _writer(args)(outdir / names[0], meta,
                  ["sweep_key", "sweep_value", "variant", "talbot_parameter", "shift", "signal"],
                  sig_rows)
    _writer(args)(outdir / names[1], meta,
                  ["sweep_key", "sweep_value", "variant", "talbot_parameter", "visibility"],
                  vis_rows)
    return names


def _farfield_cfg(cfg, grating) -> farfield.FarFieldConfig:
    sec = cfg["farfield"] if "farfield" in cfg else {}
    ratio = _getfloat(cfg["farfield"], "collimator_ratio", 10.0) if sec else 10.0
    dsep = _getfloat(cfg["farfield"], "period_over_sep", 1e-3) if sec else 1e-3
    sig = _getfloat(cfg["farfield"], "sigma_det", 0.1) if sec else 0.1
    xmax = _getfloat(cfg["farfield"], "screen_max", 3.0) if sec else 3.0
    npts = int(_getfloat(cfg["farfield"], "screen_points", 2401)) if sec else 2401
    return farfield.FarFieldConfig(
        grating=grating, collimator_ratio=ratio, period_over_sep=dsep,
        sigma_det=sig, screen=np.linspace(-xmax, xmax, npts))


def cmd_farfield(cfg, args, outdir: Path) -> list[str]:
    grating = grating_from_config(cfg)
    fc = _farfield_cfg(cfg, grating)
    variants = (args.variant,) if args.variant else ("quantum",)
    rows = []
    targets = _ell_list(args, grating) or [None]
    for variant in variants:
        for ell in targets:
            dens = farfield.farfield_density(fc, ell, variant)
            smooth = farfield.apply_detector_resolution(dens, fc.sigma_det)
            label = "sum" if ell is None else ell
            for x, raw, sm in zip(dens.positions, dens.values, smooth.values):
                rows.append((variant, label, float(x), float(raw), float(sm)))
    name = f"farfield_density.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "farfield", "phi0": grating.phi0, "n0": grating.n0,
                   "collimator_ratio": fc.collimator_ratio,
                   "period_over_sep": fc.period_over_sep, "sigma_det": fc.sigma_det},
                  ["variant", "ell", "position", "density", "density_smoothed"], rows)
    return [name]


def cmd_ladder(cfg, args, outdir: Path) -> list[str]:
    """Closed-form ladder kernel line and visibility sweep.  `[ladder] envelope`
    is validated and written to the metadata but does not change the kernel."""
    grating = grating_from_config(cfg)
    envelope = cfg["ladder"]["envelope"] if "ladder" in cfg and "envelope" in cfg["ladder"] \
        else "constant"
    kernel = dynamics.ladder_analytic(dynamics.LadderConfig(grating, envelope=envelope))
    xi = float(_getfloat(cfg["ladder"], "kernel_xi", 0.0)) if "ladder" in cfg else 0.0
    line = kernel.line(xi, 512)
    u = np.arange(512) / 512
    rows = []
    for ic, ch in enumerate(kernel.channels):
        for k in range(512):
            rows.append((ch, float(u[k]), float(line[ic, k].real), float(line[ic, k].imag)))
    names = [f"ladder_kernel.{_ext(args)}"]
    _writer(args)(outdir / names[0],
                  {"command": "ladder", "phi0": grating.phi0, "n0": grating.n0,
                   "eta_p": grating.eta_p, "eta_a": grating.eta_a,
                   "envelope": envelope, "xi": xi},
                  ["ell", "u", "re", "im"], rows)
    if args.sweep:
        section, key, values = parse_sweep(args.sweep)
        if key != "talbot_parameter":
            raise ConfigError("ladder sweeps support talbot_parameter only")
        f = open_fraction_from_config(cfg)
        source = dynamics.kernel_source(kernel, "sum")
        source.prefetch([(2, lt) for lt in values] + [(0, 0.0)])
        vrows = []
        for lt in values:
            kc = nearfield.KdtliConfig(None, f, float(lt), source=source)
            vrows.append((float(lt), nearfield.sinusoidal_visibility(kc)))
        names.append(f"ladder_visibility.{_ext(args)}")
        _writer(args)(outdir / names[1],
                      {"command": "ladder", "phi0": grating.phi0, "n0": grating.n0,
                       "eta_p": grating.eta_p, "eta_a": grating.eta_a,
                       "open_fraction": f},
                      ["talbot_parameter", "visibility"], vrows)
    return names


def _rabi_cfg(cfg) -> rabi.RabiConfig:
    if "rabi" not in cfg:
        raise ConfigError("config has no [rabi] section")
    r = cfg["rabi"]
    return rabi.RabiConfig(
        pulse_area=_getfloat(r, "pulse_area_pi") * math.pi,
        detuning=_getfloat(r, "detuning_tl", 0.0),
        lifetime=_getfloat(r, "lifetime_tl", 1.0),
    )


def cmd_rabi(cfg, args, outdir: Path) -> list[str]:
    rc = _rabi_cfg(cfg)
    kern = rabi.rabi_solve(rc)
    xs = kern.positions
    p = kern.populations
    rows = [(float(x), float(p[0, k]), float(p[1, k]), float(p[2, k]))
            for k, x in enumerate(xs)]
    names = [f"rabi_profile.{_ext(args)}"]
    meta = {"command": "rabi", "pulse_area": rc.pulse_area, "detuning": rc.detuning,
            "lifetime": rc.lifetime}
    _writer(args)(outdir / names[0], meta,
                  ["x", "p_ground", "p_excited", "p_dark"], rows)
    if "interferometer" in cfg:
        f = open_fraction_from_config(cfg)
        lt = talbot_parameter_from_config(cfg)
        sig = rabi.rabi_kdtli(rc, f, lt)
        srows = [(float(x), float(s)) for x, s in zip(sig.shifts, sig.values)]
        names.append(f"rabi_kdtli.{_ext(args)}")
        _writer(args)(outdir / names[1], {**meta, "open_fraction": f,
                                          "talbot_parameter": lt},
                      ["shift", "signal"], srows)
    return names


# ---------------------------------------------------------------------------
# figure reproduction
# ---------------------------------------------------------------------------

def _vis_curve(grating, f, lts, source):
    rows = []
    for lt in lts:
        kc = nearfield.KdtliConfig(grating, f, float(lt), source=source)
        rows.append(nearfield.sinusoidal_visibility(kc))
    return rows


def figure1(args, outdir: Path) -> list[str]:
    f = 0.42
    lts = np.linspace(0.005, 4.0, 800)
    rows = []
    phase_only = GratingParameters(phi0=math.pi, n0=0.0)
    absorbing = GratingParameters(phi0=math.pi, n0=1.0)
    for curve, g, src in (("phase_only", phase_only, "quantum"),
                          ("quantum_n0_1", absorbing, "quantum"),
                          ("classical_n0_1", absorbing, "classical")):
        for lt, v in zip(lts, _vis_curve(g, f, lts, src)):
            rows.append(("a", curve, float(lt), v))
    for ell in (0, 1, 2):
        for lt, v in zip(lts, _vis_curve(absorbing, f, lts, ell)):
            rows.append(("b", f"ell={ell}", float(lt), v))
    for lt, v in zip(lts, _vis_curve(absorbing, f, lts, "quantum")):
        rows.append(("b", "unconditional", float(lt), v))
    name = f"figure1_visibility.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "figure 1", "open_fraction": f, "phi0": math.pi},
                  ["panel", "curve", "talbot_parameter", "visibility"], rows)
    return [name, _plot_script(outdir, 1, name)]


def figure2(args, outdir: Path) -> list[str]:
    f = 0.42
    g = GratingParameters(phi0=math.pi, n0=1.0)
    rows = []
    for panel, lt in (("a", 3.25), ("b", 4.25)):
        for src, curve in ((0, "ell=0"), (1, "ell=1"), (2, "ell=2"),
                           ("quantum", "unconditional")):
            sig = nearfield.kdtli_signal(nearfield.KdtliConfig(g, f, lt, source=src))
            for xs, s in zip(sig.shifts, sig.values):
                rows.append((panel, curve, lt, float(xs), float(s)))
    name = f"figure2_interferograms.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "figure 2", "open_fraction": f, "phi0": math.pi, "n0": 1.0},
                  ["panel", "curve", "talbot_parameter", "shift", "signal"], rows)
    return [name, _plot_script(outdir, 2, name)]


def figure4(args, outdir: Path) -> list[str]:
    rows = []
    screen = np.linspace(-3.0, 3.0, 2401)

    def dens(n0, ell, variant="quantum"):
        g = GratingParameters(phi0=2.5, n0=n0)
        fc = farfield.FarFieldConfig(grating=g, collimator_ratio=10.0,
                                     period_over_sep=1e-3, sigma_det=0.1,
                                     screen=screen)
        d = farfield.farfield_density(fc, ell, variant)
        return farfield.apply_detector_resolution(d, 0.1)

    for panel, n0 in (("a", 2.0), ("b", 10.0)):
        for curve, dn in (("phase_only", dens(0.0, None)),
                          (f"absorbing_n0_{n0:g}", dens(n0, None))):
            for x, v in zip(dn.positions, dn.values):
                rows.append((panel, curve, float(x), float(v)))
    for curve, dn in (("ell=0", dens(2.0, 0)), ("ell=1", dens(2.0, 1)),
                      ("ell=2", dens(2.0, 2)), ("unconditional", dens(2.0, None))):
        for x, v in zip(dn.positions, dn.values):
            rows.append(("c", curve, float(x), float(v)))
    name = f"figure4_farfield.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "figure 4", "phi0": 2.5, "collimator_ratio": 10.0,
                   "period_over_sep": 1e-3, "sigma_det": 0.1},
                  ["panel", "curve", "position", "density"], rows)
    return [name, _plot_script(outdir, 4, name)]


def figure5(args, outdir: Path) -> list[str]:
    f = 0.42
    rows = []
    cases = (("eta_1", 1.0, 1.0), ("eta_a_1.5", 1.0, 1.5), ("eta_p_1.5", 1.5, 1.0))
    lts = np.linspace(0.02, 4.0, 200)
    for curve, eta_p, eta_a in cases:
        g = GratingParameters(phi0=1.875, n0=1.5, eta_p=eta_p, eta_a=eta_a)
        kern = dynamics.ladder_analytic(dynamics.LadderConfig(g, envelope="constant"))
        source = dynamics.kernel_source(kern, "sum")
        source.prefetch([(2, float(lt)) for lt in lts] + [(0, 0.0)])
        for lt in lts:
            kc = nearfield.KdtliConfig(None, f, float(lt), source=source)
            rows.append(("a", curve, float(lt), nearfield.sinusoidal_visibility(kc)))
    n0s = np.linspace(0.02, 4.0, 200)
    for curve, eta_p, eta_a in cases:
        for n0 in n0s:
            g = GratingParameters(phi0=1.25 * float(n0), n0=float(n0),
                                  eta_p=eta_p, eta_a=eta_a)
            kern = dynamics.ladder_analytic(dynamics.LadderConfig(g, envelope="constant"))
            source = dynamics.kernel_source(kern, "sum")
            kc = nearfield.KdtliConfig(None, f, 2.2, source=source)
            rows.append(("b", curve, float(n0), nearfield.sinusoidal_visibility(kc)))
    name = f"figure5_visibility.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "figure 5", "open_fraction": f, "n0_panel_a": 1.5,
                   "phi0_over_n0": 1.25, "talbot_parameter_panel_b": 2.2},
                  ["panel", "curve", "x", "visibility"], rows)
    return [name, _plot_script(outdir, 5, name)]


def figure6(args, outdir: Path) -> list[str]:
    files = []
    rc = rabi.RabiConfig(pulse_area=4.0 * math.pi, detuning=0.0, lifetime=1.0)
    xs, p0 = rabi.rabi_solve(rc).transmission_profile()
    ladder_ref = np.exp(-1.2 * np.cos(np.pi * xs) ** 2)
    rows = [(float(x), float(p), float(r)) for x, p, r in zip(xs, p0, ladder_ref)]
    prof = f"figure6_profile.{_ext(args)}"
    _writer(args)(outdir / prof,
                  {"command": "figure 6", "pulse_area_pi": 4.0, "detuning": 0.0,
                   "lifetime_tl": 1.0, "ladder_n0": 1.2},
                  ["x", "p_ground_rabi", "p_ell0_ladder"], rows)
    files.append(prof)
    rows = []
    for panel, area_pi in (("b", 2.0), ("c", 4.0), ("d", 6.0), ("e", 8.0)):
        rc = rabi.RabiConfig(pulse_area=area_pi * math.pi, detuning=0.0, lifetime=1.0)
        sig = rabi.rabi_kdtli(rc, open_fraction=0.1, talbot_parameter=2.0)
        for xsft, s in zip(sig.shifts, sig.values):
            rows.append((panel, area_pi, float(xsft), float(s)))
    name = f"figure6_interferograms.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "figure 6", "detuning": 0.0, "lifetime_tl": 1.0,
                   "open_fraction": 0.1, "talbot_parameter": 2.0},
                  ["panel", "pulse_area_pi", "shift", "signal"], rows)
    files.append(name)
    files.append(_plot_script(outdir, 6, name))
    return files


_PLOT_TEMPLATE = '''"""Plot the emitted data for figure {fig} (standalone; needs matplotlib)."""
import csv
import sys
from collections import defaultdict

import matplotlib.pyplot as plt


def load(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.rstrip("\\n").split(","))
    header, data = rows[0], rows[1:]
    return header, data


def main(path):
    header, data = load(path)
    groups = defaultdict(list)
    for row in data:
        groups[tuple(row[:-2])].append((float(row[-2]), float(row[-1])))
    fig, ax = plt.subplots()
    for key, pts in groups.items():
        xs, ys = zip(*pts)
        ax.plot(xs, ys, label="/".join(key))
    ax.set_title("figure {fig}")
    ax.legend(fontsize=6)
    fig.savefig("figure{fig}.png", dpi=150)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else {default!r})
'''


def _plot_script(outdir: Path, fig: int, data_name: str) -> str:
    name = f"plot_figure{fig}.py"
    with open(outdir / name, "w") as fh:
        fh.write(_PLOT_TEMPLATE.format(fig=fig, default=data_name))
    return name


def cmd_figure(cfg, args, outdir: Path) -> list[str]:
    if args.figure not in FIGURES:
        raise ConfigError(f"unknown figure {args.figure!r}; choose from {FIGURES}")
    return {"1": figure1, "2": figure2, "4": figure4,
            "5": figure5, "6": figure6}[args.figure](args, outdir)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "derive-params": cmd_derive_params,
    "talbot": cmd_talbot,
    "kdtli": cmd_kdtli,
    "farfield": cmd_farfield,
    "ladder": cmd_ladder,
    "rabi": cmd_rabi,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lasergrating",
        description="Matter-wave diffraction at absorptive standing-wave laser gratings")
    p.add_argument("command", choices=list(COMMANDS) + ["figure"])
    p.add_argument("figure", nargs="?", default=None,
                   help="figure id (1|2|4|5|6) for the figure command")
    p.add_argument("--config", default=None, help="configuration file path")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--sweep", default=None, metavar="key=start:stop:count")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--variant", choices=("quantum", "classical"), default=None)
    p.add_argument("--ell", default=None, help="absorption count: N | all | sum")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outdir = Path(args.out or os.environ.get(OUT_ENV, "."))
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "figure":
            files = cmd_figure(None, args, outdir)
            params = {"figure": args.figure, "format": args.format}
        else:
            if not args.config:
                raise ConfigError(f"command {args.command!r} needs --config")
            cfg = load_config(args.config)
            files = COMMANDS[args.command](cfg, args, outdir)
            params = {"config": str(args.config), "format": args.format,
                      "sweep": args.sweep or "", "variant": args.variant or "",
                      "ell": args.ell or ""}
        output.write_manifest(outdir / "manifest.json", args.command, params, files)
    except (ConfigError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RegimeError, ResolutionError, CutoffError, DomainError, SimulationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
