"""Batch command-line front end.

Commands: derive-params, talbot, kdtli, farfield, ladder, rabi, figure.
Configuration is a sectioned key/value file with units spelled out in the
key names (see docs/formats.md).  Outputs are deterministic: fixed float
formatting, sorted manifests, no timestamps; sweep points are computed by a
work pool but written in input order.  The physics layers are imported by
the commands that run them, so a run compiles and loads only what it needs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import output
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


def _getint(section, key, default: int, minimum: int) -> int:
    """An integral value (8 or 8.0) no smaller than `minimum`."""
    value = _getfloat(section, key, default)
    if not (math.isfinite(value) and value == int(value) and value >= minimum):
        raise ConfigError(f"key {key!r} must be an integer >= {minimum}, got {section[key]!r}")
    return int(value)


def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
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
        start, stop = float(start), float(stop)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"sweep {expr!r} needs a finite start and stop")
        values = np.linspace(start, stop, int(count))
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
    """Map `worker` over `tasks`, preserving input order, on at most `jobs`
    processes, one per task and per usable CPU; serial for one."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else range(os.cpu_count() or 1)
    workers = min(jobs, len(tasks), len(cpus))
    if workers <= 1:
        return [worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
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
    values = {
        "phi0": grating.phi0,
        "n0": grating.n0,
        "beta_im_over_re": absorption_phase_ratio(setup),
        "period_m": grating.period,
        "de_broglie_m": constants.PLANCK / (setup.mass * setup.velocity),
    }
    sec = cfg["interferometer"] if "interferometer" in cfg else {}
    if "separation_mm" in sec:
        scales = derive_scales(setup, _getfloat(cfg["interferometer"], "separation_mm") * 1e-3)
        values.update(talbot_length_m=scales.talbot_length,
                      talbot_parameter=scales.talbot_parameter,
                      interaction_time_s=scales.interaction_time)
    name = f"derived_parameters.{_ext(args)}"
    _writer(args)(outdir / name, {"command": "derive-params"}, ["name", "value"],
                  [(list(values), list(values.values()))])
    return [name]


def cmd_talbot(cfg, args, outdir: Path) -> list[str]:
    """A (variant, ell, j, xi, re, im) block per table and order j: re gathered from the
    folded table (classical: the quantum one, j reversed), im 0 as the forms are real."""
    from . import specfun, talbot
    grating = grating_from_config(cfg)
    sec = cfg["talbot"] if "talbot" in cfg else {}
    j_max = _getint(sec, "j_max", 8, 0)
    xi = np.linspace(0.0, 2.0, _getint(sec, "xi_points", 256, 1), endpoint=False)
    ells = _ell_list(args, grating)
    specfun.spectral_points(0.0, j_max + max(ells, default=0))  # the cap, before any array
    distinct, index, flip = talbot.fold_xi(xi)
    quantum = talbot.symmetric_rows(j_max, distinct, "quantum", grating).ravel()
    tables = [(v, "", quantum, v == "classical")
              for v in ((args.variant,) if args.variant else talbot.VARIANTS)]
    if ells:  # a copy per count, so that each is freed once written
        tables += [("conditional", ell, rows.ravel().copy(), False) for ell, rows in
                   zip(ells, talbot.symmetric_rows(j_max, distinct, ells, grating))]

    def blocks():  # B_j(xi_k) is in row (flip_k xor mirror ? -j : j) + j_max, column index_k
        while tables:
            label, ell, values, mirror = tables.pop(0)
            yield from ((label, ell, j, xi, output.Gathered(values, index + distinct.size * (
                j_max + np.where(flip != mirror, -j, j))), 0.0) for j in range(-j_max, j_max + 1))
    name = f"talbot_coefficients.{_ext(args)}"
    meta = {"command": "talbot", "phi0": grating.phi0, "n0": grating.n0, "j_max": j_max}
    _writer(args)(outdir / name, meta, ["variant", "ell", "j", "xi", "re", "im"], blocks())
    return [name]


def _kdtli_point(task):
    from . import nearfield
    label, value, cfg, variants = task
    grating = grating_from_config(cfg)
    lt = talbot_parameter_from_config(cfg)
    f = open_fraction_from_config(cfg)
    spread = _getfloat(cfg["interferometer"], "velocity_spread", 0.0)
    curves = []
    for variant in variants:
        kc = nearfield.KdtliConfig(grating, f, lt, source=variant)
        sig = nearfield.kdtli_signal(kc, spread)
        curves.append((label, value, variant, lt, nearfield.sinusoidal_visibility(kc), sig))
    return curves


def cmd_kdtli(cfg, args, outdir: Path) -> list[str]:
    """One (sweep_key, sweep_value, variant, talbot_parameter, visibility,
    signal) curve per sweep point and variant, then one per --ell count."""
    from . import nearfield, talbot  # before the pool, so forked workers inherit them
    variants = (args.variant,) if args.variant else talbot.VARIANTS
    tasks = [task + (variants,) for task in sweep_values_or_single(cfg, args)]
    curves = [c for point in run_pool(_kdtli_point, tasks, args.jobs or 1) for c in point]
    grating = grating_from_config(cfg)
    f = open_fraction_from_config(cfg)
    for ell in _ell_list(args, grating):
        lt = talbot_parameter_from_config(cfg)
        kc = nearfield.KdtliConfig(grating, f, lt, source=ell)
        curves.append(("", math.nan, f"ell={ell}", lt, nearfield.sinusoidal_visibility(kc),
                       nearfield.kdtli_signal(kc)))
    meta = {"command": "kdtli", "phi0": grating.phi0, "n0": grating.n0,
            "open_fraction": f}
    names = [f"kdtli_signal.{_ext(args)}", f"kdtli_visibility.{_ext(args)}"]
    _writer(args)(outdir / names[0], meta,
                  ["sweep_key", "sweep_value", "variant", "talbot_parameter", "shift", "signal"],
                  [c[:4] + (c[5].shifts, c[5].values) for c in curves])
    _writer(args)(outdir / names[1], meta,
                  ["sweep_key", "sweep_value", "variant", "talbot_parameter", "visibility"],
                  [c[:5] for c in curves])
    return names


def _farfield_cfg(cfg, grating):
    from . import farfield
    sec = cfg["farfield"] if "farfield" in cfg else {}
    xmax = _getfloat(sec, "screen_max", 3.0)
    if not 0 < xmax < math.inf:
        raise ConfigError(f"key 'screen_max' must be finite and positive, got {xmax!r}")
    return farfield.FarFieldConfig(
        grating=grating, collimator_ratio=_getfloat(sec, "collimator_ratio", 10.0),
        period_over_sep=_getfloat(sec, "period_over_sep", 1e-3),
        sigma_det=_getfloat(sec, "sigma_det", 0.1),
        screen=np.linspace(-xmax, xmax, _getint(sec, "screen_points", 2401, 1)))


def cmd_farfield(cfg, args, outdir: Path) -> list[str]:
    from . import farfield
    grating = grating_from_config(cfg)
    fc = _farfield_cfg(cfg, grating)
    variants = (args.variant,) if args.variant else ("quantum",)
    blocks = []
    for variant in variants:
        for dens in farfield.farfield_densities(fc, _ell_list(args, grating) or [None], variant):
            smooth = farfield.apply_detector_resolution(dens, fc.sigma_det)
            blocks.append((variant, "sum" if dens.ell is None else dens.ell,
                           dens.positions, dens.values, smooth.values))
    name = f"farfield_density.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "farfield", "phi0": grating.phi0, "n0": grating.n0,
                   "collimator_ratio": fc.collimator_ratio,
                   "period_over_sep": fc.period_over_sep, "sigma_det": fc.sigma_det},
                  ["variant", "ell", "position", "density", "density_smoothed"], blocks)
    return [name]


def cmd_ladder(cfg, args, outdir: Path) -> list[str]:
    """Closed-form ladder kernel line and visibility sweep.  `[ladder] envelope`
    is validated and written to the metadata but does not change the kernel."""
    from . import dynamics
    grating = grating_from_config(cfg)
    envelope = cfg["ladder"]["envelope"] if "ladder" in cfg and "envelope" in cfg["ladder"] \
        else "constant"
    xi = float(_getfloat(cfg["ladder"], "kernel_xi", 0.0)) if "ladder" in cfg else 0.0
    if not math.isfinite(xi):
        raise ConfigError(f"key 'kernel_xi' must be finite, got {xi!r}")
    if envelope not in dynamics.ENVELOPES:
        raise ConfigError(f"unknown envelope {envelope!r}")
    u = np.arange(512) / 512
    line = dynamics.ladder_analytic(u - 0.5 * xi, u + 0.5 * xi, grating)
    names = [f"ladder_kernel.{_ext(args)}"]
    _writer(args)(outdir / names[0],
                  {"command": "ladder", "phi0": grating.phi0, "n0": grating.n0,
                   "eta_p": grating.eta_p, "eta_a": grating.eta_a,
                   "envelope": envelope, "xi": xi},
                  ["ell", "u", "re", "im"],
                  [(ch, u, v.real, v.imag) for ch, v in enumerate(line)])
    if args.sweep:
        section, key, values = parse_sweep(args.sweep)
        if key != "talbot_parameter":
            raise ConfigError("ladder sweeps support talbot_parameter only")
        f = open_fraction_from_config(cfg)
        vis = _vis_curve(grating, f, values, "ladder")
        names.append(f"ladder_visibility.{_ext(args)}")
        _writer(args)(outdir / names[1],
                      {"command": "ladder", "phi0": grating.phi0, "n0": grating.n0,
                       "eta_p": grating.eta_p, "eta_a": grating.eta_a,
                       "open_fraction": f},
                      ["talbot_parameter", "visibility"], [(values, vis)])
    return names


def _rabi_cfg(cfg):
    from . import rabi
    if "rabi" not in cfg:
        raise ConfigError("config has no [rabi] section")
    r = cfg["rabi"]
    return rabi.RabiConfig(
        pulse_area=_getfloat(r, "pulse_area_pi") * math.pi,
        detuning=_getfloat(r, "detuning_tl", 0.0),
        lifetime=_getfloat(r, "lifetime_tl", 1.0),
    )


def cmd_rabi(cfg, args, outdir: Path) -> list[str]:
    from . import rabi
    rc = _rabi_cfg(cfg)
    kern = rabi.rabi_solve(rc)
    names = [f"rabi_profile.{_ext(args)}"]
    meta = {"command": "rabi", "pulse_area": rc.pulse_area, "detuning": rc.detuning,
            "lifetime": rc.lifetime}
    _writer(args)(outdir / names[0], meta,
                  ["x", "p_ground", "p_excited", "p_dark"],
                  [(kern.positions, *kern.populations)])
    if "interferometer" in cfg:
        f = open_fraction_from_config(cfg)
        lt = talbot_parameter_from_config(cfg)
        sig = rabi.rabi_kdtli(rc, f, lt)
        names.append(f"rabi_kdtli.{_ext(args)}")
        _writer(args)(outdir / names[1], {**meta, "open_fraction": f,
                                          "talbot_parameter": lt},
                      ["shift", "signal"], [(sig.shifts, sig.values)])
    return names


# ---------------------------------------------------------------------------
# figure reproduction
# ---------------------------------------------------------------------------

def _vis_curve(grating, f, lts, source) -> np.ndarray:
    """Sine visibility over the L/L_T values `lts`, from one pairs call."""
    from . import nearfield
    kc = nearfield.KdtliConfig(grating, f, float(lts[0]), source=source)
    return nearfield.sinusoidal_visibility(kc, lts)


def figure1(args, outdir: Path) -> list[str]:
    f = 0.42
    lts = np.linspace(0.005, 4.0, 800)
    phase_only = GratingParameters(phi0=math.pi, n0=0.0)
    absorbing = GratingParameters(phi0=math.pi, n0=1.0)
    curves = [("a", "phase_only", phase_only, "quantum"),
              ("a", "quantum_n0_1", absorbing, "quantum"),
              ("a", "classical_n0_1", absorbing, "classical")]
    curves += [("b", f"ell={ell}", absorbing, ell) for ell in (0, 1, 2)]
    curves.append(("b", "unconditional", absorbing, "quantum"))
    name = f"figure1_visibility.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "figure 1", "open_fraction": f, "phi0": math.pi},
                  ["panel", "curve", "talbot_parameter", "visibility"],
                  [(panel, curve, lts, _vis_curve(g, f, lts, src))
                   for panel, curve, g, src in curves])
    return [name, _plot_script(outdir, 1, name)]


def figure2(args, outdir: Path) -> list[str]:
    from . import nearfield
    f = 0.42
    g = GratingParameters(phi0=math.pi, n0=1.0)
    blocks = []
    for panel, lt in (("a", 3.25), ("b", 4.25)):
        for src, curve in ((0, "ell=0"), (1, "ell=1"), (2, "ell=2"),
                           ("quantum", "unconditional")):
            sig = nearfield.kdtli_signal(nearfield.KdtliConfig(g, f, lt, source=src))
            blocks.append((panel, curve, lt, sig.shifts, sig.values))
    name = f"figure2_interferograms.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "figure 2", "open_fraction": f, "phi0": math.pi, "n0": 1.0},
                  ["panel", "curve", "talbot_parameter", "shift", "signal"], blocks)
    return [name, _plot_script(outdir, 2, name)]


def figure4(args, outdir: Path) -> list[str]:
    from . import farfield
    screen = np.linspace(-3.0, 3.0, 2401)

    def dens(n0, ells):
        fc = farfield.FarFieldConfig(grating=GratingParameters(phi0=2.5, n0=n0),
                                     collimator_ratio=10.0, period_over_sep=1e-3,
                                     sigma_det=0.1, screen=screen)
        return [farfield.apply_detector_resolution(d, fc.sigma_det)
                for d in farfield.farfield_densities(fc, ells)]

    (phase_only,), (absorbing_10,) = dens(0.0, [None]), dens(10.0, [None])
    absorbing_2, ell0, ell1, ell2 = dens(2.0, [None, 0, 1, 2])
    curves = [("a", "phase_only", phase_only), ("a", "absorbing_n0_2", absorbing_2),
              ("b", "phase_only", phase_only), ("b", "absorbing_n0_10", absorbing_10),
              ("c", "ell=0", ell0), ("c", "ell=1", ell1), ("c", "ell=2", ell2),
              ("c", "unconditional", absorbing_2)]
    name = f"figure4_farfield.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "figure 4", "phi0": 2.5, "collimator_ratio": 10.0,
                   "period_over_sep": 1e-3, "sigma_det": 0.1},
                  ["panel", "curve", "position", "density"],
                  [(panel, curve, dn.positions, dn.values) for panel, curve, dn in curves])
    return [name, _plot_script(outdir, 4, name)]


def figure5(args, outdir: Path) -> list[str]:
    from . import talbot
    from .specfun import sinc
    f = 0.42
    cases = (("eta_1", 1.0, 1.0), ("eta_a_1.5", 1.0, 1.5), ("eta_p_1.5", 1.5, 1.0))
    lts = np.linspace(0.02, 4.0, 200)
    n0s = np.linspace(0.02, 4.0, 200)

    def panel_b(eta_p, eta_a):
        """2 sinc^2(pi f) B_2(2.2) / B_0(0) over the gratings phi0 = 1.25 n0,
        from one ladder_pairs call."""
        b = talbot.ladder_pairs(np.repeat([0, 2], n0s.size), np.repeat([0.0, 2.2], n0s.size),
                                np.tile(1.25 * n0s, 2), np.tile(n0s, 2), eta_p, eta_a)
        return 2.0 * float(sinc(math.pi * f)) ** 2 * (b[n0s.size:] / b[:n0s.size])

    blocks = [("a", curve, lts,
               _vis_curve(GratingParameters(1.875, 1.5, eta_p, eta_a), f, lts, "ladder"))
              for curve, eta_p, eta_a in cases]
    blocks += [("b", curve, n0s, panel_b(eta_p, eta_a)) for curve, eta_p, eta_a in cases]
    name = f"figure5_visibility.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "figure 5", "open_fraction": f, "n0_panel_a": 1.5,
                   "phi0_over_n0": 1.25, "talbot_parameter_panel_b": 2.2},
                  ["panel", "curve", "x", "visibility"], blocks)
    return [name, _plot_script(outdir, 5, name)]


def figure6(args, outdir: Path) -> list[str]:
    from . import rabi
    files = []
    rc = rabi.RabiConfig(pulse_area=4.0 * math.pi, detuning=0.0, lifetime=1.0)
    xs, p0 = rabi.rabi_solve(rc).transmission_profile()
    ladder_ref = np.exp(-1.2 * np.cos(np.pi * xs) ** 2)
    prof = f"figure6_profile.{_ext(args)}"
    _writer(args)(outdir / prof,
                  {"command": "figure 6", "pulse_area_pi": 4.0, "detuning": 0.0,
                   "lifetime_tl": 1.0, "ladder_n0": 1.2},
                  ["x", "p_ground_rabi", "p_ell0_ladder"], [(xs, p0, ladder_ref)])
    files.append(prof)
    blocks = []
    for panel, area_pi in (("b", 2.0), ("c", 4.0), ("d", 6.0), ("e", 8.0)):
        rc = rabi.RabiConfig(pulse_area=area_pi * math.pi, detuning=0.0, lifetime=1.0)
        sig = rabi.rabi_kdtli(rc, open_fraction=0.1, talbot_parameter=2.0)
        blocks.append((panel, area_pi, sig.shifts, sig.values))
    name = f"figure6_interferograms.{_ext(args)}"
    _writer(args)(outdir / name,
                  {"command": "figure 6", "detuning": 0.0, "lifetime_tl": 1.0,
                   "open_fraction": 0.1, "talbot_parameter": 2.0},
                  ["panel", "pulse_area_pi", "shift", "signal"], blocks)
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

FLAG_READERS = {"sweep": ("kdtli", "ladder"), "variant": ("talbot", "kdtli", "farfield"),
                "ell": ("talbot", "kdtli", "farfield"), "jobs": ("kdtli",),
                "config": tuple(COMMANDS), "figure": ("figure",)}


def _arg_name(flag: str) -> str:
    return "the figure id" if flag == "figure" else f"--{flag}"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lasergrating",
        description="Matter-wave diffraction at absorptive standing-wave laser gratings",
        epilog="; ".join(f"{_arg_name(flag)} is read by {', '.join(cmds)}" for flag, cmds in
                         FLAG_READERS.items()) + "; given to another command, exit 2")
    p.add_argument("command", choices=list(COMMANDS) + ["figure"])
    p.add_argument("figure", nargs="?", default=None,
                   help="figure id (1|2|4|5|6) for the figure command")
    p.add_argument("--config", default=None, help="configuration file path")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--sweep", default=None, metavar="key=start:stop:count")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--variant", choices=("quantum", "classical"), default=None)
    p.add_argument("--ell", default=None, help="absorption count: N | all | sum")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs is not None and args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        for flag, readers in FLAG_READERS.items():
            if getattr(args, flag) is not None and args.command not in readers:
                raise ConfigError(f"the {args.command} command does not read {_arg_name(flag)}")
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
