"""Batch command-line front end.

Commands: derive-params, talbot, kdtli, farfield, ladder, rabi, figure.
Configuration is a sectioned key/value file with units spelled out in the
key names (see docs/formats.md).  Commands and figures return their tables
as (stem, meta, columns, blocks) tuples (talbot's made as written);
`main` alone writes them in a hidden folder, moves them out once all are
done and lists them in the manifest: a failed run writes no data file.
Outputs are
deterministic: fixed float formatting, sorted manifests, no timestamps;
sweep points are computed and written in input order.  The physics layers
are imported by the commands that run them, so a run compiles and loads
only what it needs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import shutil
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

# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

# Every config key: section -> key -> default.  The default sets the kind:
# None is a float the reading command needs, a float an optional float, an
# int an integer (at least its INT_MINIMUM, else 1), a str a word.
KEYS = {
    "beam": {"power_watt": None, "waist_y_um": None, "waist_z_um": None,
             "wavelength_nm": None, "polarizability_A3": None, "polarizability_si": None,
             "cross_section_A2": None, "cross_section_m2": 0.0, "velocity_mps": None,
             "mass_amu": None},
    "grating": {"phi0": None, "n0": None, "eta_p": 1.0, "eta_a": 1.0},
    "interferometer": {"talbot_parameter": None, "separation_mm": None,
                       "open_fraction": None, "velocity_spread": 0.0},
    "talbot": {"j_max": 8, "xi_points": 256},
    "farfield": {"collimator_ratio": 10.0, "period_over_sep": 1e-3, "sigma_det": 0.1,
                 "screen_max": 3.0, "screen_points": 2401},
    "ladder": {"envelope": "constant", "kernel_xi": 0.0},
    "rabi": {"pulse_area_pi": None, "detuning_tl": 0.0, "lifetime_tl": 1.0},
}
INT_MINIMUM = {"j_max": 0, "screen_points": 2}  # a far-field screen needs 2 points
# pairs of keys that give one value; a file gives at most one of each
EXCLUSIVE = (("polarizability_A3", "polarizability_si"), ("cross_section_A2", "cross_section_m2"),
             ("talbot_parameter", "separation_mm"))
# the keys a --sweep may move, per command: those the command reads
SWEEPS = {"kdtli": (*KEYS["beam"], "phi0", "n0", *KEYS["interferometer"]),
          "ladder": ("talbot_parameter",)}
# the [beam] keys of L/L_T (derive_scales): all that a pinned grating reads
SCALE_KEYS = ("wavelength_nm", "velocity_mps", "mass_amu")

_form = configparser.ConfigParser().optionxform  # a key as configparser stores it (lowercased)
_KEY = {_form(key): (section, key) for section, keys in KEYS.items() for key in keys}


def _given(cfg: configparser.ConfigParser, key: str) -> bool:
    return cfg.has_option(_KEY[_form(key)][0], key)


def get(cfg: configparser.ConfigParser, key: str):
    """The value of `key`, of the kind its KEYS default sets; the default if
    the file leaves the key out, and a ConfigError if it has none."""
    section, key = _KEY[_form(key)]
    default = KEYS[section][key]
    raw = cfg.get(section, key, fallback=None)
    if raw is None:
        if default is None:
            pair = next((" or ".join(map(repr, p)) for p in EXCLUSIVE if key in p), repr(key))
            raise ConfigError(f"missing key {pair} in section [{section}]")
        return default
    if isinstance(default, str):
        return raw
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    if isinstance(default, int):
        minimum = INT_MINIMUM.get(key, 1)
        if not (math.isfinite(value) and value == int(value) and value >= minimum):
            raise ConfigError(f"key {key!r} must be an integer >= {minimum}, got {raw!r}")
        return int(value)
    return value


def load_config(path, command: str, sweep: str | None = None) -> configparser.ConfigParser:
    """Parse `path` and check it against KEYS: an unknown section or key, both
    keys of an EXCLUSIVE pair (a swept key counts as given) or a sweep key
    that `command` does not read is a ConfigError.  Where [grating] pins
    phi0/n0, the [beam] keys read are SCALE_KEYS if separation_mm is given,
    else none."""
    cfg = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for section in cfg.sections() or [cfg.default_section]:  # [DEFAULT] keys are in each
        unknown = [k for k in cfg[section] if _KEY.get(k, (None,))[0] != section]
        if section not in KEYS and section != cfg.default_section:
            raise ConfigError(f"the {command} command knows no section [{section}] "
                              f"(keys: {', '.join(unknown) or 'none'})")
        if unknown:
            raise ConfigError(f"the {command} command knows no key {unknown[0]!r} "
                              f"in section [{section}]")
    swept = _form(parse_sweep(sweep)[1]) if sweep else ""
    for a, b in EXCLUSIVE:
        if all(_given(cfg, key) or _form(key) == swept for key in (a, b)):
            raise ConfigError(f"the {command} command takes one of [{_KEY[_form(a)][0]}] "
                              f"{a} and {b}, not both")
    read = SWEEPS.get(command, ())
    if _given(cfg, "phi0") or _given(cfg, "n0"):
        beam = SCALE_KEYS if _given(cfg, "separation_mm") else ()
        read = [key for key in read if key not in KEYS["beam"] or key in beam]
    if swept and swept not in map(_form, read):
        section, key = _KEY[swept]
        raise ConfigError(f"the {command} command does not read [{section}] {key}, "
                          f"so --sweep cannot move it")
    return cfg


def beam_from_config(cfg: configparser.ConfigParser) -> BeamSetup:
    alpha = polarizability_si_from_angstrom3(get(cfg, "polarizability_A3")) \
        if _given(cfg, "polarizability_A3") else get(cfg, "polarizability_si")
    sigma = get(cfg, "cross_section_A2") * 1e-20 if _given(cfg, "cross_section_A2") \
        else get(cfg, "cross_section_m2")
    return BeamSetup(
        power=get(cfg, "power_watt"),
        waist_y=get(cfg, "waist_y_um") * 1e-6,
        waist_z=get(cfg, "waist_z_um") * 1e-6,
        wavelength=get(cfg, "wavelength_nm") * 1e-9,
        polarizability=alpha,
        cross_section=sigma,
        velocity=get(cfg, "velocity_mps"),
        mass=get(cfg, "mass_amu") * constants.ATOMIC_MASS,
    )


def grating_from_config(cfg: configparser.ConfigParser) -> GratingParameters:
    """[grating] phi0 and n0 pin the dimensionless parameters and win over
    [beam]; without them the parameters are derived from [beam]."""
    eta_p, eta_a = get(cfg, "eta_p"), get(cfg, "eta_a")
    if _given(cfg, "phi0") or _given(cfg, "n0"):
        return GratingParameters(phi0=get(cfg, "phi0"), n0=get(cfg, "n0"),
                                 eta_p=eta_p, eta_a=eta_a)
    return derive_grating(beam_from_config(cfg), eta_p=eta_p, eta_a=eta_a)


def talbot_parameter_from_config(cfg: configparser.ConfigParser) -> float:
    if _given(cfg, "separation_mm"):
        return derive_scales(beam_from_config(cfg),
                             get(cfg, "separation_mm") * 1e-3).talbot_parameter
    return get(cfg, "talbot_parameter")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def parse_sweep(expr: str):
    """'section.key=start:stop:count' -> (section, key, values); the section
    may be left out, as KEYS names it."""
    try:
        target, _, rng = expr.partition("=")
        section, _, key = target.rpartition(".")
        if _form(key) not in _KEY or section not in ("", _KEY[_form(key)][0]):
            raise ConfigError(f"unknown sweep key {target!r}")
        section = _KEY[_form(key)][0]
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


def apply_override(cfg: configparser.ConfigParser, section: str, key: str, value: float):
    clone = configparser.ConfigParser()
    clone.read_dict({s: dict(cfg[s]) for s in cfg.sections()})
    clone.read_dict({section: {key: repr(float(value))}})
    return clone


def sweep_values_or_single(cfg, args):
    if args.sweep:
        section, key, values = parse_sweep(args.sweep)
        return [(f"{section}.{key}", float(v), apply_override(cfg, section, key, v))
                for v in values]
    return [("", math.nan, cfg)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

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


def cmd_derive_params(cfg, args) -> list:
    setup = beam_from_config(cfg)
    grating = derive_grating(setup)
    values = {
        "phi0": grating.phi0,
        "n0": grating.n0,
        "beta_im_over_re": absorption_phase_ratio(setup),
        "period_m": grating.period,
        "de_broglie_m": constants.PLANCK / (setup.mass * setup.velocity),
    }
    if _given(cfg, "separation_mm"):
        scales = derive_scales(setup, get(cfg, "separation_mm") * 1e-3)
        values.update(talbot_length_m=scales.talbot_length,
                      talbot_parameter=scales.talbot_parameter,
                      interaction_time_s=scales.interaction_time)
    return [("derived_parameters", {"command": "derive-params"}, ["name", "value"],
             [(list(values), list(values.values()))])]


def cmd_talbot(cfg, args) -> list:
    """A (variant, ell, j, xi, re, im) block per table and order j: re gathered from the
    folded table (classical: the quantum one, j reversed), im 0 as the forms are real.
    The blocks are made as the writer reads them."""
    from . import specfun, talbot
    grating = grating_from_config(cfg)
    j_max = get(cfg, "j_max")
    xi = np.linspace(0.0, 2.0, get(cfg, "xi_points"), endpoint=False)
    ells = _ell_list(args, grating)
    specfun.spectral_points(0.0, j_max + max(ells, default=0))  # the cap, before any array
    distinct, index, flip = talbot.fold_xi(xi)
    # the classical rows are read from the quantum table, so that the writer formats
    # those values once per file; each count table is computed when the writer reaches
    # it, so one is alive at a time (the writer keeps the texts of the latest values only)
    rows = talbot.symmetric_rows(np.arange(-j_max, j_max + 1), distinct, ["quantum", *ells],
                                 grating)
    quantum = next(rows).ravel()
    # B_j(xi_k) is in column index_k and row j_max + j of a table (j_max - j where flip_k),
    # at index base_k + stride_k j; the classical rows are the quantum ones at -j (sign)
    base = index + distinct.size * j_max
    stride = np.where(flip, -distinct.size, distinct.size)

    def table(label, ell, values, sign=1):
        return ((label, ell, j, xi, output.Gathered(values, base + stride * (sign * j)), 0.0)
                for j in range(-j_max, j_max + 1))

    def blocks(quantum):
        for v in (args.variant,) if args.variant else talbot.VARIANTS:
            yield from table(v, "", quantum, -1 if v == "classical" else 1)
        del quantum  # not held while the count tables are made
        for ell in ells:
            yield from table("conditional", ell, next(rows).ravel())
    meta = {"command": "talbot", "phi0": grating.phi0, "n0": grating.n0, "j_max": j_max}
    return [("talbot_coefficients", meta, ["variant", "ell", "j", "xi", "re", "im"],
             blocks(quantum))]


def cmd_kdtli(cfg, args) -> list:
    """One (sweep_key, sweep_value, variant, talbot_parameter, visibility,
    signal) curve per sweep point and variant, then one per --ell count.  The
    --ell curves use the unswept config and no velocity spread."""
    from . import nearfield, talbot
    grating = grating_from_config(cfg)
    runs = [(label, value, point, variant, get(point, "velocity_spread"))
            for label, value, point in sweep_values_or_single(cfg, args)
            for variant in ((args.variant,) if args.variant else talbot.VARIANTS)]
    runs += [("", math.nan, cfg, ell, 0.0) for ell in _ell_list(args, grating)]
    curves = []
    for label, value, point, kind, spread in runs:
        kc = nearfield.KdtliConfig(talbot.ClosedForm(grating_from_config(point), kind),
                                   talbot_parameter=talbot_parameter_from_config(point),
                                   open_fraction=get(point, "open_fraction"))
        sig = nearfield.kdtli_signal(kc, spread)
        curves.append((label, value, kind if isinstance(kind, str) else f"ell={kind}",
                       kc.talbot_parameter, nearfield.sinusoidal_visibility(kc), sig))
    meta = {"command": "kdtli", "phi0": grating.phi0, "n0": grating.n0,
            "open_fraction": get(cfg, "open_fraction")}
    columns = ["sweep_key", "sweep_value", "variant", "talbot_parameter"]
    return [("kdtli_signal", meta, columns + ["shift", "signal"],
             [c[:4] + (c[5].shifts, c[5].values) for c in curves]),
            ("kdtli_visibility", meta, columns + ["visibility"], [c[:5] for c in curves])]


def cmd_farfield(cfg, args) -> list:
    from . import farfield
    grating = grating_from_config(cfg)
    xmax = get(cfg, "screen_max")
    if not 0 < xmax < math.inf:
        raise ConfigError(f"key 'screen_max' must be finite and positive, got {xmax!r}")
    fc = farfield.FarFieldConfig(
        grating=grating, collimator_ratio=get(cfg, "collimator_ratio"),
        period_over_sep=get(cfg, "period_over_sep"),
        sigma_det=get(cfg, "sigma_det"),
        screen=np.linspace(-xmax, xmax, get(cfg, "screen_points")))
    variant, blocks = args.variant or "quantum", []
    for dens in farfield.farfield_densities(fc, _ell_list(args, grating) or [None], variant):
        smooth = farfield.apply_detector_resolution(dens, fc.sigma_det)
        blocks.append((variant, "sum" if dens.ell is None else dens.ell,
                       dens.positions, dens.values, smooth.values))
    meta = {"command": "farfield", "phi0": grating.phi0, "n0": grating.n0,
            "collimator_ratio": fc.collimator_ratio,
            "period_over_sep": fc.period_over_sep, "sigma_det": fc.sigma_det}
    return [("farfield_density", meta,
             ["variant", "ell", "position", "density", "density_smoothed"], blocks)]


def cmd_ladder(cfg, args) -> list:
    """Closed-form ladder kernel line and visibility sweep.  `[ladder] envelope`
    is validated and written to the metadata but does not change the kernel.
    The line calls no BLAS routine, so no OpenBLAS kernel is paged in."""
    from . import nearfield, talbot, dynamics  # noqa: F401 (compiled before the kernel line)
    grating = grating_from_config(cfg)
    envelope, xi = get(cfg, "envelope"), get(cfg, "kernel_xi")
    if not math.isfinite(xi):
        raise ConfigError(f"key 'kernel_xi' must be finite, got {xi!r}")
    if envelope not in dynamics.ENVELOPES:
        raise ConfigError(f"unknown envelope {envelope!r}")
    u = np.arange(512) / 512
    line = dynamics.ladder_analytic(u - 0.5 * xi, u + 0.5 * xi, grating)
    meta = {"command": "ladder", "phi0": grating.phi0, "n0": grating.n0,
            "eta_p": grating.eta_p, "eta_a": grating.eta_a}
    tables = [("ladder_kernel", {**meta, "envelope": envelope, "xi": xi}, ["ell", "u", "re", "im"],
               [(ch, u, v.real, v.imag) for ch, v in enumerate(line)])]
    if args.sweep:
        values = parse_sweep(args.sweep)[2]
        f = get(cfg, "open_fraction")
        tables.append(("ladder_visibility", {**meta, "open_fraction": f},
                       ["talbot_parameter", "visibility"],
                       [(values, _vis_curve(grating, f, values, "ladder"))]))
    return tables


def cmd_rabi(cfg, args) -> list:
    from . import rabi
    rc = rabi.RabiConfig(
        pulse_area=get(cfg, "pulse_area_pi") * math.pi,
        detuning=get(cfg, "detuning_tl"),
        lifetime=get(cfg, "lifetime_tl"),
    )
    kern = rabi.rabi_solve(rc)
    meta = {"command": "rabi", "pulse_area": rc.pulse_area, "detuning": rc.detuning,
            "lifetime": rc.lifetime}
    tables = [("rabi_profile", meta, ["x", "p_ground", "p_excited", "p_dark"],
               [(kern.positions, *kern.populations)])]
    if "interferometer" in cfg:
        f = get(cfg, "open_fraction")
        lt = talbot_parameter_from_config(cfg)
        sig = rabi.rabi_kdtli(rc, f, lt)
        tables.append(("rabi_kdtli", {**meta, "open_fraction": f, "talbot_parameter": lt},
                       ["shift", "signal"], [(sig.shifts, sig.values)]))
    return tables


# ---------------------------------------------------------------------------
# figure reproduction
# ---------------------------------------------------------------------------

def _vis_curve(grating, f, lts, kind) -> np.ndarray:
    """Sine visibility over the L/L_T values `lts`, from one pairs call."""
    from . import nearfield, talbot
    kc = nearfield.KdtliConfig(talbot.ClosedForm(grating, kind), f, float(lts[0]))
    return nearfield.sinusoidal_visibility(kc, lts)


def figure1() -> list:
    f = 0.42
    lts = np.linspace(0.005, 4.0, 800)
    phase_only = GratingParameters(phi0=math.pi, n0=0.0)
    absorbing = GratingParameters(phi0=math.pi, n0=1.0)
    curves = [("a", "phase_only", phase_only, "quantum"),
              ("a", "quantum_n0_1", absorbing, "quantum"),
              ("a", "classical_n0_1", absorbing, "classical")]
    curves += [("b", f"ell={ell}", absorbing, ell) for ell in (0, 1, 2)]
    curves.append(("b", "unconditional", absorbing, "quantum"))
    return [("figure1_visibility", {"command": "figure 1", "open_fraction": f, "phi0": math.pi},
             ["panel", "curve", "talbot_parameter", "visibility"],
             [(panel, curve, lts, _vis_curve(g, f, lts, src)) for panel, curve, g, src in curves])]


def figure2() -> list:
    from . import nearfield, talbot
    f = 0.42
    g = GratingParameters(phi0=math.pi, n0=1.0)
    blocks = []
    for panel, lt in (("a", 3.25), ("b", 4.25)):
        for src, curve in ((0, "ell=0"), (1, "ell=1"), (2, "ell=2"),
                           ("quantum", "unconditional")):
            sig = nearfield.kdtli_signal(nearfield.KdtliConfig(talbot.ClosedForm(g, src), f, lt))
            blocks.append((panel, curve, lt, sig.shifts, sig.values))
    return [("figure2_interferograms",
             {"command": "figure 2", "open_fraction": f, "phi0": math.pi, "n0": 1.0},
             ["panel", "curve", "talbot_parameter", "shift", "signal"], blocks)]


def figure4() -> list:
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
    return [("figure4_farfield",
             {"command": "figure 4", "phi0": 2.5, "collimator_ratio": 10.0,
              "period_over_sep": 1e-3, "sigma_det": 0.1},
             ["panel", "curve", "position", "density"],
             [(panel, curve, dn.positions, dn.values) for panel, curve, dn in curves])]


def figure5() -> list:
    from . import talbot
    from .specfun import sinc
    f = 0.42
    cases = (("eta_1", 1.0, 1.0), ("eta_a_1.5", 1.0, 1.5), ("eta_p_1.5", 1.5, 1.0))
    lts = np.linspace(0.02, 4.0, 200)
    n0s = np.linspace(0.02, 4.0, 200)

    def panel_b(eta_p, eta_a):
        """2 sinc^2(pi f) B_2(2.2) / B_0(0) over the gratings phi0 = 1.25 n0,
        from one pairs call over the array of gratings."""
        gratings = GratingParameters(np.tile(1.25 * n0s, 2), np.tile(n0s, 2), eta_p, eta_a)
        b = talbot.ClosedForm(gratings, "ladder").pairs(np.repeat([0, 2], n0s.size),
                                                        np.repeat([0.0, 2.2], n0s.size))
        return 2.0 * float(sinc(math.pi * f)) ** 2 * (b[n0s.size:] / b[:n0s.size])

    blocks = [("a", curve, lts,
               _vis_curve(GratingParameters(1.875, 1.5, eta_p, eta_a), f, lts, "ladder"))
              for curve, eta_p, eta_a in cases]
    blocks += [("b", curve, n0s, panel_b(eta_p, eta_a)) for curve, eta_p, eta_a in cases]
    return [("figure5_visibility",
             {"command": "figure 5", "open_fraction": f, "n0_panel_a": 1.5,
              "phi0_over_n0": 1.25, "talbot_parameter_panel_b": 2.2},
             ["panel", "curve", "x", "visibility"], blocks)]


def figure6() -> list:
    from . import rabi
    rc = rabi.RabiConfig(pulse_area=4.0 * math.pi, detuning=0.0, lifetime=1.0)
    xs, p0 = rabi.rabi_solve(rc).transmission_profile()
    blocks = []
    for panel, area_pi in (("b", 2.0), ("c", 4.0), ("d", 6.0), ("e", 8.0)):
        rc = rabi.RabiConfig(pulse_area=area_pi * math.pi, detuning=0.0, lifetime=1.0)
        sig = rabi.rabi_kdtli(rc, open_fraction=0.1, talbot_parameter=2.0)
        blocks.append((panel, area_pi, sig.shifts, sig.values))
    return [("figure6_profile",
             {"command": "figure 6", "pulse_area_pi": 4.0, "detuning": 0.0,
              "lifetime_tl": 1.0, "ladder_n0": 1.2},
             ["x", "p_ground_rabi", "p_ell0_ladder"],
             [(xs, p0, np.exp(-1.2 * np.cos(np.pi * xs) ** 2))]),
            ("figure6_interferograms",
             {"command": "figure 6", "detuning": 0.0, "lifetime_tl": 1.0,
              "open_fraction": 0.1, "talbot_parameter": 2.0},
             ["panel", "pulse_area_pi", "shift", "signal"], blocks)]


_PLOT_TEMPLATE = '''"""Plot the emitted data for figure {fig} (standalone; needs matplotlib)."""
import {module}
import sys
from collections import defaultdict

import matplotlib.pyplot as plt


def load(path):
{load}


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


# the module the script imports and the body of its load(path), per --format: the
# header and the rows of cell texts
_PLOT_LOADERS = {
    "csv": ("csv", '''    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.rstrip("\\n").split(","))
    header, data = rows[0], rows[1:]
    return header, data'''),
    "json": ("json", '''    with open(path) as fh:
        table = json.load(fh)
    return table["columns"], table["rows"]'''),
}

FIGURES = {"1": figure1, "2": figure2, "4": figure4, "5": figure5, "6": figure6}


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
                         FLAG_READERS.items()) + "; given to another command, exit 2. "
        "A config section or key not in docs/formats.md, both keys of an exclusive pair "
        "or a --sweep key the command does not read also exit 2, before any output")
    p.add_argument("command", choices=list(COMMANDS) + ["figure"])
    p.add_argument("figure", nargs="?", default=None,
                   help=f"figure id ({'|'.join(FIGURES)}), before or after the options")
    p.add_argument("--config", default=None, help="configuration file path")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--sweep", default=None, metavar="key=start:stop:count")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=None, help="accepted, no effect; to be removed")
    p.add_argument("--variant", choices=("quantum", "classical"), default=None)
    p.add_argument("--ell", default=None, help="absorption count: N | all | sum")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_intermixed_args(argv)
    made = None  # the output directory, where this run makes it
    parts = None  # the folder in it that holds the files until the last is written
    try:
        if args.jobs is not None and args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        for flag, readers in FLAG_READERS.items():
            if getattr(args, flag) is not None and args.command not in readers:
                raise ConfigError(f"the {args.command} command does not read {_arg_name(flag)}")
        if args.command == "figure":
            if args.figure not in FIGURES:
                raise ConfigError(f"the figure command needs an id from ({', '.join(FIGURES)})"
                                  + (f", not {args.figure!r}" if args.figure else ""))
            params = {"figure": args.figure, "format": args.format}
        else:
            if not args.config:
                raise ConfigError(f"command {args.command!r} needs --config")
            cfg = load_config(args.config, args.command, args.sweep)
            params = {"config": str(args.config), "format": args.format,
                      "sweep": args.sweep or "", "variant": args.variant or "",
                      "ell": args.ell or ""}
        outdir = Path(args.out or os.environ.get(OUT_ENV, "."))
        made = None if outdir.exists() else outdir
        outdir.mkdir(parents=True, exist_ok=True)
        tables = FIGURES[args.figure]() if args.command == "figure" \
            else COMMANDS[args.command](cfg, args)
        write = output.write_json_table if args.format == "json" else output.write_csv
        files = []
        parts = outdir / f".lasergrating-{os.getpid()}"
        parts.mkdir(exist_ok=True)
        for stem, meta, columns, blocks in tables:
            files.append(f"{stem}.{args.format}")
            write(parts / files[-1], meta, columns, blocks)
        if args.command == "figure":  # a plot script for the last table
            files.append(f"plot_figure{args.figure}.py")
            module, load = _PLOT_LOADERS[args.format]
            (parts / files[-1]).write_text(_PLOT_TEMPLATE.format(
                fig=args.figure, default=files[-2], module=module, load=load))
        for name in files:
            os.replace(parts / name, outdir / name)
        output.write_manifest(outdir / "manifest.json", args.command, params, files)
        return 0
    except (ConfigError, InvalidInputError) as exc:
        message, code = f"config error: {exc}", EXIT_CONFIG
    except (RegimeError, ResolutionError, CutoffError, DomainError, SimulationError) as exc:
        message, code = f"numerical error: {exc}", EXIT_NUMERICS
    except OSError as exc:
        message, code = f"i/o error: {exc}", EXIT_IO
    finally:
        if parts is not None:
            try:
                parts.rmdir()  # empty after a run that succeeds
            except OSError:
                shutil.rmtree(parts, ignore_errors=True)
    print(message, file=sys.stderr)
    if made is not None and made.is_dir() and not any(made.iterdir()):
        made.rmdir()  # only while empty: files an earlier run wrote stay
    return code


if __name__ == "__main__":
    sys.exit(main())
