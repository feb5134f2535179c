"""The benchmark's workloads: which CLI commands one round runs, the
configs they get, and the check that each command's outputs must pass.

The seed draws the configs of the generated commands within ranges that
keep the amount of work fixed.  Every array size, sweep length and job
count is a constant; the Poisson cutoff (the number of absorption counts)
and the far-field order cutoff are the same for every seed; and the values
that set series lengths and ODE step counts (phi0, the Rabi drive) vary
only a few percent, since a 40% wider phi0 range alone changes the cost
of a kdtli sweep by a third.  The figure commands and the
phi0 = 45 point take no config and do not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

JOBS = 2  # --jobs of the pooled sweep; with one BLAS thread it fits 2 cores


@dataclass
class Op:
    """One CLI command.  `argv` excludes --out; `check(out_dir)` returns the
    problems found in what the command wrote."""

    name: str
    argv: list
    check: Callable
    known_fault: str = ""


def _write_config(path: Path, sections: dict) -> str:
    with open(path, "w") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value!r}\n" if isinstance(value, float)
                         else f"{key} = {value}\n")
    return str(path)


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _sweep_arg(key: str, start: float, stop: float, count: int) -> str:
    return f"{key}={start!r}:{stop!r}:{count}"


# ---------------------------------------------------------------------------
# nearfield-sweep
# ---------------------------------------------------------------------------

PHI0_45 = {"phi0": 45.0, "n0": 0.5, "talbot_parameter": 0.77, "open_fraction": 0.42,
           "line_points": 1024}
PHI0_45_FAULT = ("specfun.exp_bessel_coeff cancels catastrophically at phi0 = 45: the "
                 "fringe signal is wrong without an error")


def nearfield_sweep(seed: int, cfg_dir: Path):
    rng = random.Random(seed)
    p = {"phi0": _draw(rng, 2.9, 3.1), "n0": _draw(rng, 0.9, 1.0),
         "talbot_parameter": _draw(rng, 0.8, 1.6), "open_fraction": _draw(rng, 0.38, 0.46),
         "velocity_spread": _draw(rng, 0.05, 0.1),
         "sweep": (_draw(rng, 0.2, 0.4), _draw(rng, 2.8, 3.2), 8), "ells": True}
    sweep_cfg = _write_config(cfg_dir / "kdtli_sweep.cfg", {
        "grating": {"phi0": p["phi0"], "n0": p["n0"]},
        "interferometer": {k: p[k] for k in ("talbot_parameter", "open_fraction",
                                             "velocity_spread")}})
    point_cfg = _write_config(cfg_dir / "kdtli_phi0_45.cfg", {
        "grating": {"phi0": PHI0_45["phi0"], "n0": PHI0_45["n0"]},
        "interferometer": {k: PHI0_45[k] for k in ("talbot_parameter", "open_fraction")}})
    return [
        Op("figure-1", ["figure", "1"], checks.check_figure1),
        Op("figure-2", ["figure", "2"], checks.check_figure2),
        Op("figure-5", ["figure", "5"], checks.check_figure5),
        Op("kdtli-sweep", ["kdtli", "--config", sweep_cfg,
                           "--sweep", _sweep_arg("talbot_parameter", *p["sweep"]),
                           "--ell", "all", "--jobs", str(JOBS)],
           lambda out: checks.check_kdtli(out, p)),
        Op("kdtli-phi0-45", ["kdtli", "--config", point_cfg],
           lambda out: checks.check_kdtli(out, PHI0_45), known_fault=PHI0_45_FAULT),
    ]


# ---------------------------------------------------------------------------
# farfield-screen
# ---------------------------------------------------------------------------

def farfield_screen(seed: int, cfg_dir: Path):
    rng = random.Random(seed)
    p = {"phi0": _draw(rng, 2.35, 2.45), "n0": _draw(rng, 0.08, 0.12),
         "collimator_ratio": 10.0, "period_over_sep": _draw(rng, 0.8e-3, 1.2e-3),
         "sigma_det": _draw(rng, 0.08, 0.12), "screen_max": 3.0, "screen_points": 801}
    cfg = _write_config(cfg_dir / "farfield.cfg", {
        "grating": {"phi0": p["phi0"], "n0": p["n0"]},
        "farfield": {k: p[k] for k in ("collimator_ratio", "period_over_sep", "sigma_det",
                                       "screen_max", "screen_points")}})
    ops = [
        Op("figure-4", ["figure", "4"], checks.check_figure4),
        Op("farfield-ell-all", ["farfield", "--config", cfg, "--ell", "all"],
           lambda out: checks.check_farfield_conditional(out, p)),
    ]
    # the sum is checked against the conditional densities written just before
    ops.append(Op("farfield-sum", ["farfield", "--config", cfg],
                  lambda out: checks.check_farfield_sum(
                      out, p, out.parent / "farfield-ell-all")))
    return ops


# ---------------------------------------------------------------------------
# dynamics-ode
# ---------------------------------------------------------------------------

def dynamics_ode(seed: int, cfg_dir: Path):
    rng = random.Random(seed)
    rp = {"pulse_area_pi": 2.0, "detuning_tl": _draw(rng, -0.1, 0.1),
          "lifetime_tl": _draw(rng, 0.95, 1.05), "talbot_parameter": _draw(rng, 1.9, 2.1),
          "open_fraction": _draw(rng, 0.09, 0.11)}
    rabi_cfg = _write_config(cfg_dir / "rabi.cfg", {
        "rabi": {k: rp[k] for k in ("pulse_area_pi", "detuning_tl", "lifetime_tl")},
        "interferometer": {k: rp[k] for k in ("talbot_parameter", "open_fraction")}})
    lp = {"phi0": _draw(rng, 1.85, 1.9), "n0": 1.5, "eta_p": 1.3, "eta_a": 1.7,
          "kernel_xi": _draw(rng, 0.0, 0.5), "open_fraction": _draw(rng, 0.38, 0.46),
          "sweep": (_draw(rng, 0.1, 0.3), _draw(rng, 3.5, 4.0), 12)}
    ladder_cfg = _write_config(cfg_dir / "ladder.cfg", {
        "grating": {k: lp[k] for k in ("phi0", "n0", "eta_p", "eta_a")},
        "interferometer": {"talbot_parameter": lp["sweep"][0],
                           "open_fraction": lp["open_fraction"]},
        "ladder": {"envelope": "gaussian", "kernel_xi": lp["kernel_xi"]}})
    return [
        Op("rabi", ["rabi", "--config", rabi_cfg], lambda out: checks.check_rabi(out, rp)),
        Op("ladder-gaussian-sweep",
           ["ladder", "--config", ladder_cfg,
            "--sweep", _sweep_arg("talbot_parameter", *lp["sweep"])],
           lambda out: checks.check_ladder(out, lp)),
    ]


# ---------------------------------------------------------------------------
# talbot-table
# ---------------------------------------------------------------------------

def talbot_table(seed: int, cfg_dir: Path):
    rng = random.Random(seed)
    p = {"phi0": _draw(rng, 2.9, 3.1), "n0": _draw(rng, 0.9, 1.0), "j_max": 32,
         "xi_points": 256}
    cfg = _write_config(cfg_dir / "talbot.cfg", {
        "grating": {"phi0": p["phi0"], "n0": p["n0"]},
        "talbot": {"j_max": p["j_max"], "xi_points": p["xi_points"]}})
    return [
        Op("talbot-csv", ["talbot", "--config", cfg, "--ell", "all"],
           lambda out: checks.check_talbot(out, p, "csv")),
        Op("talbot-json", ["talbot", "--config", cfg, "--ell", "all", "--format", "json"],
           lambda out: checks.check_talbot(out, p, "json", out.parent / "talbot-csv")),
    ]


WORKLOADS = {
    "nearfield-sweep": nearfield_sweep,
    "farfield-screen": farfield_screen,
    "dynamics-ode": dynamics_ode,
    "talbot-table": talbot_table,
}
