"""Command-line front end: config parsing, commands, sweeps, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lasergrating.cli import main, parse_sweep
from lasergrating.errors import ConfigError
from lasergrating.output import read_csv

BEAM_CFG = """\
[beam]
power_watt = 1.0
waist_y_um = 500
waist_z_um = 500
wavelength_nm = 532
polarizability_A3 = 100
cross_section_A2 = 10
velocity_mps = 100
mass_amu = 840

[interferometer]
separation_mm = 100
open_fraction = 0.42
"""

GRATING_CFG = """\
[grating]
phi0 = 3.141592653589793
n0 = 1.0

[interferometer]
talbot_parameter = 3.25
open_fraction = 0.42
"""

RABI_CFG = """\
[rabi]
pulse_area_pi = 2.0
detuning_tl = 0.0
lifetime_tl = 1.0

[interferometer]
talbot_parameter = 2.0
open_fraction = 0.1
"""


@pytest.fixture
def beam_cfg(tmp_path):
    path = tmp_path / "beam.cfg"
    path.write_text(BEAM_CFG)
    return path


@pytest.fixture
def grating_cfg(tmp_path):
    path = tmp_path / "grating.cfg"
    path.write_text(GRATING_CFG)
    return path


def run(args):
    return main([str(a) for a in args])


def test_derive_params(beam_cfg, tmp_path):
    out = tmp_path / "run"
    assert run(["derive-params", "--config", beam_cfg, "--out", out]) == 0
    meta, cols, rows = read_csv(out / "derived_parameters.csv")
    assert meta["version"] == "0.1.0"
    table = {r[0]: r[1] for r in rows}
    assert table["phi0"] == pytest.approx(1.2685659585388214, rel=1e-12)
    assert table["n0"] / (2 * table["phi0"]) == pytest.approx(
        table["beta_im_over_re"], rel=1e-10)
    assert table["talbot_parameter"] == pytest.approx(
        0.1 / table["talbot_length_m"], rel=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["derived_parameters.csv"]


def test_missing_config_is_config_error(tmp_path):
    assert run(["kdtli", "--out", tmp_path]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[beam]\npower_watt = oops\n")
    assert run(["derive-params", "--config", bad, "--out", tmp_path]) == 2


def test_numerical_regime_exit_code(tmp_path):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("[grating]\nphi0 = 8.0\nn0 = 4.0\n\n"
                   "[talbot]\nj_max = 500\n")
    assert run(["talbot", "--config", cfg, "--out", tmp_path]) == 3


def test_io_error_exit_code(beam_cfg, tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    assert run(["derive-params", "--config", beam_cfg, "--out", target]) == 4


def test_talbot_table_round_trip(grating_cfg, tmp_path):
    out = tmp_path / "run"
    assert run(["talbot", "--config", grating_cfg, "--out", out, "--ell", "all"]) == 0
    meta, cols, rows = read_csv(out / "talbot_coefficients.csv")
    assert cols == ["variant", "ell", "j", "xi", "re", "im"]
    from lasergrating.params import GratingParameters
    from lasergrating.talbot import b_conditional
    g = GratingParameters(phi0=math.pi, n0=1.0)
    sample = [r for r in rows if r[0] == "conditional" and r[1] == 1.0
              and r[2] == 2.0][5]
    assert sample[4] + 1j * sample[5] == pytest.approx(
        complex(b_conditional(2, sample[3], 1, g)), abs=1e-14)


def test_kdtli_sweep_maps_velocity_to_talbot_parameter(beam_cfg, tmp_path):
    out = tmp_path / "run"
    assert run(["kdtli", "--config", beam_cfg, "--out", out,
                "--sweep", "velocity_mps=80:120:3", "--variant", "quantum"]) == 0
    meta, cols, rows = read_csv(out / "kdtli_visibility.csv")
    by_v = {r[1]: r[3] for r in rows}
    assert len(by_v) == 3
    # L/L_T scales inversely with velocity: LT(v) = LT(100) * 100/v
    lt100 = by_v[100.0]
    assert by_v[80.0] == pytest.approx(lt100 * 100.0 / 80.0, rel=1e-9)
    assert by_v[120.0] == pytest.approx(lt100 * 100.0 / 120.0, rel=1e-9)


def test_kdtli_determinism_across_jobs(grating_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["kdtli", "--config", grating_cfg, "--sweep",
            "talbot_parameter=0.5:2.0:4"]
    assert run(args + ["--out", out1, "--jobs", "1"]) == 0
    assert run(args + ["--out", out2, "--jobs", "3"]) == 0
    for name in ("kdtli_signal.csv", "kdtli_visibility.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_kdtli_conditional_output(grating_cfg, tmp_path):
    out = tmp_path / "run"
    assert run(["kdtli", "--config", grating_cfg, "--out", out, "--ell", "1"]) == 0
    _, _, rows = read_csv(out / "kdtli_visibility.csv")
    tags = {r[2] for r in rows}
    assert "ell=1" in tags


def test_json_format(grating_cfg, tmp_path):
    out = tmp_path / "run"
    assert run(["kdtli", "--config", grating_cfg, "--out", out,
                "--format", "json"]) == 0
    payload = json.loads((out / "kdtli_visibility.json").read_text())
    assert payload["columns"][-1] == "visibility"
    assert payload["version"] == "0.1.0"


def test_farfield_command(tmp_path):
    cfg = tmp_path / "ff.cfg"
    cfg.write_text("[grating]\nphi0 = 2.5\nn0 = 2.0\n\n"
                   "[farfield]\ncollimator_ratio = 4\nscreen_points = 401\n"
                   "screen_max = 1.5\n")
    out = tmp_path / "run"
    assert run(["farfield", "--config", cfg, "--out", out, "--ell", "0"]) == 0
    _, cols, rows = read_csv(out / "farfield_density.csv")
    assert cols == ["variant", "ell", "position", "density", "density_smoothed"]
    assert len(rows) == 401
    assert all(r[3] >= -1e-12 for r in rows)


def test_ladder_command_with_visibility_sweep(tmp_path):
    cfg = tmp_path / "ladder.cfg"
    cfg.write_text("[grating]\nphi0 = 1.875\nn0 = 1.5\neta_p = 1.5\n\n"
                   "[interferometer]\ntalbot_parameter = 2.2\n"
                   "open_fraction = 0.42\n\n[ladder]\nenvelope = constant\n")
    out = tmp_path / "run"
    assert run(["ladder", "--config", cfg, "--out", out,
                "--sweep", "talbot_parameter=0.5:2.5:5"]) == 0
    _, _, rows = read_csv(out / "ladder_visibility.csv")
    assert len(rows) == 5
    _, _, krows = read_csv(out / "ladder_kernel.csv")
    diag = {}
    for ell, u, re, im in krows:
        diag[u] = diag.get(u, 0.0) + re
    assert np.allclose(list(diag.values()), 1.0, atol=1e-9)  # trace on xi=0


def test_ladder_envelope_is_metadata_only(tmp_path):
    kernels = {}
    for envelope in ("constant", "gaussian"):
        cfg = tmp_path / f"{envelope}.cfg"
        cfg.write_text("[grating]\nphi0 = 1.875\nn0 = 1.5\neta_a = 1.5\n\n"
                       f"[ladder]\nenvelope = {envelope}\nkernel_xi = 0.3\n")
        assert run(["ladder", "--config", cfg, "--out", tmp_path / envelope]) == 0
        meta, _, rows = read_csv(tmp_path / envelope / "ladder_kernel.csv")
        assert meta["envelope"] == envelope
        kernels[envelope] = rows
    assert kernels["constant"] == kernels["gaussian"]


def test_rabi_command(tmp_path):
    cfg = tmp_path / "rabi.cfg"
    cfg.write_text(RABI_CFG)
    out = tmp_path / "run"
    assert run(["rabi", "--config", cfg, "--out", out]) == 0
    _, cols, rows = read_csv(out / "rabi_profile.csv")
    assert cols == ["x", "p_ground", "p_excited", "p_dark"]
    total = np.array([r[1] + r[2] + r[3] for r in rows])
    assert np.max(np.abs(total - 1.0)) < 1e-8
    _, _, srows = read_csv(out / "rabi_kdtli.csv")
    assert len(srows) == 512


def test_figure_command_requires_valid_id(tmp_path):
    assert run(["figure", "7", "--out", tmp_path]) == 2


def test_figure2_emits_stacked_conditionals(tmp_path):
    out = tmp_path / "fig2"
    assert run(["figure", "2", "--out", out]) == 0
    _, _, rows = read_csv(out / "figure2_interferograms.csv")
    curves = {(r[0], r[1]) for r in rows}
    for panel in ("a", "b"):
        for curve in ("ell=0", "ell=1", "ell=2", "unconditional"):
            assert (panel, curve) in curves
    assert (out / "plot_figure2.py").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "figure2_interferograms.csv" in manifest["files"]


def test_parse_sweep():
    section, key, values = parse_sweep("beam.velocity_mps=10:20:3")
    assert (section, key) == ("beam", "velocity_mps")
    assert values.tolist() == [10.0, 15.0, 20.0]
    section, key, values = parse_sweep("n0=0:1:2")
    assert section == "grating"
    with pytest.raises(ConfigError):
        parse_sweep("nonsense")
    with pytest.raises(ConfigError):
        parse_sweep("unknown_key=0:1:2")


def test_out_env_variable(grating_cfg, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("LASERGRATING_OUT", str(target))
    assert run(["talbot", "--config", grating_cfg]) == 0
    assert (target / "talbot_coefficients.csv").exists()
