"""Command-line front end: config parsing, commands, sweeps, determinism."""

import ast
import json
import math
import os
import platform
import runpy
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from csvio import read_csv
from lasergrating import cli
from lasergrating.cli import main, parse_sweep
from lasergrating.errors import ConfigError

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

BEAM_SECTION = BEAM_CFG.split("\n\n")[0] + "\n"
# [grating] pins phi0/n0, so [beam] reaches the output only through L/L_T
PINNED_SEPARATION_CFG = (GRATING_CFG.replace("talbot_parameter = 3.25", "separation_mm = 100")
                         + "\n" + BEAM_SECTION)

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


def test_missing_key_of_a_pair_names_both(tmp_path, capsys):
    bad = tmp_path / "beam.cfg"
    bad.write_text(BEAM_CFG.replace("polarizability_A3 = 100\n", ""))
    assert run(["derive-params", "--config", bad, "--out", tmp_path]) == 2
    assert "missing key 'polarizability_A3' or 'polarizability_si' in section [beam]" \
        in capsys.readouterr().err


def test_numerical_regime_exit_code(tmp_path):
    # orders up to 10000 need a spectral FFT size above its cap
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("[grating]\nphi0 = 8.0\nn0 = 4.0\n\n"
                   "[talbot]\nj_max = 10000\n")
    assert run(["talbot", "--config", cfg, "--out", tmp_path]) == 3


@pytest.mark.parametrize("command, section, line", [
    ("talbot", "talbot", "j_max = 2.9"),
    ("talbot", "talbot", "j_max = -1"),
    ("talbot", "talbot", "j_max = inf"),
    ("talbot", "talbot", "xi_points = 0"),
    ("talbot", "talbot", "xi_points = nan"),
    ("farfield", "farfield", "screen_points = nan"),
])
def test_bad_integer_key_is_config_error(command, section, line, tmp_path):
    cfg = tmp_path / "int.cfg"
    cfg.write_text(f"[grating]\nphi0 = 2.5\nn0 = 1.0\n\n[{section}]\n{line}\n")
    assert run([command, "--config", cfg, "--out", tmp_path]) == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("line", [
    "collimator_ratio = nan", "collimator_ratio = inf",
    "screen_max = nan", "screen_max = inf", "screen_max = -1",
    "sigma_det = nan", "sigma_det = inf", "sigma_det = -1",
    "period_over_sep = nan",
])
def test_bad_farfield_key_is_config_error(line, tmp_path):
    # each of these used to end in a traceback (exit 1) or in a misleading
    # numerical error (exit 3)
    cfg = tmp_path / "ff.cfg"
    cfg.write_text(f"[grating]\nphi0 = 2.5\nn0 = 1.0\n\n[farfield]\nscreen_points = 101\n{line}\n")
    assert run(["farfield", "--config", cfg, "--out", tmp_path]) == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("spread", ["nan", "inf", "-0.1"])
def test_bad_velocity_spread_is_config_error(spread, tmp_path):
    # nan used to write an unaveraged signal, inf an all-NaN one, -0.1 the
    # unaveraged signal
    cfg = tmp_path / "spread.cfg"
    cfg.write_text(GRATING_CFG + f"velocity_spread = {spread}\n")
    assert run(["kdtli", "--config", cfg, "--out", tmp_path]) == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("sweep", ["talbot_parameter=0.3:nan:3", "talbot_parameter=inf:1:2",
                                   "talbot_parameter=0.3:nan:1"])
def test_non_finite_sweep_is_config_error(sweep, grating_cfg, tmp_path):
    with pytest.raises(ConfigError):
        parse_sweep(sweep)
    out = tmp_path / "run"
    assert run(["kdtli", "--config", grating_cfg, "--sweep", sweep, "--out", out]) == 2
    assert not list(out.glob("*.csv"))


def run_quietly(args):
    """Exit code of a CLI run, with every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(args)
    return code, [str(w.message) for w in caught]


@pytest.mark.parametrize("line", ["lifetime_tl = nan", "detuning_tl = inf",
                                  "pulse_area_pi = nan"])
def test_non_finite_rabi_key_is_config_error(line, tmp_path):
    # each used to write an all-NaN rabi_profile.csv with exit 0
    key = line.split()[0]
    cfg = tmp_path / "rabi.cfg"
    cfg.write_text("\n".join(row if not row.startswith(key) else line
                             for row in RABI_CFG.splitlines()) + "\n")
    out = tmp_path / "run"
    assert run_quietly(["rabi", "--config", cfg, "--out", out]) == (2, [])
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command, text", [
    ("kdtli", GRATING_CFG.replace("talbot_parameter = 3.25", "talbot_parameter = nan")),
    ("kdtli", GRATING_CFG.replace("talbot_parameter = 3.25", "talbot_parameter = inf")),
    ("ladder", "[grating]\nphi0 = 1.875\nn0 = 1.5\n\n[ladder]\nkernel_xi = nan\n"),
    ("ladder", "[grating]\nphi0 = 1.875\nn0 = 1.5\n\n[ladder]\nkernel_xi = -inf\n"),
])
def test_non_finite_talbot_argument_is_config_error(command, text, tmp_path):
    # each used to exit 3 ("spectral coefficients need finite arguments"),
    # inf with RuntimeWarnings from talbot.zeta
    cfg = tmp_path / "x.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert run_quietly([command, "--config", cfg, "--out", out]) == (2, [])
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_config_error(jobs, grating_cfg, tmp_path):
    out = tmp_path / "run"
    assert run(["kdtli", "--config", grating_cfg, "--jobs", jobs, "--out", out]) == 2
    assert not list(out.glob("*.csv"))


# the argument as the error names it -> its command-line words
FLAG_VALUES = {"--sweep": ["--sweep", "phi0=1:3:5"], "--variant": ["--variant", "quantum"],
               "--ell": ["--ell", "all"], "--jobs": ["--jobs", "4"],
               "--config": ["--config", "/nonexistent.cfg"], "the figure id": ["5"]}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for flag in FLAG_VALUES
    for command in ("derive-params", "talbot", "kdtli", "farfield", "ladder", "rabi", "figure")
    if command not in cli.FLAG_READERS[flag[2:] if flag[:2] == "--" else "figure"]])
def test_flag_a_command_ignores_is_config_error(command, flag, beam_cfg, grating_cfg, tmp_path,
                                                capsys):
    """An argument the command would not read (talbot --sweep phi0=1:3:5
    would write one table at the config's phi0 yet record the sweep in
    manifest.json; figure 2 --config never opens the file) is exit 2, naming
    the argument and the command, before the output directory is made."""
    (tmp_path / "rabi.cfg").write_text(RABI_CFG)
    head = {"derive-params": ["derive-params", "--config", beam_cfg],
            "rabi": ["rabi", "--config", tmp_path / "rabi.cfg"],
            "figure": ["figure", "1"]}.get(command, [command, "--config", grating_cfg])
    out = tmp_path / "run"
    # the figure id follows the command, before any option
    argv = head[:1] + FLAG_VALUES[flag] + head[1:] if flag == "the figure id" \
        else head + FLAG_VALUES[flag]
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert flag in err and command in err
    assert not out.exists()


def test_commands_import_only_their_layers(grating_cfg, tmp_path):
    code = ("import sys, lasergrating.cli as cli\n"
            "idle = {'farfield', 'dynamics', 'rabi'}\n"
            "loaded = lambda: sorted(m for m in idle if 'lasergrating.' + m in sys.modules)\n"
            "print(loaded(), end=' ')\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code, "talbot", "--config", str(grating_cfg),
                           "--ell", "all", "--out", str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "[]"]


def test_integral_float_key_is_accepted(tmp_path):
    cfg = tmp_path / "int.cfg"
    cfg.write_text("[grating]\nphi0 = 2.5\nn0 = 1.0\n\n[talbot]\nj_max = 2.0\nxi_points = 4e0\n")
    assert run(["talbot", "--config", cfg, "--out", tmp_path]) == 0
    meta, _, rows = read_csv(tmp_path / "talbot_coefficients.csv")
    assert meta["j_max"] == "2"
    assert len(rows) == 2 * 5 * 4


def test_spectral_cap_exit_code(tmp_path):
    cfg = tmp_path / "strong.cfg"
    cfg.write_text("[grating]\nphi0 = 1e5\nn0 = 0.5\n\n"
                   "[interferometer]\ntalbot_parameter = 0.77\nopen_fraction = 0.42\n")
    assert run(["kdtli", "--config", cfg, "--out", tmp_path]) == 3
    assert not (tmp_path / "kdtli_signal.csv").exists()


def test_talbot_j_max_cap_exit_code(tmp_path):
    """j_max is checked against the FFT cap before any order array exists;
    at 1e9 that array alone would take 16 GB."""
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[grating]\nphi0 = 3.0\nn0 = 1.0\n\n[talbot]\nj_max = 1000000000\n")
    assert run(["talbot", "--config", cfg, "--out", tmp_path, "--ell", "all"]) == 3
    assert not (tmp_path / "talbot_coefficients.csv").exists()


def test_import_keeps_scipy_out():
    """The package needs numpy alone; scipy serves only the oracles of the
    tests.  With scipy made unimportable, every module of the package
    imports, and no source file has a scipy import."""
    src = Path(__file__).resolve().parent.parent / "src"
    modules = sorted(p.stem for p in (src / "lasergrating").glob("*.py"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    code = ("import importlib, sys\n"
            "sys.modules['scipy'] = None\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('lasergrating' if name == '__init__'"
            " else 'lasergrating.' + name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('lasergrating')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    loaded = {m.rpartition(".")[2] for m in ast.literal_eval(out.stdout.strip())}
    assert loaded >= set(modules) - {"__init__"}
    for path in (src / "lasergrating").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) \
                else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            assert not [n for n in names if n.split(".")[0] == "scipy"], path.name


# The grating definitions that the oracles of the tests build on (M_l(x) and
# its Poisson statistics): exported for them, with no reader in src/ or scripts/.
ORACLE_BASES = {"m_ell", "MeasurementProfile", "absorption_probability"}


def test_every_public_name_has_a_caller():
    """Every public top-level function and class of the package, and every
    public method, is read somewhere in src/ or scripts/ outside its own
    definition (by name, attribute, import or getattr string): code that only
    the tests reach does not stay.  An export in lasergrating._EXPORTS is no
    reader; only ORACLE_BASES are exempt."""
    root = Path(__file__).resolve().parent.parent
    init = root / "src" / "lasergrating" / "__init__.py"
    trees = {path: ast.parse(path.read_text()) for path in
             [*(root / "src" / "lasergrating").glob("*.py"), *(root / "scripts").glob("*.py")]}
    reads = {}  # name -> [(path, line)]
    for path, tree in trees.items():
        if path == init:  # the export table names, it does not read
            continue
        for node in ast.walk(tree):
            names = [node.id] if isinstance(node, ast.Name) \
                else [node.attr] if isinstance(node, ast.Attribute) \
                else [a.name for a in node.names] if isinstance(node, ast.ImportFrom) \
                else [node.value] if isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and node.value.isidentifier() else []
            for name in names:
                reads.setdefault(name, []).append((path, node.lineno))
    defs = (ast.FunctionDef, ast.ClassDef)
    unread = []
    for path, tree in trees.items():
        if path.parent.name != "lasergrating":
            continue
        nodes = [n for n in tree.body if isinstance(n, defs)]
        nodes += [m for n in nodes if isinstance(n, ast.ClassDef)
                  for m in n.body if isinstance(m, ast.FunctionDef)]
        for node in nodes:
            if node.name.startswith("_") or node.name in ORACLE_BASES:
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in reads.get(node.name, ())):
                unread.append(f"{path.stem}.{node.name}")
    assert not unread


def test_no_source_file_calls_blas():
    """No route of the package calls BLAS, so no file follows the OpenBLAS
    kernel or its thread count: no source file has a `@` product or names
    dot, vdot, matmul, tensordot or linalg."""
    blas = {"dot", "vdot", "matmul", "tensordot", "linalg"}
    for path in (Path(__file__).resolve().parent.parent / "src" / "lasergrating").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '')}"
            assert not isinstance(getattr(node, "op", None), ast.MatMult), where
            if isinstance(node, ast.Attribute):
                assert node.attr not in blas, where
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                assert not blas & {part for n in names for part in n.split(".")}, where


def test_import_keeps_process_pool_out(grating_cfg, tmp_path):
    """Sweep points run in the calling process, so a whole kdtli sweep, with
    --jobs 2, loads neither concurrent.futures nor multiprocessing."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; from lasergrating.cli import main; status = main(sys.argv[1:]); "
            "print(status, sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    argv = ["kdtli", "--config", str(grating_cfg), "--sweep", "talbot_parameter=0.5:2.0:4",
            "--jobs", "2", "--out", str(tmp_path / "run")]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0 []"
    assert (tmp_path / "run" / "kdtli_signal.csv").exists()


def test_kdtli_phi0_45_matches_kernel_fft(tmp_path):
    """At phi0 = 45 the series closed form returned a min-max visibility of
    0.499 without an error; the kernel FFT gives 0.0726."""
    from oracles import b_numeric_oracle, poisson_kernel
    from lasergrating.params import GratingParameters
    cfg = tmp_path / "phi0_45.cfg"
    cfg.write_text("[grating]\nphi0 = 45.0\nn0 = 0.5\n\n"
                   "[interferometer]\ntalbot_parameter = 0.77\nopen_fraction = 0.42\n")
    out = tmp_path / "run"
    assert run(["kdtli", "--config", cfg, "--out", out]) == 0
    _, _, rows = read_csv(out / "kdtli_signal.csv")
    signal = np.array([r[5] for r in rows if r[2] == "quantum"])
    kern = poisson_kernel(GratingParameters(phi0=45.0, n0=0.5), ell_max=12)
    j = np.arange(-32, 33)
    comps = 0.42 ** 2 * np.sinc(0.42 * j) ** 2 * np.array(
        [b_numeric_oracle(2 * k, k * 0.77, kern, 4096) for k in j])
    xs = np.arange(512) / 512
    ref = (comps[None, :] * np.exp(2j * np.pi * np.outer(xs, j))).sum(axis=1).real
    assert np.max(np.abs(signal - ref)) < 1e-10
    vis = (signal.max() - signal.min()) / (signal.max() + signal.min())
    assert vis == pytest.approx(0.0726, abs=5e-5)


def test_kdtli_variant_filter_matches_unfiltered_run(grating_cfg, tmp_path):
    args = ["kdtli", "--config", grating_cfg, "--sweep", "talbot_parameter=0.5:2.0:3"]
    assert run(args + ["--out", tmp_path / "all"]) == 0
    assert run(args + ["--out", tmp_path / "q", "--variant", "quantum"]) == 0
    for name in ("kdtli_signal.csv", "kdtli_visibility.csv"):
        _, cols, rows = read_csv(tmp_path / "all" / name)
        _, qcols, qrows = read_csv(tmp_path / "q" / name)
        assert qcols == cols
        assert qrows == [r for r in rows if r[2] == "quantum"]
        assert {r[2] for r in rows} == {"quantum", "classical"}


def test_farfield_alias_guard_exit_code(tmp_path):
    # the default 256 q points per unit repeat the screen density every 256 Dx
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[grating]\nphi0 = 2.5\nn0 = 2.0\n\n"
                   "[farfield]\nscreen_max = 250\nscreen_points = 401\n")
    assert run(["farfield", "--config", cfg, "--out", tmp_path]) == 3
    assert not (tmp_path / "farfield_density.csv").exists()


@pytest.mark.parametrize("line, code, message", [
    ("screen_points = 1", 2, "config error: key 'screen_points' must be an integer >= 2"),
    ("collimator_ratio = 0.0019", 3, "numerical error: q grid of 1 point"),
], ids=["one-screen-point", "one-q-point"])
def test_farfield_one_point_grid_exit_code(line, code, message, tmp_path, capsys):
    """A one-point screen or q grid (D/d below 1/512 at 256 points per unit)
    ended in an IndexError traceback (exit 1); now it fails before any output."""
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"[grating]\nphi0 = 2.5\nn0 = 2.0\n\n[farfield]\n{line}\n")
    out = tmp_path / "run"
    assert run(["farfield", "--config", cfg, "--out", out]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()
    # the smallest grids that work: 2 screen points, and 2 q points at D/d = 1/512
    cfg.write_text("[grating]\nphi0 = 2.5\nn0 = 2.0\n\n[farfield]\nscreen_points = 2\n"
                   f"collimator_ratio = {1 / 512!r}\nsigma_det = 0\n")
    assert run(["farfield", "--config", cfg, "--out", out]) == 0
    assert len(read_csv(out / "farfield_density.csv")[2]) == 2


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
    from coefficients import coefficient_table
    g = GratingParameters(phi0=math.pi, n0=1.0)
    sample = [r for r in rows if r[0] == "conditional" and r[1] == 1.0
              and r[2] == 2.0][5]
    assert sample[4] + 1j * sample[5] == pytest.approx(
        coefficient_table([2], [sample[3]], g, 1)[0, 0], abs=1e-14)


def test_kdtli_sweep_maps_velocity_to_talbot_parameter(beam_cfg, tmp_path):
    """With the grating derived from [beam], and with [grating] pinning
    phi0/n0 where separation_mm still reads the beam."""
    pinned = tmp_path / "pinned.cfg"
    pinned.write_text(PINNED_SEPARATION_CFG)
    for cfg in (beam_cfg, pinned):
        out = tmp_path / cfg.stem
        assert run(["kdtli", "--config", cfg, "--out", out,
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


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_ladder_bytes_independent_of_openblas_kernel(tmp_path):
    """At eta != 1 the ladder kernel takes the Gauss-Legendre sum, which ran
    as an OpenBLAS zgemm whose last bits followed the core type (the
    Prescott kernel against the default on an AVX2 machine).  Summed node by
    node in numpy, the files are the same for any kernel."""
    cfg = tmp_path / "ladder.cfg"
    cfg.write_text("[grating]\nphi0 = 1.875\nn0 = 1.5\neta_p = 1.3\neta_a = 1.7\n\n"
                   "[ladder]\nenvelope = gaussian\nkernel_xi = 0.3\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("OPENBLAS_CORETYPE", None)
    code = "import sys; from lasergrating.cli import main; sys.exit(main(sys.argv[1:]))"
    files = {}
    for core in ("default", "Prescott"):
        out = tmp_path / core
        subprocess.run([sys.executable, "-c", code, "ladder", "--config", str(cfg),
                        "--out", str(out)], check=True, capture_output=True,
                       env=env if core == "default" else dict(env, OPENBLAS_CORETYPE=core))
        files[core] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert "ladder_kernel.csv" in files["default"]
    assert files["default"] == files["Prescott"]


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


def test_ladder_sweep_at_phi0_400_matches_fine_reference(tmp_path):
    """At phi0 = 400, eta_p = 1.3 the 512-point kernel lines aliased and the
    written visibilities were off by 8.1e-3 with exit 0; the closed form
    matches the summed kernel sampled on 16384 points."""
    from oracles import KernelSource, SummedLadderKernel
    from lasergrating.params import GratingParameters
    cfg = tmp_path / "ladder.cfg"
    cfg.write_text("[grating]\nphi0 = 400\nn0 = 2.0\neta_p = 1.3\n\n"
                   "[interferometer]\ntalbot_parameter = 1.0\nopen_fraction = 0.42\n")
    out = tmp_path / "run"
    assert run(["ladder", "--config", cfg, "--out", out,
                "--sweep", "talbot_parameter=0.05:4:80"]) == 0
    _, _, rows = read_csv(out / "ladder_visibility.csv")
    lts, vis = np.array(rows).T
    src = KernelSource(SummedLadderKernel(GratingParameters(400.0, 2.0, eta_p=1.3)),
                       n_points=16384)
    b = src.pairs(np.repeat([0, 2], [1, lts.size]), np.concatenate(([0.0], lts)))
    ref = 2.0 * np.sinc(0.42) ** 2 * (b[1:] / b[0]).real
    assert np.max(np.abs(vis - ref)) < 1e-10


@pytest.mark.parametrize("command, text", [
    # |w| up to 500 needs 266 > 128 Gauss-Legendre nodes
    ("ladder", "[grating]\nphi0 = 1000\nn0 = 1.0\neta_p = 1.5\n"),
    # spectral FFT size above its cap
    ("ladder", "[grating]\nphi0 = 1e5\nn0 = 1.0\n"),
    ("rabi", "[rabi]\npulse_area_pi = 1e5\n"),
])
def test_dynamical_caps_exit_code(command, text, tmp_path):
    cfg = tmp_path / "cap.cfg"
    cfg.write_text(text + "\n[interferometer]\ntalbot_parameter = 2.0\nopen_fraction = 0.1\n")
    args = [command, "--config", cfg, "--out", tmp_path / "run"]
    assert run(args + (["--sweep", "talbot_parameter=0.5:2:3"] if command == "ladder" else [])) == 3


def test_rabi_lifetime_below_closed_form_range_exit_code(tmp_path, capsys):
    cfg = tmp_path / "rabi.cfg"
    cfg.write_text(RABI_CFG.replace("lifetime_tl = 1.0", "lifetime_tl = 1e-4"))
    assert run(["rabi", "--config", cfg, "--out", tmp_path / "run"]) == 3
    err = capsys.readouterr().err
    assert "lifetime_tl = 0.0001" in err and "tau < t/2800" in err


def test_commands_and_figures_import_no_scipy(beam_cfg, grating_cfg, tmp_path):
    """Production routes need numpy alone: every command and figures 1, 2,
    4, 5 and 6, run in one process, load no scipy module."""
    (tmp_path / "rabi.cfg").write_text(RABI_CFG)
    (tmp_path / "ff.cfg").write_text("[grating]\nphi0 = 2.5\nn0 = 2.0\n\n[farfield]\n"
                                     "collimator_ratio = 4\nscreen_points = 401\nscreen_max = 1.5\n")
    (tmp_path / "ladder.cfg").write_text(GRATING_CFG + "\n[ladder]\nkernel_xi = 0.3\n")
    runs = [["derive-params", "--config", beam_cfg],
            ["talbot", "--config", grating_cfg, "--ell", "all"],
            ["kdtli", "--config", grating_cfg, "--sweep", "talbot_parameter=0.5:2:3"],
            ["farfield", "--config", tmp_path / "ff.cfg", "--ell", "all"],
            ["ladder", "--config", tmp_path / "ladder.cfg",
             "--sweep", "talbot_parameter=0.5:2:3"],
            ["rabi", "--config", tmp_path / "rabi.cfg"]]
    runs += [["figure", fig] for fig in ("1", "2", "4", "5", "6")]
    code = ("import sys\nfrom lasergrating.cli import main\n"
            f"for k, args in enumerate({[[str(a) for a in r] for r in runs]!r}):\n"
            f"    assert main(args + ['--out', {str(tmp_path)!r} + f'/run{{k}}']) == 0, args\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_figure_command_requires_valid_id(tmp_path, capsys):
    """An unknown or missing figure id is exit 2 before the output directory
    is made, and the message lists the ids."""
    out = tmp_path / "run"
    for argv, shown in ((["figure", "7"], ", not '7'"), (["figure"], "")):
        assert run(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.strip().endswith(f"the figure command needs an id from (1, 2, 4, 5, 6){shown}")
        assert not out.exists()


def test_figure_id_may_follow_the_options(tmp_path):
    assert run(["figure", "--format", "json", "2", "--out", tmp_path / "after"]) == 0
    assert run(["figure", "2", "--format", "json", "--out", tmp_path / "before"]) == 0
    names = sorted(p.name for p in (tmp_path / "before").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "after").iterdir())
    for name in names:
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()


BEAM_KDTLI_CFG = BEAM_CFG.replace("separation_mm = 100", "talbot_parameter = 2.0")


@pytest.mark.parametrize("command, text, sweep, named", [
    # a misspelt key or section was dropped without a word
    ("kdtli", GRATING_CFG.replace("n0 = 1.0", "n0 = 1.0\nphi_0 = 7"), None,
     ["[grating]", "phi_0"]),
    ("kdtli", GRATING_CFG + "velocity_sprad = 0.07\n", None,
     ["[interferometer]", "velocity_sprad"]),
    ("kdtli", GRATING_CFG + "\n[farfeld]\ncollimator_ratio = 4\n", None,
     ["[farfeld]", "collimator_ratio"]),
    ("kdtli", "[DEFAULT]\nscreen_max = 2\n\n" + GRATING_CFG, None, ["[grating]", "screen_max"]),
    # the removed key of the unused grating period
    ("kdtli", GRATING_CFG.replace("n0 = 1.0", "n0 = 1.0\nperiod_nm = 266"), None,
     ["[grating]", "period_nm"]),
    # sweeps of keys the command never reads wrote identical curves
    ("kdtli", GRATING_CFG, "rabi.pulse_area_pi=1:3:3", ["[rabi]", "pulse_area_pi"]),
    ("kdtli", GRATING_CFG, "eta_p=1:2:3", ["[grating]", "eta_p"]),
    ("ladder", GRATING_CFG, "phi0=1:2:3", ["[grating]", "phi0"]),
    # the first key of a clashing pair won without a word
    ("kdtli", BEAM_CFG.replace("polarizability_A3 = 100", "polarizability_A3 = 100\n"
                               "polarizability_si = 1e-38"), None,
     ["[beam]", "polarizability_A3", "polarizability_si"]),
    ("kdtli", BEAM_CFG.replace("cross_section_A2 = 10", "cross_section_A2 = 10\n"
                               "CROSS_SECTION_M2 = 1e-19"), None,
     ["[beam]", "cross_section_A2", "cross_section_m2"]),
    ("kdtli", GRATING_CFG + "separation_mm = 100\n", None,
     ["[interferometer]", "talbot_parameter", "separation_mm"]),
    ("kdtli", BEAM_KDTLI_CFG, "separation_mm=50:100:3",
     ["[interferometer]", "talbot_parameter", "separation_mm"]),
    # a pinned grating reads [beam] only for L/L_T from separation_mm: these
    # sweeps wrote identical curves
    ("kdtli", GRATING_CFG + "\n" + BEAM_SECTION, "velocity_mps=80:120:3",
     ["[beam]", "velocity_mps"]),
    ("kdtli", PINNED_SEPARATION_CFG, "power_watt=0.5:1.5:3", ["[beam]", "power_watt"]),
], ids=["key", "interferometer-key", "section", "default-key", "period_nm", "sweep-rabi",
        "sweep-eta_p", "ladder-sweep-phi0", "polarizability", "cross-section",
        "talbot-separation", "sweep-separation", "pinned-sweep-velocity",
        "pinned-separation-sweep-power"])
def test_config_the_command_would_not_read_is_config_error(command, text, sweep, named,
                                                           tmp_path, capsys):
    """A key or section outside the key table, both keys of an exclusive pair
    (a swept key counts as given) and a sweep of a key the command does not
    read are exit 2 before the output directory is made, naming the section,
    the key and the command."""
    cfg = tmp_path / "x.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert run([command, "--config", cfg, "--out", out]
               + (["--sweep", sweep] if sweep else [])) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named + [f"the {command} command"]), err
    assert not out.exists()


def test_failed_run_leaves_no_empty_output_directory(tmp_path):
    """A run that made the output directory and then fails removes it while
    it is empty; a directory that was there before stays.  The data files
    are moved into place only once the last is written, so a run that fails
    after its first table is ready writes no data file either."""
    cfg = tmp_path / "x.cfg"
    cfg.write_text(BEAM_CFG.replace("polarizability_A3 = 100\n", ""))
    out = tmp_path / "run"
    assert run_quietly(["kdtli", "--config", cfg, "--out", out]) == (2, [])
    assert not out.exists()
    out.mkdir()
    assert run_quietly(["kdtli", "--config", cfg, "--out", out]) == (2, [])
    assert out.is_dir()
    # the profile and the kernel line are ready before the cap of the
    # interferogram and of the visibility curve (N > 16384) is reached
    cfg.write_text(RABI_CFG.replace("pulse_area_pi = 2.0", "pulse_area_pi = 20000"))
    assert run(["rabi", "--config", cfg, "--out", tmp_path / "rabi"]) == 3
    cfg.write_text(GRATING_CFG.replace("3.141592653589793", "1e5"))
    assert run(["ladder", "--config", cfg, "--sweep", "talbot_parameter=0.5:1:3",
                "--out", tmp_path / "ladder"]) == 3
    assert not (tmp_path / "rabi").exists() and not (tmp_path / "ladder").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_talbot_count_that_fails_while_written_leaves_no_file(fmt, grating_cfg, tmp_path,
                                                             monkeypatch):
    """The talbot command computes each count table as the writer reaches it,
    so an aliasing CutoffError of a late count comes after the first six
    tables are written.  The run exits 3 and leaves no data file, no manifest
    and no temporary file; a file of an earlier run stays byte-unchanged."""
    from lasergrating import talbot
    from lasergrating.errors import CutoffError
    from lasergrating.specfun import exp_fourier_rows
    made = []

    def six_then_aliasing(orders, a, b, c=0.0, counts=0, *args, **kwargs):
        rows = exp_fourier_rows(orders, a, b, c, counts, *args, **kwargs)
        if np.ndim(counts) == 0:
            return rows

        def tables():
            for table in rows:
                if len(made) == 6:
                    raise CutoffError("spectral Talbot kernel aliases")
                made.append(table.shape)
                yield table
        return tables()

    monkeypatch.setattr(talbot, "exp_fourier_rows", six_then_aliasing)
    name = f"talbot_coefficients.{fmt}"
    out = tmp_path / "new"
    assert run(["talbot", "--config", grating_cfg, "--ell", "all", "--format", fmt,
                "--out", out]) == 3
    assert len(made) == 6 and not out.exists()
    earlier = tmp_path / "earlier"
    earlier.mkdir()
    (earlier / name).write_bytes(b"# from an earlier run\n")
    made.clear()
    assert run(["talbot", "--config", grating_cfg, "--ell", "all", "--format", fmt,
                "--out", earlier]) == 3
    assert len(made) == 6
    assert [p.name for p in earlier.iterdir()] == [name]
    assert (earlier / name).read_bytes() == b"# from an earlier run\n"


def test_known_keys_a_command_does_not_read_are_accepted(tmp_path):
    """One config serves every command, and [grating] phi0/n0 win over
    [beam] without an error.  Each command writes the files and header
    columns of its rows in the output table of docs/formats.md, no more and
    no fewer (the goldens pin the figure rows)."""
    cfg = tmp_path / "all.cfg"
    cfg.write_text(BEAM_KDTLI_CFG + GRATING_CFG.split("\n\n")[0] + "\n\n" + RABI_CFG.split(
        "\n\n")[0] + "\n\n[farfield]\nscreen_max = 1.5\nscreen_points = 401\n\n[talbot]\nj_max = 2\n"
        "xi_points = 4\n\n[ladder]\nkernel_xi = 0.3\n")
    documented = _doc_output_table()
    for command in ("derive-params", "talbot", "kdtli", "farfield", "ladder", "rabi"):
        sweep = ["--sweep", "talbot_parameter=0.5:3:3"] if command == "ladder" else []
        assert run([command, "--config", cfg, "--out", tmp_path / command] + sweep) == 0, command
        written = {path.name: read_csv(path)[1] for path in (tmp_path / command).glob("*.csv")}
        assert written == {name: columns for (cmd, name), columns in documented.items()
                           if cmd == command}, command
    meta, _, _ = read_csv(tmp_path / "kdtli" / "kdtli_signal.csv")
    assert float(meta["phi0"]) == math.pi


def _doc_output_table() -> dict:
    """(command, file) -> columns, from the output table of docs/formats.md."""
    text = (ROOT / "docs" / "formats.md").read_text().split("| command | file | columns |")[1]
    rows = [line.strip("|").split("|") for line in text.split("\n\n")[0].splitlines()[2:]]
    return {(cmd.strip(), name.strip()): [c.strip() for c in columns.split(",")]
            for cmd, name, columns in rows}


def _doc_block(path: Path, after: str) -> str:
    """The first ```ini block of `path` after the line `after`."""
    text = path.read_text().split(after, 1)[1]
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


ROOT = Path(__file__).resolve().parent.parent


def test_formats_doc_lists_the_key_table():
    """The ini block of docs/formats.md, `; key = ...` alternatives included,
    names exactly the sections and keys of cli.KEYS."""
    import re
    listed, section = {}, None
    for line in _doc_block(ROOT / "docs" / "formats.md", "## Configuration file").splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = listed.setdefault(m.group(1), [])
        elif m := re.match(r";?\s*(\w+)\s*=", line):
            section.append(m.group(1))
    assert listed == {s: list(keys) for s, keys in cli.KEYS.items()}


def test_readme_config_passes_the_key_checks(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_doc_block(ROOT / "README.md", "## CLI"))
    assert cli.get(cli.load_config(cfg, "kdtli"), "talbot_parameter") == 3.25


def test_benchmark_configs_pass_the_key_checks(tmp_path, monkeypatch):
    """Every op of the benchmark workloads that takes --config passes
    load_config with its command and sweep.  perfbench/workloads.py is run
    from its text, with its output checks stubbed, so nothing is written
    under perfbench/ and its modules stay out of sys.modules."""
    import types
    path = ROOT / "perfbench" / "workloads.py"
    checks = types.ModuleType("checks")
    checks.__getattr__ = lambda name: None
    monkeypatch.setitem(sys.modules, "checks", checks)
    workloads = types.ModuleType("bench_workloads")
    monkeypatch.setitem(sys.modules, workloads.__name__, workloads)
    exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
    checked = []
    for name, build in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        for op in build(4243, tmp_path / name):
            argv = [str(a) for a in op.argv]
            if "--config" in argv:
                sweep = argv[argv.index("--sweep") + 1] if "--sweep" in argv else None
                cli.load_config(argv[argv.index("--config") + 1], argv[0], sweep)
                checked.append(argv[0])
    assert sorted(set(checked)) == ["farfield", "kdtli", "ladder", "rabi", "talbot"]


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


def test_plot_script_reads_either_format(tmp_path, monkeypatch):
    """plot_figureN.py reads the table of its run's --format: figure 1 gives the
    same 7 curves of 800 points from CSV and from JSON (the JSON run's script
    used to parse the JSON as CSV and fail).  matplotlib is not a dependency,
    so pyplot is a stub that records the curves."""
    curves = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert run(["figure", "1", "--format", fmt, "--out", out]) == 0
        plotted = curves[fmt] = []
        ax = types.SimpleNamespace(set_title=lambda title: None, legend=lambda **kw: None,
                                   plot=lambda xs, ys, label: plotted.append((label, xs, ys)))
        fig = types.SimpleNamespace(savefig=lambda *args, **kw: None)
        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.subplots = lambda: (fig, ax)
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        script = runpy.run_path(str(out / "plot_figure1.py"))
        script["main"](str(out / f"figure1_visibility.{fmt}"))
    assert [len(xs) for _, xs, _ in curves["csv"]] == [800] * 7
    assert all(len(ys) == 800 for _, _, ys in curves["csv"])
    assert curves["json"] == curves["csv"]


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


def _cli_matrix():
    """scripts/cli_matrix.py as a module."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "cli_matrix", Path(__file__).resolve().parents[1] / "scripts" / "cli_matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    return matrix


def test_cli_matrix_runs_the_tree_and_fails_on_an_unexpected_exit(tmp_path, monkeypatch, capsys):
    """scripts/cli_matrix.py run as its docstring says, from another folder:
    the calls run the package of the script's own tree and write their data,
    and a call whose exit code is not the one its name expects makes the
    script exit non-zero, named.  A package imported from another tree stops
    the script before any call."""
    import lasergrating
    matrix = _cli_matrix()
    src = Path(__file__).resolve().parents[1] / "src"
    assert matrix.SRC == src
    assert Path(lasergrating.__file__).resolve() == src / "lasergrating" / "__init__.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts its src/ first
    monkeypatch.setattr(matrix, "CALLS", {
        "derive-params": ["derive-params", "--config", "beam.cfg"],
        "exit-2-usage": ["talbot", "--bogus"],
        "exit-2-talbot": ["talbot", "--config", "talbot.cfg"]})
    monkeypatch.chdir(tmp_path)
    assert matrix.main(Path("out")) != 0
    usage = json.loads((tmp_path / "out" / "exit-2-usage.json").read_text())
    assert usage["exit"] == 2 and "unrecognized arguments: --bogus" in usage["stderr"]
    assert (tmp_path / "out" / "derive-params" / "derived_parameters.csv").is_file()
    assert (tmp_path / "out" / "exit-2-talbot" / "talbot_coefficients.csv").is_file()
    assert json.loads((tmp_path / "out" / "exit-2-talbot.json").read_text())["exit"] == 0
    err = capsys.readouterr().err
    assert "exit-2-talbot" in err and "derive-params" not in err and "exit-2-usage" not in err
    monkeypatch.setattr(matrix, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit, match="not from"):
        matrix.main(Path("other"))
    assert not (tmp_path / "other").exists()


def test_cli_matrix_reproduces_its_digests(tmp_path):
    """Every call of scripts/cli_matrix.py gives the argv, exit code, stdout,
    stderr and file bytes recorded in tests/goldens/cli_matrix/ (regenerated
    by scripts/make_goldens.py); a mismatch names, per call, the first
    differing file and, for a CSV, where its first differing cell lies."""
    matrix = _cli_matrix()
    golden = Path(__file__).parent / "goldens" / "cli_matrix"
    want = {path.stem: json.loads(path.read_text()) for path in golden.glob("*.json")}
    assert sorted(want) == sorted(matrix.CALLS)
    assert matrix.main(tmp_path / "out") == 0
    got = matrix.summary(tmp_path / "out")
    diffs = [f"{name}: {diff}" for name in matrix.CALLS
             if (diff := matrix.first_difference(want[name], got[name]))]
    assert not diffs, "\n".join(diffs)


def test_cli_matrix_talbot_record_guards_one_spectral_size():
    """`talbot --ell all` takes every count table on the N of the largest
    count.  On the matrix's talbot.cfg, counts 0-7 alone would take N = 128,
    not 256, and other bytes, so the talbot-ell-all records guard that one N;
    counts 8-12 alone take N = 256 and the same bytes."""
    import configparser
    from lasergrating import talbot
    from lasergrating.grating import poisson_ell_max
    from lasergrating.specfun import spectral_points
    cfg = configparser.ConfigParser()
    cfg.read_string(_cli_matrix().CONFIGS["talbot.cfg"])
    g, j_max = cli.grating_from_config(cfg), cli.get(cfg, "j_max")
    xi = np.linspace(0.0, 2.0, cli.get(cfg, "xi_points"), endpoint=False)
    distinct = talbot.fold_xi(xi)[0]
    za, zc, _ = talbot.zeta(distinct, g)
    reach = float(np.max(np.abs(0.5 * (zc - za)) + np.abs(0.5 * (zc + za))))
    ells = list(range(poisson_ell_max(g) + 1))
    assert [spectral_points(reach, j_max + ell) for ell in ells] == [128] * 8 + [256] * 5
    orders = np.arange(-j_max, j_max + 1)
    shared = [t.tobytes() for t in talbot.symmetric_rows(orders, distinct, ells, g)]
    alone = [next(talbot.symmetric_rows(orders, distinct, [ell], g)).tobytes() for ell in ells]
    assert all(a != b for a, b in zip(shared[:8], alone[:8]))
    assert shared[8:] == alone[8:]


def test_cli_matrix_locates_the_first_differing_cell(tmp_path):
    """The locators of a CSV name its lines and column of a changed cell,
    and any other changed file by its path."""
    matrix = _cli_matrix()
    rows = "".join(f"{k},{k * 0.5!r},{-k}\n" for k in range(200))
    text = "# command=test\nj,re,im\n" + rows
    record = {"argv": [], "exit": 0, "stdout": "", "stderr": "", "files": {}, "csv": {}}

    def with_files(csv, manifest):
        return {**record, "files": {"a.csv": csv, "manifest.json": manifest},
                "csv": {"a.csv": matrix._csv_locators(csv.encode())}}

    old = with_files(text, "{}")
    assert matrix.first_difference(old, with_files(text, "{}")) is None
    assert matrix.first_difference(old, with_files(text, "{ }")) == "manifest.json differs"
    changed = text.replace("\n150,75.0,", "\n150,75.00000000000001,")
    assert matrix.first_difference(old, with_files(changed, "{}")) == \
        "a.csv: first differing cell in lines 129-192, column 're'"
    assert matrix.first_difference(old, {**old, "exit": 3}).startswith("exit: 0 -> 3")
