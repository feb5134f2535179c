"""Command-line front end: config parsing, commands, sweeps, determinism."""

import ast
import json
import math
import os
import subprocess
import sys
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


class StubExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, tasks, cpus, workers", [
    (8, 2, 4, 2), (8, 10, 4, 4), (3, 10, 4, 3), (4, 1, 4, None), (1, 10, 4, None),
    (6, 10, 1, None),
])
def test_run_pool_bounds_its_workers(jobs, tasks, cpus, workers, monkeypatch):
    """At most one process per task and per usable CPU; one means serial."""
    import concurrent.futures
    StubExecutor.created = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert cli.run_pool(abs, list(range(-tasks, 0)), jobs) == list(range(tasks, 0, -1))
    assert StubExecutor.created == ([] if workers is None else [workers])


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


def test_every_public_name_has_a_caller():
    """Every public top-level function and class of the package, and every
    public method, is read somewhere in src/ or scripts/ outside its own
    definition (by name, attribute, import or getattr string), or is exported
    by lasergrating._EXPORTS: code that only the tests reach does not stay."""
    import lasergrating
    root = Path(__file__).resolve().parent.parent
    trees = {path: ast.parse(path.read_text()) for path in
             [*(root / "src" / "lasergrating").glob("*.py"), *(root / "scripts").glob("*.py")]}
    reads = {}  # name -> [(path, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            names = [node.id] if isinstance(node, ast.Name) \
                else [node.attr] if isinstance(node, ast.Attribute) \
                else [a.name for a in node.names] if isinstance(node, ast.ImportFrom) \
                else [node.value] if isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and node.value.isidentifier() else []
            for name in names:
                reads.setdefault(name, []).append((path, node.lineno))
    exported = {name for names in lasergrating._EXPORTS.values() for name in names}
    defs = (ast.FunctionDef, ast.ClassDef)
    unread = []
    for path, tree in trees.items():
        if path.parent.name != "lasergrating":
            continue
        nodes = [n for n in tree.body if isinstance(n, defs)]
        nodes += [m for n in nodes if isinstance(n, ast.ClassDef)
                  for m in n.body if isinstance(m, ast.FunctionDef)]
        for node in nodes:
            if node.name.startswith("_") or node.name in exported:
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in reads.get(node.name, ())):
                unread.append(f"{path.stem}.{node.name}")
    assert not unread


def test_import_keeps_process_pool_out():
    """Only a run with jobs > 1 needs a process pool, so importing the CLI
    loads neither concurrent.futures nor multiprocessing."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, lasergrating.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
    from lasergrating.talbot import conditional_rows
    g = GratingParameters(phi0=math.pi, n0=1.0)
    sample = [r for r in rows if r[0] == "conditional" and r[1] == 1.0
              and r[2] == 2.0][5]
    assert sample[4] + 1j * sample[5] == pytest.approx(
        conditional_rows([2], [sample[3]], 1, g)[0, 0], abs=1e-14)


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
