"""Tests of the benchmark itself: its reference computations against known
values, and its failure accounting and tracing on small commands.

    python3 -m pytest perfbench/tests
"""

import json
import math

import numpy as np
import pytest
from scipy.special import jv

import checks
import oracles
import run
import workloads
from workloads import Op


def test_phase_grating_coefficients_are_bessel_functions():
    # n0 = 0: K = exp(i phi0 sin(pi xi) sin(2 pi u)), so B_j(xi) = J_j(phi0 sin(pi xi))
    phi0 = 2.7
    orders = np.arange(-12, 13)
    xi = np.linspace(0.0, 2.0, 9, endpoint=False)
    got = oracles.talbot_table(oracles.unconditional_kernel(phi0, 0.0), orders, xi)
    ref = jv(orders[:, None], phi0 * np.sin(np.pi * xi)[None, :])
    assert np.max(np.abs(got - ref)) < 1e-13


def test_phase_grating_visibility():
    phi0, f, lts = 1.9, 0.42, np.array([0.3, 1.1, 2.6])
    got = oracles.sine_visibility(oracles.unconditional_kernel(phi0, 0.0), f, lts)
    ref = 2.0 * np.sinc(f) ** 2 * jv(2, phi0 * np.sin(np.pi * lts))
    assert np.max(np.abs(got - ref)) < 1e-13


def test_conditional_kernels_sum_to_unconditional():
    phi0, n0 = 3.1, 1.4
    x, xp = np.linspace(-1, 1, 37), np.linspace(0.3, 2.1, 37)
    total = sum(oracles.conditional_kernel(phi0, n0, e)(x, xp)
                for e in range(oracles.poisson_cutoff(n0) + 1))
    assert np.max(np.abs(total - oracles.unconditional_kernel(phi0, n0)(x, xp))) < 1e-9


def test_classical_variant_conjugates_the_phase():
    x, xp = np.linspace(-1, 1, 11), np.linspace(0, 1, 11)
    q = oracles.unconditional_kernel(2.0, 0.7)(x, xp)
    c = oracles.unconditional_kernel(2.0, 0.7, classical=True)(x, xp)
    assert np.allclose(np.abs(q), np.abs(c))
    assert np.allclose(np.angle(q), -np.angle(c))


def test_ladder_at_eta_one_is_the_measurement_operator_kernel():
    phi0, n0 = 2.2, 1.3
    x, xp = np.linspace(-1, 1, 23), np.linspace(-0.4, 0.9, 23)
    got = oracles.ladder_kernel(x, xp, phi0, n0, 1.0, 1.0)
    for e in range(got.shape[0]):
        ref = oracles.conditional_kernel(phi0, n0, e)(x, xp)
        assert np.max(np.abs(got[e] - ref)) < 1e-13


def test_rabi_amplitude_without_decay_is_a_cosine():
    x = np.linspace(0, 1, 17)
    area = 4 * math.pi
    c0, c1 = oracles.rabi_amplitudes(x, area, 0.0, 1e12)
    w = area * np.cos(np.pi * x)
    assert np.max(np.abs(c0 - np.cos(w / 2))) < 1e-10
    assert np.max(np.abs(np.abs(c1) - np.abs(np.sin(w / 2)))) < 1e-10


def test_kirchhoff_slit_without_grating_is_a_sinc():
    # no grating and no chirp: amplitude D sinc(D x), density D sinc^2(D x)
    dd = 10.0
    x = np.linspace(-0.7, 0.7, 29)
    got = oracles.kirchhoff_densities(x, [np.ones_like], dd, 0.0)[0]
    assert np.max(np.abs(got - dd * np.sinc(dd * x) ** 2)) < 1e-9


def test_smoothing_keeps_a_constant_away_from_the_edges():
    vals = np.ones(400)
    out = oracles.detector_smoothing(vals, 0.01, 0.1)
    assert np.max(np.abs(out[70:-70] - 1.0)) < 1e-15


def _talbot_op(tmp_path, name, perturb=False):
    params = {"phi0": 2.0, "n0": 0.4, "j_max": 4, "xi_points": 8}
    cfg = workloads._write_config(tmp_path / "talbot.cfg", {
        "grating": {"phi0": params["phi0"], "n0": params["n0"]},
        "talbot": {"j_max": params["j_max"], "xi_points": params["xi_points"]}})

    def check(out):
        if perturb:
            path = out / "talbot_coefficients.csv"
            lines = path.read_text().splitlines()
            cells = lines[-1].split(",")
            cells[4] = repr(float(cells[4]) * (1 + 1e-6) + 1e-9)
            lines[-1] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
        return checks.check_talbot(out, params, "csv")

    return Op(name, ["talbot", "--config", cfg, "--ell", "all"], check)


def test_perturbed_output_counts_as_failed(tmp_path):
    ops = [_talbot_op(tmp_path, "talbot"), _talbot_op(tmp_path, "perturbed", True)]
    result = run.run_round(ops, tmp_path / "round", tmp_path, traced=False)
    assert list(result["failures"]) == ["perturbed"]
    assert "coefficients" in result["failures"]["perturbed"][0]


def test_later_round_must_reproduce_the_checked_bytes(tmp_path):
    op = _talbot_op(tmp_path, "talbot")
    verdicts = {}
    first = run.run_round([op], tmp_path / "round", tmp_path, False, verdicts)
    assert first["failures"] == {}
    verdicts["talbot"] = ("another digest", [])
    second = run.run_round([op], tmp_path / "round", tmp_path, False, verdicts)
    assert "differ" in second["failures"]["talbot"][0]


def test_run_counts_failures_and_known_faults(tmp_path, monkeypatch):
    for fault, correct in (("", False), ("deliberate", True)):
        bad = _talbot_op(tmp_path, "perturbed", True)
        bad.known_fault = fault
        ops = [_talbot_op(tmp_path, "talbot"), bad]
        monkeypatch.setitem(run.WORKLOADS, "tiny", lambda seed, cfg_dir, ops=ops: ops)
        result, _ = run.run("tiny", 0, 0.0, trace=False)
        assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, correct)
        assert set(result["metrics"]) == set(run.END_TO_END)


def test_traced_round_collects_pool_worker_spans(tmp_path):
    params = {"phi0": 2.0, "n0": 0.3, "talbot_parameter": 1.0, "open_fraction": 0.4,
              "sweep": (0.5, 1.5, 3)}
    cfg = workloads._write_config(tmp_path / "kdtli.cfg", {
        "grating": {"phi0": params["phi0"], "n0": params["n0"]},
        "interferometer": {"talbot_parameter": 1.0, "open_fraction": 0.4}})
    op = Op("kdtli", ["kdtli", "--config", cfg, "--sweep", "talbot_parameter=0.5:1.5:3",
                      "--jobs", "2"], lambda out: checks.check_kdtli(out, params))
    result = run.run_round([op], tmp_path / "round", tmp_path, traced=True)
    assert result["failures"] == {}
    layers = result["layers"]
    # three sweep points, two variants, one signal and one visibility each
    assert layers["nearfield.signals"] == 12
    assert layers["talbot.source_calls"] > 0 and layers["specfun.calls"] > 0
    assert layers["cli.pool_s"] > 0 and layers["output.mb_per_s"] > 0
    assert layers["ode.nfev"] == 0 and layers["farfield.densities"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_configs(tmp_path, name):
    build = workloads.WORKLOADS[name]
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    ops_a, ops_b = build(7, a), build(7, b)
    assert [o.name for o in ops_a] == [o.name for o in ops_b]
    for f in a.iterdir():
        assert f.read_text() == (b / f.name).read_text()


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
