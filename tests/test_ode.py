"""The adaptive ODE oracles give the same bytes at any BLAS thread count."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lasergrating

# Batches above ~1e4 state entries make OpenBLAS split its dot-product
# reductions across threads; 2048 pairs give 18432 (Rabi) and 38912 (ladder).
SCRIPT = """
import math
import numpy as np
from lasergrating import rabi
from lasergrating.params import GratingParameters
from oracles import ladder_ode_solve, solve_pairs

u = np.arange(2048) / 2048
if "{route}" == "rabi":
    cfg = rabi.RabiConfig(pulse_area=4 * math.pi, detuning=0.0, lifetime=1.0)
    out = solve_pairs(u - 0.3, u + 0.3, cfg, rtol=1e-11, atol=1e-13)
else:
    g = GratingParameters(phi0=1.875, n0=1.5, eta_p=1.3, eta_a=1.7)
    kern = ladder_ode_solve(g, "gaussian", rtol=1e-11, atol=1e-13)
    out = kern.channel_values(u - 0.3, u + 0.3)
print(out.tobytes().hex())
"""


def _digest(route, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [str(Path(lasergrating.__file__).resolve().parents[1]),
                    str(Path(__file__).resolve().parent),
                    os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", SCRIPT.format(route=route)],
                         env=env, capture_output=True, text=True, check=True)
    return hashlib.sha256(res.stdout.encode()).hexdigest()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least 2 CPUs")
@pytest.mark.parametrize("route", ["rabi", "ladder"])
def test_ode_bytes_independent_of_blas_threads(route):
    assert _digest(route, 1) == _digest(route, 2)
