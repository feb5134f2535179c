#!/usr/bin/env python3
"""Scan the quantum/classical visibility gap against velocity spread.

The model difference survives only for narrow velocity distributions; this
script quantifies how fast averaging washes it out at the Fig. 1 working
point (n0 = 1, phi0 = pi, f = 0.42).
"""

import numpy as np

from lasergrating import GratingParameters, KdtliConfig, kdtli_signal
from lasergrating.talbot import ClosedForm

G = GratingParameters(phi0=np.pi, n0=1.0)
F = 0.42
LT = 3.25

if __name__ == "__main__":
    print("dv/v   V_quantum   V_classical   gap")
    for spread in (0.0, 0.01, 0.02, 0.05, 0.1, 0.2):
        vis = {}
        for variant in ("quantum", "classical"):
            cfg = KdtliConfig(ClosedForm(G, variant), F, LT)
            sig = kdtli_signal(cfg, spread)
            vis[variant] = 2.0 * sig.components[1].real / sig.components[0].real
        gap = vis["quantum"] - vis["classical"]
        print(f"{spread:5.2f}  {vis['quantum']:+.4f}     {vis['classical']:+.4f}      {gap:+.4f}")
