#!/usr/bin/env python3
"""
Fidelity at guaranteed success: the eta=0 deterministic operating point.

At zero conditional rotation every outcome record is kept and the
protocol succeeds with probability one; only the measurement strength
theta is left to optimize.  This script traces the best achievable
fidelity against the decay probability for several input superposition
angles gamma, writing one CSV column per angle.

The curves flatten at cos^4(gamma/2) + sin^4(gamma/2) once damping
dominates: past that point the best deterministic strategy is the
projective one (theta = 0), which freezes the populations and gives up
the coherence.

Run:
    python3 demos/deterministic_fidelity_curves.py [out.csv]
"""

import csv
import math
import sys
from pathlib import Path

import numpy as np

from ghzprotect import UNIT_PROBABILITY, GridSpec, ProtocolParams, sweep_r

N_QUBITS = 10
R_GRID = [float(x) for x in np.linspace(0.0, 0.9, 19)]
GAMMAS = [
    ("gamma_30", math.pi / 6),
    ("gamma_60", math.pi / 3),
    ("gamma_90", math.pi / 2),
]

# Only theta matters at the deterministic point, so a fine theta grid
# with no eta exploration is cheap.
GRID = GridSpec(
    theta_range=(0.0, math.pi, 181),
    eta_range=(0.0, 2.0 * math.pi, 181),
    refine_iters=4,
)


def main() -> None:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        "deterministic_fidelity_curves.csv"
    )

    columns = {}
    for label, gamma in GAMMAS:
        base = ProtocolParams(
            n_qubits=N_QUBITS, gamma=gamma, phi0=0.0, theta=0.0, eta=0.0, r=0.0
        )
        results = sweep_r(UNIT_PROBABILITY, R_GRID, base, GRID)
        values = [res.value for res in results]
        columns[label] = values
        floor = math.cos(gamma / 2) ** 4 + math.sin(gamma / 2) ** 4
        print(f"{label}: fidelity floor cos^4+sin^4 = {floor:.6f}, "
              f"value at r=0.9: {values[-1]:.6f}")

    with out_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["r"] + [label for label, _ in GAMMAS])
        for i, r in enumerate(R_GRID):
            writer.writerow(
                [f"{r:.2f}"] + [f"{columns[label][i]:.8f}" for label, _ in GAMMAS]
            )
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
