#!/usr/bin/env python3
"""
Walk through the protection protocol branch by branch on a small register.

Each qubit is weakly measured, conditionally flipped, damped, flipped
back, and conditionally rotated.  For a 3-qubit register the 8 outcome
records collapse into 4 statistically identical classes; this script
prints the class table (each class's record weight from the dense
evolution, and its term of the information sum from the structured
kernel), checks that the class weights sum to one and that the terms sum
to the averaged information, and cross-checks the structured kernel
against the dense density-matrix evolution: each class's corner entries,
then the averaged metrics.

Run:
    python3 demos/protocol_walkthrough.py
"""

import math

import numpy as np

from ghzprotect import (
    Convention,
    ProtocolParams,
    aggregate_metrics,
    aggregate_metrics_dense,
    run_protocol_branch,
)
from ghzprotect.structured import _class_rows, _corners

N_QUBITS = 3
THETA = 1.1  # measurement strength (pi/2 = no measurement, 0 = projective)
ETA = 0.7  # conditional rotation angle
R = 0.35  # per-qubit decay probability


def main() -> None:
    p = ProtocolParams(
        n_qubits=N_QUBITS,
        gamma=math.pi / 2,  # balanced superposition (standard GHZ input)
        phi0=0.0,
        theta=THETA,
        eta=ETA,
        r=R,
    )
    convention = Convention.PHYSICAL

    print(f"register of {N_QUBITS} qubits, theta={THETA}, eta={ETA}, r={R}")
    print()
    print("class  pattern  multiplicity  weight        information term")
    rows = _class_rows(p, convention)
    total_weight = 0.0
    worst = 0.0
    for k in range(N_QUBITS + 1):
        multiplicity = math.comb(N_QUBITS, k)
        pattern = "0" * k + "1" * (N_QUBITS - k)
        run = run_protocol_branch(p, pattern, convention)
        weight = run.probability.real
        total_weight += multiplicity * weight
        print(
            f"k={k}    {pattern}      x{multiplicity}"
            f"           {weight:.6f}      {rows.terms[k].real:.6f}"
        )
        # The canonical record's corners must match the kernel's: A_k, B_k
        # and the two coherences.
        rho = run.rho
        stored = (rho[0, 0], rho[-1, -1], rho[-1, 0], rho[0, -1])
        kernel = (rows.a[k], rows.b[k], *_corners(p, k, convention))
        worst = max(worst, float(np.max(np.abs(np.subtract(stored, kernel)))))
    print(f"\nsum of class weights: {total_weight:.12f} (should be 1)")
    print(f"sum of information terms: {np.add.reduce(rows.terms).real:.12f}")
    print(f"largest |dense - kernel| corner entry: {worst:.3e}")

    fast = aggregate_metrics(p, convention)
    dense = aggregate_metrics_dense(p, convention)
    print("\naveraged metrics (structured vs dense):")
    print(f"  probability  {fast.probability:.12f}  {dense.probability:.12f}")
    print(f"  fidelity     {fast.fidelity:.12f}  {dense.fidelity:.12f}")
    print(f"  information  {fast.qfi:.12f}  {dense.qfi:.12f}")


if __name__ == "__main__":
    main()
