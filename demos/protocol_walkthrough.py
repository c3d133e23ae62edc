#!/usr/bin/env python3
"""
Walk through the protection protocol branch by branch on a small register.

Each qubit is weakly measured, conditionally flipped, damped, flipped
back, and conditionally rotated.  For a 3-qubit register the 8 outcome
records collapse into 4 statistically identical classes; this script
prints the class table, checks that the class weights sum to one, and
cross-checks the fast tensor-product engine against the dense
density-matrix evolution.

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
    branch_classes,
    branch_elements,
    branch_qfi,
    run_protocol_branch,
    state_export,
)

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
    print("class  pattern  multiplicity  weight        information")
    total_weight = 0.0
    for cls in branch_classes(N_QUBITS):
        elements = branch_elements(p, cls.k, convention)
        weight = elements.P.real
        info = branch_qfi(elements, N_QUBITS).real
        total_weight += cls.multiplicity * weight
        pattern = "0" * cls.k + "1" * (N_QUBITS - cls.k)
        print(
            f"k={cls.k}    {pattern}      x{cls.multiplicity}"
            f"           {weight:.6f}      {info:.6f}"
        )
    print(f"\nsum of class weights: {total_weight:.12f} (should be 1)")

    # The canonical record of each class must match the dense evolution.
    worst = 0.0
    for cls in branch_classes(N_QUBITS):
        pattern = "0" * cls.k + "1" * (N_QUBITS - cls.k)
        dense_rho = run_protocol_branch(p, pattern, convention).rho
        exported = state_export(branch_elements(p, cls.k, convention), N_QUBITS)
        worst = max(worst, float(np.max(np.abs(dense_rho - exported))))
    print(f"largest |dense - structured| state entry: {worst:.3e}")

    fast = aggregate_metrics(p, convention)
    dense = aggregate_metrics_dense(p, convention)
    print("\naveraged metrics (structured vs dense):")
    print(f"  probability  {fast.probability:.12f}  {dense.probability:.12f}")
    print(f"  fidelity     {fast.fidelity:.12f}  {dense.fidelity:.12f}")
    print(f"  information  {fast.qfi:.12f}  {dense.qfi:.12f}")


if __name__ == "__main__":
    main()
