#!/usr/bin/env python3
"""Run both chaos sweeps at full scale: the Poisson/GOE rotation (dim 128,
16 theta points) and the 9-qubit defect chain (26 d points), 100 realizations
per grid point.

theta_sweep.csv and defect_sweep.csv contain everything needed to plot gamma,
<b>, and <Q> against the sweep parameter or against each other.  The defect
sweep solves 2600 draws of the 9-qubit chain in its total-sigma_z sector
blocks (largest dim 126).
"""

import argparse
import sys

from qcbound.cli import main as qcbound_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/sweeps", help="parent output directory")
    parser.add_argument("--realizations", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--qubits", type=int, default=9, help="defect-chain size")
    args = parser.parse_args()

    code = qcbound_main([
        "sweep-theta",
        "--points", "16",
        "--realizations", str(args.realizations),
        "--seed", str(args.seed),
        "--out", f"{args.out}/theta",
    ])
    if code != 0:
        print(f"theta sweep failed with exit code {code}", file=sys.stderr)
        return code

    code = qcbound_main([
        "sweep-defect",
        "--points", "26",
        "--qubits", str(args.qubits),
        "--realizations", str(args.realizations),
        "--seed", str(args.seed),
        "--out", f"{args.out}/defect",
    ])
    if code != 0:
        print(f"defect sweep failed with exit code {code}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
