#!/usr/bin/env python3
"""Run the full inequality scatter suite: models A, B (2 and 3 qubits), and
C (GOE and GUE perturbations), 3000 perturbation draws each.

Writes one run directory per model under --out, each holding records.csv,
summary.json, and manifest.json.  Plot dq_abs against sqrt(|k0|) from
records.csv to reproduce the scatter figures; the saturation index is the
delta column.
"""

import argparse
import sys

from qcbound.cli import main as qcbound_main

RUNS = [
    ("model-A", ["--model", "A"]),
    ("model-B-n2", ["--model", "B", "--qubits", "2"]),
    ("model-B-n3", ["--model", "B", "--qubits", "3"]),
    ("model-C-goe", ["--model", "C", "--ensemble", "GOE"]),
    ("model-C-gue", ["--model", "C", "--ensemble", "GUE"]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/scatter", help="parent output directory")
    parser.add_argument("--samples", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    for name, model_args in RUNS:
        argv = [
            "check", *model_args,
            "--samples", str(args.samples),
            "--seed", str(args.seed),
            "--out", f"{args.out}/{name}",
        ]
        code = qcbound_main(argv)
        if code != 0:
            print(f"{name} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
