#!/usr/bin/env python3
"""SHA-256 digests of the outputs of fixed small CLI runs, to check that two
source trees write the same bytes.

Runs each configuration below in-process through ``qcbound.cli.main``,
imported from the source tree given by ``--src`` (default: ``src/`` of this
checkout), each into its own temporary directory, and prints
``{config: {file: sha256}}`` as JSON.  Every run's ``manifest.json`` is
hashed without its ``created_utc`` line, the one part that changes between
runs.  The runs named in ``CONFIG_FILES`` also read that JSON object through
``--config``, with one of its keys overridden by a flag.  For
``records.csv`` it also prints the digest of the ``sample_seed`` column
alone (key ``records.csv:sample_seed``): a change may move the floats of a
scatter record at roundoff level but not its seeds.  For
``defect_sweep.csv`` it also prints the digest of the CSV without its
``q_mean`` and ``q_stderr`` columns (key ``defect_sweep.csv:without_q``):
a change may move the ground-state Q at roundoff level but no other column.
Compare two trees, from the repository root:

    python3 scripts/output_digests.py --src /path/to/parent/src > parent.json
    python3 scripts/output_digests.py > change.json
    diff parent.json change.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CHECK = ("records.csv", "summary.json")
CONFIGS = {
    "check-A": (["check", "--model", "A", "--samples", "200", "--seed", "7"], _CHECK),
    # model A away from its default coefficients and coupling
    "check-A-custom": (["check", "--model", "A", "--a-coeffs", "0.05,0.25,0.4", "--lambda",
                        "0.8", "--samples", "200", "--seed", "11"], _CHECK),
    "check-B-N3": (["check", "--model", "B", "--qubits", "3", "--samples", "300",
                    "--seed", "5"], _CHECK),
    "check-B-N5": (["check", "--model", "B", "--qubits", "5", "--samples", "200",
                    "--seed", "5"], _CHECK),
    # dim 64, the smallest whose draws run on threads (experiments._THREAD_MIN_DIM)
    "check-B-N6": (["check", "--model", "B", "--qubits", "6", "--samples", "200",
                    "--seed", "5"], _CHECK),
    # threaded dim-64 stacks of 8 draws, the last of 203 a short one of 3
    "check-B-N6-short": (["check", "--model", "B", "--qubits", "6", "--samples", "203",
                          "--seed", "5"], _CHECK),
    # the one check run with b' violations (46 of 1000 draws)
    "check-B-N3-bprime": (["check", "--model", "B", "--qubits", "3", "--samples", "1000",
                           "--seed", "3"], _CHECK),
    # the scatter model the benchmark times at full size (dim 128)
    "check-B-N7": (["check", "--model", "B", "--qubits", "7", "--samples", "1000",
                    "--seed", "3"], _CHECK),
    "check-C-GOE": (["check", "--model", "C", "--ensemble", "GOE", "--samples", "200",
                     "--seed", "6"], _CHECK),
    # model C on a base drawn at more than its default 2 qubits
    "check-C-GOE-N3": (["check", "--model", "C", "--ensemble", "GOE", "--qubits", "3",
                        "--samples", "200", "--seed", "6"], _CHECK),
    # the benchmark also times model C with GUE perturbations
    "check-C-GUE": (["check", "--model", "C", "--ensemble", "GUE", "--samples", "200",
                     "--seed", "6"], _CHECK),
    "sweep-theta-d64": (["sweep-theta", "--points", "4", "--realizations", "12",
                         "--dim", "64", "--seed", "9"], ("theta_sweep.csv",)),
    "sweep-theta-ends": (["sweep-theta", "--points", "2", "--realizations", "10",
                          "--dim", "128", "--seed", "3"], ("theta_sweep.csv",)),
    "sweep-theta-d128-per-realization": (
        ["sweep-theta", "--points", "3", "--realizations", "6", "--dim", "128",
         "--seed", "2", "--gamma-mode", "per-realization"], ("theta_sweep.csv",)),
    "sweep-defect-n7": (["sweep-defect", "--qubits", "7", "--points", "3",
                         "--realizations", "8", "--seed", "9"], ("defect_sweep.csv",)),
    "sweep-defect-n7-full": (["sweep-defect", "--qubits", "7", "--points", "3",
                              "--realizations", "8", "--seed", "9", "--sector", "full"],
                             ("defect_sweep.csv",)),
    "sweep-defect-n9": (["sweep-defect", "--qubits", "9", "--points", "2",
                         "--realizations", "4", "--seed", "9"], ("defect_sweep.csv",)),
    # model E's per-realization fits, on the restricted sector's levels
    "sweep-defect-n9-per-realization": (
        ["sweep-defect", "--qubits", "9", "--points", "3", "--realizations", "8", "--seed", "9",
         "--gamma-mode", "per-realization"], ("defect_sweep.csv",)),
    # the benchmark's defect grid: ground blocks in sectors of dims 1 through 126
    "sweep-defect-n9-grid": (["sweep-defect", "--qubits", "9", "--points", "8",
                              "--realizations", "8", "--seed", "3"], ("defect_sweep.csv",)),
    **{f"stats-{source}": (["stats", "--source", source, "--draws", "20", "--dim", "96",
                            "--seed", "4"], ("stats.json",))
       for source in ("GOE", "GUE", "PoissonDiagonal", "D")},
    # dim-128 stacks, real (model D) and complex (GUE), the last one short
    **{f"stats-{source}-d128": (["stats", "--source", source, "--draws", "21", "--dim", "128",
                                 "--seed", "4"], ("stats.json",))
       for source in ("GUE", "D")},
    "stats-D-theta0": (["stats", "--source", "D", "--theta", "0", "--draws", "20",
                        "--dim", "96", "--seed", "4"], ("stats.json",)),
    "stats-D-failures": (["stats", "--source", "D", "--theta", "0", "--dim", "64",
                          "--draws", "40", "--seed", "0"], ("stats.json",)),
    **{f"stats-E-{sector}": (["stats", "--source", "E", "--draws", "10", "--qubits", "8",
                              "--seed", "4", "--sector", sector], ("stats.json",))
       for sector in ("restricted", "full")},
    "sweep-theta-config": (["sweep-theta", "--points", "3"], ("theta_sweep.csv",)),
    "stats-E-config": (["stats", "--source", "E", "--qubits", "7"], ("stats.json",)),
}

# JSON config files of the runs above that take one; the flags in CONFIGS win
CONFIG_FILES = {
    "sweep-theta-config": {"points": 4, "realizations": 12, "dim": 64, "seed": 9,
                           "unfold-trim": 0.1, "outlier_k": 2, "gamma_mode": "pooled"},
    "stats-E-config": {"qubits": 8, "draws": 10, "d_value": 0.4, "h": 0.9, "coupling": 1.1,
                       "sector": "full", "seed": 4},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _seed_column(records_csv: bytes) -> bytes:
    lines = records_csv.decode().splitlines()
    column = lines[0].split(",").index("sample_seed")
    return "\n".join(line.split(",")[column] for line in lines).encode()


def _without_q(sweep_csv: bytes) -> bytes:
    rows = [line.split(",") for line in sweep_csv.decode().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in ("q_mean", "q_stderr")]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def _without_timestamp(manifest_json: bytes) -> bytes:
    return b"\n".join(line for line in manifest_json.split(b"\n")
                      if not line.lstrip().startswith(b'"created_utc"'))


def digests(main) -> dict:
    """Run every configuration with ``main`` and hash its outputs."""
    result = {}
    with tempfile.TemporaryDirectory(prefix="output_digests_") as tmp:
        for name, (argv, files) in CONFIGS.items():
            out = Path(tmp) / name
            if name in CONFIG_FILES:
                config = Path(tmp) / f"{name}.json"
                config.write_text(json.dumps(CONFIG_FILES[name]))
                argv = [*argv, "--config", str(config)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"{name}: exit code {code}")
            entry = {"manifest.json": _sha256(_without_timestamp(
                (out / "manifest.json").read_bytes()))}
            for file in files:
                data = (out / file).read_bytes()
                entry[file] = _sha256(data)
                if file == "records.csv":
                    entry["records.csv:sample_seed"] = _sha256(_seed_column(data))
                if file == "defect_sweep.csv":
                    entry["defect_sweep.csv:without_q"] = _sha256(_without_q(data))
            result[name] = entry
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree holding the qcbound package")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from qcbound.cli import main as qcbound_main

    print(json.dumps(digests(qcbound_main), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
