#!/usr/bin/env python3
"""Paired benchmark of a parent revision against a change: writes BENCH_<label>.json.

For each workload and reference seed, runs N pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0 --ref-seed R

once in a checkout of the parent revision and once in the working tree, with
one workload seed S per pair (3, 4, ... across all workloads), T the
``run_seconds`` of BENCHMARK.json, and the order inside a pair alternating
(parent first, then change first), so that slow drift of the machine hits
both sides alike.  The parent is exported with ``git archive`` into a
temporary directory, which is removed on exit.  Each perfbench run has its own
process group, killed whole on a timeout, SIGTERM or Ctrl-C, so that no
worker outlives the script.  The run refuses to start when ``perfbench/`` or
``BENCHMARK.json`` differ between the two trees: the benchmark must be the
same code on both sides.

Per metric the output holds every run, median and quartiles of each side,
the pairs the change won, the ratio of the medians, and whether the gap of
the medians exceeds the parent's interquartile range; plus correctness,
the largest relative error against the references, and the environment
(``nproc``, library versions, BLAS thread variables).  Example, from the
repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --label N \\
        --workload theta-d128 --ref-seed 0 1 --pairs 10 --claim theta-d128:wall_s
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QCBOUND_THREADS")
RUN_TIMEOUT_S = 1800
FIRST_SEED = 3


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_revision(rev: str, dest: Path) -> Path:
    """Write the committed files of ``rev`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def benchmark_digest(tree: Path) -> str:
    """SHA-256 over BENCHMARK.json and every file under perfbench/ (caches excluded)."""
    digest = hashlib.sha256()
    files = [tree / "BENCHMARK.json"] + sorted(
        p for p in (tree / "perfbench").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    )
    for path in files:
        digest.update(str(path.relative_to(tree)).encode() + b"\0")
        digest.update(path.read_bytes() if path.is_file() else b"<missing>")
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float, ref_seed: int) -> dict:
    """One untraced perfbench run; returns its result line plus its details line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--ref-seed", str(ref_seed)]
    # Its own session and process group, so that a timeout, SIGTERM or Ctrl-C
    # here stops the perfbench/child.py worker too, not only run.py.
    proc = subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the whole group has already exited
            pass
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}: "
                           f"{stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])
    return result


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent_runs: list, change_runs: list, better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p)
               for p, c in zip(parent_runs, change_runs, strict=True))
    parent, change = quartiles(parent_runs), quartiles(change_runs)
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "change_wins": f"{wins}/{len(parent_runs)}",
        "change_over_parent": round(change["median"] / parent["median"], 4),
        "gap_exceeds_parent_iqr":
            abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        "parent_runs": [round(v, 4) for v in parent_runs],
        "change_runs": [round(v, 4) for v in change_runs],
    }


def environment(details: dict) -> dict:
    env = {key: details["environment"].get(key)
           for key in ("python", "numpy", "scipy", "blas", "blas_version")}
    return {"nproc": len(os.sched_getaffinity(0)), **env,
            **{var: os.environ.get(var, "unset") for var in THREAD_VARS}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision (any git rev)")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--ref-seed", type=int, nargs="+", default=[0],
                        help="reference seeds to check outputs against (perfbench --ref-seed)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    out_path = ROOT / f"BENCH_{args.label}.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, metrics = spec["run_seconds"], spec["end_to_end"]

    # Turn SIGTERM into SystemExit so the finally clause removes the export.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        parent_tree = export_revision(args.parent, scratch / "parent")
        if benchmark_digest(parent_tree) != benchmark_digest(ROOT):
            print("error: perfbench/ or BENCHMARK.json differ between parent and change; "
                  "the pairs would not measure the same benchmark", file=sys.stderr)
            return 2
        report = {
            "description": (f"perfbench/run.py --seconds {seconds:g} --trace 0: parent vs "
                            f"change, {args.pairs} alternating pairs per workload and reference "
                            "seed, one workload seed per pair, identical benchmark code"),
            "parent_commit": _git("rev-parse", args.parent),
            "change": f"working tree at {_git('rev-parse', 'HEAD')}",
            "environment": None,
            "workloads": [],
        }
        if args.claim:
            workload, metric = args.claim.split(":")
            report["claim"] = {
                "metric": metric, "workload": workload,
                "rule": "change wins >= 9/10 pairs and |median gap| > parent IQR, "
                        f"at --ref-seed {' and '.join(map(str, args.ref_seed))}",
            }
        seed = FIRST_SEED
        for workload in args.workload:
            for ref_seed in args.ref_seed:
                runs = {"parent": [], "change": []}
                seeds = list(range(seed, seed + args.pairs))
                seed += args.pairs
                for i, pair_seed in enumerate(seeds):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        tree = parent_tree if side == "parent" else ROOT
                        runs[side].append(run_once(tree, workload, pair_seed, seconds, ref_seed))
                    print(f"{workload} ref {ref_seed} pair {i + 1}/{args.pairs}: " + ", ".join(
                        f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.3f}"
                        for side in ("parent", "change")), file=sys.stderr)
                report["environment"] = environment(runs["change"][0]["details"])
                report["workloads"].append({
                    "workload": workload,
                    "ref_seed": ref_seed,
                    "pairs": args.pairs,
                    "seeds": seeds,
                    "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
                    "max_rel_err": {side: max(r["details"]["max_rel_err"] for r in runs[side])
                                    for side in runs},
                    "metrics": {m["name"]: compare(
                        *([r["metrics"][m["name"]]["value"] for r in runs[side]]
                          for side in ("parent", "change")), m["better"]) for m in metrics},
                })
                # Written after every workload, so an interrupted run keeps what it measured.
                out_path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out_path}", file=sys.stderr)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
