"""Benchmark of the qcbound CLI: end-to-end time-to-result and per-layer trace.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload scatter --seed 3 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median wall
time of one repetition of the workload's CLI calls (warm caches), draws per
second, the set-up time of a fresh process (median of several), peak RSS.
--trace 1 reports the per-layer metrics: span self times and counts from
repetitions run with the package's functions wrapped (see tracer.py), which
alternate with untraced ones to give the tracing overhead, plus the failed
draw fraction and the largest relative error against the references.

Every run checks the outputs: each CLI call exits 0 (`check` exits 3 on a
bound violation), no rows are missing, reruns are byte-identical, and the
outputs for the reference seed (--ref-seed; 0, or the held-out 1) agree with
the committed references in perfbench/reference within REL_TOL.  The last
line of stdout is the result JSON; the line before it records the
environment and the raw measurements.  --record-reference rewrites the
committed references of --seed from this run's outputs.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
WORK = ROOT / ".perfbench_work"

# Committed reference seeds.  Seed 1 is held out: changes are developed
# against seed 0, and a claim is re-checked with --ref-seed 1.
REF_SEEDS = (0, 1)
# Largest accepted |new - ref| / max(|ref|, REL_FLOOR) of any numeric output.
REL_TOL = 1e-6
REL_FLOOR = 1e-9
SETUP_PROCESSES = 5
CHILD_TIMEOUT_S = 150

# Reported spans and the name of their extra count, if any.  The self time
# of cli.main is the CLI's own work (argument handling, CSV/JSON writes,
# SHA-256 digests) and is reported as cli.io.
LAYERS = (
    ("quantum.eigensystem", "sum_dim3"),
    ("models.model_e", None),
    ("models.sector_eigenvalues", "sum_dim3"),
    ("models.model_d", None),
    ("experiments.eigvalsh", "sum_dim3"),
    ("ensembles.sample", None),
    ("ensembles.spawn_seed", None),
    ("quantum.HermitianOperator", None),
    ("level_stats.spacing_sample_from_levels", None),
    ("level_stats.weibull_fit", "spacings"),
    ("level_stats.gamma_chaos", None),
    ("experiments.draw", None),
    ("experiments.draw_loop", None),
    ("entanglement.EntanglementInputs", None),
    ("entanglement.dQ0_dtau", None),
    ("entanglement.ground_state_site_overlaps", None),
    ("curvature.level_curvature", None),
    ("entanglement.mean_bipartite_Q", None),
    ("curvature.bound_b", None),
    ("experiments.aggregate", None),
    ("cli.main", None),
)
FAILURE_REASONS = ("UnfoldingError", "DegenerateSpectrumError")


class OutputError(Exception):
    """The workload's outputs are wrong or incomplete."""


def spawn(mode: str, spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, json.dumps(spec)],
        env=env, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads((Path(spec["work"]) / f"{mode}.json").read_text())


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _rel_err(new, ref) -> float:
    if isinstance(ref, str) or isinstance(new, str):
        try:
            new, ref = float(new), float(ref)
        except ValueError:
            return 0.0 if new == ref else math.inf
    if new == ref:
        return 0.0
    if not (math.isfinite(new) and math.isfinite(ref)):
        return math.inf
    return abs(new - ref) / max(abs(ref), REL_FLOOR)


def _read_csv(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def _compare_file(name: str, new: str, ref: str) -> float:
    if name.endswith(".json"):
        new_d, ref_d = json.loads(new), json.loads(ref)
        if new_d.keys() != ref_d.keys():
            raise OutputError(f"{name}: keys differ from the reference")
        return max((_rel_err(new_d[k], ref_d[k]) for k in ref_d), default=0.0)
    new_rows, ref_rows = _read_csv(new), _read_csv(ref)
    if new_rows[0] != ref_rows[0] or len(new_rows) != len(ref_rows):
        raise OutputError(f"{name}: header or row count differs from the reference")
    return max((_rel_err(a, b) for rn, rr in zip(new_rows[1:], ref_rows[1:])
                for a, b in zip(rn, rr, strict=True)), default=0.0)


def max_rel_err(workload, out: Path, ref: Path) -> float:
    return max(
        _compare_file(name, (out / call.tag / name).read_text(),
                      gzip.decompress((ref / call.tag / f"{name}.gz").read_bytes()).decode())
        for call in workload.calls for name in call.outputs
    )


def record_reference(workload, out: Path, ref: Path) -> None:
    for call in workload.calls:
        (ref / call.tag).mkdir(parents=True, exist_ok=True)
        for name in call.outputs:
            data = (out / call.tag / name).read_bytes()
            (ref / call.tag / f"{name}.gz").write_bytes(gzip.compress(data, mtime=0))


def check_outputs(workload, out: Path) -> int:
    """Validate one repetition's outputs; return the draws it lost."""
    lost = 0
    for call in workload.calls:
        if call.argv[0] == "check":
            summary = json.loads((out / call.tag / "summary.json").read_text())
            rows = _read_csv((out / call.tag / "records.csv").read_text())
            if summary["violations_b"] != 0:
                raise OutputError(f"{call.tag}: {summary['violations_b']} b-violations")
            if (summary["samples_recorded"] + summary["rejected"] != summary["samples_requested"]
                    or len(rows) - 1 != summary["samples_recorded"]):
                raise OutputError(f"{call.tag}: records missing")
            lost += summary["rejected"]
            continue
        rows = _read_csv((out / call.tag / call.outputs[0]).read_text())
        header, body = rows[0], rows[1:]
        if len(body) != call.points:
            raise OutputError(f"{call.tag}: {len(body)} rows, expected {call.points}")
        for row in body:
            values = dict(zip(header, row, strict=True))
            if not all(math.isfinite(float(v)) for v in row):
                raise OutputError(f"{call.tag}: non-finite value in {row}")
            if int(values["n_kept"]) + int(values["n_trimmed"]) != call.realizations:
                raise OutputError(f"{call.tag}: row {row} does not add up")
    return lost


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(trace: dict, failures: dict) -> dict:
    layers = trace["layers"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "extra": 0}
    metrics = {}
    for span, extra in LAYERS:
        prefix = "cli.io" if span == "cli.main" else span
        entry = layers.get(span, empty)
        metrics[f"{prefix}.self_s"] = _metric(entry["self_s"], "s")
        metrics[f"{prefix}.calls"] = _metric(entry["calls"], "count")
        if extra:
            metrics[f"{prefix}.{extra}"] = _metric(entry["extra"], "count")
    unfolds = layers.get("level_stats.spacing_sample_from_levels", empty)
    metrics["level_stats.spacing_sample_from_levels.fits_per_unfold"] = _metric(
        unfolds["extra"] / unfolds["calls"] if unfolds["calls"] else 0.0, "ratio")
    p50, p99 = trace["draw_ms"]
    metrics["experiments.draw.p50_ms"] = _metric(p50, "ms")
    metrics["experiments.draw.p99_ms"] = _metric(p99, "ms")
    draw, loop_threads_s = layers.get("experiments.draw", empty), trace["draw_loop_threads_s"]
    metrics["experiments.pool_efficiency"] = _metric(
        draw["total_s"] / loop_threads_s if loop_threads_s else 0.0, "ratio")
    metrics["experiments.draws_attempted"] = _metric(draw["calls"], "count")
    metrics["experiments.draws_failed"] = _metric(draw["extra"], "count")
    for reason in FAILURE_REASONS:
        metrics[f"experiments.draws_failed.{reason}"] = _metric(
            failures.get(reason, 0.0), "count")
    reported = {span for span, _ in LAYERS}
    metrics["trace.other_self_s"] = _metric(
        sum(e["self_s"] for name, e in layers.items() if name not in reported), "s")
    metrics["trace.overlap_s"] = _metric(trace["overlap_s"], "s")
    metrics["trace.remainder_s"] = _metric(
        statistics.fmean(trace["traced_walls"]) - trace["root_s"], "s")
    return metrics


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(child_env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **child_env,
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QCBOUND_THREADS")},
        "git_commit": git_commit(),
    }


def declared_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(args, work: Path) -> tuple:
    """Run the workload; return (correct, attempted, failed, metrics, details)."""
    workload = WORKLOADS[args.workload]
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "work": str(work), "ref_seed": args.ref_seed}
    setup_s = ([spawn("setup", spec)["setup_s"] for _ in range(SETUP_PROCESSES)]
               if not args.trace else [])
    result = spawn("run", spec)
    out, ref_out = work / "out", work / "ref"
    problems = []
    lost = 0
    try:
        lost = check_outputs(workload, out)
        check_outputs(workload, ref_out)
        if args.record_reference:
            record_reference(workload, ref_out, REFERENCE / args.workload / f"seed{args.seed}")
        rel_err = max_rel_err(workload, ref_out,
                              REFERENCE / args.workload / f"seed{args.ref_seed}")
    except OutputError as exc:
        problems.append(str(exc))
        rel_err = math.inf
    if rel_err > REL_TOL:
        problems.append(f"outputs differ from the seed-{args.ref_seed} reference "
                        f"(max relative error {rel_err:.3e} > {REL_TOL:.0e})")
    if not result["identical_reruns"]:
        problems.append("repeated runs of the same seed wrote different bytes")
    if any(call.argv[0] != "check" for call in workload.calls):
        lost = sum(result["failures"].values())
    walls = result["walls"]
    wall_s = statistics.median(walls)
    details = {"workload": args.workload, "seed": args.seed, "ref_seed": args.ref_seed,
               "walls_s": walls, "setup_s": setup_s, "draws_per_rep": workload.draws,
               "draws_lost_per_rep": lost, "failures": result["failures"],
               "max_rel_err": rel_err, "problems": problems}
    if args.trace:
        trace = result["trace"]
        metrics = layer_metrics(trace, result["failures"])
        metrics["failed_frac"] = _metric(lost / workload.draws, "ratio")
        metrics["max_rel_err"] = _metric(rel_err, "ratio")
        metrics["trace.overhead_s"] = _metric(statistics.median(
            t - u for t, u in zip(trace["traced_walls"], walls, strict=True)), "s")
        self_total = sum(e["self_s"] for e in trace["layers"].values())
        if abs(self_total - trace["overlap_s"] - trace["root_s"]) > 1e-6 * trace["root_s"]:
            problems.append("span self times do not add up to the traced wall")
        if metrics["experiments.draws_failed"]["value"] != sum(result["failures"].values()):
            problems.append("traced draw failures disagree with the logged failures")
        details["traced_walls_s"] = trace["traced_walls"]
        details["layers"] = trace["layers"]
    else:
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "draws_per_s": _metric(workload.draws / wall_s, "1/s"),
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
    attempted = len(walls) * len(workload.calls)
    details["environment"] = environment(result["environment"])
    return not problems, attempted, attempted if problems else 0, metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ref-seed", type=int, choices=REF_SEEDS, default=REF_SEEDS[0],
                        help="reference seed whose committed outputs are checked "
                             f"({REF_SEEDS[1]} is held out)")
    parser.add_argument("--record-reference", action="store_true",
                        help="write this run's outputs as the reference of --seed")
    args = parser.parse_args()
    if args.record_reference:
        if args.seed not in REF_SEEDS:
            parser.error(f"references are kept for seeds {REF_SEEDS}")
        args.ref_seed = args.seed
    if not (ROOT / "src" / "qcbound" / "cli.py").is_file():
        print(f"error: no qcbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        correct, attempted, failed, metrics, details = measure(args, work)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = declared_metrics(args.trace)
    if sorted(names) != sorted(metrics):
        print("error: reported metrics do not match BENCHMARK.json: "
              f"{sorted(set(names) ^ set(metrics))}", file=sys.stderr)
        return 1
    for problem in details["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps(details, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: metrics[name] for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
