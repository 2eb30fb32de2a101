"""Workload process of the benchmark; started by run.py with PYTHONPATH=src.

    child.py setup SPEC   import qcbound and make the workload's set-up call,
                          timing both (the set-up cost of a fresh process)
    child.py run SPEC     set up, run the workload once at the reference seed,
                          then repeat it at the workload seed for the measured
                          time, untraced and (with trace) traced

SPEC is a JSON object with the keys workload, seed, seconds, trace, work and
ref_seed.  The result is written as JSON to <work>/<mode>.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WARMUP_SEED, WORKLOADS  # noqa: E402


class FailureCounter(logging.Handler):
    """Counts per-draw failure warnings of qcbound.experiments by exception type.

    Every such warning carries the exception as its last argument.  Attaching
    a handler also keeps them off stderr (no last-resort handler).
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        exc = record.args[-1] if record.args else None
        self.counts[type(exc).__name__ if isinstance(exc, Exception) else "other"] += 1


def run_rep(cli, calls, seed: int, out: Path) -> float:
    """Run one repetition of the calls; return the summed CLI wall time."""
    wall = 0.0
    for call in calls:
        argv = [*call.argv, "--seed", str(seed), "--out", str(out / call.tag)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            wall += time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"qcbound {' '.join(argv)} exited with code {code}")
    return wall


def digest(calls, out: Path) -> str:
    h = hashlib.sha256()
    for call in calls:
        for name in call.outputs:
            h.update((out / call.tag / name).read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def setup(spec: dict, work: Path) -> dict:
    start = time.perf_counter()
    from qcbound import cli

    run_rep(cli, WORKLOADS[spec["workload"]].warmup, WARMUP_SEED, work / "setup")
    return {"setup_s": time.perf_counter() - start}


def run(spec: dict, work: Path) -> dict:
    from qcbound import cli

    from tracer import Tracer, summarize

    workload = WORKLOADS[spec["workload"]]
    seed, budget, trace = spec["seed"], spec["seconds"], spec["trace"]
    failures = FailureCounter()
    logging.getLogger("qcbound.experiments").addHandler(failures)
    run_rep(cli, workload.warmup, WARMUP_SEED, work / "setup")
    # One untimed full repetition at the reference seed, whose outputs the
    # runner checks; it also brings the process to a steady state.
    run_rep(cli, workload.calls, spec["ref_seed"], work / "ref")

    out = work / "out"
    digests = set()
    tracer = Tracer()

    def rep(traced: bool) -> float:
        if traced:
            tracer.install()
        try:
            return run_rep(cli, workload.calls, seed, out)
        finally:
            tracer.uninstall()
            digests.add(digest(workload.calls, out))

    # With trace on, traced and untraced repetitions alternate, so drift in
    # machine speed does not bias the tracing overhead.
    failures.counts.clear()
    walls, traced_walls, start = [], [], time.perf_counter()
    while not walls or time.perf_counter() - start < budget:
        walls.append(rep(False))
        if trace:
            traced_walls.append(rep(True))
    reps = len(walls) + len(traced_walls)
    result = {
        "walls": walls,
        "failures": {k: v / reps for k, v in failures.counts.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        layers, root_s, overlap_s = summarize(tracer.spans)
        reps = len(traced_walls)
        draws = sorted(t1 - t0 for name, t0, t1, _, _ in tracer.spans
                       if name == "experiments.draw")
        result["trace"] = {
            "traced_walls": traced_walls,
            "root_s": root_s / reps,
            "overlap_s": overlap_s / reps,
            "layers": {name: {k: v / reps for k, v in entry.items()}
                       for name, entry in layers.items()},
            "draw_ms": [1e3 * draws[int(q * (len(draws) - 1))] for q in (0.5, 0.99)]
            if draws else [0.0, 0.0],
            "draw_loop_threads_s": sum(
                threads * (t1 - t0) for name, t0, t1, _, threads in tracer.spans
                if name == "experiments.draw_loop"
            ) / reps,
        }
    result["identical_reruns"] = len(digests) == 1
    result["environment"] = environment()
    return result


def main() -> None:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    work = Path(spec["work"])
    result = setup(spec, work) if mode == "setup" else run(spec, work)
    (work / f"{mode}.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
