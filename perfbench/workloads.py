"""The benchmark's workloads: which `qcbound` CLI calls make up one repetition.

Every workload passes ``--threads`` explicitly, so an ambient QCBOUND_THREADS
cannot change it, and ``--seed`` is the benchmark's workload seed.  Draw counts
are scaled down from acceptance scale so that one repetition takes a few
seconds and a run of the benchmark holds several repetitions; realization
counts stay high enough that the sweeps' 10% failed-draw abort is out of reach
for every seed (model D at theta <= 0.4 drops roughly one draw in a hundred to
a non-monotone unfold).

Why each workload was chosen is recorded in BENCHMARK.json.  This module is
stdlib-only: the runner imports it without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed of the set-up call.  Set-up only fills lazy caches, so it uses a fixed
# seed: its inputs, and so its cost, do not depend on the workload seed.
WARMUP_SEED = 0

SCATTER_SAMPLES = 1000
SCATTER_MODELS = (
    ("A-N3", ("--model", "A")),
    ("B-N2", ("--model", "B", "--qubits", "2")),
    ("B-N3", ("--model", "B", "--qubits", "3")),
    ("C-GOE-N2", ("--model", "C", "--ensemble", "GOE")),
    ("C-GUE-N2", ("--model", "C", "--ensemble", "GUE")),
    ("B-N7", ("--model", "B", "--qubits", "7")),
)

THETA_POINTS, THETA_REALIZATIONS = 16, 50
DEFECT_POINTS, DEFECT_REALIZATIONS, DEFECT_QUBITS, DEFECT_THREADS = 8, 8, 9, 2


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its output subdirectory, argv without --seed/--out,
    the output files it must write, and the draws it attempts.  A sweep also
    names its grid points and realizations per point."""

    tag: str
    argv: tuple
    outputs: tuple
    draws: int
    points: int = 0
    realizations: int = 0


@dataclass(frozen=True)
class Workload:
    """The calls of one timed repetition, and the set-up calls that fill the
    lazy caches for the same sizes."""

    calls: tuple
    warmup: tuple

    @property
    def draws(self) -> int:
        return sum(c.draws for c in self.calls)


def _check(samples: int) -> tuple:
    return tuple(
        Call(tag, ("check", *flags, "--samples", str(samples), "--threads", "1"),
             ("records.csv", "summary.json"), samples)
        for tag, flags in SCATTER_MODELS
    )


def _theta(points: int, realizations: int) -> tuple:
    argv = ("sweep-theta", "--points", str(points), "--realizations", str(realizations),
            "--dim", "128", "--threads", "1")
    return (Call("theta", argv, ("theta_sweep.csv",), points * realizations,
                 points, realizations),)


def _defect(points: int, realizations: int) -> tuple:
    argv = ("sweep-defect", "--qubits", str(DEFECT_QUBITS), "--points", str(points),
            "--realizations", str(realizations), "--threads", str(DEFECT_THREADS))
    return (Call("defect", argv, ("defect_sweep.csv",), points * realizations,
                 points, realizations),)


WORKLOADS = {
    "scatter": Workload(calls=_check(SCATTER_SAMPLES), warmup=_check(1)),
    "theta-d128": Workload(calls=_theta(THETA_POINTS, THETA_REALIZATIONS),
                           warmup=_theta(2, 10)),
    "defect-n9": Workload(calls=_defect(DEFECT_POINTS, DEFECT_REALIZATIONS),
                          warmup=_defect(2, 4)),
}
