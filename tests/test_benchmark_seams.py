"""The benchmark's span tracer (perfbench/tracer.py) still fits the package.

The tracer patches or reads named seams of qcbound: the ``__post_init__`` of
``HermitianOperator`` and ``EntanglementInputs``, ``experiments._run_indexed``
and ``_aggregate_row``, the module-level ``experiments.np``,
``level_stats._fit_counting_function``, and the argument shapes of
``eigensystem(op)`` (``op.dim``) and ``weibull_fit(sample)`` (``len``).
Renaming or removing one of them breaks traced benchmark runs, so this test
runs the tracer, unmodified, over tiny versions of the benchmark's calls.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qcbound import cli, experiments, level_stats
from qcbound.entanglement import EntanglementInputs
from qcbound.quantum import HermitianOperator

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


CALLS = [
    ("check", ["check", "--model", "B", "--qubits", "3", "--samples", "5",
               "--threads", "1"],
     {"quantum.eigensystem", "quantum.HermitianOperator", "experiments.draw"}),
    ("sweep-theta", ["sweep-theta", "--points", "2", "--realizations", "4",
                     "--dim", "128", "--threads", "1"],
     {"experiments.eigvalsh", "level_stats.weibull_fit", "experiments.aggregate"}),
    ("sweep-defect", ["sweep-defect", "--qubits", "7", "--points", "2",
                      "--realizations", "4", "--threads", "2"],
     {"experiments.eigvalsh", "level_stats.weibull_fit", "experiments.aggregate"}),
]


@pytest.mark.parametrize("name,argv,expected", CALLS, ids=[c[0] for c in CALLS])
def test_tracer_runs_over_cli(tracer_module, tmp_path, capsys, name, argv, expected):
    originals = (
        HermitianOperator.__post_init__, EntanglementInputs.__post_init__,
        experiments._run_indexed, experiments._aggregate_row, experiments.np,
        level_stats._fit_counting_function, cli.main,
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = cli.main([*argv, "--seed", "0", "--out", str(tmp_path / name)])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert tracer.spans
    stats, root_s, _ = tracer_module.summarize(tracer.spans)
    assert stats["cli.main"]["calls"] == 1 and root_s > 0
    assert stats["experiments.draw_loop"]["calls"] >= 1
    assert expected <= stats.keys()
    assert originals == (
        HermitianOperator.__post_init__, EntanglementInputs.__post_init__,
        experiments._run_indexed, experiments._aggregate_row, experiments.np,
        level_stats._fit_counting_function, cli.main,
    )
    assert experiments.np is np
