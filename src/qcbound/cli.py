"""Command-line front end: binds run configurations to experiments and writes
plot-ready CSV/JSON outputs plus a reproducibility manifest.

Output schemas (column order fixed, floats written with 17 significant digits):

    records.csv       sample_seed,dq_abs,k0,b,b_prime,delta
    theta_sweep.csv   theta,gamma_mean,gamma_stderr,b_mean,b_stderr,n_kept,n_trimmed
    defect_sweep.csv  d,gamma_mean,gamma_stderr,b_mean,b_stderr,q_mean,q_stderr,n_kept,n_trimmed
    summary.json      scatter-run headline numbers (violation counts, b, b')
    stats.json        Weibull fit parameters and the chaos parameter
    manifest.json     resolved configuration, seeds, RNG id, output digests

Exit codes: 0 success, 2 configuration/validation error, a Hamiltonian that
overflows (the error names the flags that set its scale) or an eigensolver
that did not converge, 3 bound-violation detected by `check`.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .curvature import ensemble_deltaQ_ratios
from .ensembles import RNG_ALGORITHM
from .experiments import (
    STATS_SOURCES,
    ExperimentError,
    scatter_bound_test,
    spacing_statistics,
    sweep_defect,
    sweep_theta,
)
from .level_stats import MIN_FIT_SPACINGS, MIN_UNFOLD_LEVELS, gamma_chaos
from .models import (
    MODEL_D_CHAOTIC_SCALE,
    MODEL_D_DEFAULT_DIM,
    MODEL_E_DEFAULT_FIELD,
    ModelConfig,
    NonFiniteHamiltonianError,
)

__all__ = ["main", "entry_point"]

# The flags that set the scale of the Hamiltonian a subcommand can overflow
SCALE_FLAGS = {
    "check": "--lambda or --a-coeffs",
    "sweep-defect": "--d-max, --h or --J",
    "stats": "--d-value, --h or --J",
}

# --a-choice: the overlap half-width a of b' as a function of the qubit count
A_VALUES = {"1/2^N": lambda n: 2.0**-n, "1/N": lambda n: 1.0 / n}


class CliError(Exception):
    """Configuration problem; maps to exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, master_seed: int, config: dict, outputs: list) -> None:
    """manifest.json: everything needed to bit-reproduce a run, and the
    SHA-256 digests of its outputs."""
    _write_json(out_dir / "manifest.json", {
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "master_seed": master_seed,
        "rng_algorithm": RNG_ALGORITHM,
        "config": config,
        "outputs": {p.name: _sha256(p) for p in outputs},
    })


def _finite_float(value) -> float:
    """A finite number: the type of every float flag and --a-coeffs entry, also
    applied to config values (json.loads accepts NaN and Infinity)."""
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value!r}")
    return number


def _coefficients(value) -> tuple:
    """--a-coeffs: comma-separated numbers, or a config file's list of them."""
    items = value.split(",") if isinstance(value, str) else value
    return tuple(_finite_float(v) for v in items)


# JSON types a config value may have for a flag of the given argparse type;
# every other flag takes a string.
_CONFIG_TYPES = {int: (int,), _finite_float: (int, float)}


def _config_value(action: argparse.Action, key: str, value):
    """``value`` checked and converted as argparse does for the flag: of the
    flag's type and among its choices.  --a-coeffs also takes a list of numbers."""
    if action.type is _coefficients and isinstance(value, list):
        items, kinds = value, (int, float)
    else:
        items, kinds = [value], _CONFIG_TYPES.get(action.type, (str,))
    valid = all(isinstance(v, kinds) and not isinstance(v, bool) for v in items)
    if not valid or (action.choices is not None and value not in action.choices):
        expected = (f"one of {list(action.choices)}" if action.choices is not None
                    else " or ".join(kind.__name__ for kind in kinds))
        raise CliError(f"config key {key!r}: expected {expected}, got {value!r}")
    try:
        return value if action.type is None else action.type(value)
    except argparse.ArgumentTypeError as exc:
        raise CliError(f"config key {key!r} ({action.option_strings[0]}): {exc}") from None


def _load_config_file(args) -> dict:
    """The ``{dest: value}`` pairs of the JSON config file ``args.config``,
    each checked against the subcommand's flag of that name."""
    try:
        payload = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CliError("config file must hold a JSON object")
    flags = {a.dest: a for a in args.parser._actions if a.dest not in ("help", "config")}
    values = {}
    for key, value in payload.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise CliError(f"unknown config key {key!r}")
        values[action.dest] = _config_value(action, key, value)
    return values


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    if args.samples < 1:
        raise CliError("--samples must be a positive integer")
    config = ModelConfig(
        family=args.model,
        n_qubits=args.qubits or 0,
        ensemble=args.ensemble,
        a_coeffs=args.a_coeffs,
        lam=args.lam,
    )
    result = scatter_bound_test(
        config,
        samples=args.samples,
        master_seed=args.seed,
        a_value=A_VALUES[args.a_choice](config.n_qubits),
    )
    out = _out_dir(args)
    records_path = out / "records.csv"
    _write_csv(
        records_path,
        ["sample_seed", "dq_abs", "k0", "b", "b_prime", "delta"],
        [
            [str(seed), _fmt(dq_abs), _fmt(k0), _fmt(result.b), _fmt(result.b_prime), _fmt(delta)]
            for seed, dq_abs, k0, delta in zip(result.seeds, result.dq_abs, result.k0, result.delta)
        ],
    )
    summary_path = out / "summary.json"
    _write_json(
        summary_path,
        {
            "model": config.tag,
            "samples_requested": args.samples,
            "samples_recorded": len(result.seeds),
            "rejected": result.n_rejected,
            "violations_b": result.violations_b,
            "violations_b_prime": result.violations_b_prime,
            "b": result.b,
            "b_prime": result.b_prime,
            "a_choice": args.a_choice,
        },
    )
    config_dict = {
        "subcommand": "check",
        "model": asdict(config),
        "samples": args.samples,
        "a_choice": args.a_choice,
    }
    _write_manifest(out, args.seed, config_dict, [records_path, summary_path])
    print(
        f"{config.tag}: {len(result.seeds)} samples, "
        f"violations_b={result.violations_b}, "
        f"violations_b_prime={result.violations_b_prime}"
    )
    if result.violations_b > 0:
        print("bound violation detected: |dQ0/dtau| exceeded b sqrt|K0|", file=sys.stderr)
        return 3
    return 0


def _check_unfolding(args) -> None:
    """Reject unfolding settings that would fail every draw, before any draw."""
    if args.unfold_degree < 1:
        raise CliError("--unfold-degree must be at least 1")
    if not 0.0 <= args.unfold_trim < 0.5:
        raise CliError("--unfold-trim must lie in [0, 0.5)")


def _check_spectrum_size(args, chain: bool, pooled: str | None) -> None:
    """Reject, before any draw, a spectrum too small to unfold: ``--dim``
    levels, or for the defect chain C(N, N // 2) levels in the restricted
    sector and 2^N with ``--sector full``; and a pooled fit, whose draws are
    counted by the flag ``pooled``, of fewer than MIN_FIT_SPACINGS spacings,
    with L - 2 floor(trim L) - 1 of them from a draw of L levels."""
    if chain:
        n = max(args.qubits, 0)
        levels = 2**n if args.sector == "full" else math.comb(n, n // 2)
        flag = f"--qubits {args.qubits} (--sector {args.sector})"
    else:
        levels, flag = args.dim, f"--dim {args.dim}"
    if levels < MIN_UNFOLD_LEVELS:
        raise CliError(f"{flag} gives {levels} levels to unfold; "
                       f"unfolding needs at least {MIN_UNFOLD_LEVELS}")
    if pooled is None:
        return
    draws = getattr(args, pooled[2:])
    spacings = draws * (levels - 2 * math.floor(args.unfold_trim * levels) - 1)
    if spacings < MIN_FIT_SPACINGS:
        raise CliError(f"{pooled} {draws} with {flag}, --unfold-trim {args.unfold_trim:g} gives "
                       f"{spacings} spacings; a pooled fit needs at least {MIN_FIT_SPACINGS}")


def _check_sweep_size(args) -> str | None:
    """Reject bad sweep sizes; return the flag that counts the draws of the
    pooled fit, None in per-realization mode (each draw fits alone)."""
    if args.points < 2:
        raise CliError("--points must be at least 2")
    if args.realizations < 4:
        raise CliError("--realizations must be at least 4 (outlier trimming)")
    if not args.outlier_k >= 0.0:  # a negative k can trim every draw
        raise CliError("--outlier-k must be non-negative")
    _check_unfolding(args)
    return "--realizations" if args.gamma_mode == "pooled" else None


def _write_sweep(args, rows: list, kind: str, param_column: str, config: dict) -> None:
    """Write ``<kind>_sweep.csv``, with the q columns when the rows carry Q,
    and the manifest of the sweep's resolved configuration."""
    floats = ["gamma_mean", "gamma_stderr", "b_mean", "b_stderr"]
    if rows[0].q_mean is not None:
        floats += ["q_mean", "q_stderr"]
    out = _out_dir(args)
    csv_path = out / f"{kind}_sweep.csv"
    _write_csv(
        csv_path,
        [param_column, *floats, "n_kept", "n_trimmed"],
        [[_fmt(r.param), *(_fmt(getattr(r, name)) for name in floats),
          str(r.n_kept), str(r.n_trimmed)] for r in rows],
    )
    config_dict = {
        "subcommand": args.subcommand,
        "points": args.points,
        "realizations": args.realizations,
        "unfolding": {"degree": args.unfold_degree, "edge_trim": args.unfold_trim},
        "outlier_k": args.outlier_k,
        "gamma_mode": args.gamma_mode,
        **config,
    }
    _write_manifest(out, args.seed, config_dict, [csv_path])
    print(f"{kind} sweep: {len(rows)} rows -> {csv_path}")


def _cmd_sweep_theta(args) -> int:
    _check_spectrum_size(args, chain=False, pooled=_check_sweep_size(args))
    rows = sweep_theta(
        np.linspace(0.0, math.pi / 2.0, args.points),
        realizations=args.realizations,
        master_seed=args.seed,
        dim=args.dim,
        chaotic_scale=args.chaotic_scale,
        poly_degree=args.unfold_degree,
        edge_trim=args.unfold_trim,
        outlier_k=args.outlier_k,
        per_realization_gamma=(args.gamma_mode == "per-realization"),
    )
    _write_sweep(args, rows, "theta", "theta",
                 {"dim": args.dim, "chaotic_scale": args.chaotic_scale})
    return 0


def _cmd_sweep_defect(args) -> int:
    pooled = _check_sweep_size(args)
    if args.d_max <= 0:
        raise CliError("--d-max must be positive")
    _check_spectrum_size(args, chain=True, pooled=pooled)
    rows = sweep_defect(
        np.linspace(0.0, args.d_max, args.points),
        realizations=args.realizations,
        n_qubits=args.qubits,
        h=args.h,
        J=args.coupling,
        master_seed=args.seed,
        sector_restricted=(args.sector == "restricted"),
        poly_degree=args.unfold_degree,
        edge_trim=args.unfold_trim,
        outlier_k=args.outlier_k,
        per_realization_gamma=(args.gamma_mode == "per-realization"),
    )
    _write_sweep(args, rows, "defect", "d", {
        "d_max": args.d_max,
        "n_qubits": args.qubits,
        "h": args.h,
        "J": args.coupling,
        "sector": args.sector,
    })
    return 0


def _cmd_stats(args) -> int:
    if args.draws < 1:
        raise CliError("--draws must be positive")
    _check_unfolding(args)
    _check_spectrum_size(args, chain=args.source == "E", pooled="--draws")
    fit, n_failed = spacing_statistics(
        args.source,
        args.draws,
        master_seed=args.seed,
        dim=args.dim,
        theta=args.theta,
        d=args.d_value,
        n_qubits=args.qubits,
        h=args.h,
        J=args.coupling,
        sector_restricted=(args.sector == "restricted"),
        poly_degree=args.unfold_degree,
        edge_trim=args.unfold_trim,
    )
    gamma = gamma_chaos(fit)
    out = _out_dir(args)
    stats_path = out / "stats.json"
    _write_json(
        stats_path,
        {
            "source": args.source,
            "draws": args.draws,
            "draws_failed": n_failed,
            "n_spacings": fit.n_samples,
            "weibull_a": fit.a,
            "weibull_c": fit.c,
            "log_likelihood": fit.log_likelihood,
            "n_floored": fit.n_floored,
            "gamma": gamma,
        },
    )
    config_dict = {
        "subcommand": "stats",
        "source": args.source,
        "draws": args.draws,
        "dim": args.dim,
        "theta": args.theta,
        "d_value": args.d_value,
        "n_qubits": args.qubits,
        "h": args.h,
        "J": args.coupling,
        "sector": args.sector,
        "unfolding": {"degree": args.unfold_degree, "edge_trim": args.unfold_trim},
    }
    _write_manifest(out, args.seed, config_dict, [stats_path])
    print(f"{args.source}: weibull a={fit.a:.5f} c={fit.c:.5f} gamma={gamma:.5f}")
    return 0


def _cmd_report_ensembles(args) -> int:
    report = ensemble_deltaQ_ratios()
    print(f"<sqrt|K|> GOE = {report.mean_sqrtK_goe:.6f}")
    print(f"<sqrt|K|> GUE = {report.mean_sqrtK_gue:.6f}")
    print(f"<sqrt|K|> GSE = {report.mean_sqrtK_gse:.6f}")
    print(f"DQ_GOE/DQ_GUE = {report.ratio_goe_gue:.2f}")
    print(f"DQ_GOE/DQ_GSE = {report.ratio_goe_gse:.2f}")
    out = _out_dir(args)
    _write_manifest(out, args.seed, {"subcommand": "report-ensembles"}, [])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    """Add the flags every subcommand takes."""
    p.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    p.add_argument("--out", type=str, default=".",
                   help="output directory (default %(default)s)")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored: no option sets a "
                        "thread count, and no output depends on one")
    p.add_argument("--config", type=str, default=None,
                   help="JSON config file whose values become this subcommand's "
                        "defaults; flags win on conflict")
    p.set_defaults(parser=p)


def _add_unfolding_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--unfold-degree", dest="unfold_degree", type=int, default=6)
    p.add_argument("--unfold-trim", dest="unfold_trim", type=_finite_float, default=0.05)


def _add_sweep_flags(p: argparse.ArgumentParser, points: int) -> None:
    p.add_argument("--points", type=int, default=points)
    p.add_argument("--realizations", type=int, default=100)
    _add_unfolding_flags(p)
    p.add_argument("--outlier-k", dest="outlier_k", type=_finite_float, default=1.5)
    p.add_argument("--gamma-mode", dest="gamma_mode",
                   choices=["pooled", "per-realization"], default="pooled")


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    """The defect chain's flags, shared by sweep-defect and stats --source E."""
    p.add_argument("--qubits", type=int, default=9)
    p.add_argument("--h", type=_finite_float, default=MODEL_E_DEFAULT_FIELD,
                   help="homogeneous field")
    p.add_argument("--J", dest="coupling", type=_finite_float, default=1.0, help="bond coupling")
    p.add_argument("--sector", choices=["restricted", "full"], default="restricted",
                   help="spacing statistics within the largest sigma_z sector or the full spectrum")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcbound",
        description="Entanglement-rate curvature bound: scatter tests, chaos sweeps, reports.",
    )
    parser.add_argument("--version", action="version", version=f"qcbound {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="scatter test of the bound over perturbation draws")
    p.add_argument("--model", required=True, choices=["A", "B", "C"])
    p.add_argument("--qubits", type=int, default=None,
                   help="qubit count (default: the model family's own)")
    p.add_argument("--ensemble", choices=["GOE", "GUE"], default="GUE",
                   help="perturbation ensemble for model C")
    p.add_argument("--samples", type=int, default=3000)
    p.add_argument("--a-choice", dest="a_choice", choices=list(A_VALUES), default="1/2^N")
    p.add_argument("--a-coeffs", dest="a_coeffs", type=_coefficients, default="0.1,0.2,0.3",
                   help="model A field coefficients, comma separated")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=0.5,
                   help="model A coupling strength")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep-theta", help="chaos/bound sweep of the Poisson-GOE rotation")
    p.add_argument("--dim", type=int, default=MODEL_D_DEFAULT_DIM)
    p.add_argument("--chaotic-scale", dest="chaotic_scale", type=_finite_float,
                   default=MODEL_D_CHAOTIC_SCALE)
    _add_sweep_flags(p, points=16)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep_theta)

    p = sub.add_parser("sweep-defect", help="chaos/bound/entanglement sweep of the defect chain")
    p.add_argument("--d-max", dest="d_max", type=_finite_float, default=2.5)
    _add_chain_flags(p)
    _add_sweep_flags(p, points=26)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep_defect)

    p = sub.add_parser("stats", help="spacing-distribution fit and chaos parameter")
    p.add_argument("--source", required=True, choices=list(STATS_SOURCES))
    p.add_argument("--dim", type=int, default=MODEL_D_DEFAULT_DIM)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--theta", type=_finite_float, default=math.pi / 2.0,
                   help="rotation angle for source D")
    p.add_argument("--d-value", dest="d_value", type=_finite_float, default=0.25,
                   help="defect strength for source E")
    _add_chain_flags(p)
    _add_unfolding_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("report-ensembles", help="mean sqrt-curvature ratios across ensembles")
    _add_common(p)
    p.set_defaults(func=_cmd_report_ensembles)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults, so flags still win
            args.parser.set_defaults(**_load_config_file(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except NonFiniteHamiltonianError as exc:
        print(f"error: {exc}; lower {SCALE_FLAGS[args.subcommand]}", file=sys.stderr)
        return 2
    except (CliError, ValueError, ExperimentError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
