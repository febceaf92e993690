"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 CFL violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .flows import exact_solution
from .harness import (
    ConfigError,
    StudyConfig,
    TriStudyConfig,
    config_from_mapping,
    emit_report,
    report_csv,
    run_study,
    run_tri_study,
    step_count,
)
from .measures import deserialize, project_initial, serialize
from .schemes import CflError, SchemeSpec, run as run_scheme
from .stochastic import (
    empirical_law,
    increment_residual,
    make_kernels,
    propagate_law,
    sample_paths,
    total_variation,
)
from .wasserstein import (
    PiecewiseConstantDensity,
    indicator,
    interpolation_check,
    w1_pair,
)

EXIT_OK, EXIT_CONFIG, EXIT_CFL, EXIT_IO = 0, 2, 3, 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mtlab",
        description="Measure transport schemes and convergence studies.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (StudyConfig schema)")
        p.add_argument("--scheme", help="upwind or rusanov")
        p.add_argument("--example",
                       help="example1, example2, example3, or binomial")
        p.add_argument("--T", type=float, help="final time")
        p.add_argument("--cfl", type=float, help="ratio dt/dx")
        p.add_argument("--ladder", help="comma-separated node counts")
        p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--out", help="output path (prefix for reports)")

    p_run = sub.add_parser("run", help="run one resolution and dump the "
                                       "final measure table")
    common(p_run)
    p_run.add_argument("--N", type=int, default=100, help="node count")

    p_conv = sub.add_parser("convergence", help="run a resolution ladder and "
                                                "fit the convergence order")
    common(p_conv)

    p_mc = sub.add_parser("mc-compare", help="Monte Carlo law vs scheme law "
                                             "per step")
    common(p_mc)
    p_mc.add_argument("--N", type=int, default=50)
    p_mc.add_argument("--paths", type=int, default=10000)

    p_tri = sub.add_parser("tri-run", help="semi-Lagrangian Dirac study on a "
                                           "structured triangulation")
    p_tri.add_argument("--ladder", help="comma-separated mesh resolutions")
    p_tri.add_argument("--T", type=float)
    p_tri.add_argument("--cfl", type=float)
    p_tri.add_argument("--out", help="output path prefix")

    p_dist = sub.add_parser("distance", help="W_p between two measure tables")
    p_dist.add_argument("left", help="measure table file")
    p_dist.add_argument("right", help="measure table file")
    p_dist.add_argument("--p", type=float, default=1.0)

    p_interp = sub.add_parser(
        "interp-check",
        help="L1 vs BV/W1 interpolation ratio on shifted indicators",
    )
    p_interp.add_argument("--eps", default="0.5,0.25,0.125",
                          help="comma-separated shifts")
    p_interp.add_argument("--bound", type=float, default=1.0)
    return ap


def _study_config(args) -> StudyConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for key in ("scheme", "example", "T", "cfl", "seed", "out"):
        val = getattr(args, key, None)
        if val is not None:
            data[key] = val
    if getattr(args, "ladder", None):
        data["ladder"] = [int(v) for v in args.ladder.split(",")]
    return config_from_mapping(data)


def _cmd_run(args) -> int:
    cfg = _study_config(args)
    grid = cfg.grid_for(args.N)
    mu0 = project_initial(cfg.initial(), grid)
    steps = step_count(cfg.T, grid.dt)
    history = run_scheme(mu0, SchemeSpec(cfg.scheme), cfg.field(), steps)
    text = serialize(history[-1])
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_convergence(args) -> int:
    cfg = _study_config(args)
    report = run_study(cfg)
    if cfg.out:
        csv_path, json_path = emit_report(report, cfg.out)
        print(f"wrote {csv_path} and {json_path}")
    else:
        sys.stdout.write(report_csv(report))
    print(f"slope {report.slope:.4f} (rms residual {report.residual:.4f})")
    return EXIT_OK


def _cmd_mc_compare(args) -> int:
    cfg = _study_config(args)
    grid = cfg.grid_for(args.N)
    mu0 = project_initial(cfg.initial(), grid)
    steps = step_count(cfg.T, grid.dt)
    kernels = make_kernels(mu0, SchemeSpec(cfg.scheme), cfg.field(), steps)
    batch = sample_paths(mu0, kernels, args.paths, cfg.seed)
    stats = increment_residual(batch, cfg.field(), grid)
    print("step tv_distance max_mean_residual")
    mu = mu0
    for n in range(steps + 1):
        tv = total_variation(empirical_law(batch, n), mu)
        if n < steps:
            st = stats[n]
            worst = max(
                (float(np.max(np.abs(mean))) for _, mean, _ in
                 st.per_state.values()),
                default=0.0,
            )
            print(f"{n} {tv:.6e} {worst:.6e}")
            mu = propagate_law(mu, [kernels[n]])
        else:
            print(f"{n} {tv:.6e} -")
    return EXIT_OK


def _cmd_tri_run(args) -> int:
    kwargs = {}
    if args.ladder:
        kwargs["ladder"] = tuple(int(v) for v in args.ladder.split(","))
    if args.T is not None:
        kwargs["T"] = args.T
    if args.cfl is not None:
        kwargs["cfl"] = args.cfl
    cfg = TriStudyConfig(**kwargs)
    report = run_tri_study(cfg)
    sys.stdout.write(report_csv(report))
    print(f"slope {report.slope:.4f} (rms residual {report.residual:.4f})")
    if args.out:
        emit_report(report, args.out)
    return EXIT_OK


def _cmd_distance(args) -> int:
    with open(args.left) as fh:
        mu = deserialize(fh.read())
    with open(args.right) as fh:
        nu = deserialize(fh.read())
    print(repr(w1_pair(mu, nu, args.p)))
    return EXIT_OK


def _cmd_interp_check(args) -> int:
    worst = 0.0
    for tok in args.eps.split(","):
        eps = float(tok)
        f = indicator(0.0, 1.0)
        g = indicator(eps, 1.0 + eps)
        ratio, ok = interpolation_check(f, g, args.bound)
        worst = max(worst, ratio)
        print(f"eps={eps!r} ratio={ratio!r} within_bound={ok}")
    print(f"max ratio {worst!r}")
    return EXIT_OK if worst <= args.bound else 1


_COMMANDS = {
    "run": _cmd_run,
    "convergence": _cmd_convergence,
    "mc-compare": _cmd_mc_compare,
    "tri-run": _cmd_tri_run,
    "distance": _cmd_distance,
    "interp-check": _cmd_interp_check,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CflError as exc:
        print(f"CFL error: {exc}", file=sys.stderr)
        return EXIT_CFL
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
