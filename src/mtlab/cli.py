"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 CFL violation, 4 I/O error
(a bad file, or measure tables too large for the exact solver).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .flows import EXAMPLES
from .harness import (
    ConfigError,
    StudyConfig,
    TriStudyConfig,
    config_from_mapping,
    emit_report,
    report_csv,
    run_study,
)
from .measures import deserialize, serialize, uniform
from .schemes import CflError, SchemeSpec, run_last
from .stochastic import (
    empirical_law,
    increment_residual,
    make_kernels,
    propagate_law,
    sample_paths,
    total_variation,
)
from .wasserstein import (
    ScaleError,
    check_order,
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
        p.add_argument("--example", help=", ".join(EXAMPLES))
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


def _numbers(text: str, kind: type, flag: str) -> tuple:
    """A comma-separated option as a tuple of `kind`; ConfigError if a token
    does not parse."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(
            f"{flag} must be comma-separated {kind.__name__}s, not {text!r}"
        ) from None


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
        data["ladder"] = _numbers(args.ladder, int, "--ladder")
    return config_from_mapping(data)


def _cmd_run(args) -> int:
    cfg = _study_config(args)
    _, mu0, steps = cfg.start(args.N)
    # keep only the current window: a whole history is O(steps) measures
    mu = run_last(mu0, SchemeSpec(cfg.scheme), cfg.field(), steps)
    text = serialize(mu)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _report_study(cfg: StudyConfig | TriStudyConfig, out: str | None) -> int:
    """Run the study, print its CSV or write its reports next to `out`."""
    report = run_study(cfg)
    if out:
        csv_path, json_path = emit_report(report, out)
        print(f"wrote {csv_path} and {json_path}")
    else:
        sys.stdout.write(report_csv(report))
    print(f"slope {report.slope:.4f} (rms residual {report.residual:.4f})")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    cfg = _study_config(args)
    return _report_study(cfg, cfg.out)


def _cmd_mc_compare(args) -> int:
    cfg = _study_config(args)
    if args.paths < 1:
        raise ConfigError(f"--paths must be positive, not {args.paths}")
    grid, mu0, steps = cfg.start(args.N)
    kernels = make_kernels(mu0, SchemeSpec(cfg.scheme), cfg.field(), steps)
    batch = sample_paths(mu0, kernels, args.paths, cfg.seed)
    stats = increment_residual(batch, cfg.field(), grid)
    print("step tv_distance max_mean_residual max_residual_per_stderr "
          "max_abs_h_per_2dx")
    mu = mu0
    for n in range(steps + 1):
        tv = total_variation(empirical_law(batch, n), mu)
        if n < steps:
            st = stats[n]
            means = [(float(np.max(np.abs(mean))), stderr)
                     for _, mean, stderr in st.per_state.values()]
            worst = max((m for m, _ in means), default=0.0)
            worst_se = max((m / se for m, se in means if se > 0.0), default=0.0)
            print(f"{n} {tv:.6e} {worst:.6e} {worst_se:.6e} "
                  f"{st.max_abs_h / (2 * grid.dx[0]):.6e}")
            mu = propagate_law(mu, [kernels[n]])
        else:
            print(f"{n} {tv:.6e} - - -")
    return EXIT_OK


def _cmd_tri_run(args) -> int:
    kwargs = {k: getattr(args, k) for k in ("T", "cfl") if getattr(args, k) is not None}
    if args.ladder:
        kwargs["ladder"] = _numbers(args.ladder, int, "--ladder")
    return _report_study(TriStudyConfig(**kwargs), args.out)


def _cmd_distance(args) -> int:
    try:
        check_order(args.p)
    except ValueError as exc:
        raise ConfigError(f"--p: {exc}") from None
    with open(args.left) as fh:
        mu = deserialize(fh.read())
    with open(args.right) as fh:
        nu = deserialize(fh.read())
    print(repr(w1_pair(mu, nu, args.p)))
    return EXIT_OK


def _cmd_interp_check(args) -> int:
    shifts = _numbers(args.eps, float, "--eps")
    if not all(map(math.isfinite, shifts + (args.bound,))):
        raise ConfigError(f"non-finite --eps {args.eps!r} or --bound {args.bound!r}")
    for eps in shifts:
        # a shift so large that 1 + eps rounds changes the width of the
        # shifted density, so the check would read a different density
        width = (1.0 + eps) - eps
        if abs(width - 1.0) > 1e-9:
            raise ConfigError(f"--eps {eps!r}: [eps, 1 + eps) has width {width!r}, "
                              "not 1, in floating point")
    worst = 0.0
    for eps in shifts:
        ratio, ok = interpolation_check(uniform(0.0, 1.0), uniform(eps, 1.0 + eps),
                                        args.bound)
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
    except (OSError, json.JSONDecodeError, ValueError, ScaleError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
