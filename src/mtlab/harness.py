"""Convergence studies, order regression, and report emission.

A study runs one scheme over a ladder of resolutions on a fixed box, measures
the distance to the exact solution at every step, keeps the per-resolution
maximum, and fits the order of convergence by least squares on the log-log
cloud.  One loop, `run_resolution`, runs a resolution of either study with
the stepper its config supplies, and one window step, `schemes._advance`
(which `schemes.run` uses too), moves both: a dense window (lo, box) of grid
nodes in any d, stepped by `apply_window` along the rows and moves its
config gives, pruned under a fixed budget of dropped mass and trimmed to its
nonzero bounding box.  A grid study gives the scheme's rows (computed once,
on every node the run can reach, for a field constant in time), a
triangulated study the semi-Lagrangian rows of its speed
(`simplex.kuhn_rows`).  `CERTIFIED` is the one table of the studies that
certify the paper's claims, each with the window its fitted order must lie in.

`run_study` is the one runner of both studies.  The resolutions of a ladder
are independent runs from the same datum, so it may run every one but the
finest in a `ProcessPoolExecutor` of forked workers (one process per CPU in
the affinity set, at most one per resolution), largest first, while the
calling process runs the finest, so a trace of the calling process still sees
one resolution of each study.  The ladder's step count, not the caller, picks
the lane (`_worker_count`): a study too small to repay a worker runs
serially, as does any study where workers cannot be forked safely.  Workers
are forked, not spawned, because a spawned worker would import numpy and
mtlab afresh, which costs about as much as a default study.  The rows are the
numbers the serial loop gives, in ladder order; a failing study raises the
exception of its smallest failing N, with a worker's traceback chained as its
cause.  No worker outlives `run_study`.  `ResolutionRow.runtime_s` is the
wall time of one resolution in the process that ran it, so the rows of a
study may sum to more than the study's wall time.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import re
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import __version__
from .flows import EXAMPLES, ExactSolution, exact_solution
from .measures import (
    AnalyticMeasure,
    CartesianGrid,
    DiscreteMeasure,
    QuantileFunction,
    project_initial,
)
from .schemes import (
    _MAX_WINDOW_CELLS,
    CflReport,
    SchemeSpec,
    _advance,
    _scatter,
    check_cfl,
    measure_arrays,
    transition_rows,
    window_cells,
)
from .simplex import kuhn_moves, kuhn_rows, w1_to_point
from .velocity import VelocityField
from .wasserstein import check_order, l1_grid_vs_pieces, wp_1d

DEFAULT_LADDER = (100, 200, 400, 800, 1600, 3200)
DEFAULT_DOMAIN = (-2.5, 2.5)

_WP_RE = re.compile(r"wp\(([^)]+)\)")
# the most steps one resolution may take, about 4x the 2,560 of the finest
# certified one: on a 2-core host `mtlab run` took 1.6 s for 10^4 steps, and
# `mtlab mc-compare` 8.5 s (263 MB peak) for 2,560 steps and 58 s (927 MB)
# for 10^4 at 1,000 paths; 2*10^6 and 10^6 steps ran past 5 s unanswered.
_MAX_STEPS = 10_000


class ConfigError(ValueError):
    """Invalid study configuration."""


def _distance_order(distance: str) -> float | None:
    """Order p of a distance name; ConfigError unless it is "l1", "w1" or
    "wp(p)" with a finite p >= 1."""
    if distance == "l1":
        return None
    if distance == "w1":
        return 1.0
    match = _WP_RE.fullmatch(distance) if isinstance(distance, str) else None
    if not match:
        raise ConfigError(f"unknown distance {distance!r}")
    try:
        p = float(match.group(1))
        check_order(p)
    except ValueError as exc:
        raise ConfigError(f"distance {distance!r}: {exc}") from None
    return p


def _finite_floats(values, n: int) -> tuple[float, ...] | None:
    """values as a tuple of n finite floats, or None if it is not one; a
    bool or a string is no number here, as in the ladder and seed rules."""
    try:
        values = tuple(values)
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        return None
    if any(isinstance(v, (bool, str)) for v in values):
        return None
    return out if len(out) == n and all(map(math.isfinite, out)) else None


def _set_real(cfg, name: str, admit, rule: str) -> None:
    """Store field `name` of cfg as a finite float (`_finite_floats`);
    ConfigError "<rule>, not <value>" unless admit accepts it."""
    value = getattr(cfg, name)
    x = _finite_floats((value,), 1)
    if x is None or not admit(x[0]):
        raise ConfigError(f"{rule}, not {value!r}")
    object.__setattr__(cfg, name, x[0])


def _ladder_of(values) -> tuple[int, ...]:
    """A resolution ladder as a tuple of ints; ConfigError unless it is a
    nonempty, strictly increasing sequence of positive whole numbers."""
    try:
        ladder = tuple(values)
        whole = [int(n) for n in ladder]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"resolution ladder must be a list of integers, not {values!r}"
        ) from None
    if any(isinstance(n, bool) or k != n for k, n in zip(whole, ladder)):
        raise ConfigError(f"resolutions must be whole numbers, not {values!r}")
    if not whole:
        raise ConfigError("resolution ladder must be nonempty")
    if any(n <= 0 for n in whole):
        raise ConfigError("resolutions must be positive")
    if any(b <= a for a, b in zip(whole, whole[1:])):
        raise ConfigError("resolution ladder must be strictly increasing")
    return tuple(whole)


@dataclass(frozen=True)
class StudyConfig:
    """Everything a convergence study needs, in one validated record.

    `order` (not a field) is the order p of the distance: 1 for "w1", p for
    "wp(p)", None for "l1".
    """

    example: str = "example1"
    scheme: str = "upwind"
    T: float = 2.0
    ladder: tuple[int, ...] = DEFAULT_LADDER
    cfl: float = 0.5
    distance: str = "w1"
    domain: tuple[float, float] = DEFAULT_DOMAIN
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "ladder", _ladder_of(self.ladder))
        domain = _finite_floats(self.domain, 2)
        if domain is None or domain[1] <= domain[0]:
            raise ConfigError(
                f"domain must be a finite nonempty interval, not {self.domain!r}"
            )
        object.__setattr__(self, "domain", domain)
        if not isinstance(self.example, str) or self.example not in EXAMPLES:
            raise ConfigError(f"unknown example {self.example!r}")
        try:
            SchemeSpec(self.scheme)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        _set_real(self, "T", lambda x: x > 0.0, "final time must be positive and finite")
        _set_real(self, "cfl", lambda x: x > 0.0, "CFL ratio must be positive and finite")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ConfigError(f"seed must be a nonnegative integer, not {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if not (self.out is None or isinstance(self.out, str)):
            raise ConfigError(f"out must be a path, not {self.out!r}")
        object.__setattr__(self, "order", _distance_order(self.distance))
        # only the field bound is checked up front; scheme-specific CFL
        # (e.g. the doubled Rusanov coefficient bound) is checked at run time
        if not CflReport.of(self.field().a_inf * self.cfl).satisfied:
            raise ConfigError(
                f"CFL ratio {self.cfl} with field bound "
                f"{self.field().a_inf} violates the stability condition"
            )

    def field(self) -> VelocityField:
        return EXAMPLES[self.example].field

    def initial(self) -> AnalyticMeasure:
        return self.exact().initial()

    def exact(self) -> ExactSolution:
        return exact_solution(self.example)

    def grid_for(self, N: int) -> CartesianGrid:
        if N <= 0:
            raise ConfigError(f"resolution N={N} must be positive")
        dx = (self.domain[1] - self.domain[0]) / N
        try:
            return CartesianGrid(dx=(dx,), dt=self.cfl * dx)
        except ValueError as exc:
            raise ConfigError(f"resolution N={N}: {exc}") from exc

    def steps(self, N: int) -> int:
        """Steps of the run at resolution N (`_run_steps` on its grid's dt)."""
        return _run_steps(self.T, self.grid_for(N).dt, N)

    def start(self, N: int) -> tuple[CartesianGrid, DiscreteMeasure, int]:
        """(grid, datum projected on it, steps) of the run at resolution N;
        ConfigError when the steps can reach more nodes than a window may
        hold, since a window grows by at most one cell per side per step, or
        when they are more than _MAX_STEPS."""
        grid, steps = self.grid_for(N), self.steps(N)
        mu0 = project_initial(self.initial(), grid)
        reach = max(mu0.weights)[0] - min(mu0.weights)[0] + 1 + 2 * steps
        if reach > _MAX_WINDOW_CELLS:
            raise ConfigError(
                f"resolution N={N}: {steps:.6g} steps can reach {reach:.6g} nodes, "
                f"above the window cap of {_MAX_WINDOW_CELLS}; lower T or raise "
                "the CFL ratio")
        if steps > _MAX_STEPS:
            raise ConfigError(f"resolution N={N}: {steps:.6g} steps, above the bound "
                              f"of {_MAX_STEPS} for one run; lower T or N")
        return grid, mu0, steps

    def resolution(self, N: int):
        """Stepper of resolution N on a window (lo, box) of the grid."""
        grid, mu0, steps = self.start(N)
        spec, fld = SchemeSpec(self.scheme), self.field()
        check_cfl(spec, fld, grid).require()
        lo, box, _ = _scatter(*measure_arrays(mu0)[1:])
        exact, dx = self.exact(), grid.dx[0]
        # every node the run can reach (see `start`); rows are per node
        base = int(lo[0]) - steps
        idx_all = np.arange(base, base + len(box) + 2 * steps)[:, None]
        rows = (transition_rows(spec, fld, 0, idx_all, grid)
                if fld.time_regularity == "constant" else None)

        def rows_at(n, lo, box):
            a = int(lo[0]) - base
            return (rows[:, a:a + len(box)] if rows is not None else
                    transition_rows(spec, fld, n, idx_all[a:a + len(box)], grid))

        def distance(t, state):
            jmin, window = int(state[0][0]), state[1]
            if self.order is None:
                ref = exact.measure(t)
                if ref.atoms:
                    raise ConfigError("L1 distance needs an atom-free exact solution")
                return l1_grid_vs_pieces(jmin, window, dx, ref.pieces)
            xs = np.arange(jmin, jmin + len(window)) * dx
            return wp_1d(QuantileFunction.from_masses(xs, window),
                         exact.quantile_fn(t), self.order)

        return steps, grid.dt, dx, (lo, box), _advance(rows_at, None, 0.0), distance


def step_count(T: float, dt: float) -> int:
    """Number of steps of length dt in a run to time T: floor(T/dt), with a
    1e-9 allowance so that rounding in T/dt cannot drop the last step when T
    is a whole number of steps."""
    return int(math.floor(T / dt + 1e-9))


def _run_steps(T: float, dt: float, N: int) -> int:
    """step_count(T, dt) of the run at resolution N; ConfigError when T/dt is
    not finite, or when it is zero, since a run with no step measures only
    the projection error."""
    dt = float(dt)
    if not (dt > 0.0 and math.isfinite(T / dt)):
        raise ConfigError(f"resolution N={N}: T={T!r} over dt={dt!r} is not a "
                          "finite number of steps; lower T")
    steps = step_count(T, dt)
    if steps == 0:
        raise ConfigError(f"resolution N={N}: T={T!r} is shorter than one "
                          f"step (dt={dt!r}); raise N or T")
    return steps


def config_from_mapping(data: dict) -> StudyConfig:
    bad = set(data) - {f.name for f in fields(StudyConfig)}
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    return StudyConfig(**data)


@dataclass(frozen=True)
class ResolutionRow:
    N: int
    dx: float
    error: float
    runtime_s: float
    envelope_c: float  # smallest C with e^n <= C (sqrt(t^n dx) + dx) at this N


@dataclass(frozen=True)
class ConvergenceReport:
    config: StudyConfig | TriStudyConfig
    rows: tuple[ResolutionRow, ...]
    slope: float       # fitted order: error ~ N^(-slope)
    residual: float    # RMS residual of the log-log fit

    def envelope_constants(self) -> tuple[float, ...]:
        return tuple(r.envelope_c for r in self.rows)


def fit_order(ns: np.ndarray, errs: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log error vs log N; returns (order, rms residual).

    The order is the negated slope, so halving the error when N quadruples
    reads as 0.5.
    """
    if len(ns) < 2:
        raise ValueError("order fit needs at least two resolutions")
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(errs, dtype=float))
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return -float(coef[0]), float(np.sqrt(np.mean(resid * resid)))


def run_resolution(cfg: StudyConfig | TriStudyConfig, N: int) -> ResolutionRow:
    """Run one ladder entry to T and report the max-over-steps error, with
    the stepper (steps, dt, h, state, advance(n, state), distance(t, state))
    of `cfg.resolution(N)`; the runtime includes its set-up."""
    start = time.perf_counter()
    steps, dt, h, state, advance, distance = cfg.resolution(N)
    worst = distance(0.0, state)
    worst_env = worst / h  # t=0 envelope denominator is h
    for n in range(steps):
        state = advance(n, state)
        t = (n + 1) * dt
        e = distance(t, state)
        worst = max(worst, e)
        worst_env = max(worst_env, e / (math.sqrt(t * h) + h))
    runtime = time.perf_counter() - start
    return ResolutionRow(N=N, dx=h, error=worst,
                         runtime_s=runtime, envelope_c=worst_env)


# the fewest steps the resolutions below the finest must run in all for a
# worker to pay.  Median of 7 runs on a 2-core host, serial / pooled: example1
# W1 ladders with 120, 240, 480 and 560 coarser steps took 8.7 / 19, 17 / 23,
# 37 / 37 and 39 / 37 ms; example2 L1 with 240 took 27 / 25 ms; the default
# triangulated study, 87 steps, 18 / 21 ms (an empty pool costs about 4 ms).
_POOL_MIN_STEPS = 400


def _worker_count(cfg: StudyConfig | TriStudyConfig) -> int:
    """Processes a study may run in: one per CPU, at most one per resolution;
    one where workers cannot be forked safely (no `fork` start method, or
    another thread, whose locks a forked child would inherit), or where the
    resolutions below the finest run under `_POOL_MIN_STEPS` steps in all or
    cannot count them (the serial loop then raises the smallest N's error)."""
    try:
        coarser = sum(cfg.steps(N) for N in cfg.ladder[:-1])
    except ConfigError:
        return 1
    if (coarser < _POOL_MIN_STEPS or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(len(os.sched_getaffinity(0)), len(cfg.ladder))


def _resolution(cfg: StudyConfig | TriStudyConfig, N: int) -> ResolutionRow:
    """`run_resolution`, looked up by name in the worker, so that a replaced
    module attribute (which a pool could not pickle) runs there too."""
    return run_resolution(cfg, N)


def run_study(cfg: StudyConfig | TriStudyConfig) -> ConvergenceReport:
    """Run every resolution of the ladder and fit the order; a one-entry
    ladder has no slope (nan).  The rows are the serial loop's, in ladder
    order, in whichever lane `_worker_count` picks.  A study whose coarser
    resolutions run fewer than `_POOL_MIN_STEPS` steps runs serially: a
    worker would cost it more than it saves (measured at the constant; the
    default triangulated study runs 87 such steps).  In the pool, the
    futures are read in ladder order after the finest N has run or raised,
    so a smaller N's exception replaces the finest's."""
    processes = _worker_count(cfg)
    if processes == 1:
        rows = tuple(run_resolution(cfg, N) for N in cfg.ladder)
    else:
        *coarser, finest = cfg.ladder
        with ProcessPoolExecutor(
            processes - 1, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = [pool.submit(_resolution, cfg, N) for N in reversed(coarser)]
            try:
                row = run_resolution(cfg, finest)
            finally:
                rows = tuple(f.result() for f in reversed(futures))
        rows += (row,)
    slope, residual = (fit_order([r.N for r in rows], [r.error for r in rows])
                       if len(rows) >= 2 else (math.nan, math.nan))
    return ConvergenceReport(config=cfg, rows=rows, slope=slope, residual=residual)


# certbench's tri-sl workload calls and traces the triangulated study under
# this name; it is the one runner, `run_study`
run_tri_study = run_study


# ---------------------------------------------------------------------------
# report emission


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_csv(report: ConvergenceReport) -> str:
    lines = ["N,dx,error,runtime_s"]
    for r in report.rows:
        lines.append(f"{r.N},{r.dx!r},{r.error!r},{r.runtime_s:.3f}")
    return "\n".join(lines) + "\n"


def _finite(x: float) -> float | None:
    """x, or None (JSON null) for the NaN and infinities RFC 8259 lacks."""
    return x if math.isfinite(x) else None


def report_json(report: ConvergenceReport) -> str:
    cfg = asdict(report.config)
    payload = {
        "version": __version__,
        "config": cfg,
        "slope": _finite(report.slope),
        "residual": _finite(report.residual),
        "envelope_c": [_finite(c) for c in report.envelope_constants()],
        "rows": [
            {"N": r.N, "dx": r.dx, "error": _finite(r.error)}
            for r in report.rows
        ],
        "jump_convention": "fields take their right-side value at discontinuities",
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def emit_report(report: ConvergenceReport, path: str) -> tuple[str, str]:
    """Write <path>.csv and <path>.json atomically; returns the two paths.

    Everything except the runtime column is byte-stable for identical
    configurations.
    """
    csv_path, json_path = path + ".csv", path + ".json"
    csv_text, json_text = report_csv(report), report_json(report)
    _atomic_write(csv_path, csv_text)
    _atomic_write(json_path, json_text)
    return csv_path, json_path


# ---------------------------------------------------------------------------
# semi-Lagrangian convergence study (structured triangulation, Dirac datum)


@dataclass(frozen=True)
class TriStudyConfig:
    """Dirac transport by a constant field on split-square triangulations."""

    speed: tuple[float, float] = (1.0, 0.5)
    x0: tuple[float, float] = (-0.5, -0.25)
    T: float = 1.0
    ladder: tuple[int, ...] = (32, 64, 128, 256)
    cfl: float = 0.25
    domain: tuple[tuple[float, float], tuple[float, float]] = ((-8.0, -8.0), (8.0, 8.0))
    prune: float = 1e-16  # drop weights below this; dropped mass is tracked

    def __post_init__(self):
        _set_real(self, "T", lambda x: x > 0.0, "final time must be positive and finite")
        object.__setattr__(self, "ladder", _ladder_of(self.ladder))
        _set_real(self, "cfl", lambda x: 0.0 < x <= 1.0, "CFL ratio must lie in (0, 1]")
        _set_real(self, "prune", lambda x: x >= 0.0,
                  "prune threshold must be finite and nonnegative")
        for name in ("speed", "x0"):
            pair = _finite_floats(getattr(self, name), 2)
            if pair is None:
                raise ConfigError(
                    f"{name} must be a pair of finite numbers, not {getattr(self, name)!r}")
            object.__setattr__(self, name, pair)
        if self.speed == (0.0, 0.0):
            raise ConfigError("speed must be nonzero: it sets the time step")
        try:
            lo, hi = (_finite_floats(corner, 2) for corner in self.domain)
        except (TypeError, ValueError):
            lo = hi = None
        if lo is None or hi is None or not (lo[0] < hi[0] and lo[1] < hi[1]):
            raise ConfigError(
                "domain must be two finite corners (lo, hi) with lo < hi on each "
                f"axis, not {self.domain!r}")
        object.__setattr__(self, "domain", (lo, hi))

    def _spacing(self, N: int) -> tuple[np.ndarray, float]:
        """(hs, dt) of resolution N: dt moves a point cfl times the minimal
        height of the split-square triangles."""
        hs = np.array([(b - a) / N for a, b in zip(*self.domain)])
        return hs, self.cfl * (hs[0] * hs[1] / math.hypot(*hs)) / math.hypot(*self.speed)

    def steps(self, N: int) -> int:
        """Steps of the run at resolution N (`_run_steps` on its dt)."""
        return _run_steps(self.T, self._spacing(N)[1], N)

    def resolution(self, N: int):
        """Stepper of resolution N on a window (lo, box) of the N x N grid's
        nodes, along the rows of its Kuhn (split-square) triangulation."""
        corner = np.asarray(self.domain[0])
        (hs, dt), steps = self._spacing(N), self.steps(N)
        speed, x0 = np.asarray(self.speed), np.asarray(self.x0)
        rows = kuhn_rows((speed * dt / hs)[None, :])[:, :, None]
        # the nearest node, the lower one on a tie (round half down)
        start = np.ceil((x0 - corner) / hs - 0.5).astype(np.int64)
        # a step moves mass by at most one cell per axis, so the support
        # stays on the grid if the start node is `steps` cells from each edge
        if min(*start, *(N - start)) < steps:
            raise ConfigError(
                f"N={N}: {steps} steps from {self.x0} can leave the domain "
                f"{self.domain}; shorten T or widen the domain"
            )

        def distance(t, state):
            nodes, w = window_cells(*state)
            return w1_to_point(corner + nodes * hs, w, x0 + t * speed)

        return (steps, dt, float(hs[0]), (start, np.ones((1, 1))),
                _advance(lambda n, lo, box: rows, kuhn_moves(2), self.prune), distance)


class Certified(NamedTuple):
    config: StudyConfig | TriStudyConfig
    window: tuple[float, float]
    claim: str


# name -> (config, window [lo, hi] its fitted order under `run_study` must
# lie in, the claim it certifies); the one list of the certified studies
CERTIFIED = {
    "example1-w1": Certified(StudyConfig(example="example1"), (0.40, 0.60),
                             "two-speed Dirac study: W1 order 1/2"),
    "example2-w1": Certified(StudyConfig(example="example2"), (0.85, 1.15),
                             "uniform-datum study: W1 order 1"),
    "example2-l1": Certified(StudyConfig(example="example2", distance="l1"),
                             (0.40, 0.60), "uniform-datum study: L1 order 1/2"),
    "example3-w1": Certified(StudyConfig(example="example3"), (0.40, 0.60),
                             "concentrating-front study: W1 order 1/2"),
    "example1-rusanov": Certified(StudyConfig(example="example1", scheme="rusanov"),
                                  (0.40, 0.60),
                                  "artificial-viscosity (Rusanov) study: W1 order 1/2"),
    "triangulated-dirac": Certified(TriStudyConfig(), (0.40, 0.60),
                                    "semi-Lagrangian Dirac study on triangulations: "
                                    "W1 order 1/2"),
}
