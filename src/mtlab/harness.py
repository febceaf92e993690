"""Convergence studies, order regression, and report emission.

A study runs one scheme over a ladder of resolutions on a fixed box, measures
the distance to the exact solution at every step, keeps the per-resolution
maximum, and fits the order of convergence by least squares on the log-log
cloud.  A 1D study keeps its weights as a dense window (first index, weight
array) between steps and advances it with the scheme engine of
`mtlab.schemes`, the same rows and apply routine as the sparse step, trimmed
to its nonzero range after each step.  The nodes a run can reach are known
before it starts (the window grows by at most one cell per side per step), so
for a field constant in time the transition rows are computed once per
resolution on that whole range and each step takes the slice under its
window; a field that depends on t gets one rows call per step on that slice.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .flows import ExactSolution, exact_solution
from .measures import (
    AnalyticMeasure,
    CartesianGrid,
    QuantileFunction,
    dirac,
    project_initial,
    uniform,
)
from .schemes import (
    CflError,
    SchemeSpec,
    apply_window,
    check_cfl,
    measure_arrays,
    transition_rows,
)
from .simplex import (
    NodeMeasure,
    check_cfl_tri,
    node_nearest,
    sl_step,
    structured_mesh,
    w1_to_point,
)
from .velocity import VelocityField, named_field
from .wasserstein import check_order, l1_grid_vs_pieces, wp_1d

DEFAULT_LADDER = (100, 200, 400, 800, 1600, 3200)
DEFAULT_DOMAIN = (-2.5, 2.5)

EXAMPLES = ("example1", "example2", "example3", "binomial")

_WP_RE = re.compile(r"wp\(([^)]+)\)")


class ConfigError(ValueError):
    """Invalid study configuration."""


def _distance_order(distance: str) -> float | None:
    """Order p of a distance name; ConfigError unless it is "l1", "w1" or
    "wp(p)" with a finite p >= 1."""
    if distance == "l1":
        return None
    if distance == "w1":
        return 1.0
    match = _WP_RE.fullmatch(distance)
    if not match:
        raise ConfigError(f"unknown distance {distance!r}")
    try:
        p = float(match.group(1))
        check_order(p)
    except ValueError as exc:
        raise ConfigError(f"distance {distance!r}: {exc}") from None
    return p


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
        object.__setattr__(self, "ladder", tuple(int(n) for n in self.ladder))
        if self.example not in EXAMPLES:
            raise ConfigError(f"unknown example {self.example!r}")
        try:
            SchemeSpec(self.scheme)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not (0.0 < self.T < math.inf):
            raise ConfigError("final time must be positive and finite")
        if not self.ladder:
            raise ConfigError("resolution ladder must be nonempty")
        if any(n <= 0 for n in self.ladder):
            raise ConfigError("resolutions must be positive")
        if any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise ConfigError("resolution ladder must be strictly increasing")
        if not (0.0 < self.cfl):
            raise ConfigError("CFL ratio must be positive")
        if self.domain[1] <= self.domain[0]:
            raise ConfigError("domain must be a nonempty interval")
        object.__setattr__(self, "order", _distance_order(self.distance))
        # only the field bound is checked up front; scheme-specific CFL
        # (e.g. the doubled Rusanov coefficient bound) is checked at run time
        if self.field().a_inf * self.cfl > 1.0 + 1e-12:
            raise ConfigError(
                f"CFL ratio {self.cfl} with field bound "
                f"{self.field().a_inf} violates the stability condition"
            )

    def field(self) -> VelocityField:
        return named_field(self.example)

    def initial(self) -> AnalyticMeasure:
        return _initial_datum(self.example)

    def exact(self) -> ExactSolution:
        return exact_solution(self.example)

    def grid_for(self, N: int) -> CartesianGrid:
        dx = (self.domain[1] - self.domain[0]) / N
        try:
            return CartesianGrid(dx=(dx,), dt=self.cfl * dx)
        except ValueError as exc:
            raise ConfigError(f"resolution N={N}: {exc}") from exc


def step_count(T: float, dt: float) -> int:
    """Number of steps of length dt in a run to time T: floor(T/dt), with a
    1e-9 allowance so that rounding in T/dt cannot drop the last step when T
    is a whole number of steps."""
    return int(math.floor(T / dt + 1e-9))


def _initial_datum(example: str) -> AnalyticMeasure:
    if example == "example1":
        return dirac((-0.5,))
    if example == "example2":
        return uniform(-1.0, 1.0)
    if example == "example3":
        return uniform(-1.0, 0.0)
    return dirac((0.0,))  # binomial


def config_from_mapping(data: dict) -> StudyConfig:
    known = {"example", "scheme", "T", "ladder", "cfl", "distance",
             "domain", "seed", "out"}
    bad = set(data) - known
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    kwargs = dict(data)
    if "ladder" in kwargs:
        kwargs["ladder"] = tuple(int(v) for v in kwargs["ladder"])
    if "domain" in kwargs:
        kwargs["domain"] = tuple(float(v) for v in kwargs["domain"])
    try:
        return StudyConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


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


def _distance_at(
    cfg: StudyConfig,
    exact: ExactSolution,
    jmin: int,
    window: np.ndarray,
    dx: float,
    t: float,
) -> float:
    if cfg.distance == "l1":
        ref = exact.measure(t)
        if ref.atoms:
            raise ConfigError("L1 distance needs an atom-free exact solution")
        return l1_grid_vs_pieces(jmin, window, dx, ref.pieces)
    xs = np.arange(jmin, jmin + len(window)) * dx
    return wp_1d(QuantileFunction.from_masses(xs, window), exact.quantile_fn(t),
                 cfg.order)


def run_resolution(cfg: StudyConfig, N: int) -> ResolutionRow:
    """Run one ladder entry to T and report the max-over-steps error."""
    grid = cfg.grid_for(N)
    spec = SchemeSpec(cfg.scheme)
    fld = cfg.field()
    report = check_cfl(spec, fld, grid)
    if not report.satisfied:
        raise CflError(report)
    start = time.perf_counter()
    mu0 = project_initial(cfg.initial(), grid)
    _, idx, w = measure_arrays(mu0)
    jmin = int(idx.min())
    window = np.zeros(int(idx.max()) - jmin + 1)
    window[idx[:, 0] - jmin] = w
    steps = step_count(cfg.T, grid.dt)
    exact, dx = cfg.exact(), grid.dx[0]
    worst = _distance_at(cfg, exact, jmin, window, dx, 0.0)
    worst_env = worst / dx  # t=0 envelope denominator is dx
    # a window grows by at most one cell per side per step, so every node the
    # run can reach is in idx_all.  Rows are elementwise per node: a field
    # constant in time gets them once, and each step reads its window's slice.
    base = jmin - steps
    idx_all = np.arange(base, jmin + len(window) + steps)[:, None]
    rows = (transition_rows(spec, fld, 0, idx_all, grid)
            if fld.time_regularity == "constant" else None)
    for n in range(steps):
        a, m = jmin - base, len(window)
        probs = (transition_rows(spec, fld, n, idx_all[a:a + m], grid)
                 if rows is None else rows[:, a:a + m])
        _, box = apply_window(idx_all[a], window, probs)
        nz = box.nonzero()[0]
        jmin, window = jmin - 1 + int(nz[0]), box[nz[0]:nz[-1] + 1]
        t = (n + 1) * grid.dt
        e = _distance_at(cfg, exact, jmin, window, dx, t)
        worst = max(worst, e)
        worst_env = max(worst_env, e / (math.sqrt(t * dx) + dx))
    runtime = time.perf_counter() - start
    return ResolutionRow(N=N, dx=dx, error=worst,
                         runtime_s=runtime, envelope_c=worst_env)


def run_study(cfg: StudyConfig) -> ConvergenceReport:
    rows = tuple(run_resolution(cfg, N) for N in cfg.ladder)
    if len(rows) >= 2:
        slope, residual = fit_order(
            np.array([r.N for r in rows]), np.array([r.error for r in rows])
        )
    else:
        slope, residual = math.nan, math.nan
    return ConvergenceReport(config=cfg, rows=rows, slope=slope, residual=residual)


def theorem_envelope_check(report: ConvergenceReport) -> float:
    """Smallest C with e^n <= C (sqrt(t^n dx) + dx) across the whole study."""
    return max(r.envelope_c for r in report.rows)


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


def report_json(report: ConvergenceReport) -> str:
    cfg = asdict(report.config)
    payload = {
        "version": __version__,
        "config": cfg,
        "slope": report.slope,
        "residual": report.residual,
        "envelope_c": list(report.envelope_constants()),
        "rows": [
            {"N": r.N, "dx": r.dx, "error": r.error}
            for r in report.rows
        ],
        "jump_convention": "fields take their right-side value at discontinuities",
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(report: ConvergenceReport, path: str) -> tuple[str, str]:
    """Write <path>.csv and <path>.json atomically; returns the two paths.

    Everything except the runtime column is byte-stable for identical
    configurations.
    """
    csv_path, json_path = path + ".csv", path + ".json"
    _atomic_write(csv_path, report_csv(report))
    _atomic_write(json_path, report_json(report))
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
        if not (0.0 < self.T < math.inf):
            raise ConfigError("final time must be positive and finite")
        if not self.ladder or any(
            b <= a for a, b in zip(self.ladder, self.ladder[1:])
        ):
            raise ConfigError("resolution ladder must be strictly increasing")
        if any(n <= 0 for n in self.ladder):
            raise ConfigError("resolutions must be positive")
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError("CFL ratio must lie in (0, 1]")


def run_tri_resolution(cfg: TriStudyConfig, N: int) -> ResolutionRow:
    from .velocity import constant

    fld = constant(list(cfg.speed))
    start = time.perf_counter()
    mesh = structured_mesh(cfg.domain[0], cfg.domain[1], (N, N))
    dt = cfg.cfl * mesh.hbar / fld.a_inf
    report = check_cfl_tri(mesh, fld, dt)
    if not report.satisfied:
        raise CflError(report)
    start_node = node_nearest(mesh, cfg.x0)
    steps = step_count(cfg.T, dt)
    # under the CFL bound a step moves mass by less than one cell per axis,
    # so the support stays inside the mesh if the start node is at least
    # `steps` cells from every edge
    iy, ix = divmod(start_node, N + 1)
    if min(ix, N - ix, iy, N - iy) < steps:
        raise ConfigError(
            f"N={N}: {steps} steps from {cfg.x0} can leave the domain "
            f"{cfg.domain}; shorten T or widen the domain"
        )
    mu = NodeMeasure(mesh, {start_node: 1.0})
    speed = np.asarray(cfg.speed)
    x0 = np.asarray(cfg.x0)
    worst = w1_to_point(mu, x0)
    dropped = 0.0
    for n in range(steps):
        mu = sl_step(mu, fld, n, dt)
        if cfg.prune > 0.0:
            kept = {i: w for i, w in mu.weights.items() if w >= cfg.prune}
            if len(kept) != len(mu.weights):
                dropped += math.fsum(
                    w for i, w in sorted(mu.weights.items()) if i not in kept
                )
                mu = NodeMeasure(mu.mesh, kept)
        worst = max(worst, w1_to_point(mu, x0 + (n + 1) * dt * speed))
    if dropped > 1e-10:
        raise RuntimeError(f"pruned mass {dropped:.3e} exceeds budget")
    runtime = time.perf_counter() - start
    h = (cfg.domain[1][0] - cfg.domain[0][0]) / N
    return ResolutionRow(N=N, dx=h, error=worst, runtime_s=runtime,
                         envelope_c=math.nan)


def run_tri_study(cfg: TriStudyConfig) -> ConvergenceReport:
    rows = tuple(run_tri_resolution(cfg, N) for N in cfg.ladder)
    slope, residual = fit_order(
        np.array([r.N for r in rows]), np.array([r.error for r in rows])
    )
    return ConvergenceReport(config=cfg, rows=rows, slope=slope,
                             residual=residual)
