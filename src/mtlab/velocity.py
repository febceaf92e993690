"""Bounded one-sided-Lipschitz velocity fields and their time averages.

A field is a total, everywhere-defined function (t, x) -> R^d together with a
sup bound and a declared OSL modulus alpha(t).  The pointwise representative
at jumps follows the built-in examples' conventions (right value in x).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

# 4-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_X = np.array([-0.8611363115940526, -0.3399810435848563,
                  0.3399810435848563, 0.8611363115940526])
_GL_W = np.array([0.34785484513745385, 0.6521451548625461,
                  0.6521451548625461, 0.34785484513745385])


@dataclass(frozen=True)
class VelocityField:
    """Evaluable bounded velocity field with declared OSL modulus.

    eval_fn(t, x) takes x of shape (..., d) and returns an array of the same
    shape; it must be pure.  time_regularity selects the quadrature used for
    the per-step time average:

      "constant"   field does not depend on t; average = point value
      "affine"     field affine in t; average = midpoint value (exact)
      "lipschitz"  Lipschitz in t; the step uses the value at t^n
      "quadrature" generic; 4-point Gauss-Legendre per step

    Under "constant", eval_fn must not depend on t: the 1-D study harness
    evaluates the field once per resolution, on every node the run can
    reach, and reuses those values at every step.
    """

    eval_fn: Callable[[float, np.ndarray], np.ndarray]
    a_inf: float
    dims: int = 1
    alpha: Callable[[float], float] = lambda t: 0.0
    time_regularity: str = "constant"
    name: str = "custom"

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval_fn(t, np.asarray(x, dtype=float)))

    def time_average(self, t0: float, t1: float, x: np.ndarray) -> np.ndarray:
        """(1/(t1-t0)) * integral of a(s, x) ds, per the regularity mode."""
        x = np.asarray(x, dtype=float)
        if self.time_regularity == "constant" or self.time_regularity == "lipschitz":
            return self(t0, x)
        if self.time_regularity == "affine":
            return self(0.5 * (t0 + t1), x)
        if self.time_regularity == "quadrature":
            mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
            acc = np.zeros_like(x)
            for xi, wi in zip(_GL_X, _GL_W):
                acc = acc + wi * self(mid + half * xi, x)
            return 0.5 * acc
        raise ValueError(f"unknown time_regularity {self.time_regularity!r}")


def osl_probe(
    field: VelocityField,
    samples: int,
    domain: tuple[np.ndarray, np.ndarray],
    rng_seed: int,
    t_range: tuple[float, float] = (0.0, 2.0),
) -> float:
    """Empirical check of the declared OSL modulus.

    Returns the max over sampled pairs and times of
    <a(t,x)-a(t,y), x-y>/|x-y|^2 - alpha(t); a positive value flags a
    violation of the declared modulus.  Degenerate pairs x == y are skipped.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    lo = np.asarray(domain[0], dtype=float)
    hi = np.asarray(domain[1], dtype=float)
    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(lo, hi, size=(samples, lo.size))
    ys = rng.uniform(lo, hi, size=(samples, lo.size))
    ts = rng.uniform(t_range[0], t_range[1], size=samples)
    # one field call per sample, on its pair (x, y) stacked
    pairs = np.stack([xs, ys], axis=1)
    da = np.empty_like(xs)
    for k, t in enumerate(ts):
        a = field(t, pairs[k])
        np.subtract(a[0], a[1], out=da[k])
    d = xs - ys
    nrm2 = np.einsum("ij,ij->i", d, d)
    keep = nrm2 != 0.0
    num = np.einsum("ij,ij->i", da, d)
    alpha = np.array([field.alpha(t) for t in ts[keep]])
    return float(np.max(num[keep] / nrm2[keep] - alpha, initial=-math.inf))


def _example12_eval(t: float, x: np.ndarray) -> np.ndarray:
    # 1 left of the origin, 1/2 at and right of it
    return np.where(x < 0.0, 1.0, 0.5)


def _example3_eval(t: float, x: np.ndarray) -> np.ndarray:
    # 2 left of the moving front min(t, 1), 1 at and right of it
    front = min(t, 1.0)
    return np.where(x < front, 2.0, 1.0)


def constant(c, dims: int | None = None) -> VelocityField:
    cv = np.atleast_1d(np.asarray(c, dtype=float))
    if dims is None:
        dims = cv.size

    def ev(t, x):
        if dims == 1:
            return np.full_like(x, cv[0])
        return np.broadcast_to(cv, x.shape).copy()

    return VelocityField(
        eval_fn=ev,
        a_inf=float(np.linalg.norm(cv)) if cv.size else 0.0,
        dims=dims,
        name=f"constant({','.join(repr(v) for v in cv.tolist())})",
    )


def example1() -> VelocityField:
    return VelocityField(_example12_eval, a_inf=1.0, dims=1, name="example1")


def example2() -> VelocityField:
    return VelocityField(_example12_eval, a_inf=1.0, dims=1, name="example2")


def example3() -> VelocityField:
    return VelocityField(
        _example3_eval, a_inf=2.0, dims=1, time_regularity="lipschitz", name="example3"
    )


_CONST_RE = re.compile(r"constant\(([^)]*)\)")


def named_field(name: str) -> VelocityField:
    """Look up a built-in field: constant(c), example1/2/3, binomial."""
    name = name.strip()
    if name == "example1":
        return example1()
    if name == "example2":
        return example2()
    if name == "example3":
        return example3()
    if name == "binomial":
        f = constant(1.0)
        return VelocityField(f.eval_fn, f.a_inf, f.dims, f.alpha, f.time_regularity,
                             name="binomial")
    m = _CONST_RE.fullmatch(name)
    if m:
        vals = [float(v) for v in m.group(1).split(",") if v.strip()]
        return constant(vals if len(vals) > 1 else vals[0])
    raise KeyError(f"unknown velocity field {name!r}")
