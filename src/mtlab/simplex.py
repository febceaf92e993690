"""Forward semi-Lagrangian scheme: on the grid's Kuhn triangulation in any
d, and on conformal triangular meshes (d = 2).

Each node's mass is advected by the time-averaged node velocity and split to
the vertices of the containing simplex by barycentric coordinates.  Under
the CFL condition a_inf * dt <= hbar (minimal simplex height), the displaced
point stays inside the node's incident star, so the scheme is a convex
redistribution and inherits the Markov-chain reading of the grid schemes.

On the Kuhn-Freudenthal triangulation of a grid (Freudenthal, Ann. Math.
1942; `structured_mesh` in d = 2) the split needs no mesh: `kuhn_rows` gives
each node its row over the moves `kuhn_moves(d)`, which `schemes.apply_window`
steps and a `stochastic.TransitionKernel` reads as the scheme's chain.

The mesh path serves other meshes and is the grid path's oracle.  A mesh
stores each node's star as one padded row of incident triangle ids, and
`_split` splits a whole support in one batched pass against every triangle
of every star; only points that leave their star go through the scalar
`locate`, whose brute-force search is the fallback before a `MeshError`.
`sl_push` steps `(ids, w)` node arrays; `sl_step` wraps it for a `NodeMeasure`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measures import check_mass_defect
from .schemes import CflReport
from .velocity import VelocityField

_BARY_TOL = 1e-12


@functools.cache
def kuhn_moves(dims: int) -> np.ndarray:
    """(2^(d+1) - 1, d) read-only one-signed moves of {-1, 0, 1}^d: stay,
    then +1_A and -1_A for the axis sets A of bit masks 1, ..., 2^d - 1."""
    up = np.arange(1, 2 ** dims)[:, None] >> np.arange(dims) & 1
    moves = np.vstack([np.zeros(dims, dtype=np.int64),
                       np.stack([up, -up], axis=1).reshape(-1, dims)])
    moves.flags.writeable = False
    return moves


def kuhn_rows(xi: np.ndarray) -> np.ndarray:
    """Forward semi-Lagrangian rows (S, m) over `kuhn_moves(d)` of nodes
    displaced by xi (m, d), in cell widths: the barycentric split of each
    displaced point in the Kuhn simplex of its node's star.  The positive
    parts p of xi, sorted down, weight the moves +e_(1), +e_(1) + e_(2), ...
    by p_(1) - p_(2), p_(2) - p_(3), ...; the negative parts q weight the
    minus moves alike, and the stay keeps 1 - p_(1) - q_(1), clamped at 0.
    CflError when a point leaves its node's star: p_(1) + q_(1) > 1 beyond
    rounding."""
    xi = np.asarray(xi, dtype=float)
    m, dims = xi.shape
    probs = np.zeros((2 ** (dims + 1) - 1, m))
    lead = np.zeros(m)
    for side, part in enumerate((np.maximum(xi, 0.0), np.maximum(-xi, 0.0))):
        order = np.argsort(-part, axis=1, kind="stable")
        ranked = np.take_along_axis(part, order, axis=1)
        # the bit masks of the sets A of the chain's moves, at rows 2A - 1 + side
        chain = np.cumsum(1 << order, axis=1)
        np.put_along_axis(probs.T, 2 * chain - 1 + side,
                          -np.diff(ranked, axis=1, append=0.0), axis=1)
        lead += ranked[:, 0]
    CflReport.of(float(lead.max(initial=0.0))).require()
    np.maximum(0.0, 1.0 - lead, out=probs[0])
    return probs


class MeshError(RuntimeError):
    """Displaced point not found in any incident triangle."""


@dataclass(frozen=True)
class TriMesh:
    """Conformal triangulation: nodes (m, 2), triangles (k, 3) vertex indices.

    Construction computes, over all triangles at once, the signed areas
    (rejecting the lowest-index degenerate triangle), the minimal height
    `hbar`, and the `star` array: row i lists the triangles incident to node
    i in ascending id order, padded with -1 to the largest node degree.

    Boundary ownership between adjacent triangles is resolved by the
    lowest-index-triangle-wins rule, which the ascending star rows encode;
    barycentric weights agree across the ambiguity anyway because the
    opposite vertex has weight 0 on a shared edge.
    """

    nodes: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        tris = np.asarray(self.triangles, dtype=np.int64)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "triangles", tris)
        if tris.ndim != 2 or tris.shape[1] != 3 or len(tris) == 0:
            raise ValueError(f"triangles must have shape (k, 3), k > 0, "
                             f"got {tris.shape}")
        if tris.min() < 0 or tris.max() >= len(nodes):
            raise ValueError("triangle vertex index out of range")
        x, y = nodes[:, 0], nodes[:, 1]
        i, j, k = tris.T
        area = 0.5 * ((x[j] - x[i]) * (y[k] - y[i]) - (y[j] - y[i]) * (x[k] - x[i]))
        bad = np.flatnonzero(area == 0.0)
        if bad.size:
            raise ValueError(f"degenerate triangle {bad[0]}")
        longest2 = np.maximum.reduce([
            (x[b] - x[a]) ** 2 + (y[b] - y[a]) ** 2 for a, b in ((i, j), (j, k), (k, i))
        ])
        hbar = float(np.min(2.0 * np.abs(area) / np.sqrt(longest2)))
        # stable argsort groups the flattened vertex list by node, keeping
        # triangle ids ascending within each node's group
        flat = tris.ravel()
        order = np.argsort(flat, kind="stable")
        degree = np.bincount(flat, minlength=len(nodes))
        first = np.cumsum(degree) - degree
        owner = flat[order]
        star = np.full((len(nodes), int(degree.max())), -1, dtype=np.int64)
        star[owner, np.arange(len(flat)) - first[owner]] = order // 3
        object.__setattr__(self, "_area", area)
        object.__setattr__(self, "_hbar", hbar)
        object.__setattr__(self, "_star", star)

    @property
    def hbar(self) -> float:
        return self._hbar

    @property
    def star(self) -> np.ndarray:
        """(nodes, max_degree) incident triangle ids, ascending, -1 padded."""
        return self._star

    def incident(self, i: int) -> list[int]:
        row = self._star[i]
        return row[row >= 0].tolist()


def _signed_area(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    return 0.5 * float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _sub_areas(tri_pts: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Unclipped barycentric coordinates of xi in the triangle (3, 2)."""
    a, b, c = tri_pts
    total = _signed_area(a, b, c)
    return np.array([
        _signed_area(xi, b, c) / total,
        _signed_area(xi, a, c) / -total,
        _signed_area(xi, a, b) / total,
    ])


def barycentric(tri_pts: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of xi in the triangle (3, 2); sub-area ratios,
    clipped and renormalized so they are a nonnegative partition of unity."""
    lam = _sub_areas(tri_pts, xi)
    if lam.min() < -_BARY_TOL:
        raise ValueError("point outside triangle")
    lam = np.maximum(lam, 0.0)
    return lam / lam.sum()


def locate(mesh: TriMesh, i: int, xi: np.ndarray) -> int:
    """Owning triangle of xi within node i's star (lowest index wins), with a
    brute-force fallback before reporting a mesh error."""
    for k in mesh.incident(i) + list(range(len(mesh.triangles))):
        if _sub_areas(mesh.nodes[mesh.triangles[k]], xi).min() >= -_BARY_TOL:
            return k
    raise MeshError(f"displaced point {xi} from node {i} not in any triangle")


@dataclass(frozen=True)
class NodeMeasure:
    """Nonnegative weights on mesh nodes, total mass 1."""

    mesh: TriMesh
    weights: dict[int, float]

    def __post_init__(self):
        pruned = {i: w for i, w in self.weights.items() if w != 0.0}
        object.__setattr__(self, "weights", pruned)
        for i, w in pruned.items():
            if not w >= 0.0:
                raise ValueError(f"negative weight at node {i}")

    def mass(self) -> float:
        return math.fsum(self.weights[i] for i in sorted(self.weights))

    def support(self) -> list[int]:
        return sorted(self.weights)


def check_cfl_tri(mesh: TriMesh, field: VelocityField, dt: float) -> CflReport:
    return CflReport.of(field.a_inf * dt / mesh.hbar)


def _split(
    support: list[int] | np.ndarray,
    mesh: TriMesh,
    field: VelocityField,
    n: int,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched barycentric split of step n for the given nodes.

    Returns dest (m, 3), the vertices of each displaced point's owning
    triangle, and lam (m, 3), its clipped and renormalized barycentric
    coordinates there (rows in the order of `support`).  Every triangle of
    each node's star is tested at once and the lowest-index one containing
    the point wins, as in `locate`; only misses go through `locate`.
    """
    ids = np.asarray(support, dtype=np.int64)
    x0 = mesh.nodes[ids]
    a = np.asarray(field.time_average(n * dt, (n + 1) * dt, x0), dtype=float)
    xi = x0 + a * dt
    px, py = xi[:, 0:1], xi[:, 1:2]
    cand = mesh.star[ids]
    padded = np.maximum(cand, 0)  # -1 pads read triangle 0, masked below
    tri = mesh.triangles[padded]
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    ax, ay = x[tri[..., 0]], y[tri[..., 0]]
    bx, by = x[tri[..., 1]], y[tri[..., 1]]
    cx, cy = x[tri[..., 2]], y[tri[..., 2]]
    total = mesh._area[padded]
    # the sub-area ratios of `_sub_areas`, term for term
    lams = np.stack([
        0.5 * ((bx - px) * (cy - py) - (by - py) * (cx - px)) / total,
        0.5 * ((ax - px) * (cy - py) - (ay - py) * (cx - px)) / -total,
        0.5 * ((ax - px) * (by - py) - (ay - py) * (bx - px)) / total,
    ], axis=-1)
    inside = (cand >= 0) & np.all(lams >= -_BARY_TOL, axis=-1)
    hit = np.argmax(inside, axis=1)
    rows = np.arange(len(ids))
    owner = cand[rows, hit]
    lam = np.maximum(lams[rows, hit], 0.0)
    lam /= (lam[:, 0] + lam[:, 1] + lam[:, 2])[:, None]
    for r in np.flatnonzero(~inside[rows, hit]):
        owner[r] = locate(mesh, int(ids[r]), xi[r])
        lam[r] = barycentric(mesh.nodes[mesh.triangles[owner[r]]], xi[r])
    return mesh.triangles[owner], lam


def _scatter(
    dest: np.ndarray, lam: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Node ids and weights after sending lam[k, s] of the weight w[k] to
    node dest[k, s]; ValueError when the mass moves by more than the
    rounding of the weights."""
    out = np.bincount(dest.ravel(), weights=(w[:, None] * lam).ravel())
    nz = np.flatnonzero(out)
    check_mass_defect(abs(math.fsum(out[nz]) - math.fsum(w)), len(w))
    return nz, out[nz]


def sl_push(mesh: TriMesh, field: VelocityField, n: int, dt: float,
            ids: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One forward semi-Lagrangian step of the weights w on the node ids:
    advect node masses and split them barycentrically onto the containing
    triangle's vertices; returns the nonzero node ids (ascending) and their
    weights.  Checks the CFL condition before the step, and after it that the
    mass moved by no more than the rounding of the weights."""
    check_cfl_tri(mesh, field, dt).require()
    return _scatter(*_split(ids, mesh, field, n, dt), w)


def sl_step(mu: NodeMeasure, field: VelocityField, n: int, dt: float) -> NodeMeasure:
    """`sl_push` on a node measure."""
    support = mu.support()
    ids, weights = sl_push(mu.mesh, field, n, dt, np.array(support, dtype=np.int64),
                           np.array([mu.weights[i] for i in support]))
    return NodeMeasure(mu.mesh, dict(zip(ids.tolist(), weights.tolist())))


def sl_run(
    mu0: NodeMeasure, field: VelocityField, steps: int, dt: float
) -> list[NodeMeasure]:
    out = [mu0]
    for n in range(steps):
        out.append(sl_step(out[-1], field, n, dt))
    return out


def structured_mesh(
    lo: tuple[float, float], hi: tuple[float, float], n: tuple[int, int]
) -> TriMesh:
    """Split-square triangulation of a box: (n_x+1) x (n_y+1) nodes, each
    square cut along its lower-left to upper-right diagonal."""
    nx, ny = n
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], nx + 1),
                         np.linspace(lo[1], hi[1], ny + 1))
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    v00 = iy * (nx + 1) + ix
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return TriMesh(nodes=nodes, triangles=tris)


def node_nearest(mesh: TriMesh, x: tuple[float, float]) -> int:
    return int(np.argmin(np.linalg.norm(mesh.nodes - np.asarray(x), axis=1)))


def w1_to_point(points: np.ndarray, w: np.ndarray, y: np.ndarray) -> float:
    """Exact W_1 between the weights w on the points (m, 2) and a Dirac at y."""
    return float(np.linalg.norm(points - np.asarray(y), axis=1) @ w)
