"""Forward semi-Lagrangian scheme on conformal triangular meshes (d = 2).

Each node's mass is advected by the time-averaged node velocity and split to
the vertices of the containing triangle by barycentric coordinates.  Under
the CFL condition a_inf * dt <= hbar (minimal triangle height), the displaced
point stays inside the node's incident star, so the scheme is a convex
redistribution and inherits the Markov-chain reading of the grid schemes.

Everything is array-native.  A mesh stores each node's star as one padded
row of incident triangle ids, and one step computes the splits of the whole
support in a single batched pass (`_split`): one field evaluation on the
support's node array, then barycentric coordinates against every triangle of
every star at once.  Only points that leave their star go through the scalar
`locate`, whose brute-force search is the fallback before a `MeshError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import _EPS
from .schemes import CflError, CflReport
from .stochastic import check_rows
from .velocity import VelocityField

_BARY_TOL = 1e-12


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


def barycentric(tri_pts: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of xi in the triangle (3, 2); sub-area ratios,
    clipped and renormalized so they are a nonnegative partition of unity."""
    a, b, c = tri_pts
    total = _signed_area(a, b, c)
    lam = np.array([
        _signed_area(xi, b, c) / total,
        _signed_area(xi, a, c) / -total,
        _signed_area(xi, a, b) / total,
    ])
    if lam.min() < -_BARY_TOL:
        raise ValueError("point outside triangle")
    lam = np.maximum(lam, 0.0)
    return lam / lam.sum()


def _contains(tri_pts: np.ndarray, xi: np.ndarray) -> bool:
    a, b, c = tri_pts
    total = _signed_area(a, b, c)
    lams = (
        _signed_area(xi, b, c) / total,
        _signed_area(xi, a, c) / -total,
        _signed_area(xi, a, b) / total,
    )
    return all(l >= -_BARY_TOL for l in lams)


def locate(mesh: TriMesh, i: int, xi: np.ndarray) -> int:
    """Owning triangle of xi within node i's star (lowest index wins), with a
    brute-force fallback before reporting a mesh error."""
    for k in mesh.incident(i):
        if _contains(mesh.nodes[mesh.triangles[k]], xi):
            return k
    for k in range(len(mesh.triangles)):
        if _contains(mesh.nodes[mesh.triangles[k]], xi):
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
            if w < 0.0:
                raise ValueError(f"negative weight at node {i}")

    def mass(self) -> float:
        return math.fsum(self.weights[i] for i in sorted(self.weights))

    def support(self) -> list[int]:
        return sorted(self.weights)


def check_cfl_tri(mesh: TriMesh, field: VelocityField, dt: float) -> CflReport:
    lhs = field.a_inf * dt / mesh.hbar
    return CflReport(lhs=lhs, bound=1.0, satisfied=lhs <= 1.0)


def _split(
    support: list[int],
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
    # the sub-area ratios of `barycentric`, term for term
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
    defect = abs(math.fsum(out[nz]) - math.fsum(w))
    tol = 10.0 * _EPS * max(len(w), 1)
    if defect > tol:
        raise ValueError(f"mass defect {defect:.3e} exceeds {tol:.3e}")
    return nz, out[nz]


def sl_step(mu: NodeMeasure, field: VelocityField, n: int, dt: float) -> NodeMeasure:
    """One forward semi-Lagrangian step: advect node masses and split them
    barycentrically onto the containing triangle's vertices.

    Checks the CFL condition before the step, and after it that the mass
    moved by no more than the rounding of the support's weights.
    """
    report = check_cfl_tri(mu.mesh, field, dt)
    if not report.satisfied:
        raise CflError(report)
    support = mu.support()
    w = np.array([mu.weights[i] for i in support])
    ids, weights = _scatter(*_split(support, mu.mesh, field, n, dt), w)
    return NodeMeasure(mu.mesh, dict(zip(ids.tolist(), weights.tolist())))


@dataclass(frozen=True, eq=False)
class NodeKernel:
    """Node-indexed transition kernel of one semi-Lagrangian step: row k
    sends lam[k, s] of the mass at node ids[k] to node dest[k, s] (ids
    ascending; rows (m, 3), each summing to 1)."""

    n: int
    ids: np.ndarray
    dest: np.ndarray
    lam: np.ndarray

    def push(self, idx: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node ids (k, 1) and weights of the law w on the node ids idx
        (m, 1) after this step; KeyError names a node without a row."""
        rows = np.minimum(np.searchsorted(self.ids, idx[:, 0]), len(self.ids) - 1)
        missing = self.ids[rows] != idx[:, 0]
        if missing.any():
            raise KeyError(int(idx[np.argmax(missing), 0]))
        ids, weights = _scatter(self.dest[rows], self.lam[rows], w)
        return ids[:, None], weights


def sl_kernel(
    mu_support: list[int],
    mesh: TriMesh,
    field: VelocityField,
    n: int,
    dt: float,
) -> NodeKernel:
    """Transition kernel of one semi-Lagrangian step on the given nodes;
    each row has at most 3 nonzero entries summing to 1."""
    report = check_cfl_tri(mesh, field, dt)
    if not report.satisfied:
        raise CflError(report)
    support = sorted(set(mu_support))
    dest, lam = _split(support, mesh, field, n, dt)
    ids = np.array(support, dtype=np.int64)
    check_rows(ids, lam.T)
    return NodeKernel(n, ids, dest, lam)


def offdiagonal_mass(
    mu_support: list[int], mesh: TriMesh, field: VelocityField, n: int, dt: float
) -> float:
    """Max over nodes of the mass leaving the node in one step."""
    ids = np.asarray(mu_support, dtype=np.int64)
    dest, lam = _split(mu_support, mesh, field, n, dt)
    return float(np.max(np.where(dest != ids[:, None], lam, 0.0).sum(axis=1),
                        initial=0.0))


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


def w1_to_point(mu: NodeMeasure, y: np.ndarray) -> float:
    """Exact W_1 between a node measure and a Dirac at y."""
    sup = mu.support()
    dist = np.linalg.norm(mu.mesh.nodes[sup] - np.asarray(y), axis=1)
    ws = np.array([mu.weights[i] for i in sup])
    return float(dist @ ws)


def parse_mesh(text: str) -> TriMesh:
    """Plain-text mesh: `v x y` lines then `t i j k` lines (1-based)."""
    nodes, tris = [], []
    for ln in text.splitlines():
        parts = ln.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            nodes.append((float(parts[1]), float(parts[2])))
        elif parts[0] == "t":
            tris.append(tuple(int(p) - 1 for p in parts[1:4]))
        else:
            raise ValueError(f"bad mesh line: {ln!r}")
    return TriMesh(nodes=np.array(nodes), triangles=np.array(tris))


def format_mesh(mesh: TriMesh) -> str:
    lines = [f"v {float(x)!r} {float(y)!r}" for x, y in mesh.nodes]
    lines += [f"t {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.triangles]
    return "\n".join(lines) + "\n"
