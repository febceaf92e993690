import math

import numpy as np
import pytest

from mtlab.schemes import (
    CflError,
    SchemeSpec,
    apply_window,
    neighbor_moves,
    node_velocity,
    transition_rows,
)
from mtlab.simplex import (
    MeshError,
    NodeMeasure,
    TriMesh,
    _split,
    barycentric,
    check_cfl_tri,
    kuhn_moves,
    kuhn_rows,
    locate,
    node_nearest,
    sl_run,
    sl_step,
    structured_mesh,
    w1_to_point,
)
from mtlab.stochastic import TransitionKernel, check_rows, propagate_law, sample_paths
from mtlab import simplex
from mtlab.measures import CartesianGrid, DiscreteMeasure
from mtlab.velocity import VelocityField, constant
from conftest import grid_for, random_osl_field
from reference import format_mesh, parse_mesh


def unit_mesh(n=4):
    return structured_mesh((0.0, 0.0), (1.0, 1.0), (n, n))


def test_structured_mesh_shape_and_hbar():
    mesh = unit_mesh(4)
    assert len(mesh.nodes) == 25
    assert len(mesh.triangles) == 32
    # right triangles with legs h: minimal height h/sqrt(2)
    assert mesh.hbar == pytest.approx(0.25 / math.sqrt(2))


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        TriMesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                triangles=np.array([[0, 1, 2]]))


def test_degenerate_triangle_error_names_lowest_bad_index():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 3], [0, 1, 2], [1, 2, 3], [2, 1, 0]])
    with pytest.raises(ValueError, match=r"degenerate triangle 1$"):
        TriMesh(nodes=nodes, triangles=tris)


def test_malformed_triangle_arrays_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for tris in (np.zeros((0, 3)), np.array([0, 1, 2]), np.array([[0, 1, 3]]),
                 np.array([[0, 1, -1]])):
        with pytest.raises(ValueError):
            TriMesh(nodes=nodes, triangles=tris)


def loop_structured_mesh(lo, hi, n):
    """Per-cell reference for structured_mesh."""
    nx, ny = n
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    nodes = np.array([(x, y) for y in ys for x in xs])
    tris = []
    for iy in range(ny):
        for ix in range(nx):
            v00 = iy * (nx + 1) + ix
            v10 = v00 + 1
            v01 = v00 + (nx + 1)
            v11 = v01 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return nodes, np.array(tris)


@pytest.mark.parametrize("n", [(1, 1), (4, 4), (5, 3), (2, 7), (16, 9)])
def test_structured_mesh_matches_loop_reference(n):
    lo, hi = (-1.5, -0.25), (2.0, 3.0)
    mesh = structured_mesh(lo, hi, n)
    nodes, tris = loop_structured_mesh(lo, hi, n)
    np.testing.assert_array_equal(mesh.nodes, nodes)
    np.testing.assert_array_equal(mesh.triangles, tris)
    assert mesh.triangles.dtype == tris.dtype


def jittered_mesh(rng, n=10):
    """Unit cells on [0, n]^2, each cut along a random diagonal, triangles in
    random order, every node moved by -1/8, 0 or 1/8 per axis.  All
    coordinates are dyadic, so the displacements below land exactly."""
    g = np.arange(n + 1, dtype=float)
    gx, gy = np.meshgrid(g, g)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    nodes += rng.integers(-1, 2, size=nodes.shape) / 8.0
    iy, ix = np.divmod(np.arange(n * n), n)
    v00 = iy * (n + 1) + ix
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    flip = rng.random(n * n) < 0.5
    first = np.where(flip[:, None], np.column_stack([v00, v10, v01]),
                     np.column_stack([v00, v10, v11]))
    second = np.where(flip[:, None], np.column_stack([v10, v11, v01]),
                      np.column_stack([v00, v11, v01]))
    tris = np.concatenate([first, second])
    return TriMesh(nodes=nodes, triangles=rng.permutation(tris))


def test_incident_and_hbar_match_per_triangle_reference():
    mesh = jittered_mesh(np.random.default_rng(7))
    incident = [[] for _ in mesh.nodes]
    heights = []
    for k, tri in enumerate(mesh.triangles):
        a, b, c = mesh.nodes[tri]
        area = 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        longest = max(math.dist(p, q) for p, q in ((a, b), (b, c), (c, a)))
        heights.append(2.0 * abs(area) / longest)
        for v in tri:
            incident[v].append(k)
    for i in range(len(mesh.nodes)):
        assert mesh.incident(i) == incident[i]
        assert np.all(mesh.star[i, len(incident[i]):] == -1)
    # edge lengths may round differently from the loop's, by an ulp
    assert mesh.hbar == pytest.approx(min(heights), rel=4 * np.finfo(float).eps)


def node_step_field(mesh, table):
    """Step field equal to table[node] on the unit cell around each lattice
    point of a jittered_mesh (nodes sit within 1/8 of theirs)."""
    side = int(round(math.sqrt(len(mesh.nodes))))

    def ev(t, x):
        cell = np.rint(x).astype(int)
        return table[cell[..., 1] * side + cell[..., 0]]

    return VelocityField(ev, a_inf=float(np.max(np.linalg.norm(table, axis=1))),
                         dims=2, name="node-steps")


def reference_step(mu, field, n, dt):
    """Per-node locate + barycentric split with fsum accumulation; returns
    the owning triangle of each support node and the new weights."""
    owners, contrib = [], {}
    for i in mu.support():
        x = mu.mesh.nodes[i]
        xi = x + field.time_average(n * dt, (n + 1) * dt, x) * dt
        k = locate(mu.mesh, i, xi)
        owners.append(k)
        tri = mu.mesh.triangles[k]
        for j, lam in zip(tri, barycentric(mu.mesh.nodes[tri], xi)):
            if lam != 0.0:
                contrib.setdefault(int(j), []).append(mu.weights[i] * lam)
    return owners, {j: math.fsum(v) for j, v in contrib.items()}


def test_batched_step_matches_per_node_reference():
    rng = np.random.default_rng(11)
    mesh = jittered_mesh(rng)
    interior = [i for i, (x, y) in enumerate(mesh.nodes)
                if 1.5 < x < 8.5 and 1.5 < y < 8.5]
    # per node: stay on its own vertex, land on an incident edge (shared by
    # two star triangles), or move by a random dyadic offset
    table = np.zeros((len(mesh.nodes), 2))
    kinds = rng.integers(0, 3, size=len(mesh.nodes))
    on_edge = 0
    for i in interior:
        if kinds[i] == 1:
            j = rng.choice([v for k in mesh.incident(i)
                            for v in mesh.triangles[k] if v != i])
            table[i] = (mesh.nodes[j] - mesh.nodes[i]) / 8.0
            on_edge += 1
        elif kinds[i] == 2:
            table[i] = rng.integers(-8, 9, size=2) / 64.0
    field = node_step_field(mesh, table)
    dt = 1.0
    assert check_cfl_tri(mesh, field, dt).satisfied
    assert on_edge >= 10 and np.sum(kinds[interior] == 0) >= 10
    raw = rng.uniform(0.5, 1.5, size=len(interior))
    mu = NodeMeasure(mesh, dict(zip(interior, (raw / math.fsum(raw)).tolist())))

    owners, ref = reference_step(mu, field, 0, dt)
    dest, lam = _split(mu.support(), mesh, field, 0, dt)
    np.testing.assert_array_equal(dest, mesh.triangles[owners])
    for r, i in enumerate(mu.support()):
        xi = mesh.nodes[i] + table[i] * dt
        np.testing.assert_allclose(
            lam[r], barycentric(mesh.nodes[dest[r]], xi), rtol=0.0, atol=1e-14
        )
    out = sl_step(mu, field, 0, dt)
    assert sorted(out.weights) == sorted(ref)
    for j, w in ref.items():
        assert abs(out.weights[j] - w) <= 1e-14


def hanging_node_mesh():
    # node 2 sits on the long edge of triangle 0 without being its vertex,
    # so its star (triangles 1, 2) covers only the lower half-disc
    nodes = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, -1.0], [1.0, 2.0]])
    return TriMesh(nodes=nodes, triangles=np.array([[0, 1, 4], [0, 3, 2], [2, 3, 1]]))


def test_point_leaving_the_star_goes_through_locate_fallback(monkeypatch):
    mesh = hanging_node_mesh()
    assert mesh.incident(2) == [1, 2]
    calls = []

    def spy(mesh_, i, xi):
        calls.append(i)
        return locate(mesh_, i, xi)

    monkeypatch.setattr(simplex, "locate", spy)
    mu = NodeMeasure(mesh, {2: 0.75, 3: 0.25})
    out = sl_step(mu, constant([0.0, 1.0]), 0, 0.5)
    assert calls == [2]  # node 3 moves to (1, -0.5), inside its own star
    # node 2 lands on (1, 0.5) in triangle (0, 0), (2, 0), (1, 2)
    assert out.weights[0] == pytest.approx(0.75 * 0.375, abs=1e-15)
    assert out.weights[1] == pytest.approx(0.75 * 0.375, abs=1e-15)
    assert out.weights[4] == pytest.approx(0.75 * 0.25, abs=1e-15)
    assert out.weights[2] == pytest.approx(0.125, abs=1e-15)
    assert out.weights[3] == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(MeshError):  # node 3 leaves the mesh
        sl_step(NodeMeasure(mesh, {3: 1.0}), constant([0.0, -1.0]), 0, 0.5)


def test_step_rejects_mass_defect(monkeypatch):
    mesh = unit_mesh(4)
    mu = NodeMeasure(mesh, {6: 0.5, 12: 0.5})
    split = simplex._split

    def leaky(*args):
        dest, lam = split(*args)
        return dest, lam * (1.0 + 1e-9)

    monkeypatch.setattr(simplex, "_split", leaky)
    with pytest.raises(ValueError, match="mass defect"):
        sl_step(mu, constant([0.3, 0.1]), 0, 0.1)


def test_barycentric_reference_points():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(
        barycentric(tri, np.array([1.0 / 3, 1.0 / 3])),
        [1.0 / 3, 1.0 / 3, 1.0 / 3], atol=1e-15,
    )
    np.testing.assert_allclose(
        barycentric(tri, np.array([0.0, 0.0])), [1.0, 0.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        barycentric(tri, np.array([0.5, 0.0])), [0.5, 0.5, 0.0], atol=1e-15
    )
    with pytest.raises(ValueError):
        barycentric(tri, np.array([0.8, 0.8]))


def test_barycentric_reproduction_identity():
    rng = np.random.default_rng(41)
    for _ in range(500):
        tri = rng.uniform(-1.0, 1.0, size=(3, 2))
        a, b, c = tri
        if abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0]) < 1e-3:
            continue
        w = rng.dirichlet([1.0, 1.0, 1.0])
        xi = w @ tri
        zeta = rng.uniform(-2.0, 2.0, size=2)
        lam = barycentric(tri, xi)
        lhs = sum(l * (v - zeta) for l, v in zip(lam, tri))
        np.testing.assert_allclose(lhs, xi - zeta, atol=1e-12)


def test_zero_field_identity_step():
    mesh = unit_mesh()
    mu = NodeMeasure(mesh, {7: 0.25, 12: 0.75})
    out = sl_step(mu, constant([0.0, 0.0]), 0, 0.05)
    assert out.weights == mu.weights


def test_displacement_onto_vertex_transfers_all_mass():
    # the split rule itself: a displaced point coinciding with a vertex gets
    # barycentric weight 1 there, in the batched split and in the Kuhn rows;
    # a move of one cell is beyond the CFL radius hbar, so the step refuses it
    mesh = unit_mesh(4)  # h = 0.25
    i = node_nearest(mesh, (0.5, 0.5))
    j = node_nearest(mesh, (0.75, 0.5))
    f = constant([1.0, 0.0])
    dest, lam = _split([i], mesh, f, 0, 0.25)
    nonzero = [(d, l) for d, l in zip(dest[0].tolist(), lam[0].tolist()) if l != 0.0]
    assert nonzero == [(j, pytest.approx(1.0, abs=1e-14))]
    probs = kuhn_rows(np.array([[1.0, 0.0]]))[:, 0]
    assert [(kuhn_moves(2)[s].tolist(), p) for s, p in enumerate(probs) if p] == [
        ([1, 0], 1.0)]
    with pytest.raises(CflError):
        sl_step(NodeMeasure(mesh, {i: 1.0}), f, 0, 0.25)


def test_half_edge_displacement_splits_between_edge_endpoints():
    mesh = structured_mesh((0.0, 0.0), (4.0, 4.0), (4, 4))  # h = 1
    i = node_nearest(mesh, (1.0, 1.0))
    right = node_nearest(mesh, (2.0, 1.0))
    mu = NodeMeasure(mesh, {i: 1.0})
    out = sl_step(mu, constant([1.0, 0.0]), 0, 0.5)
    assert out.weights[i] == pytest.approx(0.5, abs=1e-14)
    assert out.weights[right] == pytest.approx(0.5, abs=1e-14)
    assert len(out.weights) == 2


def test_node_measure_refuses_a_nan_weight():
    with pytest.raises(ValueError, match="node 1"):
        NodeMeasure(unit_mesh(2), {0: 0.5, 1: math.nan})


def test_cfl_refusal():
    mesh = unit_mesh(4)
    mu = NodeMeasure(mesh, {0: 1.0})
    f = constant([1.0, 0.0])
    dt = 2.0 * mesh.hbar
    assert not check_cfl_tri(mesh, f, dt).satisfied
    with pytest.raises(CflError):
        sl_step(mu, f, 0, dt)
    # the bound attained exactly: a_inf dt / hbar rounds above 1 on this mesh
    mesh = structured_mesh((-8.0, -8.0), (8.0, 8.0), (47, 47))
    f = constant([1.0, 0.5])
    report = check_cfl_tri(mesh, f, mesh.hbar / f.a_inf)
    assert report.lhs > 1.0 and report.satisfied


def sl_kernel(field, n, idx, grid):
    """Forward semi-Lagrangian kernel of step n on the nodes idx (m, 2)."""
    xi = node_velocity(field, n, idx, grid) * (grid.dt / np.asarray(grid.dx))
    return TransitionKernel(n, grid, idx, kuhn_rows(xi), kuhn_moves(grid.dims))


def grid_law(side, weights):
    """Node weights {id: w} of a square structured_mesh with `side` nodes per
    axis as {(ix, iy): w}."""
    return {(i % side, i // side): w for i, w in weights.items()}


def test_mass_conservation_and_kernel_equivalence():
    rng = np.random.default_rng(43)
    mesh = structured_mesh((-2.0, -2.0), (2.0, 2.0), (16, 16))
    f = constant([0.6, -0.4])
    dt = 0.5 * mesh.hbar / f.a_inf
    # start well inside: each step moves mass at most one ring of vertices,
    # so five steps from the central block cannot reach the boundary
    raw = {int(17 * r + c): float(rng.uniform(0.1, 1.0))
           for r, c in rng.integers(6, 11, size=(6, 2))}
    total = math.fsum(raw[i] for i in sorted(raw))
    mu = NodeMeasure(mesh, {i: w / total for i, w in raw.items()})
    hist = sl_run(mu, f, 5, dt)
    grid = CartesianGrid(dx=(0.25, 0.25), dt=dt)
    law = DiscreteMeasure(grid, grid_law(17, mu.weights))
    for n, out in enumerate(hist[1:]):
        assert abs(out.mass() - 1.0) <= 1e-13
        assert min(out.weights.values()) >= 0.0
        kernel = sl_kernel(f, n, np.array(law.support()), grid)
        law = propagate_law(law, [kernel])
        expected = grid_law(17, out.weights)
        for J in set(expected) | set(law.weights):
            assert abs(law.weights.get(J, 0.0) - expected.get(J, 0.0)) <= 1e-12


def test_sl_transition_kernel_needs_a_row_per_node():
    mesh = structured_mesh((-1.0, -1.0), (1.0, 1.0), (4, 4))  # h = 0.5
    f = constant([0.3, 0.2])
    dt = 0.5 * mesh.hbar / f.a_inf
    grid = CartesianGrid(dx=(0.5, 0.5), dt=dt)
    kernel = sl_kernel(f, 0, np.array([[1, 1], [2, 1]]), grid)  # nodes 6, 7
    idx, w = kernel.push(np.array([[2, 1]]), np.array([1.0]))
    out = grid_law(5, sl_step(NodeMeasure(mesh, {7: 1.0}), f, 0, dt).weights)
    pushed = dict(zip(map(tuple, idx.tolist()), w.tolist()))
    assert set(pushed) == set(out)
    assert all(abs(pushed[J] - out[J]) <= 1e-12 for J in out)
    with pytest.raises(KeyError):
        kernel.push(np.array([[3, 1]]), np.array([1.0]))


def test_sl_kernel_rows_and_paths_take_its_moves():
    grid = CartesianGrid(dx=(0.5, 0.5), dt=0.25)
    kernel = sl_kernel(constant([1.0, 1.0]), 0, np.array([[0, 0]]), grid)
    assert kernel.row((0, 0)) == (((0, 0), 0.5), ((1, 0), 0.0), ((-1, 0), 0.0),
                                  ((0, 1), 0.0), ((0, -1), 0.0), ((1, 1), 0.5),
                                  ((-1, -1), 0.0))
    mu0 = DiscreteMeasure(grid, {(0, 0): 1.0})
    ends = {tuple(p) for p in sample_paths(mu0, [kernel], 200, seed=5).paths[:, 1]}
    assert ends == {(0, 0), (1, 1)}


def test_offdiagonal_mass_bound():
    mesh = structured_mesh((-1.0, -1.0), (1.0, 1.0), (8, 8))
    f = constant([0.9, 0.3])
    dt = 0.7 * mesh.hbar / f.a_inf
    interior = mesh.nodes[np.max(np.abs(mesh.nodes), axis=1) < 0.3]
    bound = 2.0 * f.a_inf * dt / mesh.hbar
    # the off-diagonal mass of a row is what leaves the node: 1 - its stay
    xi = f.time_average(0.0, dt, interior) * dt / (2.0 / 8)  # in cell widths
    off = 1.0 - kuhn_rows(xi)[0]
    assert np.max(off) <= bound + 1e-12


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_kuhn_rows_split_each_displacement_barycentrically(dims):
    rng = np.random.default_rng(60 + dims)
    # displacements in cells inside the CFL ball a_inf dt <= hbar: hbar is
    # the cell width in d = 1 and h / sqrt(2) for the Kuhn simplices of
    # d = 2, 3; ties between axes, zeros and the rim itself included
    radius = 1.0 if dims == 1 else 1.0 / math.sqrt(2.0)
    xi = rng.normal(size=(400, dims))
    xi *= rng.uniform(0.0, radius, size=(400, 1)) / np.linalg.norm(xi, axis=1)[:, None]
    xi[:40] = xi[:40, :1] / math.sqrt(dims) * rng.choice([-1.0, 1.0], size=(40, dims))
    xi[40:60, rng.integers(dims)] = 0.0
    xi[60:80] *= radius / np.linalg.norm(xi[60:80], axis=1)[:, None]
    probs = kuhn_rows(xi)
    moves = kuhn_moves(dims)
    # every one-signed move once, stay first; in d <= 2 the neighbor moves lead
    assert len({tuple(v) for v in moves.tolist()}) == len(moves) == 2 ** (dims + 1) - 1
    assert np.all((moves.min(axis=1) >= 0) | (moves.max(axis=1) <= 0))
    assert not moves[0].any()
    if dims <= 2:
        np.testing.assert_array_equal(moves[:2 * dims + 1], neighbor_moves(dims))
    check_rows(xi, probs)
    assert np.max(np.abs(moves.T @ probs - xi.T)) <= 1e-15
    assert np.all(np.count_nonzero(probs, axis=0) <= dims + 1)
    if dims == 1:  # forward SL with linear interpolation is upwind
        f = random_osl_field(rng, 1)
        grid = grid_for(f, 1)
        idx = np.arange(-12, 13)[:, None]
        xi = node_velocity(f, 0, idx, grid) * (grid.dt / np.asarray(grid.dx))
        upwind = transition_rows(SchemeSpec("upwind"), f, 0, idx, grid)
        assert np.max(np.abs(kuhn_rows(xi) - upwind)) <= 1e-15


def test_kuhn_rows_refuse_a_point_outside_the_star():
    with pytest.raises(CflError, match="VIOLATED"):
        kuhn_rows(np.array([[0.0, 0.0], [0.6, -0.5]]))
    # on the rim of the star up to rounding, the stay is clamped at 0
    probs = kuhn_rows(np.array([[0.5 + 1e-16, -0.5]]))
    assert probs[0, 0] == 0.0 and probs[:, 0].sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("product", [False, True])
def test_grid_sl_steps_match_sl_step_on_structured_mesh(product):
    # mesh nodes -4 + j/4 are the grid nodes (j - 16)/4 exactly, so both
    # paths evaluate the field at the same points
    rng = np.random.default_rng(71)
    mesh = structured_mesh((-4.0, -4.0), (4.0, 4.0), (32, 32))
    f = random_osl_field(rng, 2) if product else constant([0.6, -0.4])
    dt = 0.9 * mesh.hbar / f.a_inf
    grid = CartesianGrid(dx=(0.25, 0.25), dt=dt)
    raw = rng.uniform(0.5, 1.5, size=(4, 4))
    box = raw / math.fsum(raw.ravel())
    lo = np.array([-2, -1])
    mu = NodeMeasure(mesh, {33 * (iy + 16) + ix + 16: w for (ix, iy), w in
                            zip((lo + np.argwhere(box)).tolist(), box.ravel())})
    for n in range(10):
        cells = lo + np.argwhere(np.ones(box.shape, dtype=bool))
        xi = node_velocity(f, n, cells, grid) * (grid.dt / np.asarray(grid.dx))
        lo, box = apply_window(lo, box, kuhn_rows(xi).reshape((-1,) + box.shape),
                               kuhn_moves(2))
        mu = sl_step(mu, f, n, dt)
        expected = np.zeros(box.shape)
        for i, w in mu.weights.items():
            expected[i % 33 - 16 - lo[0], i // 33 - 16 - lo[1]] = w
        assert np.max(np.abs(box - expected)) <= 1e-12


def test_mesh_hole_error():
    mesh = TriMesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   triangles=np.array([[0, 1, 2]]))
    with pytest.raises(MeshError):
        locate(mesh, 1, np.array([2.0, 2.0]))


def test_mesh_text_roundtrip():
    mesh = unit_mesh(2)
    text = format_mesh(mesh)
    back = parse_mesh(text)
    np.testing.assert_array_equal(back.nodes, mesh.nodes)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    with pytest.raises(ValueError):
        parse_mesh("x 1 2\n")


def test_w1_to_point():
    mesh = unit_mesh(2)
    i = node_nearest(mesh, (0.0, 0.0))
    j = node_nearest(mesh, (1.0, 1.0))
    points = mesh.nodes[[i, j]]
    assert w1_to_point(points, np.array([0.5, 0.5]), np.array([0.0, 0.0])) == (
        pytest.approx(0.5 * math.sqrt(2.0))
    )
