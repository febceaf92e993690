import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from mtlab.measures import (
    AnalyticMeasure,
    CartesianGrid,
    DimensionError,
    DiscreteMeasure,
    QuantileFunction,
    dirac,
    quantile,
    uniform,
)
from mtlab.wasserstein import (
    ScaleError,
    _density_pieces,
    _difference,
    _variation,
    bv_seminorm,
    interpolation_check,
    l1_distance,
    l1_grid_vs_pieces,
    w1_pair,
    wp_1d,
    wp_discrete,
)
from mtlab.flows import quantile_of_analytic
from reference import (
    reference_bv,
    reference_interpolation,
    reference_l1_distance,
    reference_w1_grid,
    reference_wp_1d,
)


GRID = CartesianGrid(dx=(0.5,), dt=0.25)


def measure_1d(weights):
    return DiscreteMeasure(GRID, weights)


def random_measure_1d(rng, max_atoms=6):
    count = int(rng.integers(1, max_atoms + 1))
    raw = {}
    for _ in range(count):
        j = int(rng.integers(-10, 11))
        raw[(j,)] = raw.get((j,), 0.0) + float(rng.uniform(0.1, 1.0))
    total = math.fsum(raw[k] for k in sorted(raw))
    return measure_1d({k: v / total for k, v in raw.items()})


def nw_corner_cost(mu, nu, p):
    """Independent 1D oracle: the north-west corner coupling of the sorted
    supports is optimal in one dimension."""
    xs, ws = mu.positions()[:, 0], mu.weight_array()
    ys, vs = nu.positions()[:, 0], nu.weight_array()
    i = j = 0
    wi, vj = ws[0], vs[0]
    cost = 0.0
    while True:
        move = min(wi, vj)
        cost += move * abs(xs[i] - ys[j]) ** p
        wi -= move
        vj -= move
        if wi <= 1e-17:
            i += 1
            if i == len(ws):
                break
            wi = ws[i]
        if vj <= 1e-17:
            j += 1
            if j == len(vs):
                break
            vj = vs[j]
    return cost ** (1.0 / p)


def test_wp_1d_identity_and_diracs():
    mu = measure_1d({(0,): 0.5, (2,): 0.5})
    assert wp_1d(quantile(mu), quantile(mu), 1.0) == 0.0
    for p in (1.0, 2.0, 3.5):
        d = wp_1d(quantile(measure_1d({(0,): 1.0})),
                  quantile(measure_1d({(3,): 1.0})), p)
        assert d == pytest.approx(1.5, abs=1e-12)
    for bad in (0.5, math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError):
            wp_1d(quantile(mu), quantile(mu), bad)
        with pytest.raises(ValueError):
            wp_discrete(mu, mu, bad)


def test_wp_1d_binomial_vs_dirac():
    binom = measure_1d({(0,): 0.25, (1,): 0.5, (2,): 0.25})
    target = measure_1d({(1,): 1.0})
    # two-step binomial spread vs its mean: W_1 = dx/2
    assert wp_1d(quantile(binom), quantile(target), 1.0) == pytest.approx(
        0.25, abs=1e-15
    )


def test_wp_1d_matches_nw_corner_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        mu, nu = random_measure_1d(rng), random_measure_1d(rng)
        for p in (1.0, 2.0):
            got = wp_1d(quantile(mu), quantile(nu), p)
            assert got == pytest.approx(nw_corner_cost(mu, nu, p), abs=1e-10)


def test_wp_discrete_cross_checks():
    rng = np.random.default_rng(78)
    assert wp_discrete(measure_1d({(1,): 1.0}), measure_1d({(1,): 1.0})) == 0.0
    for _ in range(100):
        mu, nu = random_measure_1d(rng), random_measure_1d(rng)
        assert wp_discrete(mu, nu, 1.0) == pytest.approx(
            wp_1d(quantile(mu), quantile(nu), 1.0), abs=1e-10
        )


def test_wp_discrete_2d_split():
    g = CartesianGrid(dx=(1.0, 1.0), dt=0.25)
    mu = DiscreteMeasure(g, {(0, 0): 1.0})
    nu = DiscreteMeasure(g, {(1, 0): 0.5, (0, 1): 0.5})
    assert wp_discrete(mu, nu, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert w1_pair(mu, nu) == pytest.approx(1.0, abs=1e-12)


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports mtlab from this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_mtlab_loads_no_scipy():
    # only the transport LP needs scipy; it imports it on its first call
    script = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(k for k in sys.modules\n"
        "                  if k == 'scipy' or k.startswith('scipy.'))\n"
        "import mtlab\n"
        "after_mtlab = scipy_modules()\n"
        "import mtlab.cli\n"
        "print(json.dumps([after_mtlab, scipy_modules()]))\n"
    )
    done = _fresh_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], []]


def test_cli_distance_2d_solves_the_lp_in_a_fresh_process(tmp_path):
    from mtlab.measures import serialize

    g = CartesianGrid(dx=(1.0, 1.0), dt=0.25)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(serialize(DiscreteMeasure(g, {(0, 0): 1.0})))
    b.write_text(serialize(DiscreteMeasure(g, {(2, 0): 0.5, (0, 1): 0.5})))
    done = _fresh_python("-m", "mtlab.cli", "distance", str(a), str(b))
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("dims", [(1, 2), (2, 1), (2, 3)])
def test_distances_refuse_measures_of_different_dimensions(dims):
    mu, nu = (DiscreteMeasure(CartesianGrid(dx=(0.5,) * d, dt=0.25), {(0,) * d: 1.0})
              for d in dims)
    for distance in (w1_pair, wp_discrete):
        with pytest.raises(DimensionError,
                           match=f"d={dims[0]} measure with a d={dims[1]} measure"):
            distance(mu, nu)


def test_wp_discrete_scale_guard():
    g = CartesianGrid(dx=(0.001,), dt=0.0005)
    big = DiscreteMeasure(g, {(j,): 1.0 / 3000 for j in range(3000)})
    with pytest.raises(ScaleError):
        wp_discrete(big, big, 1.0)


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(79)
    for _ in range(30):
        a, b, c = (random_measure_1d(rng) for _ in range(3))
        for p in (1.0, 2.0):
            dab = wp_1d(quantile(a), quantile(b), p)
            dba = wp_1d(quantile(b), quantile(a), p)
            dac = wp_1d(quantile(a), quantile(c), p)
            dcb = wp_1d(quantile(c), quantile(b), p)
            assert dab == dba
            assert dab <= dac + dcb + 1e-10
        # Jensen: W_1 <= W_p
        assert wp_1d(quantile(a), quantile(b), 1.0) <= (
            wp_1d(quantile(a), quantile(b), 2.0) + 1e-12
        )


def test_pushforward_contraction():
    rng = np.random.default_rng(80)
    for _ in range(20):
        mu = random_measure_1d(rng)
        sup = mu.support()
        shift_x = {J: float(rng.uniform(-1, 1)) for J in sup}
        shift_y = {J: float(rng.uniform(-1, 1)) for J in sup}
        for p in (1.0, 2.0):
            # pushforwards of mu under two node-wise maps
            def push(shifts):
                pts = sorted(
                    (mu.grid.node(J)[0] + shifts[J], mu.weights[J]) for J in sup
                )
                pieces, z = [], 0.0
                for idx, (x, w) in enumerate(pts):
                    z1 = 1.0 if idx == len(pts) - 1 else z + w
                    pieces.append((z, z1, x, 0.0))
                    z = z1
                from mtlab.measures import QuantileFunction
                return QuantileFunction.from_pieces(pieces)

            lhs = wp_1d(push(shift_x), push(shift_y), p)
            rhs = math.fsum(
                mu.weights[J] * abs(shift_x[J] - shift_y[J]) ** p for J in sup
            ) ** (1.0 / p)
            assert lhs <= rhs + 1e-10


def test_l1_distance_examples():
    g = CartesianGrid(dx=(1.0,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})  # density 1 on [-1/2, 1/2)
    from mtlab.measures import AnalyticMeasure

    same = AnalyticMeasure(dims=1, pieces=((-0.5, 0.5, 1.0),))
    assert l1_distance(mu, same, g) == pytest.approx(0.0, abs=1e-15)
    eps = 0.125
    shifted = AnalyticMeasure(dims=1, pieces=((-0.5 + eps, 0.5 + eps, 1.0),))
    assert l1_distance(mu, shifted, g) == pytest.approx(2 * eps, abs=1e-15)
    with pytest.raises(ValueError):
        l1_distance(mu, dirac((0.0,)), g)


@pytest.mark.parametrize("pieces", [
    ((1.0, 0.0, -1.0),),               # reversed, of negative height
    ((0.0, 1.0, -1.0),),               # negative height
    ((0.0, 1.0, 0.5), (0.5, 2.0, 0.5)),  # overlapping
    ((0.0, math.inf, 1.0),),           # unbounded
])
def test_l1_distance_refuses_a_malformed_density(pieces):
    g = CartesianGrid(dx=(1.0,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    with pytest.raises(ValueError):
        l1_distance(mu, AnalyticMeasure(dims=1, pieces=pieces), g)


def density(*pieces):
    return AnalyticMeasure(dims=1, pieces=pieces)


def test_bv_seminorm_examples():
    assert bv_seminorm(uniform(0.0, 1.0)) == 2.0
    assert bv_seminorm(density((0.0, 0.5, 2.0), (0.5, 1.0, 1.0))) == 4.0
    assert bv_seminorm(density((0.0, 1.0, 0.0))) == 0.0
    assert bv_seminorm(density((0.0, 1.0, 0.5), (2.0, 3.0, 0.5))) == 2.0
    assert bv_seminorm(density()) == 0.0


def test_interpolation_translation_family():
    for eps in (0.5, 0.25, 0.125):
        f = uniform(0.0, 1.0)
        g = uniform(eps, 1.0 + eps)
        xs, d = _difference(_density_pieces(f), _density_pieces(g))
        assert np.abs(d) @ np.diff(xs) == pytest.approx(2 * eps, abs=1e-14)
        assert _variation(d) == pytest.approx(4.0)
        ratio, ok = interpolation_check(f, g, 1.0)
        assert ok and ratio == pytest.approx(math.sqrt(eps), abs=1e-12)


def test_interpolation_identity_and_validation():
    f = uniform(0.0, 1.0)
    assert interpolation_check(f, f, 1.0) == (0.0, True)
    refused = [
        (AnalyticMeasure(dims=2), "1-D density"),
        (AnalyticMeasure(dims=2, atoms=(((0.0, 0.0), 1.0),)), "1-D density"),
        (AnalyticMeasure(dims=1, atoms=(((0.5,), 0.5),), pieces=((0.0, 0.5, 1.0),)),
         "without atoms"),
        (density((1.0, 0.0, -1.0)), "lo < hi"),
        (density((0.0, 0.0, 1.0), (0.0, 1.0, 1.0)), "lo < hi"),
        (density((0.0, math.inf, 0.0)), "finite ends"),
        (density((-math.inf, 0.0, 0.0), (0.0, 1.0, 1.0)), "finite ends"),
        (density((math.nan, 1.0, 1.0)), "finite ends"),
        (density((0.0, 0.5, 3.0), (0.5, 1.0, -1.0)), "nonnegative"),
        (density((0.0, 1.0, math.nan)), "nonnegative"),
        (density((0.5, 1.0, 1.0), (0.0, 0.5, 1.0)), "in order and disjoint"),
        (density((0.0, 0.75, 2.0 / 3.0), (0.25, 1.0, 2.0 / 3.0)),
         "in order and disjoint"),
        (density((0.0, 2.0, 1.0)), "mass 1"),
        (density(), "mass 1"),
        (density((0.0, 1.0, 1.0 + 1e-9)), "mass 1"),
    ]
    for bad, match in refused:
        for pair in ((f, bad), (bad, f)):
            with pytest.raises(ValueError, match=match):
                interpolation_check(*pair, 1.0)


def random_density(rng, lo, hi, cuts=()):
    """Pieces between sorted random cuts (and the given ones) in [lo, hi],
    some of them left out (gaps) or of height 0, scaled to mass 1."""
    cuts = np.unique(np.concatenate([rng.uniform(lo, hi, size=int(rng.integers(2, 7))),
                                     cuts]))
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        r = rng.random()
        if r >= 0.25:  # else a gap
            pieces.append((a, b, 0.0 if r < 0.4 else rng.uniform(0.1, 2.0)))
    if not pieces or all(h == 0.0 for _, _, h in pieces):
        pieces = [(cuts[0], cuts[-1], 1.0)]
    mass = math.fsum(h * (b - a) for a, b, h in pieces)
    return density(*[(a, b, h / mass) for a, b, h in pieces])


def test_interpolation_check_and_bv_match_the_pointwise_reference():
    rng = np.random.default_rng(2020)
    kinds = {"overlapping": 0, "shared edges": 0, "disjoint": 0, "equal": 0}
    for _ in range(2000):
        f = random_density(rng, -2.0, 2.0)
        r = rng.random()
        if r < 0.3:  # g reuses some of f's breakpoints
            edges = [x for lo, hi, _ in f.pieces for x in (lo, hi)]
            g = random_density(rng, -1.0, 3.0, rng.choice(edges, size=2))
            kind = "shared edges"
        elif r < 0.5:
            g = random_density(rng, 2.5, 4.0)
            kind = "disjoint"
        elif r < 0.55:
            g = f
            kind = "equal"
        else:
            g = random_density(rng, -1.0, 3.0)
            kind = "overlapping"
        kinds[kind] += 1
        want_l1, want_bv, want = reference_interpolation(f, g)
        ratio, ok = interpolation_check(f, g, 1.5)
        assert ratio == pytest.approx(want, rel=1e-12, abs=0.0)
        assert ok == (ratio <= 1.5)
        xs, d = _difference(_density_pieces(f), _density_pieces(g))
        assert np.abs(d) @ np.diff(xs) == pytest.approx(want_l1, rel=1e-12, abs=0.0)
        assert _variation(d) == pytest.approx(want_bv, rel=1e-12, abs=0.0)
        assert bv_seminorm(f) == pytest.approx(reference_bv(f), rel=1e-12, abs=0.0)
    assert min(kinds.values()) >= 50


ORDERS = (1.0, 1.5, 2.0, 3.5)


def random_analytic_1d(rng):
    """Atoms and disjoint density pieces between sorted random points, mass 1."""
    pts = np.sort(rng.uniform(-3.0, 3.0, size=int(rng.integers(2, 7))))
    atoms, pieces = [], []
    for k, x in enumerate(pts):
        if rng.random() < 0.4:
            atoms.append(((float(x),), float(rng.uniform(0.1, 1.0))))
        if k + 1 < len(pts) and rng.random() < 0.7:
            pieces.append((float(x), float(pts[k + 1]), float(rng.uniform(0.1, 2.0))))
    if not pieces:
        pieces.append((float(pts[-1]), float(pts[-1]) + 1.0, 1.0))
    total = math.fsum([m for _, m in atoms] + [h * (b - a) for a, b, h in pieces])
    return AnalyticMeasure(
        dims=1,
        atoms=tuple((x, m / total) for x, m in atoms),
        pieces=tuple((a, b, h / total) for a, b, h in pieces),
    )


def assert_close(got, want, rel):
    assert abs(got - want) <= rel * abs(want), (got, want)


def test_wp_1d_step_vs_step_matches_loop_reference():
    rng = np.random.default_rng(81)
    for _ in range(60):
        mu_q = quantile(random_measure_1d(rng, max_atoms=12))
        nu_q = quantile(random_measure_1d(rng, max_atoms=12))
        for p in ORDERS:
            assert_close(wp_1d(mu_q, nu_q, p), reference_wp_1d(mu_q, nu_q, p), 1e-12)


def test_wp_1d_step_vs_affine_with_atoms_matches_loop_reference():
    rng = np.random.default_rng(82)
    for _ in range(60):
        mu_q = quantile(random_measure_1d(rng, max_atoms=12))
        nu_q = quantile_of_analytic(random_analytic_1d(rng))
        assert np.any(nu_q.s > 0.0)
        for p in ORDERS:
            want = reference_wp_1d(mu_q, nu_q, p)
            assert_close(wp_1d(mu_q, nu_q, p), want, 1e-12)
            assert_close(wp_1d(nu_q, mu_q, p), want, 1e-12)


def test_wp_1d_affine_vs_affine_matches_loop_reference():
    rng = np.random.default_rng(83)
    for _ in range(60):
        mu_q = quantile_of_analytic(random_analytic_1d(rng))
        nu_q = quantile_of_analytic(random_analytic_1d(rng))
        for p in ORDERS:
            assert_close(wp_1d(mu_q, nu_q, p), reference_wp_1d(mu_q, nu_q, p), 1e-12)


def test_wp_1d_grid_window_matches_earlier_w1():
    """A dense window with zero cells, against each exact solution."""
    from mtlab.flows import exact_solution

    rng = np.random.default_rng(84)
    for name in ("example1", "example2", "example3"):
        exact = exact_solution(name)
        for t in (0.0, 0.3, 0.77, 1.0, 1.6):
            ws = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 40)))
            ws[rng.random(len(ws)) < 0.3] = 0.0
            ws[-1] = 0.5
            ws /= ws.sum()
            jmin = int(rng.integers(-60, 20))
            xs = np.arange(jmin, jmin + len(ws)) * 0.05
            got = wp_1d(QuantileFunction.from_masses(xs, ws), exact.quantile_fn(t), 1.0)
            assert_close(got, reference_w1_grid(xs, ws, exact.quantile_fn(t)), 1e-12)


def test_wp_1d_breakpoints_that_coincide_or_sit_at_one():
    """Shared breakpoints, empty pieces and an inner breakpoint at 1."""
    step = QuantileFunction.from_pieces([(0.0, 0.25, -1.0, 0.0), (0.25, 0.25, 0.0, 0.0),
                                         (0.25, 1.0, 2.0, 0.0)])
    affine = QuantileFunction.from_pieces([(0.0, 0.25, -2.0, 4.0), (0.25, 1.0, 0.5, 1.0),
                                           (1.0, 1.0, 3.0, 0.0)])
    for p in ORDERS:
        # |F^-1 - G^-1| is |1 - 4z| on [0, 1/4) and |1.5 - (z - 1/4)| after
        want = reference_wp_1d(step, affine, p)
        assert_close(wp_1d(step, affine, p), want, 1e-13)
        assert_close(wp_1d(affine, step, p), want, 1e-13)


def _uniform_gap_reference(slope_mu, slope_nu, p):
    """W_p of two uniform quantile functions whose difference is 1 + S z,
    S = slope_nu - slope_mu > 0, in exact or 60-digit arithmetic."""
    S = Fraction(slope_nu) - Fraction(slope_mu)
    if p == 1.0:
        return float(1 + S / 2)
    if p == 2.0:
        return math.sqrt(Fraction(1) + S + S * S / 3)  # sqrt of an exact value
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(S.numerator) / Decimal(S.denominator)
        q = Decimal(p) + 1
        integral = ((1 + d) ** q - 1) / (q * d)
        return float(integral ** (1 / Decimal(p)))


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_wp_1d_nearly_parallel_pieces_do_not_cancel(eps, p):
    mu_q = quantile_of_analytic(uniform(0.0, 1.0))
    nu_q = quantile_of_analytic(uniform(1.0, 2.0 + eps))
    want = _uniform_gap_reference(mu_q.s[0], nu_q.s[0], p)
    assert_close(wp_1d(mu_q, nu_q, p), want, 1e-14)
    assert_close(wp_1d(nu_q, mu_q, p), want, 1e-14)


def test_wp_1d_large_support_matches_dirac_sum():
    rng = np.random.default_rng(85)
    ws = rng.uniform(0.0, 1.0, 10_000)
    ws /= ws.sum()
    xs = np.sort(rng.uniform(-5.0, 5.0, 10_000))
    q = QuantileFunction.from_masses(xs, ws)
    y = QuantileFunction(np.array([0.0, 1.0]), np.array([0.3]), np.zeros(1))
    for p in ORDERS:
        want = math.fsum(ws * np.abs(xs - 0.3) ** p) ** (1.0 / p)
        assert_close(wp_1d(q, y, p), want, 1e-12)


def test_quantile_function_rejects_malformed_arrays():
    z, v = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])
    QuantileFunction(z, v, np.zeros(2))
    for args in ((np.array([0.0]), v[:0], v[:0]),          # no piece
                 (z, v[:1], np.zeros(1)),                 # one value for two pieces
                 (np.array([0.1, 0.5, 1.0]), v, np.zeros(2)),  # starts above 0
                 (np.array([0.0, 0.5, 0.9]), v, np.zeros(2)),  # stops short of 1
                 (np.array([0.0, 0.7, 0.5, 1.0]), np.zeros(3), np.zeros(3))):
        with pytest.raises(ValueError):
            QuantileFunction(*args)
    with pytest.raises(ValueError):
        QuantileFunction.from_pieces([(0.0, 0.4, 0.0, 0.0), (0.5, 1.0, 1.0, 0.0)])


def random_pieces(rng, dx):
    """One to three (lo, hi, height) pieces; they may overlap or be out of
    order, and some edges fall on cell edges."""
    out = []
    for _ in range(int(rng.integers(1, 4))):
        lo = float(rng.uniform(-2.0, 1.0))
        if rng.random() < 0.3:
            lo = (math.floor(lo / dx) + 0.5) * dx
        out.append((lo, lo + float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.1, 2.0))))
    return tuple(out)


def test_l1_matches_loop_reference():
    rng = np.random.default_rng(86)
    for _ in range(80):
        dx = float(rng.choice([0.5, 0.125, 0.1]))
        g = CartesianGrid(dx=(dx,), dt=dx / 2)
        raw = {(int(j),): float(rng.uniform(0.05, 1.0))
               for j in rng.integers(-25, 15, size=int(rng.integers(1, 12)))}
        total = math.fsum(raw.values())
        mu = DiscreteMeasure(g, {J: w / total for J, w in raw.items()})
        pieces = random_pieces(rng, dx)
        nu = AnalyticMeasure(dims=1, pieces=pieces)
        want = reference_l1_distance(mu, nu, g)
        if all(a[1] <= b[0] for a, b in zip(pieces, pieces[1:])):
            assert_close(l1_distance(mu, nu, g), want, 1e-12)
        else:  # the kernel sums overlapping pieces; the API refuses them
            with pytest.raises(ValueError, match="disjoint"):
                l1_distance(mu, nu, g)
        js = [j for (j,) in mu.weights]
        window = np.zeros(max(js) - min(js) + 1)
        for (j,), w in mu.weights.items():
            window[j - min(js)] = w
        assert_close(l1_grid_vs_pieces(min(js), window, dx, nu.pieces), want, 1e-12)


def test_l1_far_apart_atoms_match_the_loop_or_raise_scale_error():
    dx = 0.5
    g = CartesianGrid(dx=(dx,), dt=dx / 2)
    nu = AnalyticMeasure(dims=1, pieces=((-1.0, 1.0, 0.5),))
    mu = DiscreteMeasure(g, {(0,): 0.5, (10 ** 5,): 0.5})
    assert_close(l1_distance(mu, nu, g), reference_l1_distance(mu, nu, g), 1e-12)
    # the window spans the index range, so a far atom is refused, not allocated
    far = DiscreteMeasure(g, {(0,): 0.5, (10 ** 9,): 0.5})
    with pytest.raises(ScaleError, match="spans"):
        l1_distance(far, nu, g)
