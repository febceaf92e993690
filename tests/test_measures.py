import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlab.flows import quantile_of_analytic
from mtlab.measures import (
    CartesianGrid,
    DimensionError,
    DiscreteMeasure,
    MeasureFileError,
    deserialize,
    dirac,
    measure_from_quantile,
    moment,
    project_initial,
    quantile,
    serialize,
    uniform,
)
from mtlab.wasserstein import wp_1d


def test_grid_validation():
    with pytest.raises(ValueError):
        CartesianGrid(dx=(), dt=0.1)
    with pytest.raises(ValueError):
        CartesianGrid(dx=(0.0,), dt=0.1)
    with pytest.raises(ValueError):
        CartesianGrid(dx=(0.5,), dt=0.0)
    with pytest.raises(ValueError):
        CartesianGrid(dx=(1.5,), dt=0.1)  # cell width above 1 rejected


def test_grid_nodes_and_cells():
    g = CartesianGrid(dx=(0.5, 0.25), dt=0.1)
    assert g.node((2, -1)) == (1.0, -0.25)
    assert g.cell_of((1.0, -0.25)) == (2, -1)
    # half-open convention: lower face belongs to the cell
    assert g.cell_of((1.25, 0.0)) == (3, 0)
    assert g.cell_of((1.2499999, 0.0)) == (2, 0)


def test_measure_rejects_negative_and_prunes_zero():
    g = CartesianGrid(dx=(0.5,), dt=0.1)
    with pytest.raises(ValueError):
        DiscreteMeasure(g, {(0,): -0.5, (1,): 1.5})
    mu = DiscreteMeasure(g, {(0,): 1.0, (1,): 0.0})
    assert mu.support() == [(0,)]


def test_project_atom_at_node():
    g = CartesianGrid(dx=(0.5,), dt=0.1)
    mu = project_initial(dirac((-0.5,)), g)
    assert mu.weights == {(-1,): 1.0}


def test_project_uniform_exact_overlaps():
    g = CartesianGrid(dx=(0.5,), dt=0.1)
    mu = project_initial(uniform(-1.0, 1.0), g)
    # cells [j/2 - 1/4, j/2 + 1/4): three full interior cells, two half cells
    assert mu.weights == pytest.approx(
        {(-2,): 0.125, (-1,): 0.25, (0,): 0.25, (1,): 0.25, (2,): 0.125}
    )
    assert abs(mu.mass() - 1.0) < 1e-15


def test_projection_w1_within_dx():
    for dx in (0.5, 0.25, 0.125):
        g = CartesianGrid(dx=(dx,), dt=0.1)
        for ini in (uniform(-1.0, 1.0), dirac((0.3,)),
                    uniform(-0.33, 0.77)):
            mu = project_initial(ini, g)
            d = wp_1d(quantile(mu), quantile_of_analytic(ini), 1.0)
            assert d <= dx + 1e-15


def test_moment_examples():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    binom2 = DiscreteMeasure(g, {(0,): 0.25, (1,): 0.5, (2,): 0.25})
    assert moment(binom2, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert moment(binom2, 1.0) == pytest.approx(0.5, abs=1e-15)  # = dx
    assert moment(DiscreteMeasure(g, {(0,): 1.0}), 2.0) == 0.0
    with pytest.raises(ValueError):
        moment(binom2, -1.0)


def test_quantile_examples():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    q = quantile(DiscreteMeasure(g, {(3,): 1.0}))
    assert q(0.0) == q(0.5) == q(0.999) == 1.5

    q = quantile(DiscreteMeasure(g, {(0,): 0.5, (2,): 0.5}))
    assert q(0.25) == 0.0 and q(0.5) == 1.0 and q(0.75) == 1.0

    binom2 = DiscreteMeasure(g, {(0,): 0.25, (1,): 0.5, (2,): 0.25})
    q = quantile(binom2)
    assert q(0.1) == 0.0 and q(0.25) == 0.5 and q(0.74) == 0.5 and q(0.75) == 1.0


def test_quantile_requires_1d():
    g = CartesianGrid(dx=(0.5, 0.5), dt=0.1)
    with pytest.raises(DimensionError):
        quantile(DiscreteMeasure(g, {(0, 0): 1.0}))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.floats(0.05, 1.0)),
                min_size=1, max_size=8))
def test_quantile_roundtrip(entries):
    g = CartesianGrid(dx=(0.25,), dt=0.1)
    raw: dict = {}
    for j, w in entries:
        raw[(j,)] = raw.get((j,), 0.0) + w
    total = math.fsum(raw[J] for J in sorted(raw))
    mu = DiscreteMeasure(g, {J: w / total for J, w in raw.items()})
    back = measure_from_quantile(quantile(mu), g)
    assert back.support() == mu.support()
    for J in mu.support():
        assert back.weights[J] == pytest.approx(mu.weights[J], abs=1e-15)


def test_mass_tolerance_guard():
    g = CartesianGrid(dx=(0.5,), dt=0.1)
    with pytest.raises(ValueError):
        DiscreteMeasure(g, {(0,): 0.9}).check_mass()
    DiscreteMeasure(g, {(0,): 0.5, (1,): 0.5}).check_mass()


def test_serialize_roundtrip():
    g = CartesianGrid(dx=(0.5, 0.25), dt=0.125)
    mu = DiscreteMeasure(g, {(0, 1): 0.25, (-3, 2): 0.75})
    back = deserialize(serialize(mu))
    assert back.grid == mu.grid
    assert back.weights == mu.weights
    with pytest.raises(ValueError):
        deserialize("not a table\n")


@pytest.mark.parametrize("text,reason", [
    ("", "missing"),
    ("\n  \n", "missing"),
    ("0 1.0\n", "missing"),
    ("# mtlab measure d=2 dx=0.5 dt=0.25\n0 1.0\n", "d=2"),
    ("# mtlab measure d=1 dx=0.5 dt=0.25\n0 1 1.0\n", "line 2"),
    ("# mtlab measure d=1 dx=0.5 dt=0.25\n0 0.5\n", "probability"),
    ("# mtlab measure d=1 dx=0.5 dt=0.25\n0 0.5\n0 0.5\n", "twice"),
    ("# mtlab measure d=1 dx=0.5 dt=0.25\n0 1.5\n1 -0.5\n", "probability"),
    ("# mtlab measure d=1 dt=0.25\n0 1.0\n", "header"),
    ("# mtlab measure d=1 dx=2.0 dt=0.25\n0 1.0\n", "header"),
    ("# mtlab measure d=1 dx=0.5 dt=0.25\nx 1.0\n", "line 2"),
    ("# mtlab measure d=1 dx=0.5 dt=0.25\n\n0 nan\n", "line 3"),
])
def test_deserialize_rejects_bad_tables(text, reason):
    with pytest.raises(MeasureFileError, match=reason):
        deserialize(text)
