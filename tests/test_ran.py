import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oransim.ran import (
    CQI_MAX,
    CQI_MIN,
    RBG_CAPACITY_BITS,
    UNASSIGNED,
    Cell,
    RanConfig,
    Ue,
    build_interference_view,
    compute_cqi,
    cqi_vector,
    drop_ues,
    grid_topology,
    nearest_cell_id,
    rbg_capacity,
    step_mobility,
)


def make_cell(n_rbg=4, pos=(0.0, 0.0)):
    return Cell(cell_id=0, position=pos, n_rbg=n_rbg)


def make_ue(pos, cell_id=0):
    return Ue(ue_id=0, position=pos, serving_cell_id=cell_id)


# ----------------------------------------------------------------- channel

def test_ue_at_cell_center_reports_max_cqi():
    cell = make_cell()
    assert compute_cqi(make_ue((0.0, 0.0)), cell, RanConfig()) == CQI_MAX


def penalized_cqi(ue, cell, view, cfg):
    return cqi_vector(compute_cqi(ue, cell, cfg), cell.n_rbg,
                      view.interfered_rbgs(cell.cell_id),
                      cfg.interference_cqi_penalty)


def test_interference_penalty_knocks_down_single_rbg():
    cell = make_cell(n_rbg=3)
    view = build_interference_view({0: np.array([5, UNASSIGNED, UNASSIGNED]),
                                    1: np.array([7, UNASSIGNED, UNASSIGNED])})
    cqi = penalized_cqi(make_ue((0.0, 0.0)), cell, view, RanConfig())
    assert list(cqi) == [12, 15, 15]


def test_penalty_floors_at_cqi_one():
    cfg = RanConfig(interference_cqi_penalty=3)
    cell = make_cell(n_rbg=1, pos=(0.0, 0.0))
    ue = make_ue((cfg.max_radius_m, 0.0))
    view = build_interference_view({0: np.array([1]), 1: np.array([2])})
    assert penalized_cqi(ue, cell, view, cfg)[0] == CQI_MIN


def test_ue_at_max_radius_reports_min_cqi():
    cfg = RanConfig()
    assert compute_cqi(make_ue((cfg.max_radius_m, 0.0)), make_cell(),
                       cfg) == CQI_MIN


def test_cqi_rejects_foreign_ue():
    with pytest.raises(ValueError):
        compute_cqi(make_ue((0, 0), cell_id=3), make_cell(), RanConfig())


@settings(max_examples=200)
@given(st.floats(min_value=0.0, max_value=5000.0),
       st.integers(0, 2**32 - 1))
def test_cqi_always_in_bounds(dist, seed):
    cfg = RanConfig(shadow_sigma_db=4.0)
    rng = np.random.default_rng(seed)
    cqi = compute_cqi(make_ue((dist, 0.0)), make_cell(), cfg, rng)
    assert CQI_MIN <= cqi <= CQI_MAX


def test_cqi_monotone_in_distance_without_shadowing():
    cfg = RanConfig()
    cell = make_cell(n_rbg=1)
    values = [compute_cqi(make_ue((d, 0.0)), cell, cfg)
              for d in np.linspace(0, cfg.max_radius_m, 60)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------- capacity

def test_capacity_table_is_pinned():
    # derivation: 4-bit CQI spectral efficiency x 12 subcarriers x 14 symbols
    eff = [0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141,
           2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547]
    assert RBG_CAPACITY_BITS == tuple(round(e * 12 * 14) for e in eff)


def test_capacity_monotone_and_positive():
    assert rbg_capacity(CQI_MIN) > 0
    for c in range(CQI_MIN, CQI_MAX):
        assert rbg_capacity(c) <= rbg_capacity(c + 1)
    assert rbg_capacity(CQI_MAX) > rbg_capacity(CQI_MIN)


def test_capacity_rejects_out_of_range():
    with pytest.raises(ValueError):
        rbg_capacity(0)
    with pytest.raises(ValueError):
        rbg_capacity(16)


# ---------------------------------------------------------------- mobility

def arena():
    return ((0.0, 0.0), (1000.0, 500.0))


def test_zero_velocity_ue_never_moves():
    cells, bounds = grid_topology(2)
    ue = make_ue((123.0, 45.0))
    rng = np.random.default_rng(0)
    for _ in range(10):
        step_mobility(ue, 1e-3, bounds, cells, rng)
    assert ue.position == (123.0, 45.0)


def test_straight_segment_displacement_matches_speed():
    cells, bounds = grid_topology(2)
    ue = Ue(ue_id=0, position=(100.0, 100.0), serving_cell_id=0,
            speed_mps=20.0, waypoint=(900.0, 100.0))
    start = ue.position
    k = 50
    for _ in range(k):
        step_mobility(ue, 1e-3, bounds, cells, np.random.default_rng(0))
    moved = math.hypot(ue.position[0] - start[0], ue.position[1] - start[1])
    assert moved == pytest.approx(20.0 * k * 1e-3, abs=1e-9)


def test_midpoint_crossing_triggers_handover():
    cells, bounds = grid_topology(2)  # cells at x=250 and x=750
    ue = Ue(ue_id=0, position=(490.0, 250.0), serving_cell_id=0,
            speed_mps=20.0, waypoint=(510.0, 250.0))
    for _ in range(2000):
        step_mobility(ue, 1e-3, bounds, cells, np.random.default_rng(1))
        if ue.position[0] > 500.0:
            break
    assert ue.position[0] > 500.0
    assert ue.serving_cell_id == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mobility_stays_inside_arena(seed):
    cells, bounds = grid_topology(2)
    rng = np.random.default_rng(seed)
    ue = Ue(ue_id=0, position=(rng.uniform(0, 1000), rng.uniform(0, 500)),
            serving_cell_id=0, speed_mps=float(rng.uniform(1, 200)))
    for _ in range(300):
        step_mobility(ue, 1e-3, bounds, cells, rng)
        assert 0.0 <= ue.position[0] <= 1000.0
        assert 0.0 <= ue.position[1] <= 500.0


# ------------------------------------------------------------- interference

def test_single_cell_view_is_empty():
    view = build_interference_view({0: np.array([3, 1, UNASSIGNED])})
    assert view.collision_count() == 0
    assert view.interfered_rbgs(0) == []


def test_mutual_collision_listed_both_ways():
    view = build_interference_view({0: np.array([4, UNASSIGNED]),
                                    1: np.array([9, UNASSIGNED])})
    assert view.interfered_rbgs(0) == [0]
    assert view.interfered_rbgs(1) == [0]
    assert view.collision_count() == 2


def test_disjoint_usage_gives_empty_view():
    view = build_interference_view({0: np.array([4, UNASSIGNED]),
                                    1: np.array([UNASSIGNED, 9])})
    assert view.collision_count() == 0
    assert view.interfered_rbgs(0) == []
    assert view.interfered_rbgs(1) == []


# ----------------------------------------------------------------- topology

def test_grid_topology_four_cells():
    cells, bounds = grid_topology(4, spacing_m=500.0)
    assert [c.position for c in cells] == [
        (250.0, 250.0), (750.0, 250.0), (250.0, 750.0), (750.0, 750.0)]
    assert bounds == ((0.0, 0.0), (1000.0, 1000.0))
    assert len({c.cell_id for c in cells}) == 4


def test_drop_ues_attaches_to_nearest():
    cells, bounds = grid_topology(4)
    ues = drop_ues(25, cells, bounds, np.random.default_rng(3))
    for ue in ues:
        assert 0.0 <= ue.position[0] <= 1000.0
        assert ue.serving_cell_id == nearest_cell_id(ue.position, cells)
