"""Abstract radio model: cells, UEs, the RBG grid, CQI and mobility.

The channel is log-distance path loss mapped linearly in dB onto CQI
1..15 between two SNR anchors, with an optional log-normal shadowing
term and a flat CQI-step penalty on RBGs that saw an inter-cell
collision last TTI. Deliberately desk-scale: no fading process, no
HARQ, no uplink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNASSIGNED = -1

CQI_MIN = 1
CQI_MAX = 15

# bits per RBG per TTI, indexed by CQI 1..15: standard 4-bit CQI spectral
# efficiencies scaled by 12 subcarriers x 14 symbols and rounded. Part of
# the config contract; tests pin these numbers.
RBG_CAPACITY_BITS = (
    26, 39, 63, 101, 147, 198, 248, 322, 404, 459, 558, 656, 760, 859, 933,
)


@dataclass
class RanConfig:
    cell_spacing_m: float = 500.0
    path_loss_exponent: float = 3.5
    ref_distance_m: float = 1.0
    near_snr_db: float = -70.0     # at or above this, CQI 15
    max_radius_m: float = 600.0    # at this distance (and no shadowing), CQI 1
    shadow_sigma_db: float = 0.0   # 0 disables the shadowing draw
    interference_cqi_penalty: int = 3
    vehicle_speed_mps: float = 14.0

    def far_snr_db(self):
        return -10.0 * self.path_loss_exponent * math.log10(
            self.max_radius_m / self.ref_distance_m)


@dataclass
class Cell:
    """One cell, served by the DU of the same id."""
    cell_id: int
    position: tuple[float, float]
    n_rbg: int

    def __post_init__(self):
        if self.n_rbg < 1:
            raise ValueError("n_rbg must be >= 1")


@dataclass
class Ue:
    ue_id: int
    position: tuple[float, float]
    serving_cell_id: int
    cqi_per_rbg: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    waypoint: tuple[float, float] | None = None
    speed_mps: float = 0.0

    @property
    def mobile(self):
        return self.speed_mps > 0.0


def distance(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def snr_to_cqi(snr_db, cfg: RanConfig):
    far = cfg.far_snr_db()
    frac = (snr_db - far) / (cfg.near_snr_db - far)
    frac = min(max(frac, 0.0), 1.0)
    return int(round(CQI_MIN + (CQI_MAX - CQI_MIN) * frac))


def compute_cqi(ue: Ue, cell: Cell, cfg: RanConfig, rng=None):
    """Base CQI of a UE attached to `cell`: path loss at the UE's distance
    (plus shadowing when enabled). `cqi_vector` applies the interference
    penalty per RBG.
    """
    if ue.serving_cell_id != cell.cell_id:
        raise ValueError(f"UE {ue.ue_id} is not served by cell {cell.cell_id}")
    d = max(distance(ue.position, cell.position), 0.0)
    if d <= cfg.ref_distance_m:
        snr = 0.0
    else:
        snr = -10.0 * cfg.path_loss_exponent * math.log10(d / cfg.ref_distance_m)
    if cfg.shadow_sigma_db > 0.0 and rng is not None:
        snr += cfg.shadow_sigma_db * rng.standard_normal()
    return snr_to_cqi(snr, cfg)


def cqi_vector(base, interfered, penalty):
    """The base CQI knocked down by `penalty` (floored at CQI 1) where the
    bool `interfered` is set. Broadcasts: one UE's base CQI and its cell's
    collided row give its CQI per RBG, and a column of base CQIs with the
    rows of their UEs' cells gives the (UEs x RBGs) matrix."""
    return np.where(interfered, np.maximum(base - penalty, CQI_MIN), base)


def rbg_capacity(cqi: int) -> int:
    """Bits one RBG carries in one TTI at the given CQI."""
    if not (CQI_MIN <= cqi <= CQI_MAX):
        raise ValueError(f"CQI {cqi} outside [{CQI_MIN}, {CQI_MAX}]")
    return RBG_CAPACITY_BITS[cqi - 1]


def build_interference_view(allocations):
    """Which (cell, rbg) grants collided: set where the cell granted the
    RBG and at least one other cell did too. `allocations` is the TTI's
    (n_cells, n_rbg) grant matrix, UNASSIGNED where no UE was granted."""
    used = allocations != UNASSIGNED
    return used & (used.sum(axis=0) > 1)


def nearest_cell_id(position, cells):
    best, best_d = None, float("inf")
    for cell in cells:
        d = distance(position, cell.position)
        if d < best_d:
            best, best_d = cell.cell_id, d
    return best


def step_mobility(ue: Ue, dt_s, bounds, cells, rng):
    """Random-waypoint step for one UE; fixed UEs pass through untouched.

    Moves toward the current waypoint at the UE's speed, draws a new
    waypoint on arrival, clamps to the arena and re-selects the nearest
    cell as serving cell.
    """
    if not ue.mobile:
        return ue
    (xmin, ymin), (xmax, ymax) = bounds
    if ue.waypoint is None:
        ue.waypoint = (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
    step = ue.speed_mps * dt_s
    wx, wy = ue.waypoint
    dx, dy = wx - ue.position[0], wy - ue.position[1]
    dist_left = math.hypot(dx, dy)
    if dist_left <= step:
        ue.position = ue.waypoint
        ue.waypoint = (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
    else:
        f = step / dist_left
        ue.position = (ue.position[0] + dx * f, ue.position[1] + dy * f)
    ue.position = (min(max(ue.position[0], xmin), xmax),
                   min(max(ue.position[1], ymin), ymax))
    ue.serving_cell_id = nearest_cell_id(ue.position, cells)
    return ue


def grid_topology(n_cells, spacing_m=500.0, n_rbg=8):
    """Cells on a grid with half-spacing margins; returns (cells, bounds)."""
    cols = math.ceil(math.sqrt(n_cells))
    rows = math.ceil(n_cells / cols)
    cells = []
    for i in range(n_cells):
        r, c = divmod(i, cols)
        cells.append(Cell(cell_id=i, n_rbg=n_rbg,
                          position=(spacing_m / 2 + c * spacing_m,
                                    spacing_m / 2 + r * spacing_m)))
    bounds = ((0.0, 0.0), (cols * spacing_m, rows * spacing_m))
    return cells, bounds


def drop_ues(n_ues, cells, bounds, rng):
    """Uniformly placed UEs, each attached to its nearest cell."""
    (xmin, ymin), (xmax, ymax) = bounds
    ues = []
    for ue_id in range(n_ues):
        pos = (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
        ues.append(Ue(ue_id=ue_id, position=pos,
                      serving_cell_id=nearest_cell_id(pos, cells)))
    return ues
