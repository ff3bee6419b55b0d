"""Channel/delay/priority-aware RBG scheduler driven by an A2C policy.

One decision per RBG per TTI: the actor sees a fixed grid of UE slots
(CQI, HoL pressure, priority, URLLC flag, buffer fill) and picks the
slot to grant. Slots whose UE has no uncovered demand are masked out
and their features zero-filled. Rewards combine above-average channel
quality, URLLC service and budget compliance, each worth one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .a2c import A2cAgent, resolve_mode, select_action
from .ran import Cell, UNASSIGNED, rbg_capacity

N_SLOT_FEATURES = 5


@dataclass
class SchedulerConfig:
    slot_count: int = 10
    obs_buffer_cap_bits: int = 65536
    training: bool = True
    action_mode: str = "auto"    # auto: sample while training, greedy otherwise
    masking: bool = True         # off: raw softmax, invalid picks waste the RBG

    def obs_dim(self):
        return self.slot_count * N_SLOT_FEATURES


@dataclass
class CellTti:
    """One cell's scheduling inputs for one TTI.

    `age_offset_ms` is the placement processing delay added to every
    packet's effective age; `blocked_rbgs` are RBGs a coordinated peer
    cell already claimed this TTI.
    """
    cell: Cell
    ues: list                      # UEs served by this cell
    queues: dict                   # ue_id -> RlcQueue
    cqi: np.ndarray                # every UE's CQI per RBG, row = UE id
    now: int
    age_offset_ms: float = 0.0
    blocked_rbgs: set = field(default_factory=set)


@dataclass
class TtiSchedule:
    allocation: np.ndarray                 # per RBG: ue_id or UNASSIGNED
    granted_bits: dict                     # ue_id -> bits granted this TTI


def reward_r1(cqi_chosen, candidate_cqis):
    """1 when the granted UE's CQI strictly beats the candidate mean."""
    if len(candidate_cqis) < 1:
        raise ValueError("need at least one candidate")
    mean = sum(candidate_cqis) / len(candidate_cqis)
    return max(int(np.sign(cqi_chosen - mean)), 0)


def reward_r2(flow):
    return 1 if flow.is_urllc else 0


def reward_r3(hol_delay_ms, budget_ms):
    """Budget-compliance term: sinc(pi * floor(delay/budget)).

    The floor is 0 exactly when the packet is inside its budget, where
    sinc is 1; every later integer lands on a sinc zero.
    """
    if budget_ms <= 0:
        raise ValueError("budget must be positive")
    return 1 if math.floor(hol_delay_ms / budget_ms) == 0 else 0


def scheduler_reward(cqi_chosen, candidate_cqis, flow, hol_delay_ms):
    return (reward_r1(cqi_chosen, candidate_cqis)
            + reward_r2(flow)
            + reward_r3(hol_delay_ms, flow.delay_budget_ms))


def select_slot_ues(ctx: CellTti, cfg: SchedulerConfig):
    """Fixed per-TTI slot assignment: one backlogged UE per slot, by id.

    On overflow the most important UEs are kept (lowest QCI priority
    number, longest HoL first on ties).
    """
    backlogged = [ue for ue in ctx.ues
                  if len(ctx.queues[ue.ue_id]) > 0]
    if len(backlogged) > cfg.slot_count:
        backlogged.sort(key=lambda ue: (
            ctx.queues[ue.ue_id].flow.priority,
            -ctx.queues[ue.ue_id].hol_delay_ms(ctx.now, ctx.age_offset_ms),
            ue.ue_id))
        backlogged = backlogged[:cfg.slot_count]
    backlogged.sort(key=lambda ue: ue.ue_id)
    slots = backlogged + [None] * (cfg.slot_count - len(backlogged))
    return slots


class ObservationGrid:
    """One cell's decision features for one TTI: a (slots x 5) grid.

    The HoL, priority and URLLC columns hold for the whole TTI, column 0
    takes the offered RBG's CQI from a (slots x n_rbg) CQI / 15 matrix,
    and a grant changes only its slot's buffer feature and validity. A
    slot without uncovered demand is dark: an all-zero row, masked out.
    """

    def __init__(self, ctx: CellTti, slot_ues, uncovered_bits, cfg):
        self.buffer_cap_bits = cfg.obs_buffer_cap_bits
        self.features = np.zeros((len(slot_ues), N_SLOT_FEATURES))
        self.cqi = np.zeros((len(slot_ues), ctx.cell.n_rbg))
        self.valid = np.zeros(len(slot_ues), dtype=bool)
        for i, ue in enumerate(slot_ues):
            if ue is None or uncovered_bits.get(ue.ue_id, 0) <= 0:
                continue
            q = ctx.queues[ue.ue_id]
            flow = q.flow
            hol = q.hol_delay_ms(ctx.now, ctx.age_offset_ms)
            row = self.features[i]
            row[1] = min(hol / flow.delay_budget_ms, 2.0) / 2.0
            row[2] = 1.0 - flow.priority / 100.0
            row[3] = 1.0 if flow.is_urllc else 0.0
            row[4] = min(uncovered_bits[ue.ue_id] / self.buffer_cap_bits, 1.0)
            self.cqi[i] = ctx.cqi[ue.ue_id]
            self.valid[i] = True
        self.cqi /= 15.0

    def grant(self, slot, uncovered_bits):
        """The slot's UE was granted an RBG and has `uncovered_bits` left."""
        if uncovered_bits > 0:
            self.features[slot, 4] = min(uncovered_bits / self.buffer_cap_bits,
                                         1.0)
            return
        self.features[slot] = 0.0
        self.cqi[slot] = 0.0
        # a new mask: earlier steps keep the one they were taken under
        self.valid = self.valid.copy()
        self.valid[slot] = False


def build_observation(grid: ObservationGrid, rbg):
    """Feature vector for one RBG decision; all entries in [0, 1]. A fresh
    array each call: the TTI's chain of steps keeps it."""
    grid.features[:, 0] = grid.cqi[:, rbg]
    return grid.features.flatten()


def schedule_tti(agent: A2cAgent, ctx: CellTti, cfg: SchedulerConfig, rng,
                 learn=None):
    """Assign each RBG of the TTI and train the agent on the decisions.

    The decisions form one chain (see `A2cAgent.learn`): each one's next
    state is the following offered RBG's observation and the last one is
    terminal. Training runs after the decision loop: one `learn` call
    takes the steps in decision order, critic first, and writes each
    layer once; a cell that made no decision makes no call. `learn` is
    where that call runs: `agent.learn` unless given.
    """
    n_rbg = ctx.cell.n_rbg
    allocation = np.full(n_rbg, UNASSIGNED, dtype=int)
    if ctx.blocked_rbgs.issuperset(range(n_rbg)):
        # a coordinated peer took every RBG: no decision, nothing to learn
        return TtiSchedule(allocation=allocation, granted_bits={})
    slot_ues = select_slot_ues(ctx, cfg)
    uncovered = {ue.ue_id: ctx.queues[ue.ue_id].queued_remaining_bits
                 for ue in slot_ues if ue is not None}
    grid = ObservationGrid(ctx, slot_ues, uncovered, cfg)
    granted = {}
    obs_rows, actions, rewards, masks = [], [], [], []
    mode = resolve_mode(cfg.action_mode, cfg.training)

    for rbg in range(n_rbg):
        if rbg in ctx.blocked_rbgs:
            continue
        valid = grid.valid
        if not valid.any():
            continue
        obs = build_observation(grid, rbg)
        mask = valid if cfg.masking else None
        probs = agent.action_distribution(obs, mask)
        action = select_action(probs, mode, rng)

        if valid[action]:
            ue = slot_ues[action]
            q = ctx.queues[ue.ue_id]
            candidate_cqis = [ctx.cqi[u.ue_id, rbg]
                              for u, ok in zip(slot_ues, valid) if ok]
            hol = q.hol_delay_ms(ctx.now, ctx.age_offset_ms)
            reward = scheduler_reward(ctx.cqi[ue.ue_id, rbg], candidate_cqis,
                                      q.flow, hol)
            allocation[rbg] = ue.ue_id
            cap = rbg_capacity(int(ctx.cqi[ue.ue_id, rbg]))
            granted[ue.ue_id] = granted.get(ue.ue_id, 0) + cap
            uncovered[ue.ue_id] -= cap
            grid.grant(action, uncovered[ue.ue_id])
        else:
            # only reachable with masking off: the RBG is wasted
            reward = 0

        obs_rows.append(obs)
        actions.append(action)
        rewards.append(reward)
        masks.append(mask)

    if cfg.training and obs_rows:
        (learn or agent.learn)(obs_rows, actions, rewards,
                               masks if cfg.masking else None)

    return TtiSchedule(allocation=allocation, granted_bits=granted)
