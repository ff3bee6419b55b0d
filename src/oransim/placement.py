"""Dynamic scheduler-placement agent: run each DU's scheduler NF at the
DU (low latency, own-cell view) or at the CU (extra processing delay,
cross-DU interference coordination).

A single A2C agent issues one DU/CU action per DU at every epoch
boundary and learns from the epoch-averaged reward tau*(U*D) + lambda*R3
over the packets scheduled in between. The two always-DU / always-CU
baselines bypass the agent entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .a2c import A2cAgent, resolve_mode, select_action
from .traffic import CLASS_ORDER

LOCATION_DU = 0
LOCATION_CU = 1
LOCATION_NAMES = ("du", "cu")

N_PLACEMENT_FEATURES = 7


@dataclass
class PlacementConfig:
    epoch_ttis: int = 10
    cu_extra_delay_ttis: int = 2
    tau: float = 0.5
    lam: float = 0.5
    training: bool = True
    action_mode: str = "auto"
    pin: str | None = None      # "du" | "cu": override applied actions, keep learning


def dscd_reward_sample(is_urllc, at_du, within_budget, tau, lam):
    """Per-packet placement reward: tau*(U*D) + lambda*R3."""
    return tau * (is_urllc * at_du) + lam * within_budget


def epoch_reward(samples, location, tau, lam):
    """Average the per-packet reward over one epoch's scheduled packets.

    `samples` are (is_urllc, within_budget) pairs collected at scheduling
    time; an epoch without any scheduled packet earns 0.
    """
    if not samples:
        return 0.0
    d = 1 if location == LOCATION_DU else 0
    total = sum(dscd_reward_sample(u, d, ok, tau, lam) for u, ok in samples)
    return total / len(samples)


def queue_urllc_share(queues):
    """The URLLC share of one DU's queued packets."""
    total = urllc = 0
    for q in queues:
        total += len(q)
        if q.flow.is_urllc:
            urllc += len(q)
    return urllc / total if total else 0.0


def queue_mix(queues, now, tti_ms=1.0):
    """Per-class budget-pressure ratios, URLLC share and queued bits of a DU."""
    counts = dict.fromkeys(CLASS_ORDER, 0)
    ratio_sums = dict.fromkeys(CLASS_ORDER, 0.0)
    for q in queues:
        name = q.flow.label
        counts[name] += len(q)
        for p in q:
            age = p.age_ms(now, tti_ms)
            ratio_sums[name] += min(age / q.flow.delay_budget_ms, 2.0) / 2.0
    ratios = {name: (ratio_sums[name] / counts[name] if counts[name] else 0.0)
              for name in CLASS_ORDER}
    bits = sum(q.queued_bits for q in queues)
    return ratios, queue_urllc_share(queues), bits


def build_placement_observation(mix, current_location, cu_fraction,
                                depth_cap_bits=262_144):
    """Fixed 7-feature vector describing one DU's traffic situation, from
    the DU's `queue_mix`."""
    ratios, urllc_share, bits = mix
    obs = np.zeros(N_PLACEMENT_FEATURES)
    obs[0] = urllc_share
    obs[1] = ratios["video"]
    obs[2] = ratios["ar"]
    obs[3] = ratios["v2x"]
    obs[4] = min(bits / depth_cap_bits, 1.0)
    obs[5] = 1.0 if current_location == LOCATION_DU else 0.0
    obs[6] = cu_fraction
    return obs


@dataclass
class PlacementEvent:
    """One epoch decision for one DU, tagged with its queues' URLLC share."""
    tti: int
    du_id: int
    location: int
    urllc_share: float


class PlacementController:
    """Owns per-DU locations and the epoch decide/learn cycle.

    DU i hosts the scheduler of cell i, so DUs are ids 0..n_dus-1.
    `forced` pins every DU to one location with no agent at all (the
    NF-DU / NF-CU baselines); `cfg.pin` keeps the agent running but
    overrides what is applied, which must reproduce a forced run exactly.
    """

    def __init__(self, n_dus, cfg: PlacementConfig, agent: A2cAgent | None,
                 rng, forced: int | None = None, tti_ms=1.0):
        self.du_ids = range(n_dus)
        self.cfg = cfg
        self.agent = agent
        self.rng = rng
        self.forced = forced
        self.tti_ms = tti_ms
        if forced is None and agent is None:
            raise ValueError("dynamic placement needs an agent")
        start = forced if forced is not None else LOCATION_DU
        self.locations = [start] * n_dus
        # per DU: last epoch's (obs, action), awaiting its reward and next obs
        self._open: dict[int, tuple] = {}
        self._samples = [[] for _ in self.du_ids]

    def age_offset_ms(self, du_id):
        if self.locations[du_id] == LOCATION_CU:
            return self.cfg.cu_extra_delay_ttis * self.tti_ms
        return 0.0

    def cu_dus(self):
        """DU ids currently coordinated at the CU, in id order."""
        return [du for du in self.du_ids
                if self.locations[du] == LOCATION_CU]

    def record_samples(self, du_id, samples):
        self._samples[du_id].extend(samples)

    def is_epoch_boundary(self, tti):
        return tti % self.cfg.epoch_ttis == 0

    def decide_epoch(self, tti, du_queues):
        """Close out the last epoch, learn, and pick this epoch's locations.

        `du_queues[i]` lists the RLC queues DU i schedules.
        Returns the PlacementEvents for the ledger.
        """
        cu_fraction = len(self.cu_dus()) / len(self.du_ids)
        events = []
        for du in self.du_ids:
            if self.forced is not None:
                applied = self.forced
                urllc_share = queue_urllc_share(du_queues[du])
            else:
                mix = queue_mix(du_queues[du], tti, self.tti_ms)
                _, urllc_share, _ = mix
                obs = build_placement_observation(
                    mix, self.locations[du], cu_fraction)
                last = self._open.pop(du, None)
                if last is not None and self.cfg.training:
                    last_obs, last_action = last
                    reward = epoch_reward(
                        self._samples[du], self.locations[du],
                        self.cfg.tau, self.cfg.lam)
                    self.agent.learn([last_obs], [last_action], [reward],
                                     bootstrap=obs)
                probs = self.agent.action_distribution(obs)
                mode = resolve_mode(self.cfg.action_mode, self.cfg.training)
                action = select_action(probs, mode, self.rng)
                applied = action
                if self.cfg.pin is not None:
                    applied = LOCATION_NAMES.index(self.cfg.pin)
                self._open[du] = (obs, action)
            self._samples[du] = []
            self.locations[du] = applied
            events.append(PlacementEvent(
                tti=tti, du_id=du, location=applied,
                urllc_share=urllc_share))
        return events


def relocation_ratio(events, tti_range, urllc_threshold=None):
    """DU/CU fractions over the placement events in the [start, end) TTI
    range, optionally only the URLLC-dominated ones. Returns
    (du_ratio, cu_ratio) or None when nothing qualifies.
    """
    total = 0
    at_du = 0
    for ev in events:
        if not (tti_range[0] <= ev.tti < tti_range[1]):
            continue
        if urllc_threshold is not None and ev.urllc_share <= urllc_threshold:
            continue
        total += 1
        if ev.location == LOCATION_DU:
            at_du += 1
    if total == 0:
        return None
    return at_du / total, 1.0 - at_du / total
