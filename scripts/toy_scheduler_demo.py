#!/usr/bin/env python3
"""Train the RBG scheduler on the two-UE toy cell and print the learning
curve: probability of picking the high-CQI URLLC UE over the low-CQI,
perpetually late video UE.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from oransim.a2c import A2cAgent
from oransim.ran import Cell, Ue
from oransim.scheduler import (
    CellTti, ObservationGrid, SchedulerConfig, build_observation,
    schedule_tti, select_slot_ues,
)
from oransim.traffic import RlcQueue, make_flow


def main():
    ttis = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    cfg = SchedulerConfig(slot_count=2)
    agent = A2cAgent.build(cfg.obs_dim(), cfg.slot_count, actor_hidden=900,
                           critic_hidden=100, rng_seed=0)
    rng = np.random.default_rng(0)
    cell = Cell(cell_id=0, position=(0.0, 0.0), n_rbg=2)
    ue0 = Ue(0, (0.0, 0.0), 0, cqi_per_rbg=np.full(2, 15))
    ue1 = Ue(1, (0.0, 0.0), 0, cqi_per_rbg=np.full(2, 3))
    queues = {0: RlcQueue(make_flow("ar", 2_000_000.0)),
              1: RlcQueue(make_flow("video", 4_000_000.0))}

    probs = []
    for t in range(ttis):
        for q in queues.values():
            q.generate_arrivals(t, rng.poisson(q.arrival_rate()))
        ctx = CellTti(cell=cell, ues=[ue0, ue1], queues=queues, now=t)
        if len(queues[0]) and len(queues[1]):
            slots = select_slot_ues(ctx, cfg)
            unc = {i: queues[i].queued_remaining_bits for i in queues}
            obs = build_observation(ObservationGrid(ctx, slots, unc, cfg), 0)
            probs.append(float(agent.action_distribution(obs)[0]))
        out = schedule_tti(agent, ctx, cfg, rng)
        for ue_id, bits in out.granted_bits.items():
            queues[ue_id].serve(bits, t)
        for q in queues.values():
            q.drop_expired(t)
        if probs and len(probs) % 200 == 0:
            print(f"after {t + 1:5d} TTIs: "
                  f"P(URLLC UE) = {np.mean(probs[-200:]):.3f}")

    print(f"\nfinal 200-TTI mean P(URLLC UE): {np.mean(probs[-200:]):.3f}")


if __name__ == "__main__":
    main()
