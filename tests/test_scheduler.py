import copy
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oransim.a2c import A2cAgent
from oransim.config import SimConfig, parse_config_file, set_key
from oransim.engine import run_batch
from oransim.metrics import tail_summary
from oransim.ran import UNASSIGNED, Cell, Ue, rbg_capacity
from oransim.scheduler import (
    CellTti,
    ObservationGrid,
    SchedulerConfig,
    build_observation,
    reward_r1,
    reward_r2,
    reward_r3,
    schedule_tti,
    scheduler_reward,
    select_slot_ues,
)
from oransim.traffic import CLASS_ORDER, RlcQueue, make_flow

from test_a2c import chain_steps

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def toy_cell(n_rbg=2):
    return Cell(cell_id=0, position=(0.0, 0.0), n_rbg=n_rbg)


def make_ue(ue_id):
    return Ue(ue_id=ue_id, position=(0.0, 0.0), serving_cell_id=0)


def cqi_matrix(ues, cqis, n_rbg):
    """The CQI matrix, row = UE id: each of `ues` gets its entry of `cqis`
    (one CQI for every RBG, or one per RBG); any other row stays 0."""
    cqi = np.zeros((max((ue.ue_id for ue in ues), default=-1) + 1, n_rbg),
                   dtype=int)
    for ue, c in zip(ues, cqis, strict=True):
        cqi[ue.ue_id] = c
    return cqi


def make_ctx(ues, queues, cqis, now=0, n_rbg=2, age_offset_ms=0.0,
             blocked=()):
    return CellTti(cell=toy_cell(n_rbg), ues=ues, queues=queues,
                   cqi=cqi_matrix(ues, cqis, n_rbg), now=now,
                   age_offset_ms=age_offset_ms, blocked_rbgs=set(blocked))


def make_agent(cfg, seed=0):
    return A2cAgent.build(cfg.obs_dim(), cfg.slot_count, actor_hidden=16,
                          critic_hidden=8, rng_seed=seed)


def spy_learn(agent):
    """Record each `agent.learn` call as the steps of its chain (see
    `chain_steps`); returns the list of calls."""
    calls = []
    learn = agent.learn

    def spy(*chain):
        calls.append(chain_steps(*chain))
        return learn(*chain)

    agent.learn = spy
    return calls


# ----------------------------------------------------------------- rewards

def test_r1_above_mean():
    assert reward_r1(10, [10, 7, 4]) == 1


def test_r1_below_mean():
    assert reward_r1(5, [5, 9]) == 0


def test_r1_equal_mean_is_zero():
    assert reward_r1(7, [7, 7]) == 0


def test_r2_by_class():
    assert reward_r2(make_flow("ar", 1.0)) == 1
    assert reward_r2(make_flow("v2x", 1.0)) == 1
    assert reward_r2(make_flow("video", 1.0)) == 0


def test_r3_within_budget():
    assert reward_r3(5.0, 10.0) == 1


def test_r3_one_period_over():
    assert reward_r3(12.0, 10.0) == 0


def test_r3_two_periods_over():
    assert reward_r3(25.0, 10.0) == 0


def test_reward_sum_matches_components_exhaustively():
    video = make_flow("video", 1.0)
    ar = make_flow("ar", 1.0)
    for cqi in range(1, 16):
        for other in range(1, 16):
            for flow in (video, ar):
                for hol in (0.0, 5.0, 11.0, 200.0):
                    total = scheduler_reward(cqi, [cqi, other], flow, hol)
                    expect = (reward_r1(cqi, [cqi, other]) + reward_r2(flow)
                              + reward_r3(hol, flow.delay_budget_ms))
                    assert total == expect
                    assert total in (0, 1, 2, 3)


# -------------------------------------------------------------- observation

def test_empty_queue_slot_is_zero_filled():
    cfg = SchedulerConfig(slot_count=2)
    ue = make_ue(0)
    q = RlcQueue(make_flow("video", 1.0))
    ctx = make_ctx([ue], {0: q}, cqis=[12])
    slots = select_slot_ues(ctx, cfg)
    assert slots == [None, None]  # empty queue: not backlogged at all
    obs = build_observation(ObservationGrid(ctx, slots, {}, cfg), 0)
    assert np.all(obs == 0.0)


def test_hol_at_budget_encodes_half():
    cfg = SchedulerConfig(slot_count=1)
    ue = make_ue(0)
    q = RlcQueue(make_flow("ar", 1.0))  # 10 ms budget
    q.generate_arrivals(0, 1)
    ctx = make_ctx([ue], {0: q}, cqis=[15], now=10)
    slots = select_slot_ues(ctx, cfg)
    obs = build_observation(ObservationGrid(ctx, slots, {0: 1000}, cfg), 0)
    assert obs[0] == 1.0            # CQI 15 -> 1.0
    assert obs[1] == 0.5            # HoL == budget -> ratio 1 of cap 2
    assert obs[3] == 1.0            # URLLC flag


def test_observation_features_bounded():
    cfg = SchedulerConfig(slot_count=3)
    ues = [make_ue(i) for i in range(3)]
    queues = {}
    for i, name in enumerate(("video", "ar", "v2x")):
        q = RlcQueue(make_flow(name, 1.0, packet_size_bits=90_000))
        q.generate_arrivals(0, 5)
        queues[i] = q
    ctx = make_ctx(ues, queues, cqis=(1, 8, 15), now=400)
    slots = select_slot_ues(ctx, cfg)
    uncovered = {i: queues[i].queued_remaining_bits for i in queues}
    obs = build_observation(ObservationGrid(ctx, slots, uncovered, cfg), 1)
    assert np.all(obs >= 0.0) and np.all(obs <= 1.0)


def oracle_observation(ctx, rbg, slot_ues, uncovered_bits, cfg):
    """The observation built slot by slot for each decision: the reference
    that the per-TTI grid must reproduce bit for bit."""
    obs = np.zeros(cfg.obs_dim())
    for i, ue in enumerate(slot_ues):
        if ue is None:
            continue
        if uncovered_bits.get(ue.ue_id, 0) <= 0:
            continue
        q = ctx.queues[ue.ue_id]
        flow = q.flow
        hol = q.hol_delay_ms(ctx.now, ctx.age_offset_ms)
        base = i * 5
        obs[base + 0] = ctx.cqi[ue.ue_id, rbg] / 15.0
        obs[base + 1] = min(hol / flow.delay_budget_ms, 2.0) / 2.0
        obs[base + 2] = 1.0 - flow.priority / 100.0
        obs[base + 3] = 1.0 if flow.is_urllc else 0.0
        obs[base + 4] = min(uncovered_bits[ue.ue_id] / cfg.obs_buffer_cap_bits,
                            1.0)
    return obs


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grid_observations_equal_the_per_slot_build(data):
    draw = data.draw
    n_rbg = draw(st.integers(1, 5))
    cfg = SchedulerConfig(slot_count=draw(st.integers(1, 5)),
                          obs_buffer_cap_bits=draw(st.sampled_from([900, 65536])))
    now = draw(st.integers(0, 300))
    tti_ms = draw(st.sampled_from([0.5, 1.0]))
    ues, cqis, queues = [], [], {}
    for i in range(draw(st.integers(0, 7))):
        cqis.append(draw(st.lists(st.integers(1, 15), min_size=n_rbg,
                                  max_size=n_rbg)))
        ues.append(make_ue(i))
        flow = make_flow(draw(st.sampled_from(CLASS_ORDER)), 1.0,
                         packet_size_bits=draw(st.integers(1, 3000)))
        q = RlcQueue(flow, tti_ms)
        for arrival in sorted(draw(st.lists(st.integers(0, now), max_size=4))):
            q.generate_arrivals(arrival, 1)
        queues[i] = q
    ctx = make_ctx(ues, queues, cqis, now=now, n_rbg=n_rbg,
                   age_offset_ms=draw(st.sampled_from([0.0, 2.0])),
                   blocked=draw(st.sets(st.integers(0, n_rbg - 1))))
    slots = select_slot_ues(ctx, cfg)
    uncovered = {ue.ue_id: queues[ue.ue_id].queued_remaining_bits
                 for ue in slots if ue is not None}
    grid = ObservationGrid(ctx, slots, uncovered, cfg)
    handed_out = []
    for rbg in range(n_rbg):
        if rbg in ctx.blocked_rbgs:
            continue
        obs = build_observation(grid, rbg)
        expected = oracle_observation(ctx, rbg, slots, uncovered, cfg)
        assert obs.tobytes() == expected.tobytes()
        valid = [ue is not None and uncovered.get(ue.ue_id, 0) > 0
                 for ue in slots]
        assert grid.valid.tolist() == valid
        handed_out.append((obs, obs.copy(), grid.valid, grid.valid.copy()))
        if any(valid):
            # grant one RBG to a random valid slot: often a partial grant
            slot = draw(st.sampled_from(
                [i for i, ok in enumerate(valid) if ok]))
            ue = slots[slot]
            uncovered[ue.ue_id] -= rbg_capacity(int(ctx.cqi[ue.ue_id, rbg]))
            grid.grant(slot, uncovered[ue.ue_id])
    # every decision kept its own observation and the mask it was taken under
    for obs, obs_then, mask, mask_then in handed_out:
        assert obs.tobytes() == obs_then.tobytes()
        assert mask.tolist() == mask_then.tolist()


def test_overflow_keeps_most_important_then_longest_hol():
    cfg = SchedulerConfig(slot_count=2)
    ues = [make_ue(i) for i in range(4)]
    queues = {
        0: RlcQueue(make_flow("video", 1.0)),  # priority 40
        1: RlcQueue(make_flow("ar", 1.0)),     # priority 68
        2: RlcQueue(make_flow("v2x", 1.0)),    # priority 25 <- kept
        3: RlcQueue(make_flow("video", 1.0)),  # priority 40, older head
    }
    queues[0].generate_arrivals(8, 1)
    queues[1].generate_arrivals(0, 1)
    queues[2].generate_arrivals(9, 1)
    queues[3].generate_arrivals(2, 1)
    ctx = make_ctx(ues, queues, cqis=[10] * 4, now=10)
    slots = select_slot_ues(ctx, cfg)
    # v2x (prio 25) and the older video queue win; slot order is by ue_id
    assert [ue.ue_id for ue in slots] == [2, 3]


# ------------------------------------------------------------- schedule_tti

def test_all_queues_empty_leaves_all_rbgs_unassigned():
    cfg = SchedulerConfig(slot_count=2)
    agent = make_agent(cfg)
    learned = spy_learn(agent)
    ues = [make_ue(0), make_ue(1)]
    queues = {0: RlcQueue(make_flow("video", 1.0)),
              1: RlcQueue(make_flow("ar", 1.0))}
    out = schedule_tti(agent, make_ctx(ues, queues, cqis=(10, 5)), cfg,
                       np.random.default_rng(0))
    assert np.all(out.allocation == UNASSIGNED)
    assert learned == []   # no decision, no call


def test_single_backlogged_ue_gets_every_rbg():
    cfg = SchedulerConfig(slot_count=3)
    agent = make_agent(cfg)
    learned = spy_learn(agent)
    ue = make_ue(0)
    q = RlcQueue(make_flow("video", 1.0))
    q.generate_arrivals(0, 10)  # demand far above one TTI of capacity
    ctx = make_ctx([ue], {0: q}, cqis=[15], n_rbg=4)
    out = schedule_tti(agent, ctx, cfg, np.random.default_rng(1))
    assert np.all(out.allocation == 0)
    [steps] = learned
    assert len(steps) == 4
    assert [t.terminal for t in steps] == [False, False, False, True]


def test_covered_demand_masks_remaining_rbgs():
    cfg = SchedulerConfig(slot_count=2)
    agent = make_agent(cfg)
    ue = make_ue(0)
    q = RlcQueue(make_flow("video", 1.0, packet_size_bits=500))
    q.generate_arrivals(0, 1)  # one RBG at CQI 15 covers it
    ctx = make_ctx([ue], {0: q}, cqis=[15], n_rbg=4)
    out = schedule_tti(agent, ctx, cfg, np.random.default_rng(1))
    assert out.allocation[0] == 0
    assert np.all(out.allocation[1:] == UNASSIGNED)


def test_blocked_rbgs_stay_unassigned():
    cfg = SchedulerConfig(slot_count=2)
    agent = make_agent(cfg)
    ue = make_ue(0)
    q = RlcQueue(make_flow("video", 1.0))
    q.generate_arrivals(0, 10)
    ctx = make_ctx([ue], {0: q}, cqis=[15], n_rbg=4, blocked=(0, 2))
    out = schedule_tti(agent, ctx, cfg, np.random.default_rng(1))
    assert out.allocation[0] == UNASSIGNED
    assert out.allocation[2] == UNASSIGNED
    assert out.allocation[1] == 0 and out.allocation[3] == 0


def test_fully_blocked_cell_decides_and_learns_nothing():
    cfg = SchedulerConfig(slot_count=2)
    agent = make_agent(cfg, seed=4)
    learned = spy_learn(agent)
    rng = np.random.default_rng(1)
    ue = make_ue(0)
    q = RlcQueue(make_flow("ar", 1.0))
    q.generate_arrivals(0, 10)
    params, rng_state = copy.deepcopy(agent), rng.bit_generator.state
    ctx = make_ctx([ue], {0: q}, cqis=[15], n_rbg=3, blocked=(0, 1, 2))
    out = schedule_tti(agent, ctx, cfg, rng)
    assert np.all(out.allocation == UNASSIGNED)
    assert learned == [] and out.granted_bits == {}
    for net, old in ((agent.actor, params.actor), (agent.critic, params.critic)):
        for w, w0 in zip(net.weights + net.biases, old.weights + old.biases):
            assert w.tobytes() == w0.tobytes()
    assert agent.update_count == 0
    assert rng.bit_generator.state == rng_state


def test_empty_queue_ue_never_assigned():
    cfg = SchedulerConfig(slot_count=4)
    agent = make_agent(cfg, seed=5)
    ues = [make_ue(i) for i in range(3)]
    queues = {i: RlcQueue(make_flow("video", 1.0)) for i in range(3)}
    queues[1].generate_arrivals(0, 20)
    ctx = make_ctx(ues, queues, cqis=[10] * 3, n_rbg=6)
    out = schedule_tti(agent, ctx, cfg, np.random.default_rng(2))
    assigned = set(out.allocation.tolist()) - {UNASSIGNED}
    assert assigned == {1}


def test_masking_disabled_wastes_rbgs_on_invalid_picks():
    cfg = SchedulerConfig(slot_count=4, masking=False)
    agent = make_agent(cfg, seed=7)
    learned = spy_learn(agent)
    rng = np.random.default_rng(6)
    ue = make_ue(1)
    q = RlcQueue(make_flow("video", 1.0))
    q.generate_arrivals(0, 20)
    out = schedule_tti(agent, make_ctx([ue], {1: q}, cqis=[12], n_rbg=8),
                       cfg, rng)
    # the near-uniform fresh policy picks empty slots ~3/4 of the time
    assert (out.allocation == UNASSIGNED).sum() > 0
    [steps] = learned
    assert len(steps) == 8  # every RBG still offered
    for alloc, tr in zip(out.allocation.tolist(), steps):
        if alloc == UNASSIGNED:
            assert tr.reward == 0.0
        else:
            assert alloc == 1
        assert tr.mask is None


def test_training_disabled_leaves_agent_bitwise_identical():
    cfg = SchedulerConfig(slot_count=2, training=False)
    agent = make_agent(cfg, seed=9)
    before = [w.copy() for w in agent.actor.weights + agent.critic.weights]
    ues = [make_ue(0), make_ue(1)]
    queues = {0: RlcQueue(make_flow("ar", 1.0)),
              1: RlcQueue(make_flow("video", 1.0))}
    for i in (0, 1):
        queues[i].generate_arrivals(0, 5)
    schedule_tti(agent, make_ctx(ues, queues, cqis=(12, 3)), cfg,
                 np.random.default_rng(3))
    after = agent.actor.weights + agent.critic.weights
    for w, old in zip(after, before):
        assert w.tobytes() == old.tobytes()


def test_rewards_in_range_and_aligned_with_transitions():
    cfg = SchedulerConfig(slot_count=3)
    agent = make_agent(cfg, seed=4)
    learned = spy_learn(agent)
    rng = np.random.default_rng(11)
    ues = [make_ue(i) for i in range(3)]
    queues = {}
    for i, name in enumerate(("ar", "video", "v2x")):
        q = RlcQueue(make_flow(name, 1.0, packet_size_bits=2000))
        q.generate_arrivals(0, 6)
        queues[i] = q
    ctx = make_ctx(ues, queues, cqis=(15, 8, 2), now=3, n_rbg=4)
    out = schedule_tti(agent, ctx, cfg, rng)
    [steps] = learned
    assert len(steps) == np.count_nonzero(out.allocation != UNASSIGNED)
    for alloc, tr in zip(out.allocation.tolist(), steps):
        assert tr.reward in (0.0, 1.0, 2.0, 3.0)
        assert tr.action == [0, 1, 2].index(alloc)   # slot i holds UE i


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_schedule_deterministic_given_seed(seed):
    def run():
        cfg = SchedulerConfig(slot_count=3)
        agent = make_agent(cfg, seed=seed)
        learned = spy_learn(agent)
        rng = np.random.default_rng(seed + 1)
        ues = [make_ue(i) for i in range(3)]
        queues = {}
        for i, name in enumerate(("ar", "video", "v2x")):
            q = RlcQueue(make_flow(name, 1.0, packet_size_bits=1500))
            q.generate_arrivals(0, 4)
            queues[i] = q
        ctx = make_ctx(ues, queues, cqis=(5, 6, 7), n_rbg=3)
        out = schedule_tti(agent, ctx, cfg, rng)
        return out.allocation.tolist(), [t.reward for t in learned[0]]

    assert run() == run()


def test_two_ue_toy_learns_to_prefer_urllc():
    """500-TTI smoke version of the acceptance learning check."""
    cfg = SchedulerConfig(slot_count=2)
    agent = make_agent(cfg, seed=0)
    rng = np.random.default_rng(0)
    ue0 = make_ue(0)               # URLLC, great channel (CQI 15)
    ue1 = make_ue(1)               # video, CQI 3, perpetually late
    q0 = RlcQueue(make_flow("ar", 2_000_000.0))
    q1 = RlcQueue(make_flow("video", 4_000_000.0))
    queues = {0: q0, 1: q1}
    probs = []
    for t in range(500):
        q0.generate_arrivals(t, rng.poisson(q0.arrival_rate()))
        q1.generate_arrivals(t, rng.poisson(q1.arrival_rate()))
        ctx = make_ctx([ue0, ue1], queues, cqis=(15, 3), now=t)
        if len(q0) and len(q1):
            slots = select_slot_ues(ctx, cfg)
            unc = {i: queues[i].queued_remaining_bits for i in queues}
            obs = build_observation(ObservationGrid(ctx, slots, unc, cfg), 0)
            probs.append(agent.action_distribution(obs)[0])
        out = schedule_tti(agent, ctx, cfg, rng)
        for ue_id, bits in out.granted_bits.items():
            queues[ue_id].serve(bits, t)
        q0.drop_expired(t)
        q1.drop_expired(t)
    assert np.mean(probs[-50:]) > np.mean(probs[:50])
    assert np.mean(probs[-50:]) > 0.6


# Tail URLLC PDR of nf-du, 2 runs x 1200 TTIs, seed 1. Measured: trained
# 1.000 on desk_fixed AR and 0.998 on desk_mobile V2X; frozen greedy 0.732
# and 0.923, frozen sampling 0.868 and 0.958. The margin is half the
# smallest gap (0.040, desk_mobile against frozen sampling).
LEARNING_MARGIN = 0.02
FROZEN = {"greedy": (("sched.training", "false"),),
          "sample": (("sched.training", "false"),
                     ("sched.action_mode", "sample"))}


@pytest.mark.parametrize("preset, cls", [("desk_fixed.conf", "ar"),
                                         ("desk_mobile.conf", "v2x")])
def test_trained_scheduler_beats_both_frozen_policies(preset, cls):
    # training trades video for URLLC, as the reward's URLLC term asks, so
    # only the URLLC class is compared
    pdr = {}
    for policy, keys in {"trained": (), **FROZEN}.items():
        cfg = parse_config_file(os.path.join(CONFIGS, preset),
                                base=SimConfig())
        for key, value in (("sim.mode", "nf-du"), ("sim.runs", "2"),
                           ("sim.ttis", "1200"), ("sim.seed", "1")) + keys:
            set_key(cfg, key, value)
        batch = run_batch(cfg)
        pdr[policy] = tail_summary(batch.ledgers, batch.tail_range())[cls]["pdr"]
    print(f"{preset} tail {cls} PDR: {pdr}")
    for policy in FROZEN:
        assert pdr["trained"] >= pdr[policy] + LEARNING_MARGIN, pdr
