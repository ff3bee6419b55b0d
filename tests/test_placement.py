import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oransim.config import SimConfig, parse_config_file, set_key
from oransim.engine import Simulation, run_batch
from oransim.metrics import tail_summary
from oransim.placement import (
    LOCATION_CU,
    LOCATION_DU,
    PlacementConfig,
    PlacementController,
    PlacementEvent,
    build_placement_observation,
    dscd_reward_sample,
    epoch_reward,
    queue_mix,
    queue_urllc_share,
    relocation_ratio,
)
from oransim.ran import compute_cqi
from oransim.traffic import CLASS_ORDER, RlcQueue, make_flow

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


# ------------------------------------------------------------------ reward

def test_reward_urllc_at_du_in_budget_is_one():
    assert dscd_reward_sample(1, 1, 1, tau=0.5, lam=0.5) == 1.0


def test_reward_urllc_at_cu_in_budget_is_half():
    assert dscd_reward_sample(1, 0, 1, tau=0.5, lam=0.5) == 0.5


def test_reward_video_at_du_over_budget_is_zero():
    assert dscd_reward_sample(0, 1, 0, tau=0.5, lam=0.5) == 0.0


@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
       st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
       st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
def test_reward_bounded_by_weight_sum(u, d, ok, tau, lam):
    r = dscd_reward_sample(u, d, ok, tau, lam)
    assert 0.0 <= r <= tau + lam


def test_epoch_reward_averages_samples():
    samples = [(1, 1), (0, 1), (0, 0), (1, 0)]
    # at DU: 1.0 + 0.5 + 0 + 0.5 over 4 samples
    assert epoch_reward(samples, LOCATION_DU, 0.5, 0.5) == pytest.approx(0.5)
    # at CU the U*D bonus vanishes
    assert epoch_reward(samples, LOCATION_CU, 0.5, 0.5) == pytest.approx(0.25)


def test_epoch_without_samples_earns_zero():
    assert epoch_reward([], LOCATION_DU, 0.5, 0.5) == 0.0


# ------------------------------------------------------------- observation

def make_queues(now=10):
    qv = RlcQueue(make_flow("video", 1.0))
    qa = RlcQueue(make_flow("ar", 1.0))
    qv.generate_arrivals(now - 30, 1)
    qa.generate_arrivals(now - 2, 1)
    qa.generate_arrivals(now, 1)
    return [qv, qa]


def test_queue_mix_counts_and_shares():
    ratios, urllc_share, bits = queue_mix(make_queues(), now=10)
    assert urllc_share == pytest.approx(2 / 3)
    assert bits == 3000
    assert ratios["video"] == pytest.approx(min(30 / 150, 2) / 2)


def oracle_queue_mix(queues, now, tti_ms=1.0):
    """The mix counted packet by packet: the reference for queue_mix and
    queue_urllc_share."""
    counts = dict.fromkeys(CLASS_ORDER, 0)
    ratio_sums = dict.fromkeys(CLASS_ORDER, 0.0)
    total = urllc = bits = 0
    for q in queues:
        name = q.flow.label
        for arrival in q:
            age = (now - arrival) * tti_ms
            counts[name] += 1
            ratio_sums[name] += min(age / q.flow.delay_budget_ms, 2.0) / 2.0
            total += 1
            bits += q.flow.packet_size_bits
            if q.flow.is_urllc:
                urllc += 1
    ratios = {name: (ratio_sums[name] / counts[name] if counts[name] else 0.0)
              for name in CLASS_ORDER}
    return ratios, (urllc / total if total else 0.0), bits


random_queues = st.lists(st.tuples(
    st.sampled_from(CLASS_ORDER), st.integers(1, 4000),
    st.lists(st.integers(0, 400), max_size=6)), max_size=6)


@settings(max_examples=100, deadline=None)
@given(random_queues, st.sampled_from([0.5, 1.0]))
def test_queue_shares_and_mix_equal_the_per_packet_count(spec, tti_ms):
    now = 400
    queues = []
    for name, size, arrivals in spec:
        q = RlcQueue(make_flow(name, 1.0, packet_size_bits=size), tti_ms)
        for arrival in sorted(arrivals):
            q.generate_arrivals(arrival, 1)
        q.serve(1500, now)   # may leave a partly served head
        queues.append(q)
    expected = oracle_queue_mix(queues, now, tti_ms)
    assert queue_mix(queues, now, tti_ms) == expected
    assert queue_urllc_share(queues) == expected[1]


def test_forced_epoch_events_carry_the_queue_mix_shares():
    queues = make_queues()
    ctrl = PlacementController(2, PlacementConfig(), agent=None, rng=None,
                               forced=LOCATION_CU)
    events = ctrl.decide_epoch(10, [queues, queues[:1]])
    for event, du_queues in zip(events, [queues, queues[:1]]):
        _, urllc_share, _ = queue_mix(du_queues, 10)
        assert event.urllc_share == urllc_share
        assert event.location == LOCATION_CU


def test_placement_observation_bounded_and_flagged():
    mix = queue_mix(make_queues(), now=10)
    obs = build_placement_observation(mix, LOCATION_DU, 0.5)
    assert obs.shape == (7,)
    assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
    assert obs[5] == 1.0
    obs_cu = build_placement_observation(mix, LOCATION_CU, 0.5)
    assert obs_cu[5] == 0.0


def test_age_offset_follows_location():
    cfg = PlacementConfig(cu_extra_delay_ttis=2)
    ctrl = PlacementController(1, cfg, agent=None, rng=None,
                               forced=LOCATION_CU)
    assert ctrl.age_offset_ms(0) == 2.0
    ctrl2 = PlacementController(1, cfg, agent=None, rng=None,
                                forced=LOCATION_DU)
    assert ctrl2.age_offset_ms(0) == 0.0


# -------------------------------------------------------- relocation ratio

def ev(tti, du, loc, urllc=0.0):
    return PlacementEvent(tti, du, loc, urllc)


def test_always_du_ratio_is_one():
    events = [ev(t, 0, LOCATION_DU) for t in range(0, 100, 10)]
    assert relocation_ratio(events, (0, 100)) == (1.0, 0.0)


def test_always_cu_ratio_is_one():
    events = [ev(t, 0, LOCATION_CU) for t in range(0, 100, 10)]
    assert relocation_ratio(events, (0, 100)) == (0.0, 1.0)


def test_alternating_epochs_split_evenly():
    events = [ev(t, 0, LOCATION_DU if (t // 10) % 2 == 0 else LOCATION_CU)
              for t in range(0, 100, 10)]
    assert relocation_ratio(events, (0, 100)) == (0.5, 0.5)


def test_ratio_filters_by_range_and_urllc_share():
    events = [ev(0, 0, LOCATION_DU, urllc=0.8),
              ev(10, 0, LOCATION_CU, urllc=0.2)]
    assert relocation_ratio(events, (0, 10)) == (1.0, 0.0)
    assert relocation_ratio(events, (10, 20)) == (0.0, 1.0)
    assert relocation_ratio(events, (20, 30)) is None
    assert relocation_ratio(events, (0, 20), urllc_threshold=0.5) == (1.0, 0.0)
    assert relocation_ratio(events, (0, 20), urllc_threshold=0.8) is None
    assert relocation_ratio(events, (10, 20), urllc_threshold=0.5) is None


# --------------------------------------------------- simulation level checks

def base_cfg(**kw):
    cfg = SimConfig()
    cfg.n_cells = 2
    cfg.n_ues = 6
    cfg.n_rbg = 6
    cfg.ttis = 300
    cfg.sched.slot_count = 4
    cfg.placement.epoch_ttis = 5
    cfg.a2c.actor_hidden = 64
    cfg.a2c.critic_hidden = 32
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_zero_cu_delay_single_du_matches_du_accounting():
    # with no extra delay and only one DU there is nothing to coordinate,
    # so both pinned locations must produce identical traffic accounting
    ledgers = {}
    for mode in ("nf-du", "nf-cu"):
        cfg = base_cfg(mode=mode, n_cells=1, n_ues=4)
        cfg.placement.cu_extra_delay_ttis = 0
        ledgers[mode] = run_batch(cfg).ledgers[0]
    a = ledgers["nf-du"].state_dict()
    b = ledgers["nf-cu"].state_dict()
    assert a["windows"] == b["windows"]
    assert a["totals"] == b["totals"]


def test_cu_coordination_reduces_interference_events():
    counts = {}
    for mode in ("nf-du", "nf-cu"):
        cfg = base_cfg(mode=mode, ttis=100, urllc_density=0.2)
        sim = Simulation(cfg)
        sim.run()
        counts[mode] = sim.interference_events
    assert counts["nf-cu"] < counts["nf-du"]
    assert counts["nf-cu"] == 0  # full mutual exclusion among CU cells


def test_cu_delay_penalty_never_improves_delivery():
    pdrs = []
    for delay in (0, 50, 100):
        cfg = base_cfg(mode="nf-cu", ttis=400, urllc_density=0.0,
                       scenario="fixed")
        cfg.placement.cu_extra_delay_ttis = delay
        led = run_batch(cfg, allow_out_of_envelope=True).ledgers[0]
        pdrs.append(led.pdr("video", (0, cfg.ttis)))
    assert pdrs[0] >= pdrs[1] >= pdrs[2]


def test_cu_placement_wins_where_collisions_cost_more_than_its_delay():
    # the paper's trade at desk scale: with an 8-step collision penalty and
    # a 1-TTI CU delay, coordinating both DUs at the CU must clearly beat
    # leaving them at the DU, on AR (URLLC) and on video delivery alike.
    # Measured: nf-cu AR 0.855, video 0.979; nf-du AR 0.475, video 0.303
    cfg = parse_config_file(os.path.join(CONFIGS, "desk_fixed.conf"),
                            base=SimConfig())
    for key, value in (("ran.interference_cqi_penalty", 8),
                       ("placement.cu_extra_delay_ttis", 1),
                       ("sim.runs", 3), ("sim.ttis", 400), ("sim.seed", 1)):
        set_key(cfg, key, str(value))
    pdr = {}
    for mode in ("nf-cu", "nf-du"):
        cfg.mode = mode
        batch = run_batch(cfg)
        summary = tail_summary(batch.ledgers, batch.tail_range())
        pdr[mode] = {cls: summary[cls]["pdr"] for cls in ("ar", "video")}
    for cls in ("ar", "video"):
        assert pdr["nf-cu"][cls] >= pdr["nf-du"][cls] + 0.2, pdr


def test_training_disabled_placement_is_reproducible_and_frozen():
    def run():
        cfg = base_cfg(mode="dscd", ttis=200)
        cfg.placement.training = False
        sim = Simulation(cfg)
        before = [w.copy() for w in sim.placement.agent.actor.weights]
        led = sim.run()
        after = sim.placement.agent.actor.weights
        for w, old in zip(after, before):
            assert w.tobytes() == old.tobytes()
        return [(e.tti, e.du_id, e.location) for e in led.placement_events]

    assert run() == run()


def test_forced_baseline_equals_pinned_dynamic_run():
    for loc in ("du", "cu"):
        forced = run_batch(base_cfg(mode=f"nf-{loc}")).ledgers[0]
        cfg = base_cfg(mode="dscd")
        cfg.placement.pin = loc
        pinned = run_batch(cfg).ledgers[0]
        assert forced == pinned


# ------------------------------------------------------- learned behaviour

def test_pure_urllc_traffic_learns_du_placement():
    cfg = base_cfg(mode="dscd", n_cells=1, n_ues=4, n_rbg=4, ttis=2000,
                   urllc_density=1.0)
    cfg.placement.epoch_ttis = 2
    led = run_batch(cfg, allow_out_of_envelope=True).ledgers[0]
    ratio = relocation_ratio(led.placement_events, tti_range=(1000, 2000))
    assert ratio[0] > 0.8


def test_pure_video_with_heavy_collisions_learns_cu_placement():
    # all UEs pinned at the CQI-5 distance: with the stock penalty of 4
    # steps the two cells cannot carry the load uncoordinated, but the
    # CU-coordinated split carries it easily; cu_extra_delay 2 ms is
    # negligible against the 150 ms budget
    cfg = base_cfg(mode="dscd", ttis=3000, urllc_density=0.0)
    cfg.placement.epoch_ttis = 2
    cfg.traffic.ue_rate_bps = 127_000.0
    cfg.ran.interference_cqi_penalty = 4
    cfg.ran.cell_spacing_m = 800.0
    sim = Simulation(cfg)
    off = 358.7 / math.sqrt(2.0)
    for i, ue in enumerate(sim.ues):
        cell = sim.cells[i // 3]
        ue.serving_cell_id = cell.cell_id
        ue.position = (cell.position[0] + off, cell.position[1] + off)
        assert compute_cqi(ue, cell, cfg.ran) == 5
    led = sim.run()
    ratio = relocation_ratio(led.placement_events, tti_range=(1500, 3000))
    assert ratio[1] > 0.5
