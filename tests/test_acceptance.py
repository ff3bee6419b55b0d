"""Acceptance suite: eight numbered criteria, one test each, every test
prints a single PASS/FAIL line (run pytest with -s to see them inline).

The heavyweight desk-scale comparisons (criterion 7) use the shipped
configs/desk_*.conf presets verbatim; per-TTI invariants are enforced
in-engine (audit mode) during every run this suite performs.
"""

import math
import os
import time

import numpy as np
import sympy

from oransim.a2c import A2cAgent, FeedForwardNet
from oransim.cli import main as cli_main
from oransim.config import SimConfig, parse_config_file, parse_config_text
from oransim.engine import run_batch
from oransim.metrics import tail_summary
from oransim.placement import dscd_reward_sample, relocation_ratio
from oransim.ran import Cell, Ue
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
from oransim.traffic import RlcQueue, make_flow

from test_a2c import (
    applied_step,
    chain_steps,
    expected_step,
    max_rel_error,
    pack_params,
    td_error,
    value,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# --------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(2024)
    for seed in (11, 12, 13):
        agent = A2cAgent.build(obs_dim=6, n_actions=4, actor_hidden=10,
                               critic_hidden=8, rng_seed=seed)
        assert pack_params(agent.actor).size <= 1000
        assert pack_params(agent.critic).size <= 1000
        obs = rng.uniform(-1, 1, size=6)
        action = int(rng.integers(0, 4))

        # the step `learn` applies to each net against lr * delta * grad by
        # central differences; terminal, so delta = 1 - V(obs)
        [t] = chain_steps([obs], [action], [1.0])
        delta = td_error(agent, t)
        want, _ = expected_step(agent, t, delta)
        deltas, got = applied_step(agent, [obs], [action], [1.0])
        assert abs(deltas[0] - delta) <= 1e-12 * max(abs(delta), 1.0)
        for g, w in zip(got, want):
            worst = max(worst, max_rel_error(g, w))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 5.0
    report(1, "gradient-correctness", ok,
           f"max rel err {worst:.3e}, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_critic_bellman_oracle():
    start = time.monotonic()
    gamma, r01, r10 = 0.9, 1.0, 0.0
    # independent oracle: solve (I - gamma*P) V = R in closed form
    v_star = np.linalg.solve(np.array([[1.0, -gamma], [-gamma, 1.0]]),
                             np.array([r01, r10]))
    agent = A2cAgent.build(obs_dim=2, n_actions=2, actor_hidden=4,
                           critic_hidden=0, rng_seed=0, gamma=gamma,
                           lr_critic=0.05)
    agent.critic = FeedForwardNet([2, 1])
    s0, s1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    updates = 0
    err = float("inf")
    while updates < 100_000:
        agent.learn([s0], [0], [r01], bootstrap=s1)
        agent.learn([s1], [0], [r10], bootstrap=s0)
        updates += 2
        if updates % 2000 == 0:
            err = max(abs(value(agent.critic, s0) - v_star[0]),
                      abs(value(agent.critic, s1) - v_star[1]))
            if err < 1e-2:
                break
    elapsed = time.monotonic() - start
    ok = err < 1e-2 and updates <= 100_000 and elapsed < 10.0
    report(2, "critic-bellman-oracle", ok,
           f"|V - V*| {err:.2e} after {updates} updates, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_reward_oracles_exhaustive():
    start = time.monotonic()
    checked = 0

    # r1 over all CQI pairs; oracle evaluates sgn(cqi_k - mean) directly
    for ck in range(1, 16):
        for cj in range(1, 16):
            mean = (ck + cj) / 2.0
            sgn = (ck > mean) - (ck < mean)
            assert reward_r1(ck, [ck, cj]) == max(sgn, 0)
            checked += 1

    # r2 over the three traffic classes
    for name, expect in (("video", 0), ("ar", 1), ("v2x", 1)):
        assert reward_r2(make_flow(name, 1.0)) == expect
        checked += 1

    # r3 against an exact symbolic sinc(pi * floor(delay/budget)) oracle
    sinc_exact = {n: float(sympy.sinc(sympy.pi * sympy.Integer(n)))
                  for n in range(0, 6)}
    for budget in (10.0, 20.0, 150.0):
        delay = 0.0
        while delay <= 5 * budget:
            n = math.floor(delay / budget)
            oracle = sinc_exact[min(n, 5)]
            got = reward_r3(delay, budget)
            assert float(got) == oracle
            assert got == (1 if delay < budget else 0)
            checked += 1
            delay += budget / 8.0

    # composite scheduler reward equals the sum of components
    ar = make_flow("ar", 1.0)
    video = make_flow("video", 1.0)
    for ck in range(1, 16, 2):
        for cj in range(1, 16, 2):
            for flow in (ar, video):
                for hol in (0.0, 9.0, 10.0, 37.0):
                    expect = (reward_r1(ck, [ck, cj]) + reward_r2(flow)
                              + reward_r3(hol, flow.delay_budget_ms))
                    assert scheduler_reward(ck, [ck, cj], flow, hol) == expect
                    checked += 1

    # placement reward over the full binary/weight grid
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    for u in (0, 1):
        for d in (0, 1):
            for ok_flag in (0, 1):
                for tau in grid:
                    for lam in grid:
                        expect = tau * u * d + lam * ok_flag
                        assert dscd_reward_sample(u, d, ok_flag, tau,
                                                  lam) == expect
                        checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 5.0
    report(3, "reward-oracles", ok, f"{checked} grid points exact, "
                                    f"{elapsed:.2f}s")


# --------------------------------------------------------------- criterion 4

def desk_cfg(path_name, mode, ttis=None):
    cfg = parse_config_file(os.path.join(CONFIG_DIR, path_name),
                            base=SimConfig())
    cfg.mode = mode
    if ttis is not None:
        cfg.ttis = ttis
    return cfg


def test_criterion_4_baseline_equivalence():
    start = time.monotonic()
    details = []
    for loc in ("du", "cu"):
        forced_cfg = desk_cfg("desk_fixed.conf", f"nf-{loc}", ttis=800)
        forced_cfg.runs = 1
        forced = run_batch(forced_cfg).ledgers[0]
        pinned_cfg = desk_cfg("desk_fixed.conf", "dscd", ttis=800)
        pinned_cfg.runs = 1
        pinned_cfg.placement.pin = loc
        pinned = run_batch(pinned_cfg).ledgers[0]
        same = forced == pinned
        details.append(f"nf-{loc}: {'bitwise-equal' if same else 'DIFFERS'}")
        assert same
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    report(4, "baseline-equivalence", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_simulation_invariants(tmp_path, capsys):
    start = time.monotonic()
    # conservation, RBG exclusivity, in-budget delivery and arena bounds
    # are enforced per TTI by the engine audit, which stays enabled in
    # every run this suite performs; a breach raises AuditError
    for scenario in ("fixed", "mobile"):
        for mode in ("dscd", "nf-du", "nf-cu"):
            cfg = desk_cfg(f"desk_{scenario}.conf", mode, ttis=400)
            cfg.runs = 1
            assert cfg.audit
            run_batch(cfg)

    # determinism: identical CLI runs produce byte-identical CSV artifacts
    conf = tmp_path / "det.conf"
    conf.write_text("\n".join([
        "sim.n_cells = 2", "sim.n_ues = 8", "sim.n_rbg = 6",
        "sim.ttis = 300", "sim.window_ttis = 100", "sched.slot_count = 6",
        "placement.epoch_ttis = 5",
    ]) + "\n")
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli_main(["run", "--config", str(conf), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        blobs.append((out / "run_00_timeseries.csv").read_bytes()
                     + (out / "aggregate.csv").read_bytes())
    identical = blobs[0] == blobs[1]
    elapsed = time.monotonic() - start
    ok = identical and elapsed < 120.0
    report(5, "simulation-invariants", ok,
           f"audits clean over 6 scenario/mode runs, CSV byte-identical: "
           f"{identical}, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_scheduler_learning_sanity():
    start = time.monotonic()
    cfg = SchedulerConfig(slot_count=2)
    agent = A2cAgent.build(cfg.obs_dim(), cfg.slot_count, actor_hidden=900,
                           critic_hidden=100, rng_seed=0)
    rng = np.random.default_rng(0)
    cell = Cell(cell_id=0, position=(0.0, 0.0), n_rbg=2)
    ue0 = Ue(0, (0.0, 0.0), 0)   # URLLC, CQI 15
    ue1 = Ue(1, (0.0, 0.0), 0)   # video, CQI 3
    cqi = np.array([[15, 15], [3, 3]])   # row = UE id, one column per RBG
    queues = {0: RlcQueue(make_flow("ar", 2_000_000.0)),
              1: RlcQueue(make_flow("video", 4_000_000.0))}
    probs = []
    for t in range(2000):
        for q in queues.values():
            q.generate_arrivals(t, rng.poisson(q.arrival_rate()))
        ctx = CellTti(cell=cell, ues=[ue0, ue1], queues=queues, cqi=cqi,
                      now=t)
        if len(queues[0]) and len(queues[1]):
            slots = select_slot_ues(ctx, cfg)
            unc = {i: queues[i].queued_remaining_bits for i in queues}
            obs = build_observation(ObservationGrid(ctx, slots, unc, cfg), 0)
            probs.append(float(agent.action_distribution(obs)[0]))
        else:
            probs.append(float("nan"))
        out = schedule_tti(agent, ctx, cfg, rng)
        for ue_id, bits in out.granted_bits.items():
            queues[ue_id].serve(bits, t)
        for q in queues.values():
            q.drop_expired(t)
    tail = [p for p in probs[-200:] if not math.isnan(p)]
    mean_prob = float(np.mean(tail))
    elapsed = time.monotonic() - start
    ok = mean_prob > 0.9 and elapsed < 60.0
    report(6, "scheduler-learning-sanity", ok,
           f"P(URLLC UE) = {mean_prob:.3f} over final 200 TTIs "
           f"({len(tail)} observed), {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 7

def batch_tail_stats(batch, cls):
    m = tail_summary(batch.ledgers, batch.tail_range())[cls]
    return m["pdr"], m["hol"], m["thpt"]


def test_criterion_7_directional_claims():
    start = time.monotonic()
    batches = {}
    for scenario in ("fixed", "mobile"):
        for mode in ("dscd", "nf-du", "nf-cu"):
            batches[(scenario, mode)] = run_batch(
                desk_cfg(f"desk_{scenario}.conf", mode))

    details = []

    # 7a: relocation leans DU for URLLC-dominated epochs
    dscd_fixed = batches[("fixed", "dscd")]
    tail = dscd_fixed.tail_range()
    events = [e for led in dscd_fixed.ledgers for e in led.placement_events]
    dom = relocation_ratio(events, urllc_threshold=0.5, tti_range=tail)
    ok_a = dom is not None and dom[0] > dom[1]
    details.append(f"7a URLLC-dominated DU/CU = "
                   f"{'absent' if dom is None else f'{dom[0]:.2f}/{dom[1]:.2f}'}")

    # 7b: AR delay no worse than NF-CU; AR throughput within 5% of the best
    _, hol_dscd, thpt_dscd = batch_tail_stats(dscd_fixed, "ar")
    _, hol_nfcu, thpt_nfcu = batch_tail_stats(batches[("fixed", "nf-cu")], "ar")
    _, _, thpt_nfdu = batch_tail_stats(batches[("fixed", "nf-du")], "ar")
    ok_b = (hol_dscd is not None and hol_nfcu is not None
            and hol_dscd <= hol_nfcu
            and thpt_dscd >= 0.95 * max(thpt_nfdu, thpt_nfcu))
    details.append(f"7b AR HoL {hol_dscd:.2f} <= {hol_nfcu:.2f} ms, "
                   f"AR thpt {thpt_dscd:.0f} vs best {max(thpt_nfdu, thpt_nfcu):.0f} kbps")

    # 7c: mobile V2X delivery within 5% of both baselines
    pdr_dscd, _, _ = batch_tail_stats(batches[("mobile", "dscd")], "v2x")
    pdr_nfdu, _, _ = batch_tail_stats(batches[("mobile", "nf-du")], "v2x")
    pdr_nfcu, _, _ = batch_tail_stats(batches[("mobile", "nf-cu")], "v2x")
    ok_c = pdr_dscd >= 0.95 * max(pdr_nfdu, pdr_nfcu)
    details.append(f"7c V2X PDR {pdr_dscd:.3f} vs baselines "
                   f"{pdr_nfdu:.3f}/{pdr_nfcu:.3f}")

    elapsed = time.monotonic() - start
    ok = ok_a and ok_b and ok_c and elapsed < 600.0
    report(7, "directional-claims", ok,
           "; ".join(details) + f", {elapsed:.0f}s")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_defaults_round_trip(capsys):
    code = cli_main(["defaults"])
    out = capsys.readouterr().out
    assert code == 0
    cfg = parse_config_text(out)
    values = {
        "gamma": (cfg.a2c.gamma, 0.9),
        "lr_actor": (cfg.a2c.lr_actor, 0.01),
        "lr_critic": (cfg.a2c.lr_critic, 0.05),
        "tau": (cfg.placement.tau, 0.5),
        "lambda": (cfg.placement.lam, 0.5),
        "n_cells": (cfg.n_cells, 4),
        "n_ues": (cfg.n_ues, 40),
        "ue_rate_bps": (cfg.traffic.ue_rate_bps, 256_000.0),
    }
    bad = {k: v for k, (v, want) in values.items() if v != want}
    round_trips = cfg == SimConfig() and parse_config_text(out) == cfg
    ok = not bad and round_trips
    report(8, "defaults-and-round-trip", ok,
           "all reference values exact, emit/parse round-trip stable"
           if ok else f"mismatches: {bad}, round-trip: {round_trips}")
