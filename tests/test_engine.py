import contextlib
import copy
import math
import os
import pickle
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oransim import engine
from oransim.a2c import NumericsError
from oransim.cli import main as cli_main
from oransim.config import MODES, SCENARIOS, SimConfig, validate_config
from oransim.engine import (
    AuditError,
    Simulation,
    assign_traffic_classes,
    named_stream,
    run_batch,
    stream_seed,
)
from oransim.metrics import MetricsLedger, aggregate_rows, ledger_rows
from oransim.placement import (
    LOCATION_CU,
    LOCATION_DU,
    PlacementEvent,
    relocation_ratio,
)
from oransim.ran import UNASSIGNED, compute_cqi, cqi_vector
from oransim.traffic import RlcQueue


def desk_config(**overrides):
    cfg = SimConfig()
    cfg.n_cells = 2
    cfg.n_ues = 8
    cfg.n_rbg = 6
    cfg.ttis = 150
    cfg.runs = 1
    cfg.window_ttis = 50
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


# -------------------------------------------------------------- rng streams

def test_named_streams_are_independent_and_stable():
    a = named_stream(7, "traffic").random(4)
    b = named_stream(7, "traffic").random(4)
    c = named_stream(7, "channel").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert stream_seed(7, "sched_init", 0) != stream_seed(7, "sched_init", 1)
    assert stream_seed(7, "sched_init", 0) == stream_seed(7, "sched_init", 0)


# ------------------------------------------------------------ class mixture

def test_fixed_scenario_class_split():
    cfg = desk_config(n_ues=10, urllc_density=0.2)
    classes = assign_traffic_classes(cfg)
    assert classes.count("ar") == 2
    assert classes.count("video") == 8


def test_mobile_scenario_class_split():
    cfg = desk_config(n_ues=10, urllc_density=0.3, scenario="mobile")
    classes = assign_traffic_classes(cfg)
    assert classes.count("v2x") == 3
    assert classes.count("ar") == round(0.2 * 7)
    assert classes.count("video") == 10 - 3 - round(0.2 * 7)


def test_only_vehicles_move():
    cfg = desk_config(scenario="mobile", urllc_density=0.25, n_ues=8)
    sim = Simulation(cfg)
    speeds = {ue.ue_id: ue.speed_mps for ue in sim.ues}
    for ue in sim.ues:
        is_vehicle = sim.queues[ue.ue_id].flow.label == "v2x"
        assert (speeds[ue.ue_id] > 0) == is_vehicle


# ---------------------------------------------------------------- execution

def test_zero_ttis_gives_empty_ledger():
    cfg = desk_config(ttis=0)
    res = run_batch(cfg)
    led = res.ledgers[0]
    assert led.windows == {}
    assert led.placement_events == []
    assert ledger_rows(led, cfg.mode) == []


def test_identical_config_and_seed_bitwise_identical_ledgers():
    cfg = desk_config(mode="dscd", ttis=120)
    a = run_batch(cfg).ledgers[0]
    b = run_batch(cfg).ledgers[0]
    assert a == b
    assert a.state_dict() == b.state_dict()


def test_different_seeds_differ():
    a = run_batch(desk_config(seed=1)).ledgers[0]
    b = run_batch(desk_config(seed=2)).ledgers[0]
    assert a != b


def test_audit_holds_across_modes_and_scenarios():
    for mode in ("dscd", "nf-du", "nf-cu"):
        for scenario in ("fixed", "mobile"):
            cfg = desk_config(mode=mode, scenario=scenario, ttis=120)
            run_batch(cfg)  # cfg.audit defaults true; raises AuditError on breach


# ------------------------------------------------------- per-TTI caches

def small_agents(cfg):
    cfg.a2c.actor_hidden = 16
    cfg.a2c.critic_hidden = 8
    return cfg


@pytest.mark.parametrize("scenario", ["fixed", "mobile"])
@pytest.mark.parametrize("penalty", [3, 8])
@pytest.mark.parametrize("shadow_db", [0.0, 4.0])
def test_every_cqi_equals_a_fresh_compute_cqi(scenario, penalty, shadow_db):
    cfg = small_agents(desk_config(scenario=scenario, mode="nf-du", n_ues=12,
                                   urllc_density=0.3, ttis=60))
    cfg.ran.interference_cqi_penalty = penalty
    cfg.ran.shadow_sigma_db = shadow_db
    sim = Simulation(cfg)
    events = 0
    for t in range(cfg.ttis):
        # last TTI's collisions, one (cell, rbg) grant at a time: the cell
        # granted the RBG and some other cell granted it too
        grants = sim.prev_allocations.tolist()
        collided = [[g != UNASSIGNED and any(
                        other[rbg] != UNASSIGNED
                        for o, other in enumerate(grants) if o != c)
                     for rbg, g in enumerate(row)]
                    for c, row in enumerate(grants)]
        events += sum(map(sum, collided))
        channel = copy.deepcopy(sim.rng_channel)
        sim.step(t)
        # the oracle draws the channel stream once per UE, in UE id order
        for ue in sim.ues:
            cell = sim.cells[ue.serving_cell_id]
            fresh = cqi_vector(compute_cqi(ue, cell, cfg.ran, channel),
                               np.array(collided[cell.cell_id]), penalty)
            assert ue.cqi_per_rbg.dtype == fresh.dtype
            assert np.array_equal(ue.cqi_per_rbg, fresh), (t, ue.ue_id)
            assert not ue.cqi_per_rbg.flags.writeable
        assert channel.bit_generator.state == sim.rng_channel.bit_generator.state
    assert sim.interference_events == events > 0
    if shadow_db == 0.0:
        untouched = named_stream(sim.run_seed, "channel")
        assert sim.rng_channel.bit_generator.state == untouched.bit_generator.state


@pytest.mark.parametrize("rate_bps", [256_000.0, 12_500_000.0])
def test_arrival_draw_consumes_the_stream_as_per_queue_draws(
        rate_bps, monkeypatch):
    # lambda = 0.256 and 12.5 packets per TTI: both Poisson samplers
    cfg = small_agents(desk_config(ttis=40, n_ues=10))
    cfg.traffic.ue_rate_bps = cfg.traffic.max_ue_rate_bps = rate_bps
    cfg.traffic.arrival_cap_events_per_tti = 1000.0
    drawn = []
    real = RlcQueue.generate_arrivals

    def spy(q, now_tti, count):
        drawn.append((now_tti, q, count))
        return real(q, now_tti, count)

    monkeypatch.setattr(RlcQueue, "generate_arrivals", spy)
    sim = Simulation(cfg)
    oracle = named_stream(sim.run_seed, "traffic")
    queues = [sim.queues[ue.ue_id] for ue in sim.ues]
    expected = []
    for t in range(cfg.ttis):
        sim.step(t)
        for q in queues:
            n = int(oracle.poisson(q.arrival_rate(sim.rate_scale)))
            if n:
                expected.append((t, q, n))
    assert drawn == expected
    assert oracle.random() == sim.rng_traffic.random()


def test_static_ues_draw_nothing_and_never_move():
    cfg = small_agents(desk_config(scenario="mobile", urllc_density=0.25,
                                   n_ues=8, ttis=50))
    sim = Simulation(cfg)
    static = {ue.ue_id: (ue.position, ue.serving_cell_id)
              for ue in sim.ues if not ue.mobile}
    assert static and len(static) < len(sim.ues)
    sim.run()
    for ue in sim.ues:
        if ue.ue_id in static:
            assert (ue.position, ue.serving_cell_id) == static[ue.ue_id]
    fixed = Simulation(small_agents(desk_config(ttis=50)))
    fixed.run()
    untouched = named_stream(fixed.run_seed, "mobility")
    assert fixed.rng_mobility.bit_generator.state == untouched.bit_generator.state


@pytest.mark.parametrize("duplicate", [
    copy.deepcopy, lambda sim: pickle.loads(pickle.dumps(sim))],
    ids=["deepcopy", "pickle"])
def test_a_copied_simulation_steps_as_the_original(duplicate):
    cfg = small_agents(desk_config(scenario="mobile", urllc_density=0.3,
                                   ttis=30))
    sim = Simulation(cfg)
    for t in range(10):
        sim.step(t)
    twin = duplicate(sim)
    for t in range(10, cfg.ttis):
        sim.step(t)
        twin.step(t)
        for ue, other in zip(sim.ues, twin.ues):
            assert np.array_equal(ue.cqi_per_rbg, other.cqi_per_rbg), (
                t, ue.ue_id)
            assert not other.cqi_per_rbg.flags.writeable
    assert twin.ledger.state_dict() == sim.ledger.state_dict()


def test_setting_up_a_simulation_builds_no_run_cache():
    sim = Simulation(small_agents(desk_config(ttis=5)))
    assert sim._base_cqi is None
    sim.step(0)
    assert len(sim._base_cqi) == len(sim.ues)


EDGE_CASES = [
    # fewer UEs than cells, one RBG, one-TTI epochs, half-ms TTIs, and a
    # run that ends inside a window
    dict(n_cells=4, n_ues=2, n_rbg=1, epoch_ttis=1, tti_ms=0.5, ttis=13,
         window_ttis=5, scenario="mobile", mode="dscd", shadow_db=4.0),
    dict(n_cells=3, n_ues=7, n_rbg=1, epoch_ttis=1, tti_ms=0.5, ttis=17,
         window_ttis=4, scenario="fixed", mode="nf-cu", shadow_db=0.0),
    dict(n_cells=2, n_ues=1, n_rbg=3, epoch_ttis=2, tti_ms=1.0, ttis=9,
         window_ttis=7, scenario="mobile", mode="nf-du", shadow_db=2.0),
]


def audited_config(p):
    cfg = small_agents(SimConfig())
    cfg.seed = p.get("seed", 1)
    for key in ("n_cells", "n_ues", "n_rbg", "tti_ms", "ttis", "window_ttis",
                "scenario", "mode"):
        setattr(cfg, key, p[key])
    cfg.urllc_density = p.get("urllc_density", 0.3)
    cfg.sched.slot_count = p.get("slot_count", 3)
    cfg.placement.epoch_ttis = p["epoch_ttis"]
    cfg.placement.cu_extra_delay_ttis = p.get("cu_delay_ttis", 2)
    cfg.ran.shadow_sigma_db = p["shadow_db"]
    cfg.ran.interference_cqi_penalty = p.get("penalty", 3)
    cfg.traffic.max_ue_rate_bps = 4_000_000.0
    cfg.traffic.ue_rate_bps = p.get("rate_bps", 1_000_000.0)
    return validate_config(cfg, allow_out_of_envelope=True)


small_runs = st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "n_cells": st.integers(1, 4),
    "n_ues": st.integers(1, 8),
    "n_rbg": st.integers(1, 4),
    "tti_ms": st.sampled_from([0.5, 1.0, 2.0]),
    "ttis": st.integers(1, 40),
    "window_ttis": st.integers(1, 12),
    "scenario": st.sampled_from(SCENARIOS),
    "mode": st.sampled_from(MODES),
    "epoch_ttis": st.integers(1, 6),
    "shadow_db": st.sampled_from([0.0, 4.0]),
    "urllc_density": st.sampled_from([0.0, 0.3, 1.0]),
    "slot_count": st.integers(1, 4),
    "cu_delay_ttis": st.integers(0, 3),
    "penalty": st.integers(0, 8),
    "rate_bps": st.sampled_from([0.0, 256_000.0, 4_000_000.0]),
})


@settings(max_examples=150, deadline=None)
@given(small_runs)
@example(EDGE_CASES[0])
@example(EDGE_CASES[1])
@example(EDGE_CASES[2])
def test_random_small_configs_pass_the_audit_and_conserve_packets(p):
    cfg = audited_config(p)
    assert cfg.audit
    sim = Simulation(cfg)
    led = sim.run()   # the per-TTI audit raises AuditError on any breach
    queued = {}
    for q in sim.queues.values():
        queued[q.flow.label] = queued.get(q.flow.label, 0) + len(q)
    assert {cls for cls, n in queued.items() if n} <= set(led.totals)
    for cls, tot in led.totals.items():
        assert tot.arrived_packets == (tot.delivered_packets
                                       + tot.dropped_packets + queued[cls])
    epochs = math.ceil(cfg.ttis / cfg.placement.epoch_ttis)
    assert len(led.placement_events) == epochs * cfg.n_cells


# ----------------------------------------------------------- audit sabotage
# Each run breaks one invariant once, from SABOTAGE_TTI on, and records
# where; the audit must stop the run at that TTI with that check's message.

SABOTAGE_TTI = 5


def audit_message(sim):
    with pytest.raises(AuditError) as raised:
        sim.run()
    return str(raised.value)


def test_audit_catches_a_packet_lost_without_a_drop(monkeypatch):
    real = RlcQueue.drop_expired
    lost = []

    def leaky(q, now_tti, extra_ms=0.0):
        dropped = real(q, now_tti, extra_ms)
        if not lost and now_tti >= SABOTAGE_TTI and len(q):
            q._arrivals.pop()   # neither queued nor reported dropped
            lost.append((now_tti, q.flow.label))
        return dropped

    monkeypatch.setattr(RlcQueue, "drop_expired", leaky)
    message = audit_message(Simulation(small_agents(desk_config(ttis=30))))
    t, cls = lost[0]
    assert message == f"TTI {t}: packet conservation broken for {cls}"


def test_audit_catches_an_extra_arrived_bit(monkeypatch):
    real = MetricsLedger.record_arrivals
    padded = []

    def pad(led, tti, cls, n_packets, bits):
        if not padded and tti >= SABOTAGE_TTI and n_packets:
            bits += 1
            padded.append((tti, cls))
        real(led, tti, cls, n_packets, bits)

    monkeypatch.setattr(MetricsLedger, "record_arrivals", pad)
    message = audit_message(Simulation(small_agents(desk_config(ttis=30))))
    t, cls = padded[0]
    assert message == f"TTI {t}: bit conservation broken for {cls}"


def test_audit_catches_a_grant_to_another_cells_ue(monkeypatch):
    sim = Simulation(small_agents(desk_config(ttis=30)))
    real = engine.schedule_tti
    granted = []

    def trespass(agent, ctx, *args):
        out = real(agent, ctx, *args)
        if not granted and ctx.now >= SABOTAGE_TTI:
            c = ctx.cell.cell_id
            foreign = next(ue.ue_id for ue in sim.ues
                           if ue.serving_cell_id != c)
            out.allocation[0] = foreign
            granted.append((ctx.now, c, foreign))
        return out

    monkeypatch.setattr(engine, "schedule_tti", trespass)
    message = audit_message(sim)
    t, c, foreign = granted[0]
    assert message == (f"TTI {t}: cell {c} granted an RBG to foreign "
                       f"UE {foreign}")


def test_audit_catches_a_vehicle_outside_the_arena(monkeypatch):
    sim = Simulation(small_agents(desk_config(
        scenario="mobile", urllc_density=0.3, ttis=30)))
    n_vehicles = sum(ue.mobile for ue in sim.ues)
    real = engine.step_mobility
    moves = []
    astray = []

    def wander(ue, dt_s, bounds, cells, rng):
        real(ue, dt_s, bounds, cells, rng)
        t = len(moves) // n_vehicles   # every vehicle moves once per TTI
        moves.append(ue.ue_id)
        if not astray and t >= SABOTAGE_TTI:
            (_, _), (xmax, _) = bounds
            ue.position = (xmax + 1.0, ue.position[1])
            astray.append((t, ue.ue_id))
        return ue

    monkeypatch.setattr(engine, "step_mobility", wander)
    message = audit_message(sim)
    t, ue_id = astray[0]
    assert message == f"TTI {t}: UE {ue_id} left the arena"


@pytest.fixture
def two_lanes(monkeypatch):
    """Two usable CPUs, so that a batch of several runs forks a child lane."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)


@contextlib.contextmanager
def deadline(seconds):
    """Fail instead of hanging when the body takes longer than `seconds`.
    The failure unwinds through the engine, which kills its children."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def patch_runs(monkeypatch, outcomes):
    """Run index i of a batch returns outcomes[i](simulate), where
    simulate() runs it as usual. Forked lanes inherit the patch."""
    real_run = Simulation.run

    def run(self):
        i = self.run_seed - self.cfg.seed
        if i in outcomes:
            return outcomes[i](lambda: real_run(self))
        return real_run(self)
    monkeypatch.setattr(Simulation, "run", run)


def fails(exc):
    def outcome(_):
        raise exc
    return outcome


def padded(simulate):
    led = simulate()
    led.padding = bytes(4 << 20)   # far beyond a pipe buffer
    return led


@pytest.mark.parametrize("runs", [3, 5])
def test_runs_are_order_independent(runs, two_lanes):
    cfg = desk_config(runs=runs, ttis=100)
    batch = run_batch(cfg)
    assert_no_child_left()
    # re-execute each run standalone, in reverse order
    solo = []
    for i in reversed(range(runs)):
        solo.append(Simulation(cfg, run_index=i).run())
    solo.reverse()
    assert len(batch.ledgers) == runs
    for a, b in zip(batch.ledgers, solo):
        assert a == b
    rows = [ledger_rows(led, cfg.mode) for led in solo]
    assert aggregate_rows(rows) == batch.aggregate


# with two lanes and three runs, runs 0 and 2 execute here, run 1 in a child
@pytest.mark.parametrize("failing", [{1}, {2}, {1, 2}, {0, 1}])
def test_first_failing_run_raises_whichever_lane_ran_it(
        failing, two_lanes, monkeypatch):
    patch_runs(monkeypatch, {i: fails(AuditError(f"run {i}")) for i in failing})
    with deadline(60), pytest.raises(
            AuditError, match=f"run {min(failing)}$") as raised:
        run_batch(desk_config(runs=3, ttis=20))
    assert_no_child_left()
    if min(failing) == 1:
        # the child's traceback survives as the cause, down to the raiser
        assert "in outcome" in str(raised.value.__cause__)


def test_child_lane_killed_by_signal_raises(two_lanes, monkeypatch):
    def killed(_):
        os.kill(os.getpid(), signal.SIGKILL)
    patch_runs(monkeypatch, {1: killed})
    with deadline(60), pytest.raises(RuntimeError, match="code -9"):
        run_batch(desk_config(runs=3, ttis=20))
    assert_no_child_left()


def test_child_blocked_on_a_large_payload_does_not_hang(two_lanes, monkeypatch):
    # the child reports run 1 and then blocks sending its ledgers, which
    # the parent never reads once its own run 2 has failed
    patch_runs(monkeypatch, {1: padded, 2: fails(AuditError("run 2"))})
    with deadline(60), pytest.raises(AuditError, match="run 2$"):
        run_batch(desk_config(runs=3, ttis=20))
    assert_no_child_left()


def sigkill_self():
    os.kill(os.getpid(), signal.SIGKILL)


class KillsWhenPickled:
    def __reduce__(self):
        sigkill_self()


class KillsSoonAfterPickled:
    """Kills the lane 0.2 s after it is pickled, while the lane is blocked
    writing what follows it."""
    def __reduce__(self):
        threading.Timer(0.2, sigkill_self).start()
        return (int, ())


def killed_after_the_padding(simulate):
    led = padded(simulate)
    led.last = KillsWhenPickled()   # pickled after the padding
    return led


def killed_inside_the_padding(simulate):
    led = simulate()
    led.first = KillsSoonAfterPickled()
    led.padding = bytes(4 << 20)
    return led


def once_a_child_is_dead(simulate):
    # the pipe then holds only what its buffer took of the padding
    os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)   # the engine reaps it
    return simulate()


# the parent's unpickler sees the pipe end between frames (EOFError) or
# inside the padding's bytes (UnpicklingError)
@pytest.mark.parametrize("outcomes", [
    {1: killed_after_the_padding},
    {1: killed_inside_the_padding, 2: once_a_child_is_dead},
], ids=["after-the-padding", "inside-the-padding"])
def test_child_lane_killed_partway_through_a_message_raises(
        outcomes, two_lanes, monkeypatch):
    patch_runs(monkeypatch, outcomes)
    with deadline(60), pytest.raises(RuntimeError, match="code -9"):
        run_batch(desk_config(runs=3, ttis=20))
    assert_no_child_left()


def test_large_child_payload_arrives(two_lanes, monkeypatch):
    patch_runs(monkeypatch, {1: padded})
    with deadline(60):
        batch = run_batch(desk_config(runs=3, ttis=20))
    assert len(batch.ledgers[1].padding) == 4 << 20
    assert_no_child_left()


def test_numerics_error_in_child_lane_exits_3(
        two_lanes, monkeypatch, tmp_path, capsys):
    patch_runs(monkeypatch, {1: fails(NumericsError("lane blow-up"))})
    conf = tmp_path / "lanes.conf"
    conf.write_text("sim.n_cells = 1\nsim.n_ues = 3\nsim.n_rbg = 2\n"
                    "sim.ttis = 20\nsim.runs = 2\nsched.slot_count = 3\n")
    code = cli_main(["run", "--config", str(conf), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "lane blow-up" in capsys.readouterr().err
    assert_no_child_left()


def test_a_batch_of_lanes_imports_no_module_a_one_lane_batch_does_not():
    # in a fresh interpreter, where no other test has imported anything
    script = (
        "import os, sys\n"
        "from oransim import engine\n"
        "from oransim.config import SimConfig\n"
        "cfg = SimConfig()\n"
        "cfg.n_cells, cfg.n_ues, cfg.n_rbg, cfg.ttis = 2, 8, 6, 20\n"
        "engine._usable_cpus = lambda: 1\n"
        "engine.run_batch(cfg)\n"
        "before = set(sys.modules)\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "engine._usable_cpus = lambda: 2\n"
        "cfg.runs = 3\n"
        "engine.run_batch(cfg)\n"
        "print(len(forks), sorted(set(sys.modules) - before))\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 []\n"   # one child lane, and no new module


# ------------------------------------------------------------ metric maths

def test_pdr_trivial_values():
    led = MetricsLedger(window_ttis=10)
    assert led.pdr("video", (0, 10)) is None
    led.record_arrivals(0, "video", 4, 4000)
    led.record_delivery(1, "video", 1000, 3.0)
    led.record_delivery(2, "video", 1000, 5.0)
    led.record_delivery(3, "video", 1000, 1.0)
    assert led.pdr("video", (0, 10)) == 1.0
    led.record_drop(4, "video", 1, 1000)
    assert led.pdr("video", (0, 10)) == 0.75


def test_pdr_all_dropped_is_zero():
    led = MetricsLedger(window_ttis=10)
    led.record_arrivals(0, "ar", 2, 2000)
    led.record_drop(1, "ar", 2, 2000)
    assert led.pdr("ar", (0, 10)) == 0.0


def test_mean_hol_values_and_absence():
    led = MetricsLedger(window_ttis=10)
    assert led.mean_hol_ms("video", (0, 10)) is None
    led.record_arrivals(0, "video", 2, 2000)
    led.record_delivery(1, "video", 1000, 4.0)
    assert led.mean_hol_ms("video", (0, 10)) == 4.0
    led.record_delivery(2, "video", 1000, 2.0)
    led.record_delivery(2, "video", 1000, 6.0)
    assert led.mean_hol_ms("video", (0, 10)) == 4.0
    # a window with no deliveries reports absent, not zero
    assert led.mean_hol_ms("video", (20, 30)) is None


def test_throughput_accounts_delivered_bits_per_time():
    led = MetricsLedger(window_ttis=10, tti_ms=1.0)
    led.record_arrivals(0, "video", 2, 2000)
    led.record_delivery(5, "video", 1000, 1.0)
    led.record_delivery(6, "video", 1000, 1.0)
    # 2000 bits over one 10-TTI window = 200 bits/ms = 200 kbps
    assert led.throughput_kbps("video", (0, 10)) == pytest.approx(200.0)


def test_relocation_ratio_trivials():
    led = MetricsLedger(window_ttis=10)
    led.record_placements([
        PlacementEvent(0, 0, LOCATION_DU, 0.5),
        PlacementEvent(10, 0, LOCATION_CU, 0.5),
    ])
    assert relocation_ratio(led.placement_events, (0, 20)) == (0.5, 0.5)
    led2 = MetricsLedger(window_ttis=10)
    led2.record_placements([
        PlacementEvent(0, 0, LOCATION_DU, 0.0),
        PlacementEvent(10, 1, LOCATION_DU, 0.0),
    ])
    assert relocation_ratio(led2.placement_events, (0, 20)) == (1.0, 0.0)


def test_forced_modes_pin_placement_ratio():
    cfg = desk_config(mode="nf-du", ttis=100)
    led = run_batch(cfg).ledgers[0]
    assert relocation_ratio(led.placement_events, (0, 100)) == (1.0, 0.0)
    cfg = desk_config(mode="nf-cu", ttis=100)
    led = run_batch(cfg).ledgers[0]
    assert relocation_ratio(led.placement_events, (0, 100)) == (0.0, 1.0)


def test_delivered_ages_never_exceed_budget():
    cfg = desk_config(ttis=200, mode="dscd")
    led = run_batch(cfg).ledgers[0]
    for cls in led.classes():
        budget = {"video": 150.0, "ar": 10.0, "v2x": 20.0}[cls]
        for (w, c), s in led.windows.items():
            if c == cls and s.delivered:
                assert s.hol_sum_ms / s.delivered <= budget
