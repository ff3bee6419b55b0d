"""Microbenchmarks of the per-TTI engine work (pytest-benchmark).

At the crowded-nfcu benchmark workload's shape (4 cells, 160 UEs, 30%
vehicles, after 20 TTIs of queue build-up), each case times one TTI's
channel update, one TTI's arrival draw and one cell's observation build,
against the per-UE, per-queue and per-slot code they replace, and one
TTI's RLC ops on every queue: `RlcQueue.serve` of a one-RBG grant and
`RlcQueue.drop_expired`. Each case runs a fixed, small number of rounds
so that the suite stays fast; compare the cases with
`pytest tests/test_bench_engine.py --benchmark-only`.
"""

import copy
import os

import pytest

pytest.importorskip("pytest_benchmark")

from oransim.config import parse_config_file
from oransim.engine import Simulation
from oransim.ran import (
    build_interference_view,
    compute_cqi,
    cqi_vector,
    rbg_capacity,
)
from oransim.scheduler import (
    CellTti,
    ObservationGrid,
    build_observation,
    select_slot_ues,
)
from test_scheduler import oracle_observation

WORKLOAD = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "workloads", "crowded-nfcu.conf")
WARM_TTIS = 20
ROUNDS = 30
WARMUP = 2


@pytest.fixture(scope="module")
def sim():
    sim = Simulation(parse_config_file(WORKLOAD))
    for t in range(WARM_TTIS):
        sim.step(t)
    return sim


def cell_ues(sim):
    groups = [[] for _ in sim.cells]
    for ue in sim.ues:
        groups[ue.serving_cell_id].append(ue)
    return groups


def bench(benchmark, group, fn):
    benchmark.group = group
    benchmark.pedantic(fn, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP)


def test_bench_channel_update(benchmark, sim):
    bench(benchmark, "engine-channel",
          lambda: sim._update_channel(sim._changing_channel))


def test_bench_channel_per_ue_reference(benchmark, sim):
    def per_ue():
        collided = build_interference_view(sim.prev_allocations)
        cfg = sim.cfg.ran
        for ue in sim.ues:
            cell = sim.cells[ue.serving_cell_id]
            cqi_vector(compute_cqi(ue, cell, cfg, sim.rng_channel),
                       collided[cell.cell_id], cfg.interference_cqi_penalty)
    bench(benchmark, "engine-channel", per_ue)


def test_bench_arrival_draw(benchmark, sim):
    own = copy.deepcopy(sim)
    bench(benchmark, "engine-arrivals", lambda: own._arrivals(WARM_TTIS))


def test_bench_arrival_per_queue_reference(benchmark, sim):
    own = copy.deepcopy(sim)

    def per_queue():
        for q in own.queues.values():
            n = int(own.rng_traffic.poisson(q.arrival_rate(own.rate_scale)))
            q.generate_arrivals(WARM_TTIS, n)
            if n:
                own.ledger.record_arrivals(WARM_TTIS, q.flow.label, n,
                                           n * q.flow.packet_size_bits)
    bench(benchmark, "engine-arrivals", per_queue)


def busiest_cell(sim):
    """One cell's scheduling inputs: its slots and their uncovered demand."""
    cfg = sim.cfg.sched
    ues = max(cell_ues(sim), key=len)
    cell = sim.cells[ues[0].serving_cell_id]
    ctx = CellTti(cell=cell, ues=ues, queues=sim.queues, now=WARM_TTIS)
    slots = select_slot_ues(ctx, cfg)
    uncovered = {ue.ue_id: sim.queues[ue.ue_id].queued_remaining_bits
                 for ue in slots if ue is not None}
    assert None not in slots
    return ctx, slots, uncovered, cfg


def test_bench_observation_grid(benchmark, sim):
    ctx, slots, uncovered, cfg = busiest_cell(sim)

    def grid_build():
        grid = ObservationGrid(ctx, slots, uncovered, cfg)
        for rbg in range(ctx.cell.n_rbg):
            build_observation(grid, rbg)
    bench(benchmark, "scheduler-observation", grid_build)


def test_bench_observation_per_slot_reference(benchmark, sim):
    ctx, slots, uncovered, cfg = busiest_cell(sim)

    def per_slot():
        for rbg in range(ctx.cell.n_rbg):
            oracle_observation(ctx, rbg, slots, uncovered, cfg)
    bench(benchmark, "scheduler-observation", per_slot)


def bench_queues(benchmark, group, sim, work):
    """Time `work(queues)` on a fresh copy of the warmed queues each round,
    since the RLC ops change them."""
    benchmark.group = group
    benchmark.pedantic(work, setup=lambda: ((copy.deepcopy(sim.queues),), {}),
                       rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP)


def test_bench_rlc_serve(benchmark, sim):
    # one RBG at the UE's CQI on RBG 0 for every backlogged queue
    grants = [(ue.ue_id, rbg_capacity(int(ue.cqi_per_rbg[0])),
               sim.placement.age_offset_ms(ue.serving_cell_id))
              for ue in sim.ues if len(sim.queues[ue.ue_id])]
    assert grants

    def serve(queues):
        for ue_id, bits, extra in grants:
            queues[ue_id].serve(bits, WARM_TTIS, extra)
    bench_queues(benchmark, "traffic-rlc", sim, serve)


def test_bench_rlc_drop_expired(benchmark, sim):
    offsets = [(ue.ue_id, sim.placement.age_offset_ms(ue.serving_cell_id))
               for ue in sim.ues]

    def drop_expired(queues):
        for ue_id, extra in offsets:
            queues[ue_id].drop_expired(WARM_TTIS, extra)
    bench_queues(benchmark, "traffic-rlc", sim, drop_expired)
