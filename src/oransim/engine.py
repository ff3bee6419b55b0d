"""The TTI loop: mobility -> arrivals -> placement epoch -> CQI -> per cell:
scheduling -> service -> expiry -> accounting.

Each run owns one seed, forked into named RNG streams (topology,
channel, traffic, mobility, the two policy streams and the agents'
weight init) so that one module's draw count never perturbs another's.
That isolation is what makes the nf-du / nf-cu baselines bitwise
comparable with a pinned dynamic run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .a2c import A2cAgent
from .config import SimConfig, validate_config
from .metrics import MetricsLedger, aggregate_rows, ledger_rows
from .placement import (
    LOCATION_CU,
    LOCATION_DU,
    N_PLACEMENT_FEATURES,
    PlacementController,
)
from .ran import (
    UNASSIGNED,
    build_interference_view,
    compute_cqi,
    cqi_vector,
    drop_ues,
    grid_topology,
    step_mobility,
)
from .scheduler import CellTti, schedule_tti
from .traffic import RlcQueue, make_flow

# spawn keys for the named RNG streams
_STREAMS = {"topology": 0, "channel": 1, "traffic": 2, "mobility": 3,
            "sched_policy": 4, "placement_policy": 5, "sched_init": 6,
            "placement_init": 7}


class AuditError(RuntimeError):
    """A per-TTI simulation invariant failed."""


def named_stream(seed, name, *extra):
    key = (_STREAMS[name],) + tuple(extra)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def stream_seed(seed, name, *extra):
    """Stable integer seed derived from a named stream position."""
    key = (_STREAMS[name],) + tuple(extra)
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def assign_traffic_classes(cfg: SimConfig):
    """Traffic class per UE id, by scenario.

    fixed: an AR share equal to the URLLC density, the rest live video.
    mobile: that density becomes V2X vehicles; non-vehicles split between
    AR and video by the configured AR share.
    """
    n = cfg.n_ues
    if cfg.scenario == "fixed":
        n_ar = round(cfg.urllc_density * n)
        return ["ar"] * n_ar + ["video"] * (n - n_ar)
    n_v2x = round(cfg.urllc_density * n)
    n_ar = round(cfg.traffic.ar_share_nonvehicle * (n - n_v2x))
    return ["v2x"] * n_v2x + ["ar"] * n_ar + ["video"] * (n - n_v2x - n_ar)


class Simulation:
    """One seeded run over cfg.ttis TTIs."""

    def __init__(self, cfg: SimConfig, run_index=0):
        self.cfg = cfg
        self.run_seed = cfg.seed + run_index
        seed = self.run_seed

        self.cells, self.bounds = grid_topology(
            cfg.n_cells, cfg.ran.cell_spacing_m, cfg.n_rbg)

        self.rng_channel = named_stream(seed, "channel")
        self.rng_traffic = named_stream(seed, "traffic")
        self.rng_mobility = named_stream(seed, "mobility")
        self.rng_sched = named_stream(seed, "sched_policy")
        self.rng_placement = named_stream(seed, "placement_policy")

        self.ues = drop_ues(cfg.n_ues, self.cells, self.bounds,
                            named_stream(seed, "topology"))
        classes = assign_traffic_classes(cfg)
        self.queues = {}
        for ue, cls in zip(self.ues, classes):
            flow = make_flow(cls, cfg.traffic.ue_rate_bps,
                             cfg.traffic.packet_size_bits)
            self.queues[ue.ue_id] = RlcQueue(flow, cfg.tti_ms)
            if cfg.scenario == "mobile" and cls == "v2x":
                ue.speed_mps = cfg.ran.vehicle_speed_mps

        # network-wide arrival throttle ("traffic stream per TTI")
        lam_total = sum(q.arrival_rate() for q in self.queues.values())
        cap = cfg.traffic.arrival_cap_events_per_tti
        self.rate_scale = min(1.0, cap / lam_total) if lam_total > cap > 0 else 1.0

        obs_dim = cfg.sched.obs_dim()
        self.sched_agents = {
            cell.cell_id: A2cAgent.build(
                obs_dim, cfg.sched.slot_count, cfg.a2c.actor_hidden,
                cfg.a2c.critic_hidden,
                rng_seed=stream_seed(seed, "sched_init", cell.cell_id),
                gamma=cfg.a2c.gamma, lr_actor=cfg.a2c.lr_actor,
                lr_critic=cfg.a2c.lr_critic, clip_norm=cfg.a2c.clip_norm)
            for cell in self.cells}

        forced = {"nf-du": LOCATION_DU, "nf-cu": LOCATION_CU}.get(cfg.mode)
        agent = None
        if forced is None:
            agent = A2cAgent.build(
                N_PLACEMENT_FEATURES, 2, cfg.a2c.actor_hidden,
                cfg.a2c.critic_hidden,
                rng_seed=stream_seed(seed, "placement_init"),
                gamma=cfg.a2c.gamma, lr_actor=cfg.a2c.lr_actor,
                lr_critic=cfg.a2c.lr_critic, clip_norm=cfg.a2c.clip_norm)
        self.placement = PlacementController(
            len(self.cells), cfg.placement, agent,
            self.rng_placement, forced=forced, tti_ms=cfg.tti_ms)

        self.ledger = MetricsLedger(cfg.window_ttis, cfg.tti_ms)
        self.prev_allocations = {}
        self.interference_events = 0
        self._base_cqi = None   # see _build_run_caches

    # ----------------------------------------------------------------- TTI

    def _build_run_caches(self):
        """What stays fixed for the whole run; built on the first step so
        that setting up a Simulation costs nothing for it."""
        self._vehicles = [ue for ue in self.ues if ue.mobile]
        # a UE's base CQI changes only as it moves, or with every shadowing draw
        self._changing_channel = (self.ues if self.cfg.ran.shadow_sigma_db > 0.0
                                  else self._vehicles)
        self._base_cqi = [0] * len(self.ues)
        # per cell: (interfered RBGs, base CQI -> read-only CQI vector)
        self._cqi_vectors = [(None, {}) for _ in self.cells]
        self._arriving = [q for q in self.queues.values()
                          if q.arrival_rate(self.rate_scale) > 0.0]
        self._arrival_rates = np.array(
            [q.arrival_rate(self.rate_scale) for q in self._arriving])

    def _arrivals(self, t):
        """One Poisson draw over the queues with a positive rate, in UE id
        order: the stream is consumed as by one scalar draw per queue."""
        if not self._arriving:
            return
        counts = self.rng_traffic.poisson(self._arrival_rates)
        for i in np.flatnonzero(counts):
            q = self._arriving[i]
            fresh = q.generate_arrivals(t, int(counts[i]))
            self.ledger.record_arrivals(
                t, q.flow.label, len(fresh), sum(p.size_bits for p in fresh))

    def _update_channel(self, cell_ues, refresh):
        """Every UE's CQI vector from last TTI's allocations.

        The base CQIs of the `refresh` UEs are recomputed, in UE id order;
        the others keep theirs. Each cell's UEs of one base CQI then share
        one read-only vector, with the penalty on the RBGs the cell
        collided on; a cell keeps its vectors while those RBGs stay the
        same.
        """
        cfg = self.cfg.ran
        view = build_interference_view(self.prev_allocations)
        self.interference_events += view.collision_count()
        for ue in refresh:
            self._base_cqi[ue.ue_id] = compute_cqi(
                ue, self.cells[ue.serving_cell_id], cfg, self.rng_channel)
        for cell, ues in zip(self.cells, cell_ues):
            interfered = view.interfered_rbgs(cell.cell_id)
            seen, vectors = self._cqi_vectors[cell.cell_id]
            if interfered != seen:
                vectors = {}
                self._cqi_vectors[cell.cell_id] = (interfered, vectors)
            for ue in ues:
                base = self._base_cqi[ue.ue_id]
                cqi = vectors.get(base)
                if cqi is None:
                    cqi = vectors[base] = cqi_vector(
                        base, cell.n_rbg, interfered,
                        cfg.interference_cqi_penalty)
                    cqi.flags.writeable = False
                ue.cqi_per_rbg = cqi

    def step(self, t):
        cfg = self.cfg
        tti_s = cfg.tti_ms / 1000.0
        first = self._base_cqi is None
        if first:
            self._build_run_caches()

        # mobility: only vehicles move, and serving cells change only here,
        # so the UEs are grouped by cell once
        for ue in self._vehicles:
            step_mobility(ue, tti_s, self.bounds, self.cells, self.rng_mobility)
        cell_ues = [[] for _ in self.cells]
        for ue in self.ues:
            cell_ues[ue.serving_cell_id].append(ue)

        self._arrivals(t)

        # placement epoch
        if self.placement.is_epoch_boundary(t):
            events = self.placement.decide_epoch(
                t, [[self.queues[ue.ue_id] for ue in ues] for ues in cell_ues])
            self.ledger.record_placements(events)

        # channel state from last TTI's allocations; on the first step every
        # UE's channel is new
        self._update_channel(cell_ues,
                             self.ues if first else self._changing_channel)

        # per cell, in id order: schedule (CU-placed cells coordinate in
        # this order), serve the grants in UE id order, then expire. Every
        # resolved packet scores a placement reward sample for the cell's
        # DU: delivered in budget -> R3 1, delivered late or expired -> R3 0
        cu_group = set(self.placement.cu_dus())
        cu_taken = set()
        allocations = {}
        for cell, ues in zip(self.cells, cell_ues):
            c = cell.cell_id
            extra = self.placement.age_offset_ms(c)
            ctx = CellTti(
                cell=cell, ues=ues, queues=self.queues, now=t,
                age_offset_ms=extra,
                blocked_rbgs=set(cu_taken) if c in cu_group else set())
            out = schedule_tti(self.sched_agents[c], ctx, cfg.sched,
                               self.rng_sched)
            allocations[c] = out.allocation
            if c in cu_group:
                cu_taken.update(
                    int(r) for r in np.nonzero(out.allocation != UNASSIGNED)[0])

            for ue_id in sorted(out.granted_bits):
                q = self.queues[ue_id]
                delivered, expired = q.serve(out.granted_bits[ue_id], t, extra)
                cls = q.flow.label
                urllc = 1 if q.flow.is_urllc else 0
                budget = q.flow.delay_budget_ms
                for p in delivered:
                    age = p.age_ms(t, cfg.tti_ms) + extra
                    if cfg.audit and age > budget:
                        raise AuditError(
                            f"TTI {t}: delivered packet over budget ({age} ms "
                            f"against {budget} ms)")
                    self.ledger.record_delivery(t, cls, p.size_bits, age)
                if expired:
                    self.ledger.record_drop(t, cls, len(expired),
                                            sum(p.size_bits for p in expired))
                self.placement.record_samples(c, [(urllc, 1)] * len(delivered)
                                              + [(urllc, 0)] * len(expired))

            for ue in ues:
                q = self.queues[ue.ue_id]
                dropped = q.drop_expired(t, extra)
                if dropped:
                    self.ledger.record_drop(t, q.flow.label, len(dropped),
                                            sum(p.size_bits for p in dropped))
                    urllc = 1 if q.flow.is_urllc else 0
                    self.placement.record_samples(c, [(urllc, 0)] * len(dropped))

        self.prev_allocations = allocations
        if cfg.audit:
            self._audit(t, allocations)

    def _audit(self, t, allocations):
        # conservation per class, in packets and in bits
        queued = {}
        queued_bits = {}
        for q in self.queues.values():
            cls = q.flow.label
            queued[cls] = queued.get(cls, 0) + len(q)
            queued_bits[cls] = queued_bits.get(cls, 0) + q.queued_bits
        for cls, tot in self.ledger.totals.items():
            settled = tot.delivered_packets + tot.dropped_packets
            if tot.arrived_packets != settled + queued.get(cls, 0):
                raise AuditError(
                    f"TTI {t}: packet conservation broken for {cls}")
            settled_bits = tot.delivered_bits + tot.dropped_bits
            if tot.arrived_bits != settled_bits + queued_bits.get(cls, 0):
                raise AuditError(f"TTI {t}: bit conservation broken for {cls}")
        # every granted RBG belongs to a UE this cell serves
        for cell_id, alloc in allocations.items():
            for ue_id in alloc:
                if ue_id == UNASSIGNED:
                    continue
                if self.ues[ue_id].serving_cell_id != cell_id:
                    raise AuditError(
                        f"TTI {t}: cell {cell_id} granted an RBG to foreign "
                        f"UE {ue_id}")
        # arena containment
        (xmin, ymin), (xmax, ymax) = self.bounds
        for ue in self.ues:
            if not (xmin <= ue.position[0] <= xmax
                    and ymin <= ue.position[1] <= ymax):
                raise AuditError(f"TTI {t}: UE {ue.ue_id} left the arena")

    def run(self):
        for t in range(self.cfg.ttis):
            self.step(t)
        return self.ledger


@dataclass
class BatchResult:
    config: SimConfig
    ledgers: list
    rows_per_run: list
    aggregate: list

    def tail_range(self):
        """The converged-half TTI range used for summary comparisons."""
        return (self.config.ttis // 2, self.config.ttis)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _run_lane(cfg, run_indices, conn):
    """Child lane: one status per run (None, or the run's error and its
    formatted traceback, which end the lane), then all of the lane's
    ledgers in one message.

    A ledger can outgrow the pipe buffer, so the ledgers are sent only when
    no run is left for a blocked send to hold up; a status is small.
    """
    ledgers = []
    for i in run_indices:
        try:
            ledgers.append(Simulation(cfg, run_index=i).run())
        except Exception as e:   # raised again in the parent
            import traceback   # only a failing child needs it
            conn.send((e, traceback.format_exc()))
            return
        conn.send(None)
    conn.send(ledgers)


def _receive(proc, conn):
    try:
        return conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"batch lane process {proc.pid} exited with code "
                           f"{proc.exitcode} before reporting") from None


def _run_ledgers(cfg: SimConfig):
    """Every run's ledger, in run order.

    Runs are spread over lanes = min(runs, usable CPUs): run i goes to lane
    i mod lanes, this process runs lane 0 and each other lane is a forked
    child. A run computes the same ledger in any process, and the first
    failing run's error is raised, as in a serial loop. No child outlives
    the call.
    """
    lanes = min(cfg.runs, _usable_cpus())
    if lanes > 1:
        # imported here so that a one-lane batch costs no memory for it
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            # fork: a child starts from this process's state and no server
            # process outlives the call
            ctx = multiprocessing.get_context("fork")
        else:
            lanes = 1
    children = []
    try:
        for lane in range(1, lanes):
            conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_lane, args=(
                cfg, range(lane, cfg.runs, lanes), child_conn))
            proc.start()
            child_conn.close()   # EOF on conn once the child is gone
            children.append((lane, proc, conn))
        ledgers = [None] * cfg.runs
        failed, error = cfg.runs, None
        for i in range(0, cfg.runs, lanes):
            try:
                ledgers[i] = Simulation(cfg, run_index=i).run()
            except Exception as e:   # raised below, unless an earlier run failed
                failed, error = i, e
                break
        # an earlier run of another lane may have failed as well
        for lane, proc, conn in children:
            for i in range(lane, failed, lanes):
                status = _receive(proc, conn)
                if status is not None:
                    # pickling dropped the error's traceback: chain the
                    # child's formatted one, as multiprocessing.pool does
                    error, remote_tb = status
                    error.__cause__ = RuntimeError(remote_tb)
                    failed = i
                    break
        if error is not None:
            raise error
        for lane, proc, conn in children:
            ledgers[lane::lanes] = _receive(proc, conn)
            proc.join()
        return ledgers
    finally:
        for _, proc, conn in children:
            proc.terminate()   # no-op once joined
            proc.join()
            conn.close()


def run_batch(cfg: SimConfig, allow_out_of_envelope=False) -> BatchResult:
    """Execute cfg.runs independent simulations with derived seeds seed+i."""
    validate_config(cfg, allow_out_of_envelope)
    ledgers = _run_ledgers(cfg)
    rows = [ledger_rows(led, cfg.mode) for led in ledgers]
    return BatchResult(config=cfg, ledgers=ledgers, rows_per_run=rows,
                       aggregate=aggregate_rows(rows))
