"""The TTI loop: mobility -> arrivals -> placement epoch -> CQI -> per cell:
scheduling -> service -> expiry -> accounting.

Each run owns one seed, forked into named RNG streams (topology,
channel, traffic, mobility, the two policy streams and the agents'
weight init) so that one module's draw count never perturbs another's.
That isolation is what makes the nf-du / nf-cu baselines bitwise
comparable with a pinned dynamic run.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import pickle
import signal
import time
from collections import deque
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
    """One seeded run over cfg.ttis TTIs.

    With `learner`, `run` trains the scheduler agents in a forked process
    (see `_Learner`), or in-process if none can be started; every number
    stays the same.
    """

    def __init__(self, cfg: SimConfig, run_index=0, learner=False):
        self.cfg = cfg
        self._fork_learner = learner
        self._learner = None
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
        # the TTI's grants: row c is cell c's UE id per RBG
        self.prev_allocations = np.full((cfg.n_cells, cfg.n_rbg), UNASSIGNED)
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
        self._base_cqi = np.zeros(len(self.ues), dtype=int)
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
            n = int(counts[i])
            q.generate_arrivals(t, n)
            self.ledger.record_arrivals(t, q.flow.label, n,
                                        n * q.flow.packet_size_bits)

    def _update_channel(self, refresh):
        """Every UE's CQI per RBG from last TTI's allocations: `self.cqi`,
        a fresh read-only (UEs x RBGs) matrix, row = UE id.

        The base CQIs of the `refresh` UEs are recomputed, in UE id order;
        the others keep theirs. Each UE's row is then its base CQI, with
        the penalty on the RBGs its cell collided on.
        """
        cfg = self.cfg.ran
        collided = build_interference_view(self.prev_allocations)
        self.interference_events += np.count_nonzero(collided)
        for ue in refresh:
            self._base_cqi[ue.ue_id] = compute_cqi(
                ue, self.cells[ue.serving_cell_id], cfg, self.rng_channel)
        interfered = collided.take([ue.serving_cell_id for ue in self.ues],
                                   axis=0)
        self.cqi = cqi_vector(self._base_cqi[:, None], interfered,
                              cfg.interference_cqi_penalty)
        self.cqi.flags.writeable = False

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
        self._update_channel(self.ues if first else self._changing_channel)

        # per cell, in id order: schedule (CU-placed cells coordinate in
        # this order), serve the grants in UE id order, then expire. Every
        # resolved packet scores a placement reward sample for the cell's
        # DU: delivered in budget -> R3 1, delivered late or expired -> R3 0
        cu_group = set(self.placement.cu_dus())
        cu_taken = set()
        learner = self._learner
        for cell, ues in zip(self.cells, cell_ues):
            c = cell.cell_id
            extra = self.placement.age_offset_ms(c)
            ctx = CellTti(
                cell=cell, ues=ues, queues=self.queues, cqi=self.cqi,
                now=t, age_offset_ms=extra,
                blocked_rbgs=set(cu_taken) if c in cu_group else set())
            learn = None
            if learner is not None:
                # the cell decides on the weights its last `learn` left
                learner.wait(c)
                learn = functools.partial(learner.submit, c)
            out = schedule_tti(self.sched_agents[c], ctx, cfg.sched,
                               self.rng_sched, learn)
            self.prev_allocations[c] = out.allocation
            if c in cu_group:
                cu_taken.update(
                    int(r) for r in np.nonzero(out.allocation != UNASSIGNED)[0])

            for ue_id in sorted(out.granted_bits):
                q = self.queues[ue_id]
                ages, expired = q.serve(out.granted_bits[ue_id], t, extra)
                cls = q.flow.label
                size = q.flow.packet_size_bits
                urllc = 1 if q.flow.is_urllc else 0
                for age in ages:
                    self.ledger.record_delivery(t, cls, size, age)
                if expired:
                    self.ledger.record_drop(t, cls, expired, expired * size)
                self.placement.record_samples(c, [(urllc, 1)] * len(ages)
                                              + [(urllc, 0)] * expired)

            for ue in ues:
                q = self.queues[ue.ue_id]
                dropped = q.drop_expired(t, extra)
                if dropped:
                    self.ledger.record_drop(t, q.flow.label, dropped,
                                            dropped * q.flow.packet_size_bits)
                    urllc = 1 if q.flow.is_urllc else 0
                    self.placement.record_samples(c, [(urllc, 0)] * dropped)

        if cfg.audit:
            self._audit(t, self.prev_allocations)

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
        for cell_id, alloc in enumerate(allocations):
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
        try:
            if self._fork_learner:
                try:
                    self._learner = _Learner(
                        [self.sched_agents[c.cell_id] for c in self.cells],
                        self.cfg.n_rbg)
                except OSError:   # no process to spare: train in-process
                    pass
            for t in range(self.cfg.ttis):
                self.step(t)
            self._collect()
        except Exception:
            # every outstanding `learn` came first in program order, so its
            # error, if any, is the one raised
            self._collect()
            raise
        finally:
            if self._learner is not None:
                self._learner.close()
                self._learner = None
        return self.ledger

    def _collect(self):
        if self._learner is not None:
            self._learner.wait_all()


# --------------------------------------------------------- child processes

class _Child:
    """A forked process, and the read end of the pipe it reports on.

    The child closes `parent_fds`, the parent's ends of its other pipes,
    and runs `body(f)`, f being its pipe's binary write end. An exception
    from `body` is pickled to f with its formatted traceback, which
    pickling drops (see `_with_cause`). The child leaves through os._exit:
    0 if `body` returned, else 1. Raises OSError, leaving no pipe open,
    when no pipe or process can be had.
    """

    def __init__(self, what, body, parent_fds=()):
        self.what = what
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if self.pid == 0:
            code = 1
            try:
                for fd in (r, *parent_fds):
                    os.close(fd)
                with os.fdopen(w, "wb") as f:
                    try:
                        body(f)
                        code = 0
                    except Exception as e:   # raised again in the parent
                        import traceback   # only a failing child needs it
                        pickle.dump((e, traceback.format_exc()), f)
            finally:
                os._exit(code)
        os.close(w)   # EOF on the pipe once the child is gone
        self.reader = os.fdopen(r, "rb")

    def receive(self):
        """The child's next message; a pipe cut off raises `died`'s error."""
        try:
            return pickle.load(self.reader)
        except (EOFError, pickle.UnpicklingError):
            raise self.died() from None

    def died(self):
        """Reap the child, gone before reporting; the error to raise."""
        _, status = os.waitpid(self.pid, 0)
        pid, self.pid = self.pid, None   # reaped: `kill` leaves it alone
        return RuntimeError(f"{self.what} process {pid} exited with code "
                            f"{os.waitstatus_to_exitcode(status)} before "
                            f"reporting")

    def kill(self):
        """Kill and reap the child unless reaped, and close its pipe."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self.died()
        self.reader.close()


def _with_cause(error, remote_tb):
    """A child's error, its formatted traceback chained as the cause."""
    error.__cause__ = RuntimeError(remote_tb)
    return error


# ----------------------------------------------------------------- learner

def _shared_arrays(specs):
    """Zeroed arrays of the (shape, dtype) `specs`, 64-byte aligned in one
    shared anonymous mapping: a forked child writes the same memory."""
    sizes = [-(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
             for shape, dtype in specs]
    buf = mmap.mmap(-1, max(sum(sizes), 1))
    arrays, offset = [], 0
    for (shape, dtype), size in zip(specs, sizes):
        arrays.append(np.ndarray(shape, dtype, buffer=buf, offset=offset))
        offset += size
    return arrays


def _keep_heap_holes(n_bytes):
    """Allocate and free one block of `n_bytes`, the agents' size.

    glibc's malloc serves a block this large from a mapping of its own
    and, when it is freed, raises its mmap threshold to the block's size
    (mallopt(3), M_MMAP_THRESHOLD), so later blocks up to that size come
    from the heap, as they do after in-process training. Without it, a
    set-up later in the same process mapped and faulted in its agents'
    weights afresh: `setup_s` on `reference` read 2.0-3.6 ms after runs
    with a learner against 1.8-2.1 ms after in-process runs (2-vCPU VM).
    Other allocators see one short-lived block. Only a later set-up in the
    same process gains, so this can go once the benchmark times set-ups
    in a fresh process.
    """
    np.empty(n_bytes, np.uint8)


_POLL_S = 0.005


def _poll(counts, i, seen):
    """Wait up to _POLL_S for counts[i] to pass `seen`, without sleeping.

    Both sides poll before they block on a pipe read, because most waits
    last a millisecond or less and a sleeping waiter pays a wake-up each
    time: on a 2-vCPU VM, blocking reads alone gave ×0.69–0.87 of the
    TTI rate on `reference` and ×0.78–0.96 on `crowded-nfcu` (4 pairs
    each). The pipe byte is written before the count, so a read that
    follows a successful poll returns at once.
    """
    end = time.perf_counter() + _POLL_S
    while counts[i] <= seen and time.perf_counter() < end:
        pass


class _Learner:
    """A forked process that runs the scheduler agents' `learn`.

    During the run the agents' weights live in a shared mapping, so the
    learner's in-place writes are the weights the main process decides
    with; `close` moves them back into the agents' own arrays, which a
    later fork of this process copies rather than shares. Cell c's chain
    of steps (`A2cAgent.learn`'s arrays) goes through slot c of the
    mapping: a request byte sends it and an ack byte comes back once
    `learn` has returned (see `_poll` for how each side waits). The engine
    waits for cell c's ack before cell c decides again, so each agent
    trains on the same steps, in the same order, as in-process.

    A learner error is sent back, with its formatted traceback, in place
    of an ack, and raised here when its ack is due. The learner exits on
    EOF of its request pipe; `close` kills and reaps it. Building one
    raises OSError, with no pipe left open and the weights back in place,
    when no mapping, pipe or process can be had; the agents then train
    in-process.
    """

    def __init__(self, agents, n_rbg):
        self.agents = agents
        n = len(agents)
        obs_dim, n_actions = agents[0].actor.input_dim, agents[0].n_actions
        params = [arrays for agent in agents
                  for net in (agent.actor, agent.critic)
                  for arrays in (net.weights, net.biases)]
        shared = _shared_arrays(
            [(a.shape, a.dtype) for arrays in params for a in arrays]
            + [((n, n_rbg, obs_dim), float), ((n, n_rbg), np.int64),
               ((n, n_rbg), float), ((n, n_rbg, n_actions), bool),
               ((n,), bool), ((n,), np.int64), ((n,), np.int64),
               ((n,), np.int64), ((2,), np.int64)])
        req_r, self.req_w = os.pipe()
        self.moved = []   # (list, index, the agent's own array)
        for arrays in params:
            for i, a in enumerate(arrays):
                arrays[i] = shared.pop(0)
                arrays[i][...] = a
                self.moved.append((arrays, i, a))
        # order: the cell of each request, as a ring; counts: requests sent
        # and acks sent, which the waiting side polls before it blocks
        (self.obs, self.action, self.reward, self.mask, self.masked,
         self.size, self.updates, self.order, self.counts) = shared
        self.sent = self.received = 0
        self.pending = deque()            # cells with a `learn` not acked

        try:
            self.child = _Child("learner", functools.partial(
                self._serve, req_r), (self.req_w,))
        except OSError:
            os.close(self.req_w)
            self._move_back()
            raise
        finally:
            os.close(req_r)
        self.ack_r = self.child.reader.fileno()

    # ---------------------------------------------------- learner process

    def _serve(self, req_r, acks):
        n, done, ack_w = len(self.agents), 0, acks.fileno()
        while True:
            _poll(self.counts, 0, done)
            requests = os.read(req_r, 4096)
            if not requests:
                return
            for _ in requests:
                c = int(self.order[done % n])
                k = int(self.size[c])
                done += 1
                try:
                    self.agents[c].learn(
                        self.obs[c, :k], self.action[c, :k],
                        self.reward[c, :k],
                        self.mask[c, :k] if self.masked[c] else None)
                except Exception:
                    os.write(ack_w, b"\1")   # the error follows
                    raise
                self.updates[c] = self.agents[c].update_count
                os.write(ack_w, b"\0")
                self.counts[1] = done

    # ------------------------------------------------------- main process

    def submit(self, c, obs, actions, rewards, masks):
        """Cell c's `learn`: write the chain to its slot and send a
        request."""
        k = len(obs)
        self.size[c] = k
        self.obs[c, :k] = obs
        self.action[c, :k] = actions
        self.reward[c, :k] = rewards
        self.masked[c] = masks is not None
        if masks is not None:
            self.mask[c, :k] = masks
        self.order[self.sent % len(self.agents)] = c
        self.sent += 1
        self.pending.append(c)
        try:
            os.write(self.req_w, b"\0")
        except BrokenPipeError:
            self.wait_all()   # raises: the learner is gone
        self.counts[0] = self.sent

    def wait(self, c):
        """Return once cell c's last `learn` has returned."""
        while c in self.pending:
            self._ack()

    def wait_all(self):
        while self.pending:
            self._ack()

    def _ack(self):
        _poll(self.counts, 1, self.received)
        ack = os.read(self.ack_r, 1)
        if ack == b"\0":
            self.received += 1
            c = self.pending.popleft()
            self.agents[c].update_count = int(self.updates[c])
            return
        self.pending.clear()
        if not ack:
            raise self.child.died()
        raise _with_cause(*self.child.receive())

    def close(self):
        """Kill and reap the learner and move the weights back."""
        self.child.kill()
        os.close(self.req_w)
        self._move_back()
        _keep_heap_holes(sum(a.nbytes for _, _, a in self.moved))

    def _move_back(self):
        for arrays, i, original in self.moved:
            original[...] = arrays[i]
            arrays[i] = original


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


def _offload_training(cfg, cpus):
    """Whether the batch's run trains in a learner process: only where
    that was measured faster, one run with a second usable CPU (see
    BENCH_17.json; `_usable_cpus` sees no CPU quota). A wrapped training
    method (`__wrapped__`, as `functools.wraps` leaves it) counts or times
    its calls in the process that makes them, so such a run trains
    in-process, where those records are kept.
    """
    wrapped = any(hasattr(getattr(A2cAgent, name), "__wrapped__")
                  for name in ("learn", "update_critic", "update_actor"))
    return cfg.runs == 1 and cpus >= 2 and cfg.sched.training and not wrapped


def _run_lane(cfg, run_indices, f):
    """Child lane: one status per run (None; a run's error ends the lane,
    see `_Child`), then all of the lane's ledgers in one message.

    A ledger can outgrow the pipe buffer, so the ledgers are sent only when
    no run is left for a blocked send to hold up; a status is small, and
    flushed at once.
    """
    ledgers = []
    for i in run_indices:
        ledgers.append(Simulation(cfg, run_index=i).run())
        pickle.dump(None, f)
        f.flush()
    pickle.dump(ledgers, f)


def _run_ledgers(cfg: SimConfig):
    """Every run's ledger, in run order.

    Runs are spread over lanes = min(runs, usable CPUs): run i goes to lane
    i mod lanes, this process runs lane 0 and each other lane is a forked
    child (`_Child`). A one-run batch with a second usable CPU trains its
    scheduler agents in a learner process (`_Learner`; see
    `_offload_training`). A run computes the same ledger in any process,
    and the first failing run's error is raised, as in a serial loop. No
    child outlives the call.
    """
    # only a forked child can use a CPU beyond this process's
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    lanes = min(cfg.runs, cpus)
    learner = _offload_training(cfg, cpus)
    children = []
    try:
        for lane in range(1, lanes):
            children.append((lane, _Child("batch lane", functools.partial(
                _run_lane, cfg, range(lane, cfg.runs, lanes)))))
        ledgers = [None] * cfg.runs
        failed, error = cfg.runs, None
        for i in range(0, cfg.runs, lanes):
            try:
                ledgers[i] = Simulation(cfg, run_index=i,
                                        learner=learner).run()
            except Exception as e:   # raised below, unless an earlier run failed
                failed, error = i, e
                break
        # an earlier run of another lane may have failed as well
        for lane, child in children:
            for i in range(lane, failed, lanes):
                status = child.receive()
                if status is not None:
                    failed, error = i, _with_cause(*status)
                    break
        if error is not None:
            raise error
        for lane, child in children:
            ledgers[lane::lanes] = child.receive()
        return ledgers
    finally:
        for _, child in children:
            child.kill()


def run_batch(cfg: SimConfig, allow_out_of_envelope=False) -> BatchResult:
    """Execute cfg.runs independent simulations with derived seeds seed+i."""
    validate_config(cfg, allow_out_of_envelope)
    ledgers = _run_ledgers(cfg)
    rows = [ledger_rows(led, cfg.mode, cfg.ttis) for led in ledgers]
    return BatchResult(config=cfg, ledgers=ledgers, rows_per_run=rows,
                       aggregate=aggregate_rows(rows))
