"""Span tracing of oransim from outside the package.

`Tracer.install()` wraps the layer entry points listed in `SPANS` in
place: methods on their classes, and module-level functions both in
their home module and in every module that bound them with
`from ... import`, because a call through `engine.compute_cqi` never
looks at `ran.compute_cqi`. `Tracer.restore()` puts every original back.

Each call becomes one span in memory: name, start, end, parent span and
the TTI index (the id that spans of one simulated TTI share) plus the
run counter. Self time is a span's duration minus the time its direct
children cover; calls are nested and single-threaded, so the children
never overlap. The wrappers draw no random numbers and pass arguments
and results through unchanged.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from oransim import a2c, cli, engine, metrics, placement, ran, scheduler, traffic

# span name -> (owner, attribute) pairs that are wrapped under that name
SPANS = {
    "cli.run": [(cli, "cmd_run")],
    "config.parse_validate": [(cli, "build_config"),
                              (engine, "validate_config")],
    "engine.run_batch": [(cli, "run_batch")],
    "engine.step": [(engine.Simulation, "step")],
    "engine.audit": [(engine.Simulation, "_audit")],
    "placement.decide_epoch": [(placement.PlacementController, "decide_epoch")],
    "scheduler.schedule_tti": [(scheduler, "schedule_tti"),
                               (engine, "schedule_tti")],
    "scheduler.select_slot_ues": [(scheduler, "select_slot_ues")],
    "scheduler.build_observation": [(scheduler, "build_observation")],
    "a2c.action_distribution": [(a2c.A2cAgent, "action_distribution")],
    "a2c.update_critic": [(a2c.A2cAgent, "update_critic")],
    "a2c.update_actor": [(a2c.A2cAgent, "update_actor")],
    "ran.compute_cqi": [(ran, "compute_cqi"), (engine, "compute_cqi")],
    "ran.step_mobility": [(ran, "step_mobility"), (engine, "step_mobility")],
    "ran.build_interference_view": [(ran, "build_interference_view"),
                                    (engine, "build_interference_view")],
    "traffic.generate_arrivals": [(traffic.RlcQueue, "generate_arrivals")],
    "traffic.serve": [(traffic.RlcQueue, "serve")],
    "traffic.drop_expired": [(traffic.RlcQueue, "drop_expired")],
    "metrics.record": [(metrics.MetricsLedger, "record_arrivals"),
                       (metrics.MetricsLedger, "record_delivery"),
                       (metrics.MetricsLedger, "record_drop"),
                       (metrics.MetricsLedger, "record_placements")],
    "metrics.rows": [(metrics, "ledger_rows"), (metrics, "aggregate_rows"),
                     (engine, "ledger_rows"), (engine, "aggregate_rows")],
    "cli.emit": [(cli, "emit_metrics"), (cli, "write_manifest")],
}

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.tti = []
        self.run = []
        self._stack = [NO_PARENT]
        self._cur_tti = -1
        self._cur_run = -1
        self._saved = []
        self.missing = []
        # counts taken at the layer boundaries
        self.sims = []
        self.queue_depth_sum = 0.0
        self.rbg_total = 0
        self.rbg_blocked = 0
        self.rbg_granted = 0

    # ------------------------------------------------------------ patching

    def install(self):
        hooks = {"engine.step": (self._before_step, self._after_step),
                 "scheduler.schedule_tti": (None, self._after_schedule)}
        for name, targets in SPANS.items():
            nid = self.names.index(name)
            before, after = hooks.get(name, (None, None))
            for owner, attr in targets:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(nid, original, before, after))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, nid, fn, before, after):
        clock = time.perf_counter
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        tti, run, stack = self.tti, self.run, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            tti.append(self._cur_tti)
            run.append(self._cur_run)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # --------------------------------------------------------------- hooks

    def _before_step(self, args):
        sim, t = args[0], args[1]
        if not self.sims or self.sims[-1] is not sim:
            self.sims.append(sim)
            self._cur_run += 1
        self._cur_tti = t

    def _after_step(self, args, _result):
        queues = args[0].queues
        self.queue_depth_sum += sum(len(q) for q in queues.values()) / len(queues)
        self._cur_tti = -1

    def _after_schedule(self, args, result):
        ctx = args[1]
        n_rbg = ctx.cell.n_rbg
        self.rbg_total += n_rbg
        self.rbg_blocked += sum(1 for r in ctx.blocked_rbgs if r < n_rbg)
        self.rbg_granted += int(np.count_nonzero(result.allocation != ran.UNASSIGNED))

    # ------------------------------------------------------------- results

    def arrays(self):
        return {"names": np.array(self.names),
                "name_id": np.array(self.name_id, dtype=np.int16),
                "start": np.array(self.start),
                "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int64),
                "tti": np.array(self.tti, dtype=np.int32),
                "run": np.array(self.run, dtype=np.int32)}

    def save(self, path):
        np.savez_compressed(path, **self.arrays())

    def summary(self):
        """Per-layer metrics of the traced call, as {name: (value, unit)},
        and each layer's share of all traced self time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] != NO_PARENT
        self_s = dur.copy()
        np.subtract.at(self_s, a["parent"][child], dur[child])
        nid = a["name_id"]

        def ids(name):
            return nid == self.names.index(name)

        steps = dur[ids("engine.step")]
        ttis = max(len(steps), 1)
        out = {}

        def calls(name):
            return int(np.count_nonzero(ids(name)))

        def self_total(name):
            return float(self_s[ids(name)].sum())

        def per_call(name):
            out[f"{name}.self_us_per_call"] = (
                1e6 * self_total(name) / max(calls(name), 1), "us")

        def per_tti(name):
            out[f"{name}.self_us_per_tti"] = (1e6 * self_total(name) / ttis, "us")

        for name in ("a2c.action_distribution", "a2c.update_critic",
                     "a2c.update_actor"):
            out[f"{name}.calls_per_tti"] = (calls(name) / ttis, "count")
            per_call(name)
        agents = [ag for sim in self.sims for ag in
                  list(sim.sched_agents.values()) + [sim.placement.agent]
                  if ag is not None]
        update_calls = calls("a2c.update_critic") + calls("a2c.update_actor")
        out["a2c.update_applied_ratio"] = (
            sum(ag.update_count for ag in agents) / max(update_calls, 1), "ratio")

        per_tti("scheduler.schedule_tti")
        per_call("scheduler.build_observation")
        per_tti("scheduler.select_slot_ues")
        in_schedule = np.isin(a["parent"], np.flatnonzero(ids("scheduler.schedule_tti")))
        decisions = np.count_nonzero(ids("a2c.action_distribution") & in_schedule)
        out["scheduler.decisions_per_tti"] = (decisions / ttis, "count")
        offered = self.rbg_total - self.rbg_blocked
        out["scheduler.rbg_grant_ratio"] = (self.rbg_granted / max(offered, 1), "ratio")
        out["scheduler.blocked_rbg_ratio"] = (
            self.rbg_blocked / max(self.rbg_total, 1), "ratio")

        for name in ("ran.compute_cqi", "ran.step_mobility",
                     "ran.build_interference_view"):
            per_tti(name)
        out["ran.collisions_per_tti"] = (
            sum(sim.interference_events for sim in self.sims) / ttis, "count")

        for name in ("traffic.generate_arrivals", "traffic.serve",
                     "traffic.drop_expired"):
            per_tti(name)
        out["traffic.queue_depth_mean"] = (self.queue_depth_sum / ttis, "packets")
        totals = [t for sim in self.sims for t in sim.ledger.totals.values()]
        dropped = sum(t.dropped_packets for t in totals)
        resolved = dropped + sum(t.delivered_packets for t in totals)
        out["traffic.expired_ratio"] = (dropped / max(resolved, 1), "ratio")

        p50, p99 = np.percentile(steps, [50, 99]) if len(steps) else (0.0, 0.0)
        out["engine.step.p50_us"] = (1e6 * float(p50), "us")
        out["engine.step.p99_us"] = (1e6 * float(p99), "us")
        per_tti("engine.step")
        per_tti("engine.audit")

        per_call("placement.decide_epoch")
        events = [e for sim in self.sims for e in sim.ledger.placement_events]
        at_cu = sum(1 for e in events if e.location == placement.LOCATION_CU)
        out["placement.cu_share"] = (at_cu / max(len(events), 1), "ratio")

        per_tti("metrics.record")
        for name in ("metrics.rows", "cli.emit", "config.parse_validate"):
            out[f"{name}.self_us"] = (1e6 * self_total(name), "us")

        total = float(self_s.sum()) or 1.0
        shares = {}
        for i, name in enumerate(self.names):
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + float(self_s[nid == i].sum()) / total
        return out, shares
