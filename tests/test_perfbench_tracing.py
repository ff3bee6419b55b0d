"""The benchmark's span tracer still finds every entry point it wraps.

`perfbench/tracing.py` looks each wrapped method or function up by name;
a renamed or deleted one is reported in `Tracer.missing`, and the
benchmark then marks its workload incorrect. This runs the tracer over a
short desk run, dynamic and pinned at the CU, and checks that the A2C
update spans are recorded, that the scheduler hook sees blocked RBGs, and
that the collision count is positive under dscd and zero at the CU.
"""

import os
import sys

import pytest

from oransim.config import SimConfig, parse_config_file
from oransim.engine import Simulation

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("mode", ["dscd", "nf-cu"])
def test_tracer_wraps_every_entry_point_and_records_a2c_updates(mode):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from tracing import Tracer
    finally:
        sys.path.pop(0)
    cfg = parse_config_file(os.path.join(ROOT, "configs", "desk_fixed.conf"),
                            base=SimConfig())
    cfg.ttis = 20
    cfg.mode = mode
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        Simulation(cfg).run()
    finally:
        tracer.restore()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("engine.step") == 20
    for name in ("a2c.update_critic", "a2c.update_actor",
                 "a2c.action_distribution"):
        assert name in names
    summary, _ = tracer.summary()
    assert 0.0 < summary["a2c.update_applied_ratio"][0] <= 1.0
    collisions = summary["ran.collisions_per_tti"][0]
    if mode == "nf-cu":
        # the CU-coordinated cells block each other's RBGs, so the
        # schedule_tti hook read the cells' blocked sets and allocations
        assert summary["scheduler.blocked_rbg_ratio"][0] > 0.0
        assert summary["placement.cu_share"][0] == 1.0
        # the paper's mechanism: CU-coordinated cells never collide
        assert collisions == 0.0
    else:
        assert collisions > 0.0
