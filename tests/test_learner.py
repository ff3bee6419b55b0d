"""The forked learner: a run that trains its scheduler agents in a learner
process computes exactly what an in-process run computes, fails as that
run would, and leaves no child behind."""

import functools
import mmap
import os
import signal

import pytest

from oransim import cli, engine
from oransim.a2c import A2cAgent, NumericsError
from oransim.config import SimConfig, parse_config_file, set_key
from oransim.engine import AuditError, Simulation, run_batch

from test_engine import assert_no_child_left, deadline

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

# desk_fixed in every mode (nf-cu blocks cell 1 on RBGs cell 0 took, and a
# fully blocked cell submits nothing), a mobile preset, and masking off
CASES = {
    "fixed-dscd": ("desk_fixed", {}),
    "fixed-nf-du": ("desk_fixed", {"sim.mode": "nf-du"}),
    "fixed-nf-cu": ("desk_fixed", {"sim.mode": "nf-cu"}),
    "mobile-dscd": ("desk_mobile", {}),
    "fixed-unmasked": ("desk_fixed", {"sched.masking": "false"}),
}


def preset(name, ttis=120, **keys):
    cfg = parse_config_file(os.path.join(CONFIGS, f"{name}.conf"),
                            base=SimConfig())
    for key, value in {"sim.ttis": ttis, "sim.runs": 1, **keys}.items():
        set_key(cfg, key, str(value))
    return cfg


def case_config(case):
    name, keys = CASES[case]
    return preset(name, **keys)


@pytest.fixture
def learners(monkeypatch):
    """The learners started, as a list that each new one is appended to."""
    started = []

    class Recorded(engine._Learner):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)
    monkeypatch.setattr(engine, "_Learner", Recorded)
    return started


def cpus(monkeypatch, n):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: n)


def weights_are_private(sim):
    """No scheduler weight is left in the learner's shared mapping."""
    return not any(isinstance(a.base, mmap.mmap)
                   for agent in sim.sched_agents.values()
                   for net in (agent.actor, agent.critic)
                   for a in net.weights + net.biases)


def scheduler_state(sim):
    return [(agent.update_count,
             [a.tobytes() for net in (agent.actor, agent.critic)
              for a in net.weights + net.biases])
            for _, agent in sorted(sim.sched_agents.items())]


# ---------------------------------------------------------------- exactness

@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_with_a_learner_equals_the_one_cpu_batch(
        case, monkeypatch, learners):
    cfg = case_config(case)
    cpus(monkeypatch, 1)
    serial = run_batch(cfg)
    assert learners == []
    cpus(monkeypatch, 2)
    with deadline(60):
        offloaded = run_batch(cfg)
    assert len(learners) == 1
    assert offloaded.ledgers[0].state_dict() == serial.ledgers[0].state_dict()
    assert offloaded.aggregate == serial.aggregate
    assert_no_child_left()


@pytest.mark.parametrize("case", sorted(CASES))
def test_learner_leaves_every_weight_and_update_count_as_in_process(case):
    cfg = case_config(case)
    local = Simulation(cfg)
    local.run()
    offloaded = Simulation(cfg, learner=True)
    with deadline(60):
        offloaded.run()
    assert scheduler_state(offloaded) == scheduler_state(local)
    assert sum(a.update_count for a in local.sched_agents.values()) > 0
    assert weights_are_private(offloaded)
    assert_no_child_left()


def test_no_learner_without_training_or_a_spare_cpu(monkeypatch, learners):
    cpus(monkeypatch, 2)
    run_batch(preset("desk_fixed", ttis=10, **{"sched.training": "false"}))
    run_batch(preset("desk_fixed", ttis=10, **{"sim.runs": 2}))
    cpus(monkeypatch, 1)
    run_batch(preset("desk_fixed", ttis=10))
    Simulation(preset("desk_fixed", ttis=10)).run()
    cpus(monkeypatch, 4)   # a learner is only measured on one-run batches
    run_batch(preset("desk_fixed", ttis=10, **{"sim.runs": 2}))
    assert learners == []
    assert_no_child_left()


def test_wrapped_training_methods_train_in_process(monkeypatch, learners):
    # a wrapper's records (here a call count) would stay in the learner
    calls = []
    update_critic = A2cAgent.update_critic

    @functools.wraps(update_critic)
    def counted(*args, **kwargs):
        calls.append(1)
        return update_critic(*args, **kwargs)
    cfg = preset("desk_fixed", ttis=20)
    cpus(monkeypatch, 1)
    monkeypatch.setattr(A2cAgent, "update_critic", counted)
    serial = run_batch(cfg)
    in_process = len(calls)
    cpus(monkeypatch, 2)
    traced = run_batch(cfg)
    assert learners == []
    assert len(calls) == 2 * in_process > 0
    assert traced.ledgers[0].state_dict() == serial.ledgers[0].state_dict()


def test_a_failed_fork_trains_in_process(monkeypatch, learners):
    cfg = case_config("fixed-dscd")
    local = Simulation(cfg)
    local.run()
    opened = []
    pipe = os.pipe

    def recorded_pipe():
        fds = pipe()
        opened.extend(fds)
        return fds

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", no_fork)
    offloaded = Simulation(cfg, learner=True)
    offloaded.run()
    assert learners == [] and len(opened) == 4
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert weights_are_private(offloaded)
    assert scheduler_state(offloaded) == scheduler_state(local)
    assert offloaded.ledger.state_dict() == local.ledger.state_dict()
    assert_no_child_left()


def test_learner_exits_on_eof_of_its_request_pipe():
    sim = Simulation(preset("desk_fixed", ttis=10))
    learner = engine._Learner(list(sim.sched_agents.values()), sim.cfg.n_rbg)
    os.close(learner.req_w)
    learner.req_w = os.open(os.devnull, os.O_WRONLY)   # for close() to close
    with deadline(60):
        assert "exited with code 0 " in str(learner.child.died())
    learner.close()
    assert_no_child_left()


# ------------------------------------------------------------ failure modes

def in_learner(action):
    """Replace A2cAgent.learn by `action`. In nf-du only the scheduler
    agents learn, and with a learner they learn in the learner only."""
    def learn(self, *args):
        action()
    return learn


def blow_up():
    raise NumericsError("learner blow-up")


def test_numerics_error_in_the_learner_exits_3(
        monkeypatch, tmp_path, capsys):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(A2cAgent, "learn", in_learner(blow_up))
    raised = []

    def recording_run_batch(*args, **kwargs):
        try:
            return run_batch(*args, **kwargs)
        except NumericsError as e:
            raised.append(e)
            raise
    monkeypatch.setattr(cli, "run_batch", recording_run_batch)
    conf = tmp_path / "learner.conf"
    conf.write_text("sim.mode = nf-du\nsim.n_cells = 2\nsim.n_ues = 4\n"
                    "sim.n_rbg = 2\nsim.ttis = 20\nsim.runs = 1\n"
                    "sched.slot_count = 3\n")
    with deadline(60):
        code = cli.main(["run", "--config", str(conf),
                         "--out", str(tmp_path / "out")])
    assert code == 3
    assert "learner blow-up" in capsys.readouterr().err
    # the learner's traceback survives as the cause, down to the raiser
    assert "in blow_up" in str(raised[0].__cause__)
    assert not (tmp_path / "out" / "manifest.json").exists()
    assert_no_child_left()


def test_learner_killed_by_signal_raises(monkeypatch):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(A2cAgent, "learn", in_learner(
        lambda: os.kill(os.getpid(), signal.SIGKILL)))
    with deadline(60), pytest.raises(RuntimeError, match="code -9"):
        run_batch(preset("desk_fixed", ttis=20, **{"sim.mode": "nf-du"}))
    assert_no_child_left()


def audit_fails_at_tti_0(monkeypatch):
    def audit(self, t, allocations):
        raise AuditError(f"TTI {t}: main-side failure")
    monkeypatch.setattr(Simulation, "_audit", audit)


def test_a_learner_failure_before_a_main_side_error_wins(monkeypatch):
    # TTI 0's learns come before TTI 0's audit in program order
    cpus(monkeypatch, 2)
    monkeypatch.setattr(A2cAgent, "learn", in_learner(blow_up))
    audit_fails_at_tti_0(monkeypatch)
    with deadline(60), pytest.raises(NumericsError, match="learner blow-up"):
        run_batch(preset("desk_fixed", ttis=20, **{"sim.mode": "nf-du"}))
    assert_no_child_left()


def test_a_main_side_error_is_raised_once_the_learns_succeed(monkeypatch):
    cpus(monkeypatch, 2)
    audit_fails_at_tti_0(monkeypatch)
    with deadline(60), pytest.raises(AuditError, match="TTI 0: main-side"):
        run_batch(preset("desk_fixed", ttis=20))
    assert_no_child_left()
