"""Microbenchmarks of the A2C training path (pytest-benchmark).

`learn` on a chain of K steps against the per-step reference update, on
the reference operating point's agent: a 50 -> 900 -> 10 actor and a
50 -> 100 -> 1 critic, and, for K = 8, one cell's `learn` through a forked
learner process. Each case runs a fixed, small number of rounds so that
the suite stays fast; compare the cases with
`pytest tests/test_bench_a2c.py --benchmark-only`.
"""

import pytest

pytest.importorskip("pytest_benchmark")

from oransim.engine import _Learner
from test_a2c import chain_steps, make_agent, random_chain, sequential_learn

OBS_DIM, N_ACTIONS = 50, 10
ROUNDS = 15
WARMUP = 2


def reference_agent(k):
    return make_agent(seed=k, obs_dim=OBS_DIM, n_actions=N_ACTIONS,
                      actor_hidden=900, critic_hidden=100)


def run_rounds(benchmark, train, k, agent=None):
    """One agent trained on a fresh chain each round, as a scheduler agent
    is trained on each TTI's decisions."""
    agent = agent or reference_agent(k)
    batches = iter([random_chain(k, True, seed, OBS_DIM, N_ACTIONS)
                    for seed in range(WARMUP + ROUNDS)])

    def setup():
        return (agent, next(batches)), {}

    benchmark.pedantic(train, setup=setup, rounds=ROUNDS, iterations=1,
                       warmup_rounds=WARMUP)


@pytest.mark.parametrize("k", [1, 8])
def test_bench_learn(benchmark, k):
    benchmark.group = f"a2c-train-k{k}"
    run_rounds(benchmark, lambda agent, chain: agent.learn(**chain), k)


@pytest.mark.parametrize("k", [1, 8])
def test_bench_sequential_reference(benchmark, k):
    benchmark.group = f"a2c-train-k{k}"
    run_rounds(benchmark, lambda agent, chain: sequential_learn(
        agent, chain_steps(**chain)), k)


def test_bench_learner_round_trip(benchmark):
    """Submit one K = 8 cell's chain and wait for the ack."""
    benchmark.group = "a2c-train-k8"
    agent = reference_agent(8)
    learner = _Learner([agent], 8)

    def round_trip(_, chain):
        learner.submit(0, chain["obs"], chain["actions"], chain["rewards"],
                       chain["masks"])
        learner.wait(0)
    try:
        run_rounds(benchmark, round_trip, 8, agent)
    finally:
        learner.close()
