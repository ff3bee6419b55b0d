"""Microbenchmarks of the A2C training path (pytest-benchmark).

`learn` on a chain of K steps against the per-step reference update, on
the reference operating point's agent: a 50 -> 900 -> 10 actor and a
50 -> 100 -> 1 critic. And one TTI's training at that operating point,
four cells' K = 8 chains, in-process against a forked learner process.
Each case runs a fixed, small number of rounds so that the suite stays
fast; compare the cases with
`pytest tests/test_bench_a2c.py --benchmark-only`.
"""

import pytest

pytest.importorskip("pytest_benchmark")

from oransim.engine import _Learner
from test_a2c import chain_steps, make_agent, random_chain, sequential_learn

OBS_DIM, N_ACTIONS = 50, 10
ROUNDS = 15
WARMUP = 2
CELLS = 4   # the reference operating point's


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


def run_tti_rounds(benchmark, train, agents):
    """Each cell's agent trained on a fresh K = 8 chain each round, as the
    scheduler agents are on each TTI's decisions."""
    tti = iter([[random_chain(8, True, seed * CELLS + c, OBS_DIM, N_ACTIONS)
                 for c in range(CELLS)]
                for seed in range(WARMUP + ROUNDS)])

    def setup():
        return (agents, next(tti)), {}

    benchmark.pedantic(train, setup=setup, rounds=ROUNDS, iterations=1,
                       warmup_rounds=WARMUP)


def test_bench_learn_one_tti(benchmark):
    """The four cells' `learn` calls, in-process."""
    benchmark.group = "a2c-train-tti"

    def train(agents, chains):
        for agent, chain in zip(agents, chains):
            agent.learn(**chain)
    run_tti_rounds(benchmark, train, [reference_agent(c) for c in range(CELLS)])


def test_bench_learner_round_trip(benchmark):
    """The four cells' chains submitted to a forked learner back to back,
    then every ack awaited: the learner's work and the hand-over, with no
    other work to overlap them."""
    benchmark.group = "a2c-train-tti"
    agents = [reference_agent(c) for c in range(CELLS)]
    learner = _Learner(agents, 8)

    def train(_, chains):
        for c, chain in enumerate(chains):
            learner.submit(c, chain["obs"], chain["actions"],
                           chain["rewards"], chain["masks"])
        learner.wait_all()
    try:
        run_tti_rounds(benchmark, train, agents)
    finally:
        learner.close()
