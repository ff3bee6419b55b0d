"""Microbenchmarks of the A2C training path (pytest-benchmark).

`learn` on K transitions against the per-transition reference update, on
the reference operating point's agent: a 50 -> 900 -> 10 actor and a
50 -> 100 -> 1 critic. Each case runs a fixed, small number of rounds so
that the suite stays fast; compare the cases with
`pytest tests/test_bench_a2c.py --benchmark-only`.
"""

import pytest

pytest.importorskip("pytest_benchmark")

from test_a2c import make_agent, random_transitions, sequential_learn

OBS_DIM, N_ACTIONS = 50, 10
ROUNDS = 15
WARMUP = 2


def run_rounds(benchmark, train, k):
    """One agent trained on fresh transitions each round, as a scheduler
    agent is trained on each TTI's decisions."""
    agent = make_agent(seed=k, obs_dim=OBS_DIM, n_actions=N_ACTIONS,
                       actor_hidden=900, critic_hidden=100)
    batches = iter([random_transitions(agent, k, True, seed, OBS_DIM,
                                       N_ACTIONS)
                    for seed in range(WARMUP + ROUNDS)])

    def setup():
        return (agent, next(batches)), {}

    benchmark.pedantic(train, setup=setup, rounds=ROUNDS, iterations=1,
                       warmup_rounds=WARMUP)


@pytest.mark.parametrize("k", [1, 8])
def test_bench_learn(benchmark, k):
    benchmark.group = f"a2c-train-k{k}"
    run_rounds(benchmark, lambda agent, ts: agent.learn(ts), k)


@pytest.mark.parametrize("k", [1, 8])
def test_bench_sequential_reference(benchmark, k):
    benchmark.group = f"a2c-train-k{k}"
    run_rounds(benchmark, sequential_learn, k)
