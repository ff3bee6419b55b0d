import copy
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oransim.a2c import (
    A2cAgent,
    FeedForwardNet,
    NumericsError,
    masked_probs,
    select_action,
    softmax,
)


# ---------------------------------------------------------------- oracles

def oracle_forward(net, x):
    """Scripted forward pass, plain python loops, independent of the net code."""
    h = [float(v) for v in x]
    n_layers = len(net.weights)
    for i in range(n_layers):
        w = net.weights[i]
        b = net.biases[i]
        z = []
        for r in range(w.shape[0]):
            s = b[r]
            for c in range(w.shape[1]):
                s += w[r, c] * h[c]
            z.append(s)
        if i < n_layers - 1:
            h = [math.tanh(v) for v in z]
        else:
            h = z
    if net.output_activation == "softmax":
        m = max(h)
        e = [math.exp(v - m) for v in h]
        tot = sum(e)
        h = [v / tot for v in e]
    return np.array(h)


def pack_params(net):
    return np.concatenate([w.ravel() for w in net.weights]
                          + [b.ravel() for b in net.biases])


def set_params(net, theta):
    i = 0
    for w in net.weights:
        w[...] = theta[i:i + w.size].reshape(w.shape)
        i += w.size
    for b in net.biases:
        b[...] = theta[i:i + b.size]
        i += b.size


def fd_gradient(net, x, scalar_fn, step=1e-5):
    """Central finite differences of scalar_fn(net, x) over all parameters."""
    theta = pack_params(net)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        t = theta.copy()
        t[i] += step
        set_params(net, t)
        up = scalar_fn(net, x)
        t[i] -= 2 * step
        set_params(net, t)
        down = scalar_fn(net, x)
        grad[i] = (up - down) / (2 * step)
    set_params(net, theta)
    return grad


def max_rel_error(a, b, floor=1e-6):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def value(net, x):
    """Scalar output of a critic net."""
    return float(net.forward(x)[0])


# one step of a `learn` chain, as the reference code reads it
Step = namedtuple("Step", "obs action reward next_obs terminal mask")


def chain_steps(obs, actions, rewards, masks=None, bootstrap=None):
    """The steps of a `learn` chain: step n goes from obs[n] to obs[n + 1],
    the last one to `bootstrap`, or it is terminal when that is None."""
    k = len(obs)
    return [Step(obs[n], actions[n], rewards[n],
                 obs[n + 1] if n + 1 < k else bootstrap,
                 n + 1 == k and bootstrap is None,
                 None if masks is None else masks[n])
            for n in range(k)]


def td_error(agent, t):
    """R_t + gamma * V(O_{t+1}) - V(O_t) on the current weights; a terminal
    step bootstraps V = 0."""
    v_next = 0.0 if t.terminal else value(agent.critic, t.next_obs)
    return t.reward + agent.gamma * v_next - value(agent.critic, t.obs)


def forward_trace(net, x):
    """Post-activations per layer ([0] is the input) and the net's output."""
    activations = [np.asarray(x, dtype=np.float64)]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ activations[-1] + b
        activations.append(z if i == last else np.tanh(z))
    out = activations[-1]
    return activations, softmax(out) if net.output_activation == "softmax" else out


def reference_step(net, activations, grad_logits, lr, clip_norm):
    """Fused backprop plus clipped ascent, written into the net at once.

    The per-step update `A2cAgent.learn` defers: one rank-1 write
    per layer per step, norms from ||outer(d, a)||_F = ||d||*||a||.
    `activations` come from `forward_trace`. Returns whether the clip
    fired.
    """
    deltas = [None] * len(net.weights)
    delta = np.asarray(grad_logits, dtype=np.float64)
    sq = 0.0
    for i in range(len(net.weights) - 1, -1, -1):
        a = activations[i]
        sq += (delta @ delta) * (1.0 + a @ a)
        deltas[i] = delta
        if i > 0:
            delta = net.weights[i].T @ delta
            delta *= 1.0 - a * a
    assert np.isfinite(sq)
    clipped = clip_norm is not None and sq > clip_norm ** 2
    scale = lr * (clip_norm / np.sqrt(sq)) if clipped else lr
    for i, d in enumerate(deltas):
        d = d * scale
        net.weights[i] += d[:, None] * activations[i][None, :]
        net.biases[i] += d
    return clipped


def sequential_learn(agent, steps):
    """Reference one-step TD: critic then actor step per `Step`, each on
    the weights the previous step wrote. Returns (deltas, clip hits)."""
    deltas = []
    clips = 0
    for t in steps:
        delta = td_error(agent, t)
        deltas.append(delta)
        if delta == 0.0:
            continue
        activations, _ = forward_trace(agent.critic, t.obs)
        clips += reference_step(agent.critic, activations, np.array([delta]),
                                agent.lr_critic, agent.clip_norm)
        activations, probs = forward_trace(agent.actor, t.obs)
        if t.mask is not None:
            probs = masked_probs(probs, t.mask)
        grad_logits = probs * (-delta)
        grad_logits[t.action] += delta
        clips += reference_step(agent.actor, activations, grad_logits,
                                agent.lr_actor, agent.clip_norm)
        agent.update_count += 2
    return deltas, clips


def applied_step(agent, *chain, **kw):
    """`agent.learn(*chain, **kw)`: its TD errors and the change it made to
    each net's packed parameters, (actor, critic)."""
    before = [pack_params(agent.actor), pack_params(agent.critic)]
    deltas = agent.learn(*chain, **kw)
    return deltas, [pack_params(agent.actor) - before[0],
                    pack_params(agent.critic) - before[1]]


def expected_step(agent, t, delta):
    """lr * delta * gradient by central differences, for the actor
    (grad log pi(a_t|O_t), masked) and the critic (grad V(O_t)) of the
    `Step` t, each clipped to the agent's clip_norm. Returns the (actor,
    critic) steps and how many of them the clip scaled."""
    def log_prob(net, x):
        out = net.forward(x)
        p = out if t.mask is None else masked_probs(out, t.mask)
        return math.log(p[t.action])

    steps, clips = [], 0
    for net, fn, lr in ((agent.actor, log_prob, agent.lr_actor),
                        (agent.critic, value, agent.lr_critic)):
        g = delta * fd_gradient(net, t.obs, fn, step=1e-5)
        norm = np.linalg.norm(g)
        if agent.clip_norm is not None and norm > agent.clip_norm:
            g *= agent.clip_norm / norm
            clips += 1
        steps.append(lr * g)
    return steps, clips


def learn_with_delta(agent, obs, action, delta, mask=None):
    """`learn` on one step whose TD error is exactly `delta`: under a zero
    critic a terminal step's TD error is its reward."""
    agent.critic = FeedForwardNet(agent.critic.layer_dims)
    masks = None if mask is None else [mask]
    assert agent.learn([obs], [action], [delta], masks) == [delta]


# ------------------------------------------------------------ forward pass

def test_zero_net_gives_uniform_policy():
    net = FeedForwardNet([4, 6, 3], output_activation="softmax")
    probs = net.forward(np.array([0.3, -0.1, 0.9, 0.2]))
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)


def test_softmax_closed_form_quarter_three_quarters():
    # logits (z, z + ln 3) -> probabilities (0.25, 0.75)
    net = FeedForwardNet([1, 2], output_activation="softmax")
    net.biases[0][:] = [0.7, 0.7 + math.log(3.0)]
    probs = net.forward(np.array([0.0]))
    assert probs == pytest.approx([0.25, 0.75], abs=1e-12)


def test_forward_matches_scripted_oracle():
    rng = np.random.default_rng(7)
    for out_act in ("identity", "softmax"):
        net = FeedForwardNet([5, 8, 4], rng, output_activation=out_act)
        x = rng.uniform(-1, 1, size=5)
        out = net.forward(x)
        assert np.max(np.abs(out - oracle_forward(net, x))) < 1e-12


def test_forward_rejects_dimension_mismatch():
    net = FeedForwardNet([3, 2])
    with pytest.raises(ValueError):
        net.forward(np.zeros(4))


@given(st.lists(st.floats(min_value=-60, max_value=60), min_size=1, max_size=12))
def test_softmax_normalized_and_positive(logits):
    p = softmax(np.array(logits))
    assert abs(p.sum() - 1.0) <= 1e-9
    assert np.all(p > 0.0)


# --------------------------------------------------------- action selection

def test_degenerate_distribution_both_modes():
    dist = np.array([1.0, 0.0])
    rng = np.random.default_rng(0)
    assert select_action(dist, "sample", rng) == 0
    assert select_action(dist, "greedy") == 0


def test_greedy_tie_breaks_to_lowest_index():
    assert select_action(np.array([0.5, 0.5]), "greedy") == 0


def test_sample_frequency_matches_distribution():
    rng = np.random.default_rng(123)
    dist = np.array([0.25, 0.75])
    n = 100_000
    hits = sum(select_action(dist, "sample", rng) for _ in range(n))
    assert hits / n == pytest.approx(0.75, abs=0.01)


def test_sample_never_picks_zero_probability():
    rng = np.random.default_rng(5)
    dist = np.array([0.5, 0.0, 0.5])
    for _ in range(2000):
        assert select_action(dist, "sample", rng) != 1


def test_masked_probs_renormalizes():
    p = masked_probs(np.array([0.2, 0.3, 0.5]), np.array([True, False, True]))
    assert p == pytest.approx([2.0 / 7.0, 0.0, 5.0 / 7.0])
    with pytest.raises(ValueError):
        masked_probs(np.array([0.5, 0.5]), np.array([False, False]))


# ------------------------------------------------------------------ critic

def make_agent(seed=0, obs_dim=4, n_actions=3, actor_hidden=6, critic_hidden=5,
               **kw):
    return A2cAgent.build(obs_dim, n_actions, actor_hidden, critic_hidden,
                          rng_seed=seed, **kw)


def test_zero_critic_value_is_zero():
    critic = FeedForwardNet([4, 5, 1])
    assert value(critic, np.array([0.1, 0.2, 0.3, 0.4])) == 0.0


def test_critic_matches_oracle_and_is_deterministic():
    agent = make_agent(seed=11)
    obs = np.array([0.4, -0.2, 0.9, 0.0])
    v = value(agent.critic, obs)
    assert v == pytest.approx(float(oracle_forward(agent.critic, obs)[0]), abs=1e-12)
    assert value(agent.critic, obs.copy()) == v


def linear_value_agent(gamma):
    """An agent whose critic is V = x[0], so observations encode values."""
    agent = make_agent(seed=3, gamma=gamma, obs_dim=2)
    agent.critic = FeedForwardNet([2, 1])
    agent.critic.weights[0][:] = [[1.0, 0.0]]
    return agent


def test_td_error_arithmetic():
    cur = np.array([0.2, 0.0])
    nxt = np.array([0.5, 0.0])
    # R=1, gamma=0.9, V(next)=0.5, V(cur)=0.2 -> delta = 1.25
    agent = linear_value_agent(0.9)
    assert agent.learn([cur], [0], [1.0], bootstrap=nxt) == [
        pytest.approx(1.25, abs=1e-15)]

    # terminal bootstraps V(next) = 0: R=1, V(cur)=1.0 -> delta = 0
    agent = linear_value_agent(0.9)
    one = np.array([1.0, 0.0])
    assert agent.learn([one], [0], [1.0]) == [pytest.approx(0.0, abs=1e-15)]


def test_td_error_fixed_point_is_zero():
    agent = make_agent(seed=4, obs_dim=2)
    agent.critic = FeedForwardNet([2, 1])
    agent.critic.biases[0][:] = [0.7]
    agent.gamma = 1.0 - 1e-12  # gamma ~ 1 within the allowed range
    assert agent.learn([np.zeros(2)], [0], [0.0], bootstrap=np.zeros(2)) == [
        pytest.approx(0.0, abs=1e-12)]


def test_update_critic_zero_delta_leaves_params_bitwise():
    agent = make_agent(seed=9)
    agent.critic = FeedForwardNet([4, 1])
    obs = np.array([0.5, 0.5, 0.5, 0.5])
    before = [p.copy() for p in params_of(agent)]
    # reward engineered so delta == 0: R = V(cur) - gamma*V(next) = 0 here
    assert agent.learn([obs], [0], [0.0], bootstrap=obs) == [0.0]
    for p, old in zip(params_of(agent), before):
        assert p.tobytes() == old.tobytes()
    assert agent.update_count == 0


def test_update_critic_linear_closed_form():
    # V = w.x + b: grad_w V = x, grad_b V = 1, so the update must be
    # exactly w += lr*delta*x, b += lr*delta.
    agent = make_agent(seed=2, obs_dim=3, gamma=0.9, lr_critic=0.05)
    agent.clip_norm = None
    agent.critic = FeedForwardNet([3, 1])
    agent.critic.weights[0][:] = [[0.3, -0.2, 0.1]]
    agent.critic.biases[0][:] = [0.05]
    obs = np.array([1.0, 2.0, -1.0])
    nxt = np.array([0.5, 0.0, 0.0])
    v_cur = float((agent.critic.weights[0] @ obs)[0] + 0.05)
    v_next = float((agent.critic.weights[0] @ nxt)[0] + 0.05)
    reward = 0.8
    delta = reward + 0.9 * v_next - v_cur
    w_expect = agent.critic.weights[0].copy() + 0.05 * delta * obs
    b_expect = 0.05 + 0.05 * delta
    got = agent.learn([obs], [0], [reward], bootstrap=nxt)
    assert got == [pytest.approx(delta, abs=1e-15)]
    assert np.max(np.abs(agent.critic.weights[0] - w_expect)) < 1e-12
    assert agent.critic.biases[0][0] == pytest.approx(b_expect, abs=1e-12)


def bellman_two_state(r01, r10, gamma):
    # V = R + gamma * P V with deterministic 0->1->0 cycling
    a = np.array([[1.0, -gamma], [-gamma, 1.0]])
    return np.linalg.solve(a, np.array([r01, r10]))


def test_critic_converges_on_two_state_mdp():
    v_star = bellman_two_state(1.0, 0.0, 0.9)
    agent = make_agent(seed=0, obs_dim=2, gamma=0.9, lr_critic=0.05)
    agent.critic = FeedForwardNet([2, 1])
    s0 = np.array([1.0, 0.0])
    s1 = np.array([0.0, 1.0])
    for _ in range(5000):
        agent.learn([s0], [0], [1.0], bootstrap=s1)
        agent.learn([s1], [0], [0.0], bootstrap=s0)
    assert value(agent.critic, s0) == pytest.approx(v_star[0], abs=1e-2)
    assert value(agent.critic, s1) == pytest.approx(v_star[1], abs=1e-2)


# ------------------------------------------------------------------- actor

def test_update_actor_zero_delta_leaves_params_bitwise():
    agent = make_agent(seed=21)
    before = [w.copy() for w in agent.actor.weights + agent.actor.biases]
    learn_with_delta(agent, np.zeros(4), 1, 0.0)
    for w, old in zip(agent.actor.weights + agent.actor.biases, before):
        assert w.tobytes() == old.tobytes()
    assert agent.update_count == 0


def test_positive_delta_raises_chosen_action_probability_each_step():
    agent = make_agent(seed=33)
    obs = np.array([0.2, -0.4, 0.7, 0.1])
    prev = agent.action_distribution(obs)[2]
    for _ in range(25):
        learn_with_delta(agent, obs, 2, 0.5)
        cur = agent.action_distribution(obs)[2]
        assert cur > prev
        prev = cur


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, -1.0]))
def test_policy_gradient_sign_property(seed, sign):
    agent = make_agent(seed=seed, actor_hidden=4, critic_hidden=3)
    rng = np.random.default_rng(seed)
    obs = rng.uniform(-1, 1, size=4)
    action = int(rng.integers(0, 3))
    before = agent.action_distribution(obs)[action]
    learn_with_delta(agent, obs, action, sign * 0.3)
    after = agent.action_distribution(obs)[action]
    if sign > 0:
        assert after >= before
    else:
        assert after <= before


def test_log_prob_gradient_matches_finite_differences():
    agent = make_agent(seed=17, obs_dim=5, n_actions=4, actor_hidden=8,
                       critic_hidden=6)
    agent.clip_norm = None
    assert pack_params(agent.actor).size <= 1000
    rng = np.random.default_rng(17)
    obs = rng.uniform(-1, 1, size=5)
    action = 2

    def log_prob(net, x):
        return math.log(net.forward(x)[action])

    numeric = fd_gradient(agent.actor, obs, log_prob)
    before = pack_params(agent.actor)
    learn_with_delta(agent, obs, action, 1.0)
    analytic = (pack_params(agent.actor) - before) / agent.lr_actor
    assert max_rel_error(analytic, numeric) < 1e-4


def test_forced_single_valid_action_gives_zero_actor_gradient():
    agent = make_agent(seed=40)
    obs = np.array([0.1, 0.2, 0.3, 0.4])
    mask = np.array([False, True, False])
    before = [w.copy() for w in agent.actor.weights]
    learn_with_delta(agent, obs, 1, 0.8, mask)
    # log pi of the only valid action is 0 identically, so nothing moves
    for w, old in zip(agent.actor.weights, before):
        assert w.tobytes() == old.tobytes()


# ----------------------------------------------------------------- backprop

def test_single_linear_layer_gradient_is_outer_product():
    # no hidden layer: learn's step on each net is lr * outer(grad_logits, x)
    agent = make_agent(seed=31, obs_dim=3, n_actions=2, actor_hidden=0,
                       critic_hidden=0)
    agent.clip_norm = None
    x = np.array([1.0, -2.0, 0.5])
    probs = agent.action_distribution(x)
    old = [p.copy() for p in params_of(agent)]
    [delta] = agent.learn([x], [1], [0.75])
    d_actor = agent.lr_actor * delta * (np.array([0.0, 1.0]) - probs)
    d_critic = np.array([agent.lr_critic * delta])
    want = [old[0] + np.outer(d_actor, x), old[1] + d_actor,
            old[2] + np.outer(d_critic, x), old[3] + d_critic]
    for got, w in zip(params_of(agent), want):
        np.testing.assert_allclose(got, w, rtol=1e-13, atol=1e-16)


def test_zero_input_zero_bias_first_layer_weight_grads_vanish():
    agent = make_agent(seed=8, obs_dim=4, n_actions=2, actor_hidden=5,
                       critic_hidden=5)
    before = [net.weights[0].copy() for net in (agent.actor, agent.critic)]
    deltas, steps = applied_step(agent, [np.zeros(4)], [1], [1.0])
    assert deltas[0] != 0.0 and all(np.any(s != 0.0) for s in steps)
    for net, old in zip((agent.actor, agent.critic), before):
        assert net.weights[0].tobytes() == old.tobytes()


def test_three_layer_backprop_matches_finite_differences():
    rng = np.random.default_rng(99)
    agent = A2cAgent(
        actor=FeedForwardNet([6, 9, 7, 3], rng, output_activation="softmax"),
        critic=FeedForwardNet([6, 9, 7, 1], rng), clip_norm=None)
    assert pack_params(agent.actor).size <= 1000
    first = dict(obs=[rng.uniform(-1, 1, size=6)], actions=[1],
                 rewards=[1.5], bootstrap=rng.uniform(-1, 1, size=6))
    [t] = chain_steps(**first)
    reference = copy.deepcopy(agent)
    want, _ = expected_step(agent, t, td_error(agent, t))
    _, got = applied_step(agent, **first)
    for g, w in zip(got, want):
        assert max_rel_error(g, w) < 1e-4
    # a chain of steps, each backpropagated through the pending ones
    chain = random_chain(5, True, 99, 6, 3)
    want_deltas, _ = sequential_learn(reference, [t] + chain_steps(**chain))
    assert agent.learn(**chain) == pytest.approx(want_deltas[1:], rel=1e-12,
                                                 abs=1e-12)
    assert_params_close(agent, reference)


# ------------------------------------------------------- deferred learning

def random_chain(k, masked, seed, obs_dim, n_actions):
    """`learn`'s arguments for a TTI-shaped chain of k steps, the last one
    terminal: one reward large enough to trip the clip, and for k >= 2 a
    zero observation followed by a zero observation with reward 0. A fresh
    agent's biases are zero, so V(0) = 0 and that step's TD error is
    exactly zero."""
    rng = np.random.default_rng(seed)
    obs = rng.uniform(0, 1, size=(k, obs_dim))
    actions, rewards, masks = [], [], []
    for _ in range(k):
        if masked:
            mask = rng.random(n_actions) < 0.6
            mask[rng.integers(n_actions)] = True
            masks.append(mask)
            actions.append(int(rng.choice(np.flatnonzero(mask))))
        else:
            actions.append(int(rng.integers(n_actions)))
        rewards.append(float(rng.integers(0, 4)))
    rewards[-1] = 40.0
    if k >= 2:
        obs[:2] = 0.0
        rewards[0] = 0.0
    return dict(obs=obs, actions=actions, rewards=rewards,
                masks=masks if masked else None)


def params_of(agent):
    nets = (agent.actor, agent.critic)
    return [p for net in nets for p in net.weights + net.biases]


def assert_params_close(got, want, rel=1e-12):
    for g, w in zip(params_of(got), params_of(want)):
        assert np.max(np.abs(g - w)) <= rel * max(np.max(np.abs(w)), 1e-300)


@pytest.mark.parametrize("actor_hidden, critic_hidden", [(0, 0), (900, 100)])
@pytest.mark.parametrize("masked", [False, True])
def test_learn_matches_sequential_updates(actor_hidden, critic_hidden, masked):
    obs_dim, n_actions = 50, 10
    for k in range(1, 9):
        agent = make_agent(seed=k, obs_dim=obs_dim, n_actions=n_actions,
                           actor_hidden=actor_hidden,
                           critic_hidden=critic_hidden)
        reference = copy.deepcopy(agent)
        chain = random_chain(k, masked, k, obs_dim, n_actions)
        want_deltas, clips = sequential_learn(reference, chain_steps(**chain))
        got_deltas = agent.learn(**chain)
        assert clips > 0
        if k >= 2:
            assert got_deltas[0] == 0.0 == want_deltas[0]
        assert got_deltas == pytest.approx(want_deltas, rel=1e-12, abs=1e-12)
        assert agent.update_count == reference.update_count
        assert_params_close(agent, reference)


def test_learn_changes_parameters_by_lr_delta_gradient():
    worst = 0.0
    clip_hits = 0
    rng = np.random.default_rng(2025)
    for seed, reward, masked in ((11, 1.0, False), (12, 0.5, True),
                                 (13, 60.0, False)):
        agent = make_agent(seed=seed, obs_dim=6, n_actions=4, actor_hidden=10,
                           critic_hidden=8)
        obs = rng.uniform(-1, 1, size=6)
        nxt = rng.uniform(-1, 1, size=6)
        masks = [np.array([True, False, True, True])] if masked else None
        chain = dict(obs=[obs], actions=[2], rewards=[reward], masks=masks,
                     bootstrap=nxt)
        [t] = chain_steps(**chain)
        delta = td_error(agent, t)
        expected, clips = expected_step(agent, t, delta)
        clip_hits += clips
        reference = copy.deepcopy(agent)
        sequential_learn(reference, [t])
        deltas, applied = applied_step(agent, **chain)
        assert deltas == [pytest.approx(delta, rel=1e-12)]
        for got, want in zip(applied, expected):
            worst = max(worst, max_rel_error(got, want))
        assert agent.update_count == reference.update_count == 2
        assert_params_close(agent, reference)
    assert clip_hits >= 2   # the large-reward step clips both nets
    assert worst < 1e-4


def test_learn_numerics_error_writes_nothing():
    agent = make_agent(seed=6)
    agent.actor.weights[-1][0, 0] = np.nan
    before = [p.copy() for p in params_of(agent)]
    rng = np.random.default_rng(6)
    obs = rng.uniform(0, 1, size=(3, 4))
    with pytest.raises(NumericsError):
        agent.learn(obs, [1, 1, 1], [1.0, 1.0, 1.0], bootstrap=obs[-1])
    for p, old in zip(params_of(agent), before):
        assert p.tobytes() == old.tobytes()


@pytest.mark.parametrize("actions, rewards, error", [
    ([0, 7], [1.0, 1.0], ValueError),           # action 7 of 3
    ([0, 2], [1.0, np.inf], NumericsError),     # non-finite TD error
], ids=["action-out-of-range", "numerics"])
def test_a_failure_late_in_a_chain_leaves_weights_and_count(
        actions, rewards, error):
    agent = make_agent()
    obs = np.full((2, 4), 0.5)
    first = copy.deepcopy(agent)
    first.learn(obs[:1], actions[:1], rewards[:1], bootstrap=obs[1])
    assert first.update_count == 2   # step 0 trains before step 1 fails
    before = [p.tobytes() for p in params_of(agent)]
    with pytest.raises(error), np.errstate(invalid="ignore"):   # inf - inf
        agent.learn(obs, actions, rewards)
    assert [p.tobytes() for p in params_of(agent)] == before
    assert agent.update_count == 0


def test_learn_on_no_transitions_is_a_noop():
    agent = make_agent(seed=8)
    before = [p.copy() for p in params_of(agent)]
    assert agent.learn(np.empty((0, 4)), [], []) == []
    for p, old in zip(params_of(agent), before):
        assert p.tobytes() == old.tobytes()


@pytest.mark.parametrize("field, bad", [
    ("obs", np.full((2, 5), 0.5)),      # observation width 5, input dim 4
    ("actions", [0]),
    ("rewards", [1.0, 2.0, 3.0]),
    ("masks", np.ones((3, 3), dtype=bool)),
], ids=["obs-width", "actions-length", "rewards-length", "masks-rows"])
def test_learn_rejects_a_malformed_chain_before_writing(field, bad):
    agent = make_agent(seed=12)
    chain = dict(obs=np.full((2, 4), 0.5), actions=[0, 2],
                 rewards=[1.0, 2.0], masks=np.ones((2, 3), dtype=bool))
    trained = copy.deepcopy(agent)
    trained.learn(**chain)
    assert trained.update_count == 4   # the well-formed chain trains
    agent.update_count = 7
    before = [p.tobytes() for p in params_of(agent)]
    with pytest.raises(ValueError):
        agent.learn(**{**chain, field: bad})
    assert [p.tobytes() for p in params_of(agent)] == before
    assert agent.update_count == 7


# ------------------------------------------------------- numerics and state

def test_non_finite_gradient_aborts():
    agent = make_agent(seed=1)
    agent.critic.weights[0][0, 0] = np.nan
    obs = np.ones(4)
    with pytest.raises(NumericsError):
        agent.learn([obs], [0], [1.0], bootstrap=obs)


def test_gradient_clipping_caps_step_norm():
    agent = make_agent(seed=5, obs_dim=2)
    agent.critic = FeedForwardNet([2, 1])
    x = np.array([30.0, 40.0])
    # delta = 100: the critic's gradient 100 * (30, 40, 1) is far over 10
    _, (actor_step, critic_step) = applied_step(agent, [x], [0], [100.0])
    cap = agent.clip_norm
    assert np.linalg.norm(critic_step) == pytest.approx(
        agent.lr_critic * cap, rel=1e-12)
    assert critic_step == pytest.approx(
        agent.lr_critic * cap * np.array([30.0, 40.0, 1.0]) / math.sqrt(2501.0),
        rel=1e-12)
    assert np.linalg.norm(actor_step) == pytest.approx(
        agent.lr_actor * cap, rel=1e-12)


def test_identical_seeds_and_streams_give_bitwise_identical_params():
    def train(seed):
        agent = make_agent(seed=seed)
        rng = np.random.default_rng(1234)
        for _ in range(50):
            obs = rng.uniform(-1, 1, size=4)
            nxt = rng.uniform(-1, 1, size=4)
            action = int(rng.integers(0, 3))
            reward = float(rng.uniform(0, 3))
            agent.learn([obs], [action], [reward], bootstrap=nxt)
        return agent

    a = train(77)
    b = train(77)
    for wa, wb in zip(a.actor.weights + a.critic.weights,
                      b.actor.weights + b.critic.weights):
        assert wa.tobytes() == wb.tobytes()


def test_agent_validation():
    # gamma and the learning rates are range-checked by validate_config
    actor = FeedForwardNet([4, 3], output_activation="softmax")
    critic = FeedForwardNet([4, 1])
    with pytest.raises(ValueError, match="scalar output"):
        A2cAgent(actor=actor, critic=FeedForwardNet([4, 2]))
    with pytest.raises(ValueError, match="softmax"):
        A2cAgent(actor=FeedForwardNet([4, 3]), critic=critic)
    with pytest.raises(ValueError):
        FeedForwardNet([4])
    with pytest.raises(ValueError):
        FeedForwardNet([4, 3], output_activation="relu")
