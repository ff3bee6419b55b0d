"""Advantage actor-critic learning core.

Small dense tanh networks, a softmax policy head, a scalar value head,
and the one-step TD update rule used by both the RBG scheduler agent and
the placement agent. Everything is numpy float64 and deterministic for a
given RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NumericsError(RuntimeError):
    """Raised when a gradient or parameter turns non-finite; the run aborts."""


def _init_matrix(rng, fan_out, fan_in):
    # uniform in +/- 1/sqrt(fan_in): scale-stable, reproducible from the run seed
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


class FeedForwardNet:
    """Fully connected net: tanh hidden layers, identity or softmax output.

    Weights are (out, in) matrices. Training goes through `_PendingSteps`,
    which backpropagates and writes the parameters.
    """

    def __init__(self, layer_dims, rng=None, output_activation="identity"):
        if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
            raise ValueError(f"bad layer_dims {layer_dims}")
        if output_activation not in ("identity", "softmax"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.layer_dims = list(layer_dims)
        self.output_activation = output_activation
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            if rng is None:
                self.weights.append(np.zeros((fan_out, fan_in)))
            else:
                self.weights.append(_init_matrix(rng, fan_out, fan_in))
            self.biases.append(np.zeros(fan_out))

    @property
    def input_dim(self):
        return self.layer_dims[0]

    @property
    def output_dim(self):
        return self.layer_dims[-1]

    def forward(self, x):
        """Run the net on a 1-D input; returns the output."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise ValueError(
                f"input shape {x.shape} does not match input dim {self.input_dim}")
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = w @ h
            z += b
            h = z if i == last else np.tanh(z)
        if self.output_activation == "softmax":
            return softmax(h)
        return h


def softmax(logits):
    """Softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def masked_probs(probs, mask):
    """Renormalize a probability vector over the valid entries of `mask`."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != probs.shape:
        raise ValueError("mask shape mismatch")
    if not mask.any():
        raise ValueError("mask allows no action")
    p = np.where(mask, probs, 0.0)
    total = p.sum()
    if total <= 0.0:
        # all valid entries underflowed; fall back to uniform over valid
        p = mask.astype(np.float64)
        total = p.sum()
    return p / total


def select_action(dist, mode, rng=None):
    """Pick an action index from a probability vector.

    sample: inverse-CDF draw from the provided rng (zero-probability
    entries are never selected). greedy: argmax, lowest index on ties.
    """
    dist = np.asarray(dist, dtype=np.float64)
    # array methods, not np.* wrappers: this runs once per RBG decision
    if dist.ndim != 1 or dist.size == 0 or (dist < 0.0).any():
        raise ValueError("invalid distribution")
    total = dist.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"distribution sums to {total!r}")
    if mode == "greedy":
        return int(dist.argmax())
    if mode != "sample":
        raise ValueError(f"unknown selection mode {mode!r}")
    if rng is None:
        raise ValueError("sample mode needs an rng")
    cdf = dist.cumsum()
    idx = int(cdf.searchsorted(rng.random(), side="right"))
    if idx >= dist.size or dist[idx] == 0.0:
        # float shortfall at the top of the CDF: take the last valid entry
        idx = int(np.max(np.nonzero(dist)[0]))
    return idx


def resolve_mode(action_mode, training):
    """The `select_action` mode of an agent config: auto samples while
    training and acts greedily otherwise."""
    if action_mode == "auto":
        return "sample" if training else "greedy"
    return action_mode


class _PendingSteps:
    """Clipped ascent steps on one net, held back as low-rank factors.

    After k steps, layer i's current weights are W_i + U_i[:k]^T V_i[:k]
    and its biases b_i + U_i[:k]^T 1, where W_i, b_i are the net's stored
    parameters, each U row is a scaled backprop delta and each V row the
    layer input it multiplied. `forward` and `step` read the current
    weights through these corrections; `write` adds them to the stored
    parameters, once per layer.

    Layer 0's inputs are known up front: step n owns the `width` rows of
    `x` from width * n, its observation and (width 2) its next one.
    Their pre-activations come from one GEMM with the stored weights, and
    their corrections from the rows' Gram matrix, so layer 0's matrix is
    not read per step.
    """

    def __init__(self, net, x, width):
        self.net = net
        self.width = width
        self._x = x
        self._z0 = x @ net.weights[0].T
        self._z0 += net.biases[0]
        self._gram1 = x @ x.T
        self._gram1 += 1.0       # the bias input
        max_steps = len(x) // width
        self._u = [np.empty((max_steps, w.shape[0])) for w in net.weights]
        self._v = [None] + [np.empty((max_steps, w.shape[1]))
                            for w in net.weights[1:]]
        # step m's layer-0 input is row _rows0[m]; _g[m] is its _gram1 row
        self._rows0 = np.empty(max_steps, dtype=np.intp)
        self._g = np.empty((max_steps, len(self._x)))
        self.k = 0

    def forward(self, n):
        """Outputs of step n's rows under the current weights, one row
        each, and a cache from which `step` backpropagates its observation."""
        net = self.net
        j = self.width * n
        rows = slice(j, j + self.width)
        k = self.k
        z = self._z0[rows]
        if k:
            z = z + self._g[:k, rows].T @ self._u[0][:k]
        activations = [None]     # layer 0's inputs are rows of self._x
        for i in range(1, len(net.weights)):
            h = np.tanh(z)
            activations.append(h)
            z = h @ net.weights[i].T
            z += net.biases[i]
            if k:
                c = h @ self._v[i][:k].T
                c += 1.0
                z += c @ self._u[i][:k]
        out = softmax(z) if net.output_activation == "softmax" else z
        return out, (j, activations)

    def step(self, cache, grad_logits, lr, clip_norm=None):
        """Queue the clipped ascent step lr * grad_logits backpropagated.

        The global norm of the step's weight gradients uses
        ||outer(d, a)||_F = ||d||*||a||. Raises NumericsError on a
        non-finite gradient; nothing has been written at that point.
        """
        net = self.net
        j, activations = cache
        k = self.k
        deltas = [None] * len(net.weights)
        delta = np.asarray(grad_logits, dtype=np.float64)
        sq = 0.0
        for i in range(len(net.weights) - 1, 0, -1):
            a = activations[i][0]
            sq += (delta @ delta) * (1.0 + a @ a)
            deltas[i] = delta
            back = net.weights[i].T @ delta
            if k:
                back += (self._u[i][:k] @ delta) @ self._v[i][:k]
            back *= 1.0 - a * a      # tanh'
            delta = back
        sq += (delta @ delta) * self._gram1[j, j]
        deltas[0] = delta
        if not math.isfinite(sq):
            raise NumericsError("non-finite gradient; aborting run")
        scale = lr
        if clip_norm is not None and sq > clip_norm ** 2:
            scale = lr * (clip_norm / math.sqrt(sq))
        for i, d in enumerate(deltas):
            np.multiply(d, scale, out=self._u[i][k])
            if i:
                self._v[i][k] = activations[i][0]
        self._rows0[k] = j
        self._g[k] = self._gram1[j]
        self.k = k + 1

    def write(self):
        """Add the pending steps to the net's parameters: one write per layer."""
        k = self.k
        if not k:
            return
        for i, (w, b) in enumerate(zip(self.net.weights, self.net.biases)):
            u = self._u[i][:k]
            v = self._x[self._rows0[:k]] if i == 0 else self._v[i][:k]
            # matmul keeps an inner dimension of 1 off BLAS; np.dot does not
            w += np.dot(u.T, v) if k == 1 else u.T @ v
            b += u.sum(axis=0)
        self.k = 0


@dataclass
class A2cAgent:
    """Actor + critic pair with one-step TD learning.

    The TD error doubles as the advantage estimate: the critic takes a
    semi-gradient step on the squared TD error, the actor a policy-gradient
    step along grad log pi(a|O) scaled by the same error. `clip_norm` caps
    each step's global gradient norm; None disables the cap.
    """
    actor: FeedForwardNet
    critic: FeedForwardNet
    gamma: float = 0.9
    lr_actor: float = 0.01
    lr_critic: float = 0.05
    clip_norm: float | None = 10.0
    update_count: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.critic.output_dim != 1:
            raise ValueError("critic must have scalar output")
        if self.actor.output_activation != "softmax":
            raise ValueError("actor needs a softmax output head")

    @classmethod
    def build(cls, obs_dim, n_actions, actor_hidden, critic_hidden, rng_seed,
              gamma=0.9, lr_actor=0.01, lr_critic=0.05, clip_norm=10.0):
        rng = np.random.default_rng(rng_seed)
        actor_dims = [obs_dim, actor_hidden, n_actions] if actor_hidden else [obs_dim, n_actions]
        critic_dims = [obs_dim, critic_hidden, 1] if critic_hidden else [obs_dim, 1]
        actor = FeedForwardNet(actor_dims, rng, output_activation="softmax")
        critic = FeedForwardNet(critic_dims, rng)
        return cls(actor=actor, critic=critic, gamma=gamma, lr_actor=lr_actor,
                   lr_critic=lr_critic, clip_norm=clip_norm)

    @property
    def n_actions(self):
        return self.actor.output_dim

    def action_distribution(self, obs, mask=None):
        """Softmax policy over the action set, renormalized over `mask`."""
        probs = self.actor.forward(obs)
        if mask is not None:
            probs = masked_probs(probs, mask)
        return probs

    def update_critic(self, steps: _PendingSteps, n, reward, terminal):
        """Queue one semi-gradient step on step n's squared TD error in
        `steps`.

        The bootstrap target R + gamma*V(next) is held constant, so the
        step is lr * delta * grad V(O_n); a terminal step bootstraps
        V = 0. Returns delta, computed before the step.
        """
        out, cache = steps.forward(n)
        v_next = 0.0 if terminal else float(out[1, 0])
        delta = reward + self.gamma * v_next - float(out[0, 0])
        if delta == 0.0:
            return 0.0
        # the gradient delta * grad V already carries the TD-error factor;
        # the step size is just the lr
        steps.step(cache, np.array([delta]), self.lr_critic, self.clip_norm)
        return delta

    def update_actor(self, steps: _PendingSteps, n, action, delta, mask):
        """Queue the policy-gradient step theta += lr * delta * grad log
        pi(a_n|O_n) in `steps`.

        For a (possibly masked) softmax policy the logit gradient of
        log pi(a) is onehot(a) - pi, with masked-out entries at zero.
        """
        if delta == 0.0:
            return
        if not (0 <= action < self.n_actions):
            raise ValueError(f"action index {action} out of range")
        out, cache = steps.forward(n)
        probs = out[0]
        if mask is not None:
            probs = masked_probs(probs, mask)
        grad_logits = probs * (-delta)
        grad_logits[action] += delta
        steps.step(cache, grad_logits, self.lr_actor, self.clip_norm)

    def learn(self, obs, actions, rewards, masks=None, bootstrap=None):
        """One-step TD along a chain of K steps; returns the TD errors.

        Step n takes actions[n] in obs[n] for rewards[n], under the action
        mask masks[n] if `masks` is given, and goes to obs[n + 1]; the last
        step goes to `bootstrap`, or is terminal when that is None. Takes
        update_critic then update_actor on each step in turn, each on the
        weights the previous steps left, but every step is held as
        low-rank factors and each layer of each net is written once, at
        the end. Malformed inputs raise ValueError; on any error the
        parameters and `update_count` are left untouched.
        """
        obs = np.asarray(obs, dtype=np.float64)
        k = len(obs)
        if obs.shape != (k, self.actor.input_dim):
            raise ValueError(f"observations of shape {obs.shape} do not match "
                             f"input dim {self.actor.input_dim}")
        if len(actions) != k or len(rewards) != k or (
                masks is not None and len(masks) != k):
            raise ValueError(f"{k} observations need as many actions, "
                             f"rewards and masks")
        if not k:
            return []
        # the critic's rows: (obs[n], next obs) per step; a terminal
        # step's next row is its own, and its value is not read
        x = np.empty((2 * k, obs.shape[1]))
        x[0::2] = obs
        x[1:-1:2] = obs[1:]
        x[-1] = obs[-1] if bootstrap is None else bootstrap
        critic_steps = _PendingSteps(self.critic, x, 2)
        actor_steps = _PendingSteps(self.actor, obs, 1)
        deltas = []
        for n in range(k):
            terminal = n == k - 1 and bootstrap is None
            delta = self.update_critic(critic_steps, n, rewards[n], terminal)
            self.update_actor(actor_steps, n, actions[n], delta,
                              None if masks is None else masks[n])
            deltas.append(delta)
        # one count per step written; a failed chain writes and counts none
        self.update_count += critic_steps.k + actor_steps.k
        critic_steps.write()
        actor_steps.write()
        return deltas
