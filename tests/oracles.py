"""Reference implementations the tests check the package against.

Each is written independently of the program path it checks:

* `train_independent` trains every agent alone, one episode at a time, with
  its own `reset` / `sample_action` / `step` loop, and learns through
  `episode_gradient` and a one-vector `adam_step`. It is the NoFed baseline
  of acceptance criterion 6 and the sequential oracle for the lockstep
  runner (`federation.run`, `reinforce.rollout`, `Agent.local_round`).
* `episode_gradient` is REINFORCE for one policy: one `MlpNetwork` forward
  and backward pass per episode through the head's `score_seed`, the
  per-policy form the stacked pass (`PolicyStack.score_grad`) must match.
* `kl_categorical` and `kl_gaussian` are the closed-form divergences of
  criterion 2, evaluated one row at a time; `kl_batch_loss` is checked
  against them.
* `grad_log_prob_max` is the smoothness probe's G sweep one state and one
  action at a time, through `log_prob_grad` and `np.linalg.norm`; the
  stacked sweep (`diagnostics._grad_log_prob_max`) must match it bit for
  bit and leave the generator as it does.
* `matmul_gradient` is one state's parameter gradient with one plain
  `(1, in) @ w` matmul forward and `h.T @ dz` backward per layer: the bits a
  K = 1 matmul gives, signed zeros included, which `MlpNetwork.backward`'s
  single-row products must keep.
* `draw_action` is `sample_action` through the array `softmax` and the
  scalar inverse CDF, or the mean plus std times normals. `play_episode`
  samples through `sample_action` itself, so `sample_action`'s own float
  path is checked against this draw.

The helpers at the end serve the tests only: a bit-for-bit array check, a
head's action distribution at one state, the env's termination test on a
state vector, and a snapshot written to a file.
"""

from __future__ import annotations

import numpy as np

from fedhpd.env import _out_of_bounds, discounted_return, reset, step
from fedhpd.errors import ConfigurationError
from fedhpd.nn_core import adam_step, network_to_bytes
from fedhpd.policy import _draw_categorical, softmax
from fedhpd.reinforce import Episode, _step_weights

# floor inside the logarithms, as in the package's categorical KL loss
PROB_FLOOR = 1e-12


def play_episode(policy, spec, rng: np.random.Generator) -> Episode:
    """One episode of `policy` alone: `reset`, then one `sample_action` and
    one `step` per tick until termination or the horizon."""
    states, actions, rewards = [], [], []
    state = reset(spec, rng)
    for _ in range(spec.max_steps):
        action = policy.sample_action(state, rng)
        states.append(state)
        actions.append(action)
        state, reward, done = step(spec, state, action)
        rewards.append(reward)
        if done:
            break
    return Episode(np.array(states), np.array(actions), np.array(rewards))


def episode_gradient(policy, episodes, gamma: float, reward_to_go: bool) -> np.ndarray:
    """Ascent-direction REINFORCE estimate for one policy: per episode, one
    forward and one backward pass of its own network, summed, then averaged."""
    total = np.zeros(policy.num_params)
    for episode in episodes:
        weights = _step_weights(episode.rewards, gamma, reward_to_go)
        outputs, cache = policy.net.forward(episode.states)
        seed, tail = policy.score_seed(outputs, episode.actions, weights, policy.log_std)
        grad = policy.net.backward(cache, seed)
        total += np.concatenate([grad, tail.sum(axis=0)])
    return total / len(episodes)


def adam_ascent(policy, adam, ascent_grad: np.ndarray, lr: float) -> None:
    """One Adam ascent step on a copy of the policy's parameters, written back
    through `set_params`."""
    params = policy.get_params()
    adam_step(params, -ascent_grad, adam, lr)
    policy.set_params(params)


def train_independent(agents, config, trace_params: bool = False) -> dict:
    """The NoFed baseline: every agent trains alone for the `config.rounds`
    rounds of a `FedRunConfig`, with its env and round knobs.
    `stats[i][k]` is agent k's (mean episode return, mean discounted return,
    gradient norm) in round i."""
    stats: list[list[tuple]] = []
    traces: list[list[np.ndarray]] = []
    for _ in range(config.rounds):
        per_agent = []
        for agent in agents:
            episodes = [play_episode(agent.policy, config.spec, agent.rng)
                        for _ in range(config.episodes_per_round)]
            grad = episode_gradient(agent.policy, episodes, config.gamma, config.reward_to_go)
            adam_ascent(agent.policy, agent.adam, grad, agent.config.learning_rate)
            per_agent.append((
                float(np.mean([float(e.rewards.sum()) for e in episodes])),
                float(np.mean([discounted_return(e.rewards, config.gamma) for e in episodes])),
                float(np.linalg.norm(grad)),
            ))
        stats.append(per_agent)
        if trace_params:
            traces.append([agent.policy.get_params() for agent in agents])
    return {"stats": stats, "param_traces": traces}


def run_stats(result) -> list[list[tuple]]:
    """A `RunResult`'s per-round, per-agent numbers in `train_independent`'s form."""
    return [list(zip(*rows)) for rows in zip(result.episode_return.tolist(),
                                             result.discounted_return.tolist(),
                                             result.grad_norm.tolist())]


def kl_categorical(p: np.ndarray, q: np.ndarray) -> float:
    """sum_i p_i ln(p_i / q_i), with 0 ln 0 = 0 and a floor inside the logs.

    For rows that agree to rounding the sum can land a few ulps below zero;
    it is clamped, since a KL divergence is never negative.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ConfigurationError("KL rows must have equal length")
    logs = np.log(np.maximum(p, PROB_FLOOR)) - np.log(np.maximum(q, PROB_FLOOR))
    return max(0.0, float(np.sum(np.where(p > 0.0, p * logs, 0.0))))


def kl_gaussian(mu1, var1, mu2, var2) -> float:
    """Closed-form KL between diagonal Gaussians, summed over dimensions:
    1/2 (var1/var2 + (mu2-mu1)^2/var2 - 1 + ln(var2/var1)) per dimension.
    """
    mu1, var1 = np.asarray(mu1, dtype=np.float64), np.asarray(var1, dtype=np.float64)
    mu2, var2 = np.asarray(mu2, dtype=np.float64), np.asarray(var2, dtype=np.float64)
    if np.any(var1 <= 0.0) or np.any(var2 <= 0.0):
        raise ConfigurationError("gaussian KL needs positive variances")
    terms = var1 / var2 + (mu2 - mu1) ** 2 / var2 - 1.0 + np.log(var2 / var1)
    return float(0.5 * np.sum(terms))


def grad_log_prob_max(policy, states: np.ndarray, rng: np.random.Generator) -> float:
    """The largest ||grad log pi(a|s)||: every action of every state for a
    categorical head, two `sample_action` draws per state for a Gaussian one,
    in (state, action) order."""
    best = 0.0
    if policy.kind == "categorical":
        for s in states:
            for a in range(policy.action_count):
                best = max(best, float(np.linalg.norm(policy.log_prob_grad(s, a))))
    else:
        for s in states:
            for _ in range(2):
                a = policy.sample_action(s, rng)
                best = max(best, float(np.linalg.norm(policy.log_prob_grad(s, a))))
    return best


def matmul_gradient(net, x: np.ndarray, output_grad: np.ndarray) -> np.ndarray:
    """d sum(net(x) * output_grad) / d params for one state vector, every
    product a matmul: the layer's `(1, in) @ w + b` forward, then per layer
    from the last `dz = act'(out) * d_post`, `h.T @ dz`, `dz.sum(axis=0)`
    and `d_post = dz @ w.T`."""
    views = []
    offset = 0
    for spec in net.layers:
        end = offset + spec.input_dim * spec.output_dim
        views.append((net.params[offset:end].reshape(spec.input_dim, spec.output_dim),
                      net.params[end : end + spec.output_dim]))
        offset = end + spec.output_dim
    pairs = []
    h = np.asarray(x, dtype=np.float64)[None, :]
    for spec, (w, b) in zip(net.layers, views):
        z = h @ w + b
        if spec.activation == "relu":
            z = np.maximum(z, 0.0)
        elif spec.activation == "tanh":
            z = np.tanh(z)
        pairs.append((h, z))
        h = z
    parts = []
    d_post = np.asarray(output_grad, dtype=np.float64)[None, :]
    for spec, (w, _), (h, out) in zip(reversed(net.layers), reversed(views), reversed(pairs)):
        if spec.activation == "relu":
            dz = (out > 0.0).astype(np.float64) * d_post
        elif spec.activation == "tanh":
            dz = (1.0 - out * out) * d_post
        else:
            dz = np.ones_like(out) * d_post
        parts[:0] = [(h.T @ dz).ravel(), dz.sum(axis=0)]
        d_post = dz @ w.T
    return np.concatenate(parts)


def draw_action(policy, state, rng: np.random.Generator):
    """One action from `policy` at `state`, drawn as `sample_action` must."""
    outputs = policy.net.forward(np.asarray(state))[0]
    if policy.kind == "categorical":
        return _draw_categorical(softmax(outputs).tolist(), rng)
    return outputs + np.sqrt(np.exp(2.0 * policy.log_std)) * rng.standard_normal(outputs.shape)


def assert_same_bits(actual, expected) -> None:
    """Same shape and the same float64 bits: unlike `np.array_equal`, this
    tells -0.0 from +0.0 and a NaN from any other NaN."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, (actual.shape, expected.shape)
    differ = actual.view(np.uint64) != expected.view(np.uint64)
    assert not differ.any(), (actual[differ][:5], expected[differ][:5])


class FixedUniform:
    """A generator stand-in whose one `random()` draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def action_distribution(policy, state):
    """softmax(logits) at `state` (categorical), or the mean and the variance
    exp(2 log_std) (Gaussian); non-finite outputs raise as the head does."""
    outputs = policy._outputs(policy.net.forward(state))
    if policy.kind == "categorical":
        return softmax(outputs)
    return outputs, np.exp(2.0 * policy.log_std)


def is_terminal(state) -> bool:
    """Whether a state vector has left the track or the pole angle bounds."""
    return _out_of_bounds(state[0], state[2])


def save_network(net, path, extra_params) -> None:
    """Write `net`'s snapshot, with a head's `extra_params` tail (empty for a
    bare network), to `path`."""
    with open(path, "wb") as fh:
        fh.write(network_to_bytes(net, extra_params))
