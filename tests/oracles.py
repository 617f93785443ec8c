"""Reference implementations the tests check the package against.

Each is written independently of the program path it checks:

* `train_independent` trains every agent alone, one episode at a time, with
  its own `reset` / `sample_action` / `step` loop. It is the NoFed baseline
  of acceptance criterion 6 and the sequential oracle for the lockstep
  runner (`federation.run`, `reinforce.rollout`).
* `kl_categorical` and `kl_gaussian` are the closed-form divergences of
  criterion 2, evaluated one row at a time; `kl_batch_loss` is checked
  against them.
"""

from __future__ import annotations

import numpy as np

from fedhpd.env import discounted_return, reset, step
from fedhpd.errors import ConfigurationError
from fedhpd.reinforce import Episode, RoundStats, local_update, policy_gradient

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


def train_independent(agents, rounds: int, trace_params: bool = False) -> dict:
    """The NoFed baseline: every agent trains alone for `rounds` rounds."""
    stats: list[list[RoundStats]] = []
    traces: list[list[np.ndarray]] = []
    for _ in range(rounds):
        per_agent = []
        for agent in agents:
            config = agent.config
            episodes = [play_episode(agent.policy, agent.spec, agent.rng)
                        for _ in range(config.episodes_per_round)]
            grad = policy_gradient(agent.policy, episodes, config.gamma, config.reward_to_go)
            agent.adam = local_update(agent.policy, agent.adam, grad, config.learning_rate)
            per_agent.append(RoundStats(
                agent_id=config.agent_id,
                episode_returns=[float(e.rewards.sum()) for e in episodes],
                discounted_returns=[discounted_return(e.rewards, config.gamma)
                                    for e in episodes],
                grad_norm=float(np.linalg.norm(grad)),
            ))
        stats.append(per_agent)
        if trace_params:
            traces.append([agent.policy.get_params() for agent in agents])
    return {"round_stats": stats, "param_traces": traces}


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
