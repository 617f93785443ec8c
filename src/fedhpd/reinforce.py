"""Vanilla on-policy REINFORCE local training.

Each round an agent collects whole episodes from its private environment
copy (`rollout`, the one episode loop of the package) and forms the
score-function gradient estimate

    g_hat = mean over episodes of [sum_t grad log pi(a_t|s_t)] * R(tau)

with R(tau) the episode's discounted return - no baseline, no advantage,
no normalization. The ascent step runs through Adam on the negated estimate.

The per-step gradient sum is evaluated as one batched backward pass over the
episode's states (gradients are additive over batch rows), which is what
keeps desk-scale sweeps fast; `policy_gradient` is verified against the
term-by-term sum in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import env as envmod
from .errors import ConfigurationError
from .nn_core import AdamState, LayerSpec, adam_step, glorot_init
from .policy import make_policy


@dataclass
class AgentConfig:
    """One heterogeneous agent: hidden stack and training knobs. Its policy
    head is not configured: it follows the env (`policy.make_policy`)."""

    agent_id: str
    hidden: list[tuple[int, str]]  # (width, activation) per hidden layer
    learning_rate: float
    episodes_per_round: int = 1
    reward_to_go: bool = False
    gamma: float = 0.99

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigurationError(f"agent {self.agent_id}: learning rate must be finite, > 0")
        if self.episodes_per_round < 1:
            raise ConfigurationError(f"agent {self.agent_id}: episodes_per_round must be >= 1")
        if not (0.0 < self.gamma < 1.0):
            raise ConfigurationError(f"agent {self.agent_id}: gamma must be in (0, 1)")


@dataclass
class RoundStats:
    agent_id: str
    episode_returns: list[float]
    discounted_returns: list[float]
    grad_norm: float

    @property
    def mean_episode_return(self) -> float:
        return float(np.mean(self.episode_returns))

    @property
    def mean_discounted_return(self) -> float:
        return float(np.mean(self.discounted_returns))


def build_policy(config: AgentConfig, spec: envmod.EnvSpec, rng: np.random.Generator):
    """Instantiate the agent's policy for the given environment."""
    layers = []
    prev = envmod.STATE_DIM
    for width, activation in config.hidden:
        layers.append(LayerSpec(prev, width, activation))
        prev = width
    layers.append(LayerSpec(prev, spec.action_count, "identity"))
    return make_policy(spec, glorot_init(layers, rng))


@dataclass
class Episode:
    """One episode: states [T, 4], actions ([T] ints or [T, a_dim]), rewards [T]."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray


def rollout(policy, spec: envmod.EnvSpec, rng: np.random.Generator) -> Episode:
    """Run one episode until it terminates or reaches the horizon.

    The stream is consumed as one `reset` then one `sample_action` per step.
    """
    states, actions, rewards = [], [], []
    state = envmod.reset(spec, rng)
    for _ in range(spec.max_steps):
        action = policy.sample_action(state, rng)
        states.append(state)
        actions.append(action)
        state, reward, done = envmod.step(spec, state, action)
        rewards.append(reward)
        if done:
            break
    return Episode(np.array(states), np.array(actions), np.array(rewards))


def collect_trajectories(policy, spec: envmod.EnvSpec, config: AgentConfig,
                         rng: np.random.Generator) -> list[Episode]:
    """Roll out `episodes_per_round` complete episodes."""
    return [rollout(policy, spec, rng) for _ in range(config.episodes_per_round)]


def _step_weights(rewards: np.ndarray, gamma: float, reward_to_go: bool) -> np.ndarray:
    discounts = gamma ** np.arange(rewards.size)
    if reward_to_go:
        # per-step coefficient sum_{t' >= t} gamma^{t'} r_{t'}
        return np.cumsum((discounts * rewards)[::-1])[::-1]
    return np.full(rewards.size, float(np.sum(discounts * rewards)))


def policy_gradient(policy, episodes: list[Episode], gamma: float,
                    reward_to_go: bool) -> np.ndarray:
    """Ascent-direction estimate of grad J from whole episodes."""
    if not episodes:
        raise ConfigurationError("policy_gradient needs at least one episode")
    total = np.zeros(policy.num_params)
    for episode in episodes:
        weights = _step_weights(episode.rewards, gamma, reward_to_go)
        total += policy.score_grad(episode.states, episode.actions, weights)
    return total / len(episodes)


def local_update(policy, adam_state: AdamState, ascent_grad: np.ndarray,
                 lr: float) -> AdamState:
    """Adam ascent step: descend on the negated gradient estimate."""
    params, new_state = adam_step(policy.get_params(), -ascent_grad, adam_state, lr)
    policy.set_params(params)
    return new_state


class Agent:
    """A self-contained trainer: policy, optimizer state, and private RNG."""

    def __init__(self, config: AgentConfig, spec: envmod.EnvSpec,
                 seed_seq: np.random.SeedSequence):
        self.config = config
        self.spec = spec
        self.rng = np.random.Generator(np.random.PCG64(seed_seq))
        self.policy = build_policy(config, spec, self.rng)
        self.adam = AdamState.zeros(self.policy.num_params)

    def local_round(self) -> RoundStats:
        config = self.config
        episodes = collect_trajectories(self.policy, self.spec, config, self.rng)
        grad = policy_gradient(self.policy, episodes, config.gamma, config.reward_to_go)
        self.adam = local_update(self.policy, self.adam, grad, config.learning_rate)
        return RoundStats(
            agent_id=config.agent_id,
            episode_returns=[float(e.rewards.sum()) for e in episodes],
            discounted_returns=[
                envmod.discounted_return(e.rewards, config.gamma) for e in episodes
            ],
            grad_norm=float(np.linalg.norm(grad)),
        )


def make_agents(configs: list[AgentConfig], spec: envmod.EnvSpec, seed: int) -> list[Agent]:
    """One agent per config, each on its own deterministic RNG stream."""
    return [
        Agent(cfg, spec, np.random.SeedSequence([seed, k]))
        for k, cfg in enumerate(configs)
    ]


def train_independent(agents: list[Agent], rounds: int,
                      trace_params: bool = False) -> dict:
    """The NoFed baseline: every agent trains alone for `rounds` rounds."""
    stats: list[list[RoundStats]] = []
    traces: list[list[np.ndarray]] = []
    for _ in range(rounds):
        stats.append([agent.local_round() for agent in agents])
        if trace_params:
            traces.append([agent.policy.get_params() for agent in agents])
    return {"round_stats": stats, "param_traces": traces}
