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
term-by-term sum in the tests. The other half of that speed is `rollout`
stepping many same-shape policies in lockstep: `train_round` runs one round
for agent k of every cell of a grid at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import env as envmod
from .errors import ConfigurationError
from .nn_core import AdamState, LayerSpec, adam_step, glorot_init
from .policy import PolicyStack, make_policy


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


@dataclass(slots=True)
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


def rollout(policies: list, spec: envmod.EnvSpec, rngs: list) -> list:
    """Run one episode for each policy, policy i on generator i, in lockstep.

    The policies share one head and one network shape. Each step samples
    every running episode through one stacked forward pass (`PolicyStack`),
    or through `sample_action` once a single episode is left, then advances
    each state through `env.step`; an episode leaves the stack when it
    terminates or reaches the horizon. Generator i is consumed as one `reset`
    then one draw per step, so each episode is exactly the one policy i would
    run alone. An episode that raises ends there: its slot holds the
    exception instead of an `Episode`, and the other episodes run on.
    """
    n = len(policies)
    horizon = spec.max_steps
    states = np.empty((n, horizon + 1, envmod.STATE_DIM))
    rewards = np.empty((n, horizon))
    actions: list[list] = [[] for _ in range(n)]
    results: list = [None] * n
    for i, rng in enumerate(rngs):
        states[i, 0] = envmod.reset(spec, rng)
    stack = PolicyStack(policies) if n > 1 else None
    live = list(range(n))
    for t in range(horizon):
        if not live:
            break
        if len(live) > 1:
            drawn = stack.sample(states[live, t], [rngs[i] for i in live])
        else:
            drawn = [_sample_one(policies[live[0]], states[live[0], t], rngs[live[0]])]
        kept = []
        for row, (i, action) in enumerate(zip(live, drawn)):
            if not isinstance(action, Exception):
                try:
                    states[i, t + 1], rewards[i, t], done = envmod.step(spec, states[i, t], action)
                except Exception as exc:
                    action = exc
            if isinstance(action, Exception):
                results[i] = action
                continue
            actions[i].append(action)
            if done or t + 1 == horizon:
                end = t + 1
                results[i] = Episode(states[i, :end].copy(), np.array(actions[i]),
                                     rewards[i, :end].copy())
            else:
                kept.append(row)
        if len(kept) < len(live):
            live = [live[row] for row in kept]
            if len(live) > 1:
                stack.keep(kept)
    return results


def _sample_one(policy, state: np.ndarray, rng: np.random.Generator):
    try:
        return policy.sample_action(state, rng)
    except Exception as exc:
        return exc


def raise_failures(results: list) -> list:
    """`results` of `rollout`, `collect_trajectories` or `train_round`, with
    its first failure raised instead of returned."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def collect_trajectories(agents: list["Agent"]) -> list:
    """`episodes_per_round` episodes from each agent, stepped in lockstep.

    The agents share one network shape and `episodes_per_round`; an agent
    whose episode failed gets that exception instead of its episode list.
    """
    counts = {agent.config.episodes_per_round for agent in agents}
    if len(counts) > 1:
        raise ConfigurationError("lockstep agents must share episodes_per_round")
    collected: list = [[] for _ in agents]
    for _ in range(max(counts, default=0)):
        live = [j for j, episodes in enumerate(collected) if isinstance(episodes, list)]
        if not live:
            break
        episodes = rollout([agents[j].policy for j in live], agents[0].spec,
                           [agents[j].rng for j in live])
        for j, episode in zip(live, episodes):
            if isinstance(episode, Exception):
                collected[j] = episode
            else:
                collected[j].append(episode)
    return collected


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

    def local_round(self, episodes: list[Episode]) -> RoundStats:
        """Gradient and Adam step from this round's episodes."""
        config = self.config
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


def train_round(agents: list[Agent]) -> list:
    """One local round for agents of one shape: their episodes are collected
    in lockstep, then each agent takes its own gradient and Adam step. Each
    slot holds that agent's `RoundStats`, or the exception it raised."""
    outcomes = []
    for agent, episodes in zip(agents, collect_trajectories(agents)):
        if not isinstance(episodes, Exception):
            try:
                episodes = agent.local_round(episodes)
            except Exception as exc:
                episodes = exc
        outcomes.append(episodes)
    return outcomes


def make_agents(configs: list[AgentConfig], spec: envmod.EnvSpec, seed: int) -> list[Agent]:
    """One agent per config, each on its own deterministic RNG stream."""
    return [
        Agent(cfg, spec, np.random.SeedSequence([seed, k]))
        for k, cfg in enumerate(configs)
    ]
