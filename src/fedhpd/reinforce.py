"""Vanilla on-policy REINFORCE local training.

Each round an agent collects whole episodes from its private environment
copy (`rollout`, the one episode loop of the package) and forms the
score-function gradient estimate

    g_hat = mean over episodes of [sum_t grad log pi(a_t|s_t)] * R(tau)

with R(tau) the episode's discounted return - no baseline, no advantage,
no normalization. The ascent step runs through Adam on the negated estimate.

`train_round` runs one round for agent k of every cell of a grid at once,
a `Cohort` whose parameters and Adam moments are the rows of [B, P] arrays:
`rollout` steps its episodes in lockstep, one forward pass over every row
and one `env.step` per running episode a step (categorical actions come
from uniforms drawn ahead and rewound at the episode's end),
`policy_gradient` sums each agent's per-step score gradients in one stacked
forward and backward pass over all agents' episodes (gradients are additive
over rows), and one Adam step updates every row. Each agent's numbers are
bit-identical to training alone; the tests check them against one network
pass per episode and against the term-by-term sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import env as envmod
from .errors import ConfigurationError, NumericError
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


# the state a row of the stacked forward pass holds once its episode has left
_PLACEHOLDER = (0.0,) * envmod.STATE_DIM


def rollout(stack: PolicyStack, spec: envmod.EnvSpec, rngs: list) -> list:
    """Run one episode for each policy of the stack, policy i on generator i,
    in lockstep.

    Each step samples every running episode through one forward pass over
    all rows of the stack (`PolicyStack.sample`; a row whose episode has
    left holds a finite placeholder state and its output is ignored), or
    through `sample_action` once a single episode is left, then advances
    each running state, a tuple of floats, through one `env.step`; an
    episode leaves when it terminates or reaches the horizon, and its arrays
    are built then. A categorical stack draws each generator's `horizon`
    uniforms right after `reset` and, when the episode leaves or goes on
    alone, rewinds the generator to the draws it used (`policy._UniformDraws`).
    Either way generator i is left as one `reset` then one draw per step
    leaves it, so each episode is exactly the one policy i would run alone.
    An episode that raises ends there: its slot holds the exception instead
    of an `Episode`, and the other episodes run on.
    """
    policies = stack.policies
    n = len(policies)
    horizon = spec.max_steps
    visited = [[tuple(envmod.reset(spec, rng).tolist())] for rng in rngs]
    actions: list[list] = [[] for _ in range(n)]
    rewards: list[list] = [[] for _ in range(n)]
    results: list = [None] * n
    inputs = [states[-1] for states in visited]  # the stacked forward's rows
    draws = stack.head.draws(policies, rngs, horizon) if n > 1 else None
    live = list(range(n))
    for t in range(horizon):
        if draws is not None and len(live) == 1:  # the last episode goes on alone
            draws.release(live[0], t)
            draws = None
        if draws is None:
            drawn = [_sample_one(policies[live[0]], inputs[live[0]], rngs[live[0]])]
        else:
            drawn = stack.sample(np.array(inputs), draws, t, live)
        kept = []
        for i, action in zip(live, drawn):
            drew = not isinstance(action, Exception)
            if drew:
                try:
                    state, reward, done = envmod.step(spec, inputs[i], action)
                except Exception as exc:
                    action = exc
            if isinstance(action, Exception):
                results[i] = action
            else:
                actions[i].append(action)
                rewards[i].append(reward)
                if not done and t + 1 < horizon:
                    visited[i].append(state)
                    inputs[i] = state
                    kept.append(i)
                    continue
                results[i] = Episode(np.array(visited[i]), np.array(actions[i]),
                                     np.array(rewards[i]))
            if draws is not None:  # non-finite outputs drew nothing this step
                draws.release(i, t + drew)
                inputs[i] = _PLACEHOLDER
        live = kept
        if not live:
            break
    return results


def _sample_one(policy, state: tuple, rng: np.random.Generator):
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
    """`episodes_per_round` episodes from each agent of a cohort, stepped in
    lockstep. An agent whose episode failed gets that exception instead of
    its episode list (its later episodes still run, and are dropped).
    """
    stack = Cohort.of(agents).policies
    collected: list = [[] for _ in agents]
    for _ in range(agents[0].config.episodes_per_round):
        for j, episode in enumerate(rollout(stack, agents[0].spec, [a.rng for a in agents])):
            if isinstance(episode, Exception) and isinstance(collected[j], list):
                collected[j] = episode
            elif isinstance(collected[j], list):
                collected[j].append(episode)
    return collected


def _step_weights(rewards: np.ndarray, gamma: float, reward_to_go: bool) -> np.ndarray:
    discounts = gamma ** np.arange(rewards.size)
    if reward_to_go:
        # per-step coefficient sum_{t' >= t} gamma^{t'} r_{t'}
        return np.cumsum((discounts * rewards)[::-1])[::-1]
    return np.full(rewards.size, float(np.sum(discounts * rewards)))


def policy_gradient(stack: PolicyStack, episodes: list[list[Episode]], gamma: float,
                    reward_to_go: bool) -> np.ndarray:
    """Ascent-direction estimate of grad J for each policy of the stack from
    its own whole episodes, episodes[i] for row i (none: zeros); [B, P].
    Episode e of every row goes through one stacked pass."""
    count = max(map(len, episodes))
    if count == 0:
        raise ConfigurationError("policy_gradient needs at least one episode")
    total = np.zeros(stack.params.shape)
    for e in range(count):
        batch = [row[e] for row in episodes if row]
        bounds = list(accumulate([len(row[e].rewards) if row else 0 for row in episodes],
                                 initial=0))
        parts = [(ep.states, ep.actions, _step_weights(ep.rewards, gamma, reward_to_go))
                 for ep in batch]
        total += stack.score_grad(*[np.concatenate(arrays) for arrays in zip(*parts)], bounds)
    return total / count


def local_update(stack: PolicyStack, adam: AdamState, ascent_grads: np.ndarray,
                 lr: float) -> list:
    """Adam ascent step on every row of the stack, in place: descend on the
    negated estimates. Per row, None or the `NumericError` the row's policy
    would raise alone: a row whose gradient is not finite is stepped with a
    zero gradient instead and fails as in `adam_step`, and a row whose new
    network parameters are not finite fails as in `set_params`."""
    finite = np.isfinite(ascent_grads).all(axis=1)
    failures = [None if ok else NumericError("non-finite gradient in adam_step")
                for ok in finite]
    if not finite.all():
        ascent_grads = np.where(finite[:, None], ascent_grads, 0.0)
    adam_step(stack.params, -ascent_grads, adam, lr)
    for row, bad in enumerate(stack.settle().tolist()):
        if bad and failures[row] is None:
            failures[row] = NumericError("non-finite network parameters")
    return failures


def _mean(values: list[float]) -> float:
    # np.mean of one value is that value; one episode per round is the common case
    return values[0] if len(values) == 1 else float(np.mean(values))


class Agent:
    """A self-contained trainer: policy, optimizer state, and private RNG."""

    def __init__(self, config: AgentConfig, spec: envmod.EnvSpec,
                 seed_seq: np.random.SeedSequence):
        self.config = config
        self.spec = spec
        self.rng = np.random.Generator(np.random.PCG64(seed_seq))
        self.policy = build_policy(config, spec, self.rng)
        self.adam = AdamState.zeros(self.policy.num_params)
        self.cohort: Cohort | None = None

    @classmethod
    def local_round(cls, agents: list["Agent"], episodes: list) -> list:
        """Gradient and Adam step for a cohort from this round's episodes,
        episodes[i] for agents[i] (an empty list leaves agent i out). Per
        agent, (mean episode return, mean discounted return, gradient norm)
        or the exception it raised."""
        cohort = Cohort.of(agents)
        config = agents[0].config
        grads = policy_gradient(cohort.policies, episodes, config.gamma, config.reward_to_go)
        adam = AdamState(cohort.m, cohort.v, [agent.adam.step_count for agent in agents])
        failures = local_update(cohort.policies, adam, grads, config.learning_rate)
        outcomes = []
        for agent, step_count, rows, grad, failure in zip(
                agents, adam.step_count, episodes, grads, failures):
            agent.adam.step_count = step_count
            if failure is None and rows:
                failure = (
                    _mean([float(e.rewards.sum()) for e in rows]),
                    _mean([envmod.discounted_return(e.rewards, config.gamma) for e in rows]),
                    float(np.linalg.norm(grad)),
                )
            outcomes.append(failure)
        return outcomes


class Cohort:
    """Agent k of every cell of a lockstep group: one lineup slot, so one env
    and one `AgentConfig` but for `agent_id`. Their parameters (`policies`)
    and Adam moments (`m`, `v`) are the rows of [B, P] arrays, and each
    agent's policy and moments are views of its row, so stacked steps and
    per-agent writes (distillation) land in the same place."""

    def __init__(self, agents: list[Agent]):
        first = agents[0]
        for agent in agents[1:]:
            if (agent.spec, replace(agent.config, agent_id=first.config.agent_id)) != (
                    first.spec, first.config):
                raise ConfigurationError(
                    f"cohort agents {first.config.agent_id} and {agent.config.agent_id} "
                    "differ in env or training config; a cohort is one lineup slot")
        self.agents = list(agents)
        self.policies = PolicyStack([agent.policy for agent in agents])
        self.m = np.stack([agent.adam.m for agent in agents])
        self.v = np.stack([agent.adam.v for agent in agents])
        for agent, m, v in zip(agents, self.m, self.v):
            agent.adam = AdamState(m, v, agent.adam.step_count)
            agent.cohort = self

    @classmethod
    def of(cls, agents: list[Agent]) -> "Cohort":
        """The cohort of exactly these agents, in this order, else a new one."""
        cohort = agents[0].cohort
        if cohort is not None and cohort.agents == agents and all(
                agent.cohort is cohort for agent in agents):
            return cohort
        return cls(agents)


def train_round(agents: list[Agent]) -> list:
    """One local round for a cohort: lockstep episodes, then one stacked
    gradient and Adam step (`Agent.local_round`). Per agent, its
    `local_round` outcome or the exception it raised."""
    collected = collect_trajectories(agents)
    learned = [[] if isinstance(episodes, Exception) else episodes for episodes in collected]
    if not any(learned):
        return collected
    outcomes = Agent.local_round(agents, learned)
    return [episodes if isinstance(episodes, Exception) else outcome
            for episodes, outcome in zip(collected, outcomes)]


def make_agents(configs: list[AgentConfig], spec: envmod.EnvSpec, seed: int) -> list[Agent]:
    """One agent per config, each on its own deterministic RNG stream."""
    return [
        Agent(cfg, spec, np.random.SeedSequence([seed, k]))
        for k, cfg in enumerate(configs)
    ]
