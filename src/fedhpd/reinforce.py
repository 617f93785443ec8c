"""Vanilla on-policy REINFORCE local training.

Each round an agent collects whole episodes from its private environment
copy (`rollout`, the one episode loop of the package) and forms the
score-function gradient estimate

    g_hat = mean over episodes of [sum_t grad log pi(a_t|s_t)] * R(tau)

with R(tau) the episode's discounted return - no baseline, no advantage,
no normalization. The ascent step runs through Adam on the negated estimate.

`train_round` runs one round for every agent of a grid at once; agent k of
every cell is cohort k, a `Cohort` whose parameters and Adam moments are
the rows of [B, P] arrays. `rollout` steps all cohorts' episodes in
lockstep: one forward pass over the rows of each cohort, one draw over all
rows (uniforms or normals drawn ahead and rewound at the episode's end)
and one `env.step` per running episode a step. Then, per cohort,
`policy_gradient` sums each agent's per-step score gradients in one stacked
forward and backward pass (gradients are additive over rows), and one Adam
step updates every row. Each agent's numbers are bit-identical to training
alone; the tests check them against one network pass per episode and
against the term-by-term sum.
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
    """One lineup entry, a heterogeneous agent: hidden stack and learning
    rate. The knobs of a round (episodes, discount, reward-to-go) are the
    run's, and its policy head follows the env (`policy.make_policy`)."""

    agent_id: str
    hidden: list[tuple[int, str]]  # (width, activation) per hidden layer
    learning_rate: float

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigurationError(f"agent {self.agent_id}: learning rate must be finite, > 0")


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


def rollout(stacks: list[PolicyStack], spec: envmod.EnvSpec, rngs: list) -> list:
    """Run one episode for each policy of the stacks, in lockstep: rows are
    the stacks' policies in order, and row i runs on generator rngs[i].

    Each step samples every running episode through one `step_rows` pass
    per stack that still has a running row, into one [rows, out] array, and
    one finiteness check and pre-drawn draw over all rows (`policy._PreDrawn`;
    a row whose episode has left holds a finite placeholder state and its
    output is ignored), or through `sample_action` once a single episode of
    all the stacks is left; then it advances each running state, a tuple of
    floats, through one `env.step`. An episode leaves when it terminates or
    reaches the horizon, and its arrays are built then. Each generator's
    uniforms (categorical) or normals (Gaussian) are drawn 32 steps ahead
    and rewound, when the episode leaves or goes on alone, to the draws it
    used. So generator i is left as one `reset` then one draw per step
    leaves it, and each episode is exactly the one its policy would run
    alone. An episode that raises ends there: its slot holds the exception
    instead of an `Episode`, and the other episodes run on.
    """
    policies = [policy for stack in stacks for policy in stack.policies]
    if any(stack.head is not stacks[0].head for stack in stacks):
        raise ConfigurationError("lockstep stacks must share one policy head")
    n = len(policies)
    bounds = list(accumulate([len(stack.policies) for stack in stacks], initial=0))
    owner = [s for s, stack in enumerate(stacks) for _ in stack.policies]
    running = [len(stack.policies) for stack in stacks]  # per stack
    horizon = spec.max_steps
    visited = [[tuple(envmod.reset(spec, rng).tolist())] for rng in rngs]
    actions: list[list] = [[] for _ in range(n)]
    rewards: list[list] = [[] for _ in range(n)]
    results: list = [None] * n
    inputs = [states[-1] for states in visited]  # the stacked forwards' rows
    draws = stacks[0].head.draws(policies, rngs, horizon) if n > 1 else None
    outputs = np.zeros((n, policies[0].net.output_dim))
    live = list(range(n))
    for t in range(horizon):
        if draws is not None and len(live) == 1:  # the last episode goes on alone
            draws.release(live[0], t)
            draws = None
        if draws is None:
            drawn = [_sample_one(policies[live[0]], inputs[live[0]], rngs[live[0]])]
        else:
            states = np.array(inputs)
            for stack, start, end, count in zip(stacks, bounds, bounds[1:], running):
                if count:
                    outputs[start:end] = stack.net.step_rows(states[start:end])
            drawn = draws(outputs, t, live)
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
            running[owner[i]] -= 1
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
    """`results` of `rollout`, or one cohort's of `collect_trajectories` or
    `train_round`, with its first failure raised instead of returned."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def collect_trajectories(cohorts: list["Cohort"], spec: envmod.EnvSpec,
                         episodes_per_round: int) -> list:
    """`episodes_per_round` episodes on `spec` from each agent of each cohort
    (lineup slots), episode e of every cohort in one lockstep `rollout`.
    collected[c][j] is agent j of cohort c's episode list, or the exception
    its episode raised (its later episodes still run, and are dropped)."""
    collected: list = [[[] for _ in cohort.agents] for cohort in cohorts]
    slots = [(c, j) for c, cohort in enumerate(cohorts) for j in range(len(cohort.agents))]
    for _ in range(episodes_per_round):
        episodes = rollout([cohort.policies for cohort in cohorts], spec,
                           [cohorts[c].agents[j].rng for c, j in slots])
        for (c, j), episode in zip(slots, episodes):
            rows = collected[c][j]
            if isinstance(rows, list):  # else an earlier episode raised
                collected[c][j] = episode if isinstance(episode, Exception) else rows + [episode]
    return collected


def _step_weights(rewards: np.ndarray, gamma: float, reward_to_go: bool) -> np.ndarray:
    discounts = gamma ** np.arange(rewards.size)
    if reward_to_go:
        # per-step coefficient sum_{t' >= t} gamma^{t'} r_{t'}
        return np.cumsum((discounts * rewards)[::-1])[::-1]
    return np.full(rewards.size, float(np.sum(discounts * rewards)))


def policy_gradient(stack: PolicyStack, episodes: list[list[Episode]], gamma: float,
                    reward_to_go: bool) -> np.ndarray:
    """Ascent-direction estimate of grad J, [len(episodes), P]: row i from
    policy i of the stack and its own whole episodes, episodes[i] (none:
    zeros). Episode e of every row goes through one stacked pass."""
    count = max(map(len, episodes))
    if count == 0:
        raise ConfigurationError("policy_gradient needs at least one episode")
    total = np.zeros((len(episodes), stack.params.shape[1]))
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
        self.rng = np.random.Generator(np.random.PCG64(seed_seq))
        self.policy = build_policy(config, spec, self.rng)
        self.adam = AdamState.zeros(self.policy.num_params)

    @classmethod
    def local_round(cls, cohort: "Cohort", collected: list, gamma: float,
                    reward_to_go: bool) -> list:
        """Gradient and Adam step for a cohort from this round's episodes,
        collected[i] for its agent i: an episode list (empty: left out) or
        the exception an episode raised. Per agent, (mean episode return,
        mean discounted return, gradient norm) or the exception it raised."""
        episodes = [[] if isinstance(rows, Exception) else rows for rows in collected]
        if not any(episodes):
            return list(collected)
        grads = policy_gradient(cohort.policies, episodes, gamma, reward_to_go)
        failures = local_update(cohort.policies, cohort.adam, grads, cohort.config.learning_rate)
        outcomes = []
        for rows, grad, failure in zip(collected, grads, failures):
            if isinstance(rows, Exception):
                failure = rows
            elif failure is None and rows:
                failure = (
                    _mean([float(e.rewards.sum()) for e in rows]),
                    _mean([envmod.discounted_return(e.rewards, gamma) for e in rows]),
                    float(np.linalg.norm(grad)),
                )
            outcomes.append(failure)
        return outcomes


class Cohort:
    """Agent k of every cell of a lockstep group: one lineup slot, so one
    `AgentConfig` (`config`) but for `agent_id`. Their parameters
    (`policies`) and Adam state (`adam`: [B, P] moments, [B] step counts)
    are stacked by row, and each agent's policy and Adam state are views of
    its row (its count the 0-d `step_count[i, ...]`), so stacked steps and
    per-agent writes (distillation) land in the same place."""

    def __init__(self, agents: list[Agent]):
        first = agents[0]
        for agent in agents[1:]:
            if replace(agent.config, agent_id=first.config.agent_id) != first.config:
                raise ConfigurationError(
                    f"cohort agents {first.config.agent_id} and {agent.config.agent_id} "
                    "differ in lineup entry; a cohort is one lineup slot")
        self.agents = list(agents)
        self.config = first.config
        self.policies = PolicyStack([agent.policy for agent in agents])
        self.adam = AdamState(np.stack([agent.adam.m for agent in agents]),
                              np.stack([agent.adam.v for agent in agents]),
                              np.stack([agent.adam.step_count for agent in agents]))
        for i, agent in enumerate(agents):
            agent.adam = AdamState(self.adam.m[i], self.adam.v[i], self.adam.step_count[i, ...])


def train_round(cohorts: list[Cohort], spec: envmod.EnvSpec, episodes_per_round: int,
                gamma: float, reward_to_go: bool) -> list:
    """One local round on `spec` for cohorts of lineup slots: lockstep
    episodes, then one stacked gradient and Adam step per cohort
    (`Agent.local_round`). outcomes[c][j]: agent j of cohort c's outcome or
    the exception it raised."""
    collected = collect_trajectories(cohorts, spec, episodes_per_round)
    return [Agent.local_round(cohort, rows, gamma, reward_to_go)
            for cohort, rows in zip(cohorts, collected)]


def make_agents(configs: list[AgentConfig], spec: envmod.EnvSpec, seed: int) -> list[Agent]:
    """One agent per config, each on its own deterministic RNG stream."""
    return [
        Agent(cfg, spec, np.random.SeedSequence([seed, k]))
        for k, cfg in enumerate(configs)
    ]
