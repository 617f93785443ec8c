"""Public state set generation via a server-side virtual agent.

The virtual agent is a small default policy trained briefly in a server copy
of the environment; its evaluation rollouts provide a pool of plausible
states from which the shared distillation inputs are subsampled. Optimal
play is not the point - the set only has to cover the state region policies
actually visit.
"""

from __future__ import annotations

import numpy as np

from .env import EnvSpec, PublicStateSet
from .errors import ConfigurationError
from .presets import parse_agent
from .reinforce import Agent, Cohort, raise_failures, rollout, train_round

# the virtual agent, as a lineup entry
VIRTUAL_AGENT = "32x32:tanh@1e-3"


def generate_public_states(spec: EnvSpec, warmup_rounds: int, rollouts: int, n: int,
                           seed: int) -> PublicStateSet:
    """Train the virtual agent, roll it out, subsample n visited states.

    Subsampling is uniform without replacement; if fewer than n states were
    visited it falls back to sampling with replacement.
    """
    if n < 1:
        raise ConfigurationError("public state set size must be >= 1")
    if warmup_rounds < 0 or rollouts < 1:
        raise ConfigurationError("warmup_rounds must be >= 0 and rollouts >= 1")
    agent = Agent(parse_agent(VIRTUAL_AGENT, "virtual"), spec,
                  np.random.SeedSequence([seed, 0x5AFE]))
    cohort = Cohort([agent])
    for _ in range(warmup_rounds):
        raise_failures(train_round([cohort], spec, episodes_per_round=1, gamma=0.99,
                                   reward_to_go=False)[0])

    pool = np.concatenate([
        raise_failures(rollout([cohort.policies], spec, [agent.rng]))[0].states
        for _ in range(rollouts)])
    if pool.shape[0] >= n:
        idx = agent.rng.choice(pool.shape[0], size=n, replace=False)
    else:
        idx = agent.rng.choice(pool.shape[0], size=n, replace=True)
    return PublicStateSet(pool[idx])
