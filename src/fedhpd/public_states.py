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
from .reinforce import Agent, AgentConfig, rollout

VIRTUAL_AGENT_HIDDEN = [(32, "tanh"), (32, "tanh")]
VIRTUAL_AGENT_LR = 1e-3
DEFAULT_WARMUP_ROUNDS = 200
DEFAULT_ROLLOUTS = 20
DEFAULT_SET_SIZE = 512


def generate_public_states(
    spec: EnvSpec,
    warmup_rounds: int = DEFAULT_WARMUP_ROUNDS,
    rollouts: int = DEFAULT_ROLLOUTS,
    n: int = DEFAULT_SET_SIZE,
    seed: int = 0,
) -> PublicStateSet:
    """Train the virtual agent, roll it out, subsample n visited states.

    Subsampling is uniform without replacement; if fewer than n states were
    visited it falls back to sampling with replacement.
    """
    if n < 1:
        raise ConfigurationError("public state set size must be >= 1")
    if warmup_rounds < 0 or rollouts < 1:
        raise ConfigurationError("warmup_rounds must be >= 0 and rollouts >= 1")
    config = AgentConfig(
        agent_id="virtual",
        hidden=list(VIRTUAL_AGENT_HIDDEN),
        learning_rate=VIRTUAL_AGENT_LR,
    )
    agent = Agent(config, spec, np.random.SeedSequence([seed, 0x5AFE]))
    for _ in range(warmup_rounds):
        agent.local_round()

    pool = np.concatenate([rollout(agent.policy, spec, agent.rng).states
                           for _ in range(rollouts)])
    if pool.shape[0] >= n:
        idx = agent.rng.choice(pool.shape[0], size=n, replace=False)
    else:
        idx = agent.rng.choice(pool.shape[0], size=n, replace=True)
    return PublicStateSet(pool[idx])
