"""Desk-scale heterogeneous agent lineups.

Agents differ in depth, width, activation, and learning rate. The 4-agent
lineups keep the spread (one wide-shallow, one mid, one tiny, one narrow
single-layer agent) while staying fast enough for laptop-scale sweeps; ids
keep their position in the full 10-agent lineup.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .reinforce import AgentConfig

# preset name -> (the env the lineup was tuned for, its agents)
_PRESET_TABLES = {
    # discrete cart-pole, halved widths of the 10-agent lineup's 1/2/6/10
    "cartpole-4": (
        "cartpole-discrete",
        [
            ("agent-1", [(64, "relu")], 1e-3),
            ("agent-2", [(16, "relu"), (16, "relu")], 2e-3),
            ("agent-6", [(4, "relu"), (4, "relu")], 7e-4),
            ("agent-10", [(16, "relu")], 8e-4),
        ],
    ),
    "cartpole-10": (
        "cartpole-discrete",
        [
            ("agent-1", [(128, "relu")], 1e-3),
            ("agent-2", [(32, "relu"), (32, "relu")], 2e-3),
            ("agent-3", [(16, "tanh"), (16, "tanh"), (32, "tanh")], 4e-3),
            ("agent-4", [(8, "relu"), (8, "relu"), (8, "relu")], 5e-4),
            ("agent-5", [(32, "tanh"), (32, "tanh"), (32, "tanh")], 3e-3),
            ("agent-6", [(8, "relu"), (8, "relu")], 7e-4),
            ("agent-7", [(64, "tanh"), (64, "tanh")], 1e-3),
            ("agent-8", [(16, "relu"), (16, "relu")], 5e-4),
            ("agent-9", [(16, "tanh"), (32, "tanh"), (16, "tanh")], 5e-4),
            ("agent-10", [(32, "relu")], 8e-4),
        ],
    ),
    # continuous cart-pole, agents 1/2/6/10 of the continuous lineup
    "pendulum-4": (
        "cartpole-continuous",
        [
            ("agent-1", [(16, "tanh"), (32, "tanh")], 1e-4),
            ("agent-2", [(32, "relu"), (32, "relu")], 1e-4),
            ("agent-6", [(64, "tanh"), (64, "tanh")], 8e-5),
            ("agent-10", [(32, "relu"), (128, "relu")], 5e-5),
        ],
    ),
}

PRESET_NAMES = tuple(_PRESET_TABLES)
PRESET_ENVS = {name: env for name, (env, _) in _PRESET_TABLES.items()}


def preset_agents(name: str) -> list[AgentConfig]:
    if name not in _PRESET_TABLES:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
        )
    return [
        AgentConfig(
            agent_id=agent_id,
            hidden=[tuple(layer) for layer in hidden],
            learning_rate=lr,
        )
        for agent_id, hidden, lr in _PRESET_TABLES[name][1]
    ]
