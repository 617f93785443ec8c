"""Heterogeneous agent lineups: the one lineup grammar, and the presets.

A lineup entry is `widths:activations@learning_rate`, as in
'16x16:relu,tanh@2e-3': hidden widths joined by `x`, then one activation per
layer or one for all. `agents.spec` joins entries with ';' and names them
agent-1, agent-2, ...; a preset is its env and its entries by agent id; the
public-state virtual agent is one entry too. `parse_agent` reads them all.

Agents differ in depth, width, activation, and learning rate. The 4-agent
lineups keep the spread (one wide-shallow, one mid, one tiny, one narrow
single-layer agent) while staying fast enough for laptop-scale sweeps; ids
keep their position in the full 10-agent lineup.
"""

from __future__ import annotations

import math

from .env import ascii_number
from .errors import ConfigurationError
from .nn_core import ACTIVATIONS
from .reinforce import AgentConfig

# the widest hidden layer a lineup entry may have (a size ceiling, README)
MAX_WIDTH = 500

# preset name -> (the env the lineup was tuned for, its entries by agent id)
_PRESETS = {
    # discrete cart-pole, halved widths of the 10-agent lineup's 1/2/6/10
    "cartpole-4": ("cartpole-discrete", {
        "agent-1": "64:relu@1e-3",
        "agent-2": "16x16:relu@2e-3",
        "agent-6": "4x4:relu@7e-4",
        "agent-10": "16:relu@8e-4",
    }),
    "cartpole-10": ("cartpole-discrete", {
        "agent-1": "128:relu@1e-3",
        "agent-2": "32x32:relu@2e-3",
        "agent-3": "16x16x32:tanh@4e-3",
        "agent-4": "8x8x8:relu@5e-4",
        "agent-5": "32x32x32:tanh@3e-3",
        "agent-6": "8x8:relu@7e-4",
        "agent-7": "64x64:tanh@1e-3",
        "agent-8": "16x16:relu@5e-4",
        "agent-9": "16x32x16:tanh@5e-4",
        "agent-10": "32:relu@8e-4",
    }),
    # continuous cart-pole, agents 1/2/6/10 of the continuous lineup
    "pendulum-4": ("cartpole-continuous", {
        "agent-1": "16x32:tanh@1e-4",
        "agent-2": "32x32:relu@1e-4",
        "agent-6": "64x64:tanh@8e-5",
        "agent-10": "32x128:relu@5e-5",
    }),
}

PRESET_NAMES = tuple(_PRESETS)
PRESET_ENVS = {name: env for name, (env, _) in _PRESETS.items()}


def parse_agent(entry: str, agent_id: str) -> AgentConfig:
    """One lineup entry, such as '16x16:relu,tanh@2e-3', as agent `agent_id`."""
    where = f"agents.spec entry {entry.strip()!r}"
    try:
        arch, lr_text = entry.rsplit("@", 1)
        widths_text, acts_text = arch.split(":")
        widths = [ascii_number(w, int) for w in widths_text.strip().split("x")]
        acts = [a.strip() for a in acts_text.split(",")]
        lr = ascii_number(lr_text, float)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc
    if len(acts) == 1:
        acts = acts * len(widths)
    if len(acts) != len(widths):
        raise ConfigurationError(f"{where}: {len(widths)} widths but {len(acts)} activations")
    for width, act in zip(widths, acts):
        if not 1 <= width <= MAX_WIDTH:
            raise ConfigurationError(f"{where}: width {width} is not in [1, {MAX_WIDTH}]")
        if act not in ACTIVATIONS:
            raise ConfigurationError(f"{where}: unknown activation {act!r}; "
                                     f"choose one of {', '.join(ACTIVATIONS)}")
    if not 0.0 < lr < math.inf:
        raise ConfigurationError(f"{where}: learning rate must be finite and > 0, not {lr!r}")
    return AgentConfig(agent_id=agent_id, hidden=list(zip(widths, acts)), learning_rate=lr)


def parse_agent_spec(spec: str) -> list[AgentConfig]:
    """An `agents.spec` lineup: '64:relu@1e-3; 16x16:relu,tanh@2e-3'."""
    entries = [part for part in spec.split(";") if part.strip()]
    if not entries:
        raise ConfigurationError("agents.spec is empty")
    return [parse_agent(entry, f"agent-{i + 1}") for i, entry in enumerate(entries)]


def preset_agents(name: str) -> list[AgentConfig]:
    if name not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
        )
    return [parse_agent(entry, agent_id) for agent_id, entry in _PRESETS[name][1].items()]
