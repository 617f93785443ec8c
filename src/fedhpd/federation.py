"""The federated distillation orchestrator.

Every round all agents train locally; on rounds i with (i+1) % d == 0 a
collaborative phase runs in three barrier-separated stages:

1. extraction - every agent evaluates its policy on the shared public state
   set and serializes the resulting distribution batch (the upload);
2. aggregation - the server averages the batches elementwise into the
   consensus and serializes it once (the broadcast);
3. digestion - every agent takes one gradient step on the KL divergence
   from its own distribution to the consensus, at its own learning rate,
   through the same Adam state its local training uses.

All extraction happens before any digestion, so every uploaded batch is a
function of pre-digestion parameters. Communication is simulated through the
actual wire format so byte volumes are real, not estimated.

Setting the interval to None disables the collaborative phase entirely and
reproduces independent training bit for bit.

Every agent's head follows the environment's action space, so all uploads of
a run share one batch kind. The server takes the plain elementwise mean, and
each agent's final snapshot is its own head's `snapshot()`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .env import EnvSpec, PublicStateSet
from .errors import ConfigurationError
from .nn_core import adam_step
from .policy import DistributionBatch
from .reinforce import Agent, AgentConfig, RoundStats, make_agents


@dataclass
class FedRunConfig:
    """One training run: K agents, T rounds, interval d (None = no federation)."""

    env_kind: str
    rounds: int
    interval: int | None
    agent_configs: list[AgentConfig]
    seed: int
    max_steps: int = 500

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        if self.interval is not None and self.interval < 1:
            raise ConfigurationError("distillation interval must be >= 1 or None")
        if not self.agent_configs:
            raise ConfigurationError("a run needs at least one agent")

    @property
    def spec(self) -> EnvSpec:
        return EnvSpec(self.env_kind, self.max_steps)


@dataclass
class ConsensusRecord:
    round_index: int
    consensus: DistributionBatch
    kl_losses: list[float]
    kl_grad_norms: list[float]
    bytes_communicated: int


@dataclass
class RunResult:
    round_stats: list[list[RoundStats]]  # [round][agent]
    consensus_records: list[ConsensusRecord]
    bytes_per_round: list[int]
    param_traces: list[list[np.ndarray]] = field(default_factory=list)
    final_snapshots: list[bytes] = field(default_factory=list)  # per agent


def aggregate(batches: list[DistributionBatch]) -> DistributionBatch:
    """Elementwise mean of distribution batches.

    Categorical rows stay on the simplex; Gaussian batches are combined by
    averaging means and variances separately (a single moment-matched
    Gaussian per state, not a mixture).
    """
    if not batches:
        raise ConfigurationError("aggregate needs at least one batch")
    kind = batches[0].kind
    shape = (batches[0].n_states, batches[0].dim)
    for b in batches:
        if b.kind != kind or (b.n_states, b.dim) != shape:
            raise ConfigurationError("aggregate: mismatched batch kinds or shapes")
    if kind == "categorical":
        return DistributionBatch("categorical",
                                 probs=np.mean([b.probs for b in batches], axis=0))
    return DistributionBatch(
        "gaussian",
        mean=np.mean([b.mean for b in batches], axis=0),
        var=np.mean([b.var for b in batches], axis=0),
    )


def distillation_round(agents: list[Agent], states: PublicStateSet,
                       round_index: int = 0) -> ConsensusRecord:
    """One extract / aggregate / digest cycle over all agents."""
    uploads = [agent.policy.extract_batch(states.states).to_bytes() for agent in agents]
    received = [DistributionBatch.from_bytes(blob) for blob in uploads]
    consensus = aggregate(received)
    broadcast = consensus.to_bytes()
    consensus = DistributionBatch.from_bytes(broadcast)
    total_bytes = sum(len(blob) for blob in uploads) + len(broadcast)

    kl_losses = []
    kl_grad_norms = []
    for agent in agents:
        loss, grad = agent.policy.kl_batch_loss(states.states, consensus)
        kl_losses.append(loss)
        kl_grad_norms.append(float(np.linalg.norm(grad)))
        # an exactly-zero KL gradient is the self-consensus fixed point;
        # feeding it to Adam would still move parameters via stale momentum
        if np.any(grad != 0.0):
            params, agent.adam = adam_step(
                agent.policy.get_params(), grad, agent.adam, agent.config.learning_rate
            )
            agent.policy.set_params(params)
    return ConsensusRecord(round_index, consensus, kl_losses, kl_grad_norms, total_bytes)


def distillation_rounds(rounds: int, interval: int | None) -> list[int]:
    """The exact set of round indices on which collaboration fires."""
    if interval is None:
        return []
    return [i for i in range(rounds) if (i + 1) % interval == 0]


def run(config: FedRunConfig, states: PublicStateSet | None,
        trace_params: bool = False) -> RunResult:
    """Execute the full protocol for one seed."""
    if config.interval is not None and states is None:
        raise ConfigurationError("federated runs need a public state set")
    agents = make_agents(config.agent_configs, config.spec, config.seed)
    fire = set(distillation_rounds(config.rounds, config.interval))
    result = RunResult(round_stats=[], consensus_records=[], bytes_per_round=[])
    for i in range(config.rounds):
        result.round_stats.append([agent.local_round() for agent in agents])
        if i in fire:
            record = distillation_round(agents, states, i)
            result.consensus_records.append(record)
            result.bytes_per_round.append(record.bytes_communicated)
        else:
            result.bytes_per_round.append(0)
        if trace_params:
            result.param_traces.append([agent.policy.get_params() for agent in agents])
    result.final_snapshots = [agent.policy.snapshot() for agent in agents]
    return result
