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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .env import EnvSpec, PublicStateSet
from .errors import ConfigurationError
from .nn_core import adam_step, network_to_bytes
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
        heads = {cfg.head for cfg in self.agent_configs}
        if len(heads) > 1:
            raise ConfigurationError("all agents in a run must share one head kind")

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


def aggregate(batches: list[DistributionBatch],
              weights: np.ndarray | None = None) -> DistributionBatch:
    """Elementwise (weighted) mean of distribution batches.

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
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(batches),) or np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
            raise ConfigurationError("aggregate weights must be non-negative and sum to 1")

    def combine(mats):
        if weights is None:
            return np.mean(mats, axis=0)
        return np.tensordot(w, np.stack(mats), axes=1)

    if kind == "categorical":
        return DistributionBatch("categorical", probs=combine([b.probs for b in batches]))
    return DistributionBatch(
        "gaussian",
        mean=combine([b.mean for b in batches]),
        var=combine([b.var for b in batches]),
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
        result.round_stats.append([agent.local_round(i) for agent in agents])
        if i in fire:
            record = distillation_round(agents, states, i)
            result.consensus_records.append(record)
            result.bytes_per_round.append(record.bytes_communicated)
        else:
            result.bytes_per_round.append(0)
        if trace_params:
            result.param_traces.append([agent.policy.get_params() for agent in agents])
    for agent in agents:
        extras = agent.policy.log_std if agent.config.head == "gaussian" else None
        result.final_snapshots.append(network_to_bytes(agent.policy.net, extras))
    return result
