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

`run` trains the cells of one group together: one `FedRunConfig` (env,
rounds, lineup) and one (interval, seed) pair per cell. Setting a cell's
interval to None disables its collaborative phase entirely and reproduces
independent training bit for bit.

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
from .reinforce import Agent, AgentConfig, Cohort, make_agents, train_round


@dataclass
class FedRunConfig:
    """What the cells of a lockstep group share: the env, T rounds and the
    lineup of K agents."""

    env_kind: str
    rounds: int
    agent_configs: list[AgentConfig]
    max_steps: int = 500

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        if not self.agent_configs:
            raise ConfigurationError("a run needs at least one agent")

    @property
    def spec(self) -> EnvSpec:
        return EnvSpec(self.env_kind, self.max_steps)


@dataclass
class ConsensusRecord:
    broadcast: bytes | None  # the consensus on the wire; `run` keeps it only on request
    kl_losses: list[float]
    kl_grad_norms: list[float]
    bytes_communicated: int


@dataclass
class RunResult:
    """One cell's run. Per round i and agent k: the mean episode return, the
    mean discounted return and the policy-gradient norm of its local round."""

    agent_ids: list[str]
    episode_return: np.ndarray  # [rounds, K]
    discounted_return: np.ndarray  # [rounds, K]
    grad_norm: np.ndarray  # [rounds, K]
    consensus_records: dict[int, ConsensusRecord] = field(default_factory=dict)  # by round
    param_traces: list[list[np.ndarray]] = field(default_factory=list)
    final_snapshots: list[bytes] = field(default_factory=list)  # per agent

    def system_returns(self) -> np.ndarray:
        """Per round, the mean over agents of the mean episode return."""
        return self.episode_return.mean(axis=1)


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


def distillation_round(agents: list[Agent], states: PublicStateSet) -> ConsensusRecord:
    """One extract / aggregate / digest cycle over all agents. No agent's
    parameters change before every upload is made, so each agent's
    extraction and digestion share one forward pass on the state set."""
    passes = [agent.policy.net.forward(states.states) for agent in agents]
    uploads = [agent.policy.extract_batch(states.states, forward).to_bytes()
               for agent, forward in zip(agents, passes)]
    received = [DistributionBatch.from_bytes(blob) for blob in uploads]
    consensus = aggregate(received)
    broadcast = consensus.to_bytes()
    consensus = DistributionBatch.from_bytes(broadcast)
    total_bytes = sum(len(blob) for blob in uploads) + len(broadcast)

    kl_losses = []
    kl_grad_norms = []
    for agent in agents:
        # popped, so each forward pass is freed once its agent has digested
        loss, grad = agent.policy.kl_batch_loss(states.states, consensus, passes.pop(0))
        kl_losses.append(loss)
        kl_grad_norms.append(float(np.linalg.norm(grad)))
        # an exactly-zero KL gradient is the self-consensus fixed point;
        # feeding it to Adam would still move parameters via stale momentum
        if np.any(grad != 0.0):
            policy = agent.policy
            adam_step(policy.params, grad, agent.adam, agent.config.learning_rate)
            policy.set_params(policy.params)  # check and clamp what was written
    return ConsensusRecord(broadcast, kl_losses, kl_grad_norms, total_bytes)


def distillation_rounds(rounds: int, interval: int | None) -> list[int]:
    """The exact set of round indices on which collaboration fires."""
    if interval is None:
        return []
    return [i for i in range(rounds) if (i + 1) % interval == 0]


def run(config: FedRunConfig, cells: list[tuple[int | None, int]],
        states: PublicStateSet | None, trace_params: bool = False,
        keep_broadcasts: bool = False) -> list:
    """Execute the full protocol for the cells of one group, in lockstep.

    Each cell is an (interval, seed) pair, interval None for no federation;
    everything else is `config`'s. Each round every agent collects its
    episodes in one lockstep `train_round` over one `Cohort` per lineup slot
    (agent k of each running cell, restacked only when a cell fails); then
    each cell runs its own distillation if its interval fires. A cell whose
    code raises stops there: its slot holds its first failing agent's
    exception instead of a `RunResult`, and the others run on with exactly
    the numbers they would have had alone. Each consensus record keeps its
    broadcast bytes only with `keep_broadcasts`.
    """
    intervals = [interval for interval, _ in cells]
    if any(d is not None and d < 1 for d in intervals):
        raise ConfigurationError("distillation interval must be >= 1 or None")
    if states is None and any(d is not None for d in intervals):
        raise ConfigurationError("federated runs need a public state set")
    lineup = config.agent_configs
    agents = [make_agents(lineup, config.spec, seed) for _, seed in cells]
    fires = [set(distillation_rounds(config.rounds, d)) for d in intervals]
    shape = (config.rounds, len(lineup))
    results: list = [RunResult([a.agent_id for a in lineup],
                               *(np.full(shape, np.nan) for _ in range(3))) for _ in cells]

    def running() -> list[int]:
        return [c for c, result in enumerate(results) if isinstance(result, RunResult)]

    live: list[int] = []
    for i in range(config.rounds):
        now = running()
        if not now:
            break
        if now != live:  # round 0, or a cell failed: restack the cells left
            live = now
            cohorts = [Cohort([agents[c][k] for c in live]) for k in range(len(lineup))]
        for k, outcomes in enumerate(train_round(cohorts)):
            for c, stats in zip(live, outcomes):
                result = results[c]
                if not isinstance(result, RunResult):  # an earlier slot failed
                    continue
                if isinstance(stats, Exception):
                    results[c] = stats
                else:
                    (result.episode_return[i, k], result.discounted_return[i, k],
                     result.grad_norm[i, k]) = stats
        for c in running():
            result = results[c]
            if i in fires[c]:
                try:
                    record = distillation_round(agents[c], states)
                except Exception as exc:
                    results[c] = exc
                    continue
                if not keep_broadcasts:
                    record.broadcast = None
                result.consensus_records[i] = record
            if trace_params:
                result.param_traces.append([agent.policy.get_params() for agent in agents[c]])
    for c in running():
        results[c].final_snapshots = [agent.policy.snapshot() for agent in agents[c]]
    return results
