"""The federated distillation orchestrator.

Every round all agents train locally; on the rounds where `fires(i, d)`,
(i+1) % d == 0, a collaborative phase runs in three barrier-separated stages:

1. extraction - every agent evaluates its policy on the shared public state
   set and serializes the resulting distribution batch (the upload);
2. aggregation - the server averages the batches elementwise into the
   consensus and serializes it once (the broadcast);
3. digestion - every agent takes one gradient step on the KL divergence
   from its own distribution to the consensus, at its own learning rate:
   one Adam step through the same Adam state its local training uses, so
   the REINFORCE moments carry into it (on cartpole-4 at d = 5 the KL
   term's median share of the step's norm was 1-3 x 10^-4).

All extraction happens before any digestion, so every uploaded batch is a
function of pre-digestion parameters. Communication is simulated through the
actual wire format so byte volumes are real, not estimated.

`run` trains the cells of one group together: one `FedRunConfig` (env,
rounds, lineup, round knobs) and one (interval, seed) pair per cell. Setting
a cell's interval to None disables its collaborative phase entirely and
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
from .reinforce import Agent, AgentConfig, Cohort, make_agents, train_round


@dataclass
class FedRunConfig:
    """What the cells of a lockstep group share: the env, T rounds, the
    lineup of K agents, and each local round's episodes per agent, discount
    and reward-to-go switch."""

    spec: EnvSpec
    rounds: int
    agent_configs: list[AgentConfig]
    episodes_per_round: int = 1
    gamma: float = 0.99
    reward_to_go: bool = False

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        if not self.agent_configs:
            raise ConfigurationError("a run needs at least one agent")
        if self.episodes_per_round < 1:
            raise ConfigurationError("episodes_per_round must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError("gamma must be in (0, 1)")


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
    """Elementwise mean of distribution batches, each field on its own.

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
    return DistributionBatch.from_fields(
        kind, [np.mean(matrices, axis=0) for matrices in zip(*(b.fields for b in batches))])


def distillation_round(agents: list[Agent], states: PublicStateSet) -> ConsensusRecord:
    """One extract / aggregate / digest cycle over all agents. No agent's
    parameters change before every upload is made, so each agent's
    extraction and digestion share one forward pass on the state set."""
    passes = [agent.policy.net.forward(states.states) for agent in agents]
    uploads = [agent.policy.extract_batch(forward).to_bytes()
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
        loss, grad = agent.policy.kl_batch_loss(consensus, passes.pop(0))
        kl_losses.append(loss)
        kl_grad_norms.append(float(np.linalg.norm(grad)))
        # an exactly-zero KL gradient is the self-consensus fixed point;
        # feeding it to Adam would still move parameters via stale momentum
        if np.any(grad != 0.0):
            policy = agent.policy
            adam_step(policy.params, grad, agent.adam, agent.config.learning_rate)
            policy.set_params(policy.params)  # check and clamp what was written
    return ConsensusRecord(broadcast, kl_losses, kl_grad_norms, total_bytes)


def fires(round_index: int, interval: int | None) -> bool:
    """Whether collaboration runs on this round: every `interval`-th, never
    without an interval."""
    return interval is not None and (round_index + 1) % interval == 0


@np.errstate(over="ignore", invalid="ignore")  # the finiteness checks name the fault
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
    the numbers they would have had alone. A `MemoryError` is raised, not
    recorded: it is the run's sizes at fault, not the cell. Each consensus
    record keeps its broadcast bytes only with `keep_broadcasts`.
    """
    intervals = [interval for interval, _ in cells]
    if any(d is not None and d < 1 for d in intervals):
        raise ConfigurationError("distillation interval must be >= 1 or None")
    if states is None and any(d is not None for d in intervals):
        raise ConfigurationError("federated runs need a public state set")
    lineup = config.agent_configs
    agents = [make_agents(lineup, config.spec, seed) for _, seed in cells]
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
        for k, outcomes in enumerate(train_round(cohorts, config.spec, config.episodes_per_round,
                                                 config.gamma, config.reward_to_go)):
            for c, stats in zip(live, outcomes):
                result = results[c]
                if not isinstance(result, RunResult):  # an earlier slot failed
                    continue
                if isinstance(stats, MemoryError):  # a resource fault, not the cell's
                    raise stats
                if isinstance(stats, Exception):
                    results[c] = stats
                else:
                    (result.episode_return[i, k], result.discounted_return[i, k],
                     result.grad_norm[i, k]) = stats
        for c in running():
            result = results[c]
            if fires(i, intervals[c]):
                try:
                    record = distillation_round(agents[c], states)
                except MemoryError:
                    raise
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
