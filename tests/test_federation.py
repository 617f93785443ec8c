"""Aggregation, the distillation barrier, and full protocol runs."""

import numpy as np
import pytest

from fedhpd.env import EnvSpec
from fedhpd.errors import ConfigurationError
from fedhpd.federation import (
    FedRunConfig,
    aggregate,
    distillation_round,
    fires,
    run,
)
from fedhpd.nn_core import adam_step
from fedhpd.policy import DistributionBatch
from fedhpd.public_states import generate_public_states
from fedhpd.reinforce import AgentConfig, Cohort, make_agents, raise_failures, train_round
from oracles import run_stats, train_independent

SPEC = EnvSpec("cartpole-discrete")


def cat_batch(rows):
    return DistributionBatch("categorical", probs=np.array(rows, dtype=np.float64))


def agent_config(i, lr=1e-3, hidden=((8, "tanh"),)):
    return AgentConfig(agent_id=f"a{i}", hidden=list(hidden), learning_rate=lr)


def small_states(seed=4, n=16):
    return generate_public_states(SPEC, warmup_rounds=0, rollouts=2, n=n, seed=seed)


# -------------------------------------------------------------------- aggregate


def test_aggregate_of_identical_batches_is_identity():
    batch = cat_batch([[0.25, 0.75], [0.6, 0.4]])
    for k in (1, 2, 4):
        merged = aggregate([batch] * k)
        assert np.array_equal(merged.probs, batch.probs)


def test_aggregate_symmetry():
    merged = aggregate([cat_batch([[1.0, 0.0]]), cat_batch([[0.0, 1.0]])])
    np.testing.assert_array_equal(merged.probs, [[0.5, 0.5]])


def test_aggregate_gaussian_moments():
    batches = [
        DistributionBatch("gaussian", mean=np.full((3, 1), m), var=np.full((3, 1), v))
        for m, v in [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    ]
    merged = aggregate(batches)
    np.testing.assert_allclose(merged.mean, 1.0)
    np.testing.assert_allclose(merged.var, 2.0)


def test_aggregate_takes_each_fields_own_mean():
    # nine one-state, one-dimension batches: numpy sums these pairwise in an
    # order a mean over one stacked [K, 2, 1, 1] array would not keep
    rng = np.random.default_rng(2)
    means = [rng.normal(size=(1, 1)) for _ in range(9)]
    variances = [rng.uniform(0.1, 3.0, (1, 1)) for _ in range(9)]
    merged = aggregate([DistributionBatch("gaussian", mean=m, var=v)
                        for m, v in zip(means, variances)])
    assert merged.kind == "gaussian"
    assert merged.mean.tobytes() == np.mean(means, axis=0).tobytes()
    assert merged.var.tobytes() == np.mean(variances, axis=0).tobytes()


def test_aggregate_rejects_mismatches():
    with pytest.raises(ConfigurationError):
        aggregate([])
    with pytest.raises(ConfigurationError):
        aggregate([cat_batch([[0.5, 0.5]]), cat_batch([[0.2, 0.3, 0.5]])])


def test_aggregate_rows_stay_on_simplex():
    rng = np.random.default_rng(3)
    batches = []
    for _ in range(5):
        raw = rng.random((10, 3))
        batches.append(cat_batch(raw / raw.sum(axis=1, keepdims=True)))
    merged = aggregate(batches)
    assert np.max(np.abs(merged.probs.sum(axis=1) - 1.0)) < 1e-9


# ----------------------------------------------------------- distillation round


def test_single_agent_distillation_is_exact_fixed_point():
    states = small_states()
    agents = make_agents([agent_config(0)], SPEC, seed=21)
    cohort = Cohort(agents)
    for _ in range(3):  # warm the Adam moments so the guard actually matters
        raise_failures(train_round([cohort], SPEC, 1, 0.99, False)[0])
    before = agents[0].policy.get_params()
    adam_before = (agents[0].adam.m.copy(), agents[0].adam.v.copy(),
                   agents[0].adam.step_count.copy())
    record = distillation_round(agents, states)
    assert record.kl_losses == [0.0]
    assert record.kl_grad_norms == [0.0]
    assert np.array_equal(agents[0].policy.get_params(), before)
    assert np.array_equal(agents[0].adam.m, adam_before[0])
    assert agents[0].adam.step_count == adam_before[2]


@pytest.mark.parametrize("k", [2, 4])
def test_identical_agents_distillation_is_exact_fixed_point(k):
    states = small_states()
    # same config and same seed stream for every agent -> identical parameters
    agents = [
        make_agents([agent_config(0)], SPEC, seed=33)[0] for _ in range(k)
    ]
    cohort = Cohort(agents)
    for _ in range(2):
        raise_failures(train_round([cohort], SPEC, 1, 0.99, False)[0])
    before = [a.policy.get_params() for a in agents]
    record = distillation_round(agents, states)
    assert record.kl_losses == [0.0] * k
    for agent, prev in zip(agents, before):
        assert np.array_equal(agent.policy.get_params(), prev)


def test_divergent_agents_kl_decreases_after_one_step():
    states = small_states(seed=8, n=12)
    configs = [agent_config(0, lr=1e-3), agent_config(1, lr=1e-3, hidden=((6, "tanh"),))]
    agents = make_agents(configs, SPEC, seed=55)
    batches = [a.policy.extract_batch(a.policy.net.forward(states.states)) for a in agents]
    consensus = aggregate(batches)
    before = sum(a.policy.kl_batch_loss(consensus, a.policy.net.forward(states.states))[0]
                 for a in agents)
    assert before > 0.0
    distillation_round(agents, states)
    after = sum(a.policy.kl_batch_loss(consensus, a.policy.net.forward(states.states))[0]
                for a in agents)
    assert after < before


def test_extraction_happens_before_any_digestion():
    states = small_states(seed=9, n=8)
    configs = [agent_config(i, lr=5e-2) for i in range(3)]
    agents = make_agents(configs, SPEC, seed=66)
    pre_params = [a.policy.get_params() for a in agents]
    record = distillation_round(agents, states)
    # recompute every upload from the pre-round parameter snapshots: the
    # consensus must be the aggregate of those, or some digestion leaked in
    replicas = make_agents(configs, SPEC, seed=66)
    for replica, params in zip(replicas, pre_params):
        replica.policy.set_params(params)
    expected = aggregate([r.policy.extract_batch(r.policy.net.forward(states.states))
                          for r in replicas])
    assert np.array_equal(DistributionBatch.from_bytes(record.broadcast).probs, expected.probs)
    # digestion did move parameters (the agents genuinely disagreed)
    assert any(
        not np.array_equal(a.policy.get_params(), p) for a, p in zip(agents, pre_params)
    )


@pytest.mark.parametrize("env_kind", ["cartpole-discrete", "cartpole-continuous"])
def test_digestion_equals_a_fresh_kl_step_per_agent(env_kind):
    # distillation_round digests through the forward pass its extraction ran;
    # each agent must end exactly where its own kl_batch_loss (on a fresh
    # forward pass) and one Adam step take a replica
    spec = EnvSpec(env_kind)
    states = generate_public_states(spec, warmup_rounds=0, rollouts=2, n=16, seed=12)
    configs = [agent_config(i, lr=5e-2, hidden=hidden)
               for i, hidden in enumerate([((8, "tanh"),), ((6, "relu"), (5, "tanh"))])]
    agents = make_agents(configs, spec, seed=88)
    replicas = make_agents(configs, spec, seed=88)
    record = distillation_round(agents, states)
    consensus = DistributionBatch.from_bytes(record.broadcast)
    for agent, replica, loss in zip(agents, replicas, record.kl_losses):
        forward = replica.policy.net.forward(states.states)
        want_loss, grad = replica.policy.kl_batch_loss(consensus, forward)
        params = replica.policy.get_params()
        adam_step(params, grad, replica.adam, replica.config.learning_rate)
        assert loss == want_loss
        replica.policy.set_params(params)
        assert np.array_equal(agent.policy.get_params(), replica.policy.get_params())
        assert np.array_equal(agent.adam.m, replica.adam.m)


def test_distillation_byte_volume_matches_wire_format():
    states = small_states(seed=10, n=16)
    agents = make_agents([agent_config(i) for i in range(3)], SPEC, seed=77)
    record = distillation_round(agents, states)
    payload = 9 + 16 * 2 * 8  # header + probs rows
    assert record.bytes_communicated == (3 + 1) * payload


# ------------------------------------------------------------------ run schedule


def test_distillation_round_schedule():
    assert [i for i in range(10) if fires(i, 5)] == [4, 9]
    assert [i for i in range(10) if fires(i, 3)] == [2, 5, 8]
    assert [i for i in range(10) if fires(i, None)] == []
    assert [i for i in range(5) if fires(i, 11)] == []


def run_config(rounds=6, k=2):
    return FedRunConfig(spec=SPEC, rounds=rounds,
                        agent_configs=[agent_config(i) for i in range(k)])


def test_interval_beyond_rounds_matches_nofed_bitwise():
    states = small_states(seed=11)
    a, = run(run_config(), [(99, 42)], states, trace_params=True)
    b, = run(run_config(), [(None, 42)], None, trace_params=True)
    assert a.consensus_records == {} and b.consensus_records == {}
    for pa, pb in zip(a.param_traces, b.param_traces):
        for x, y in zip(pa, pb):
            assert np.array_equal(x, y)


def test_nofed_run_matches_standalone_trainer_bitwise():
    config = run_config(rounds=5)
    fed, = run(config, [(None, 13)], None, trace_params=True)
    agents = make_agents(config.agent_configs, SPEC, seed=13)
    alone = train_independent(agents, config, trace_params=True)
    for pa, pb in zip(fed.param_traces, alone["param_traces"]):
        for x, y in zip(pa, pb):
            assert np.array_equal(x, y)
    assert run_stats(fed) == alone["stats"]


def test_run_emits_consensus_on_schedule_and_counts_bytes():
    states = small_states(seed=12)
    result, = run(run_config(rounds=7), [(3, 42)], states, keep_broadcasts=True)
    assert list(result.consensus_records) == [2, 5]
    assert all(r.bytes_communicated > 0 for r in result.consensus_records.values())
    assert not np.isnan(result.grad_norm).any() and result.grad_norm.shape == (7, 2)
    for record in result.consensus_records.values():
        probs = DistributionBatch.from_bytes(record.broadcast).probs
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
    quiet, = run(run_config(rounds=7), [(3, 42)], states)
    assert [r.broadcast for r in quiet.consensus_records.values()] == [None, None]


def test_gaussian_run_consensus_variances_positive():
    spec = EnvSpec("cartpole-continuous")
    states = generate_public_states(spec, warmup_rounds=0, rollouts=2, n=8, seed=14)
    config = FedRunConfig(spec=spec, rounds=4,
                          agent_configs=[agent_config(i) for i in range(2)])
    result, = run(config, [(2, 15)], states, keep_broadcasts=True)
    assert result.consensus_records
    for record in result.consensus_records.values():
        assert np.all(DistributionBatch.from_bytes(record.broadcast).var > 0.0)


def test_run_config_validation():
    with pytest.raises(ConfigurationError, match="interval"):
        run(run_config(), [(None, 1), (0, 2)], small_states(seed=11))
    with pytest.raises(ConfigurationError, match="public state set"):
        run(run_config(), [(2, 42)], states=None)


@pytest.mark.parametrize("target", ["fedhpd.env.step", "fedhpd.federation.distillation_round"])
def test_running_out_of_memory_is_raised_not_recorded_against_a_cell(monkeypatch, target):
    states = small_states(seed=11)

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(target, exhausted)
    with pytest.raises(MemoryError):
        run(run_config(rounds=2), [(None, 1), (1, 2)], states)
