"""Variance identity, angle condition, sample sizing, smoothness probes."""

import math

import numpy as np
import pytest

from fedhpd.diagnostics import (
    SmoothnessProbe,
    chebyshev_samples,
    gradient_variance,
    lipschitz_probe,
    sample_trajectory_gradients,
    variance_report_from_samples,
)
from fedhpd.env import EnvSpec, step
from fedhpd.errors import ConfigurationError
from fedhpd.nn_core import LayerSpec, MlpNetwork, glorot_init
from fedhpd.policy import CategoricalPolicy, DistributionBatch, GaussianPolicy
from fedhpd.public_states import generate_public_states
from fedhpd.reinforce import Episode, policy_gradient

SPEC = EnvSpec("cartpole-discrete")


def make_categorical(seed, hidden=(6,), actions=2):
    rng = np.random.default_rng(seed)
    layers = []
    prev = 4
    for width in hidden:
        layers.append(LayerSpec(prev, width, "tanh"))
        prev = width
    layers.append(LayerSpec(prev, actions, "identity"))
    return CategoricalPolicy(glorot_init(layers, rng))


# ------------------------------------------------------------- variance identity


def test_variance_identity_on_sampled_gradients():
    states = generate_public_states(SPEC, warmup_rounds=0, rollouts=2, n=12, seed=1).states
    for case in range(5):
        policy = make_categorical(seed=100 + case)
        other = make_categorical(seed=200 + case)
        consensus = other.extract_batch(states)
        report = gradient_variance(
            policy, SPEC, states, consensus, n_samples=64,
            rng=np.random.default_rng(300 + case), gamma=0.99, reward_to_go=False,
        )
        assert report.identity_residual < 1e-9
        assert report.var_j_trace >= 0.0
        rebuilt = report.var_j_mean * policy.num_params
        assert abs(rebuilt - report.var_j_trace) < 1e-12 * max(report.var_j_trace, 1.0)


def test_zero_kl_gradient_collapses_to_plain_variance():
    states = generate_public_states(SPEC, warmup_rounds=0, rollouts=2, n=10, seed=2).states
    policy = make_categorical(seed=7)
    consensus = policy.extract_batch(states)  # self-consensus: grad_kl == 0
    report = gradient_variance(
        policy, SPEC, states, consensus, n_samples=32, rng=np.random.default_rng(8),
        gamma=0.99, reward_to_go=False,
    )
    assert report.var_kl_trace == 0.0
    assert report.cov_trace == 0.0
    assert report.var_jprime_direct == report.var_j_trace
    assert report.var_jprime_reconstructed == report.var_j_trace
    assert report.grad_norm_ratio == 0.0 and not report.condition_holds


def test_deterministic_policy_and_start_state_give_zero_variance():
    # saturating logits make the action deterministic; fixing the start state
    # then makes every sampled trajectory, and hence every gradient, identical
    net = MlpNetwork([LayerSpec(4, 2, "identity")])
    params = np.zeros(net.num_params)
    params[-2:] = [60.0, -60.0]
    net.set_params(params)
    policy = CategoricalPolicy(net)
    s0 = np.array([0.01, 0.0, 0.02, 0.0])
    samples = []
    for _ in range(4):
        states, rewards = [], []
        state = s0
        for _ in range(SPEC.max_steps):
            states.append(state)
            state, reward, done = step(SPEC, state, 0)
            rewards.append(reward)
            if done:
                break
        episode = Episode(np.array(states), np.zeros(len(states), dtype=int), np.array(rewards))
        samples.append(policy_gradient(policy, [episode], 0.99, False))
    report = variance_report_from_samples(np.array(samples), np.zeros(policy.num_params))
    assert report.var_j_trace == 0.0
    assert report.var_jprime_direct == 0.0
    assert report.condition_vacuous is False or report.var_j_trace == 0.0


def test_vacuous_condition_flag_when_mean_gradient_is_zero():
    samples = np.array([[1.0, -1.0], [-1.0, 1.0]])  # mean exactly zero
    report = variance_report_from_samples(samples, np.array([0.5, 0.5]))
    assert report.condition_vacuous
    assert not report.condition_holds
    assert math.isinf(report.grad_norm_ratio)


def test_condition_equivalent_to_predicted_reduction():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, p = 8, 5
        samples = rng.normal(size=(n, p)) + rng.normal(scale=2.0, size=p)
        grad_kl = rng.normal(scale=rng.uniform(0.1, 3.0), size=p)
        report = variance_report_from_samples(samples, grad_kl)
        if report.condition_vacuous:
            continue
        predicted_drop = report.var_jprime_predicted < report.var_j_trace
        assert report.condition_holds == predicted_drop


def test_cov_bounded_by_cauchy_schwarz():
    rng = np.random.default_rng(12)
    states = generate_public_states(SPEC, warmup_rounds=0, rollouts=2, n=8, seed=5).states
    policy = make_categorical(seed=13)
    other = make_categorical(seed=14)
    report = gradient_variance(
        policy, SPEC, states, other.extract_batch(states), n_samples=32, rng=rng,
        gamma=0.99, reward_to_go=False,
    )
    bound = math.sqrt(report.var_j_trace * report.var_kl_trace)
    assert abs(report.cov_trace) <= bound + 1e-9


def test_report_rejects_degenerate_inputs():
    with pytest.raises(ConfigurationError):
        variance_report_from_samples(np.zeros((1, 3)), np.zeros(3))
    with pytest.raises(ConfigurationError):
        variance_report_from_samples(np.zeros((4, 3)), np.zeros(2))
    with pytest.raises(ConfigurationError):
        sample_trajectory_gradients(
            make_categorical(1), SPEC, 1, np.random.default_rng(0), 0.99, False
        )


# ----------------------------------------------------------------- sample sizing


def test_chebyshev_sample_counts():
    assert chebyshev_samples(0.0, 0.1, 0.1) == 0
    assert chebyshev_samples(1.0, 0.1, 0.1) == 1000
    assert chebyshev_samples(2.0, 0.1, 0.1) == 2000
    for bad in ((1.0, 0.0, 0.1), (1.0, 0.1, 0.0), (-1.0, 0.1, 0.1)):
        with pytest.raises(ConfigurationError):
            chebyshev_samples(*bad)


def test_chebyshev_monotone_in_variance():
    values = [chebyshev_samples(v, 0.2, 0.05) for v in np.linspace(0.0, 5.0, 40)]
    assert values == sorted(values)


# ------------------------------------------------------------- smoothness probe


def categorical_factory(hidden=(6,), actions=2):
    layers = [LayerSpec(4, hidden[0], "tanh")]
    prev = hidden[0]
    for width in hidden[1:]:
        layers.append(LayerSpec(prev, width, "tanh"))
        prev = width
    layers.append(LayerSpec(prev, actions, "identity"))

    def factory(rng):
        return CategoricalPolicy(glorot_init(layers, rng))

    return factory


def test_lipschitz_probe_guards():
    states = np.zeros((4, 4))
    consensus = DistributionBatch("categorical", probs=np.full((4, 2), 0.5))
    factory = categorical_factory()
    with pytest.raises(ConfigurationError):
        lipschitz_probe(factory, states, consensus, 0, 0.05, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        lipschitz_probe(factory, states, consensus, 5, 0.0, np.random.default_rng(0))


def test_lipschitz_ratio_below_softmax_bound():
    states = generate_public_states(SPEC, warmup_rounds=0, rollouts=3, n=32, seed=6).states
    reference = make_categorical(seed=21)
    consensus = reference.extract_batch(states)
    probe = lipschitz_probe(
        categorical_factory(), states, consensus,
        n_pairs=40, radius=0.05, rng=np.random.default_rng(22),
    )
    assert probe.lipschitz_estimate <= probe.theory_bound
    assert probe.grad_log_prob_bound > 0.0
    assert probe.hessian_bound_estimate >= 0.0
    assert probe.theory_bound == probe.grad_log_prob_bound * (2.0 + math.log(2.0))


def test_lipschitz_probe_gaussian_head_reports_without_asserting():
    spec = EnvSpec("cartpole-continuous")
    states = generate_public_states(spec, warmup_rounds=0, rollouts=2, n=8, seed=7).states
    rng = np.random.default_rng(23)
    ref = GaussianPolicy(glorot_init([LayerSpec(4, 5, "tanh"), LayerSpec(5, 1, "identity")], rng))
    consensus = ref.extract_batch(states)

    def factory(r):
        return GaussianPolicy(
            glorot_init([LayerSpec(4, 5, "tanh"), LayerSpec(5, 1, "identity")], r)
        )

    probe = lipschitz_probe(factory, states, consensus, n_pairs=5, radius=0.05, rng=rng)
    assert isinstance(probe, SmoothnessProbe)
    assert np.isfinite(probe.lipschitz_estimate)
    assert np.isfinite(probe.theory_bound)
