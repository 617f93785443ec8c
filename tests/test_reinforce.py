"""Local REINFORCE training: rollouts, gradient estimates, updates."""

import numpy as np
import pytest

from fedhpd.env import EnvSpec, THETA_THRESHOLD, X_THRESHOLD, reset, step
from fedhpd.errors import ConfigurationError
from fedhpd.nn_core import AdamState, LayerSpec, MlpNetwork
from fedhpd.policy import CategoricalPolicy, PolicyStack
from fedhpd.public_states import generate_public_states
from fedhpd.reinforce import (
    Agent,
    AgentConfig,
    Cohort,
    Episode,
    collect_trajectories,
    local_update,
    make_agents,
    policy_gradient,
    raise_failures,
    rollout,
    train_round,
)
from oracles import action_distribution

SPEC = EnvSpec("cartpole-discrete")


def gradient(policy, episodes, cfg):
    """`policy_gradient` for one policy."""
    return policy_gradient(PolicyStack([policy]), [episodes], cfg.gamma, cfg.reward_to_go)[0]


def stacked_adam(policy):
    """Zero Adam moments for a stack of one policy."""
    return AdamState(np.zeros((1, policy.num_params)), np.zeros((1, policy.num_params)), [0])


def agent_config(**overrides):
    base = dict(
        agent_id="a0",
        hidden=[(8, "tanh")],
        learning_rate=1e-3,
    )
    base.update(overrides)
    return AgentConfig(**base)


def test_collect_is_deterministic_given_seed():
    cfg = agent_config(episodes_per_round=3)
    a = Agent(cfg, SPEC, np.random.SeedSequence(5))
    b = Agent(cfg, SPEC, np.random.SeedSequence(5))
    (ta,), = collect_trajectories([Cohort([a])])
    (tb,), = collect_trajectories([Cohort([b])])
    assert len(ta) == len(tb) == 3
    for x, y in zip(ta, tb):
        assert np.array_equal(x.states, y.states)
        assert np.array_equal(x.actions, y.actions)


def test_trajectory_lengths_within_horizon():
    cfg = agent_config(episodes_per_round=5)
    agent = Agent(cfg, SPEC, np.random.SeedSequence(6))
    for episode in collect_trajectories([Cohort([agent])])[0][0]:
        assert 1 <= len(episode.rewards) <= SPEC.max_steps
        for t in range(len(episode.rewards) - 1):
            nxt, _, _ = step(SPEC, episode.states[t], int(episode.actions[t]))
            assert np.array_equal(nxt, episode.states[t + 1])


@pytest.mark.parametrize("head,env_kind", [
    ("categorical", "cartpole-discrete"),
    ("gaussian", "cartpole-continuous"),
])
def test_rollout_consumes_reset_then_one_sample_per_step(head, env_kind):
    spec = EnvSpec(env_kind)
    agent = Agent(agent_config(), spec, np.random.SeedSequence(7))
    assert agent.policy.kind == head
    rng = np.random.default_rng(8)
    replay = np.random.default_rng(8)
    episode, = rollout([PolicyStack([agent.policy])], spec, [rng])
    assert np.array_equal(reset(spec, replay), episode.states[0])
    for state, action in zip(episode.states, episode.actions):
        assert np.array_equal(agent.policy.sample_action(state, replay), action)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_near_deterministic_policy_matches_scripted_replay():
    # extreme logits force the same action every step; replaying that action
    # sequence through the bare dynamics must reproduce the trajectory
    net = MlpNetwork([LayerSpec(4, 2, "identity")])
    params = np.zeros(net.num_params)
    params[-2:] = [80.0, -80.0]  # bias dominates: always action 0
    net.set_params(params)
    policy = CategoricalPolicy(net)
    rng = np.random.default_rng(9)
    episode, = rollout([PolicyStack([policy])], SPEC, [rng])
    assert set(episode.actions.tolist()) == {0}
    state = episode.states[0]
    for t, reward in enumerate(episode.rewards):
        assert np.array_equal(state, episode.states[t])
        state, replay_reward, done = step(SPEC, state, 0)
        assert replay_reward == reward
    assert done or len(episode.rewards) == SPEC.max_steps


def synthetic_trajectory(rng, policy, length, rewards=None):
    states = rng.normal(size=4) * 0.05 + np.cumsum(rng.normal(size=(length, 4)) * 0.01, axis=0)
    actions = rng.integers(0, policy.action_count, size=length)
    return Episode(states, actions, np.ones(length) if rewards is None else np.array(rewards))


def test_zero_rewards_give_zero_gradient():
    rng = np.random.default_rng(10)
    cfg = agent_config()
    agent = Agent(cfg, SPEC, np.random.SeedSequence(10))
    traj = synthetic_trajectory(rng, agent.policy, 6, rewards=[0.0] * 6)
    grad = gradient(agent.policy, [traj], cfg)
    assert np.array_equal(grad, np.zeros(agent.policy.num_params))


def test_one_step_trajectory_is_scaled_log_prob_grad():
    rng = np.random.default_rng(11)
    cfg = agent_config()
    agent = Agent(cfg, SPEC, np.random.SeedSequence(11))
    traj = synthetic_trajectory(rng, agent.policy, 1, rewards=[2.5])
    grad = gradient(agent.policy, [traj], cfg)
    expected = 2.5 * agent.policy.log_prob_grad(traj.states[0], int(traj.actions[0]))
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("head,env_kind", [
    ("categorical", "cartpole-discrete"),
    ("gaussian", "cartpole-continuous"),
])
@pytest.mark.parametrize("reward_to_go", [False, True])
def test_gradient_matches_term_by_term_oracle(head, env_kind, reward_to_go):
    spec = EnvSpec(env_kind)
    cfg = agent_config(reward_to_go=reward_to_go, episodes_per_round=2)
    for case in range(20):
        agent = Agent(cfg, spec, np.random.SeedSequence([500, case]))
        assert agent.policy.kind == head
        (trajectories,), = collect_trajectories([Cohort([agent])])
        got = gradient(agent.policy, trajectories, cfg)

        # oracle: rebuild the estimate from per-step log-prob gradients
        expected = np.zeros(agent.policy.num_params)
        for traj in trajectories:
            rewards = traj.rewards
            discounts = cfg.gamma ** np.arange(len(rewards))
            if reward_to_go:
                weights = [
                    float(np.sum(discounts[t:] * rewards[t:])) for t in range(len(rewards))
                ]
            else:
                full = float(np.sum(discounts * rewards))
                weights = [full] * len(rewards)
            for w, state, action in zip(weights, traj.states, traj.actions):
                expected += w * agent.policy.log_prob_grad(state, action)
        expected /= len(trajectories)
        denom = max(np.max(np.abs(expected)), 1e-12)
        assert np.max(np.abs(got - expected)) / denom < 1e-10


def test_positive_rewards_align_gradient_with_log_likelihood():
    cfg = agent_config()
    for case in range(10):
        agent = Agent(cfg, SPEC, np.random.SeedSequence([600, case]))
        traj = collect_trajectories([Cohort([agent])])[0][0][0]
        grad = gradient(agent.policy, [traj], cfg)
        log_lik_dir = np.zeros(agent.policy.num_params)
        for state, action in zip(traj.states, traj.actions):
            log_lik_dir += agent.policy.log_prob_grad(state, action)
        assert float(grad @ log_lik_dir) > 0.0


def test_local_update_zero_gradient_keeps_params():
    agent = Agent(agent_config(), SPEC, np.random.SeedSequence(13))
    before = agent.policy.get_params()
    state = stacked_adam(agent.policy)
    failures = local_update(PolicyStack([agent.policy]), state,
                            np.zeros((1, agent.policy.num_params)), 1e-2)
    assert failures == [None]
    assert np.array_equal(agent.policy.get_params(), before)
    assert state.step_count == [1]


def test_local_update_is_deterministic():
    rng = np.random.default_rng(14)
    a = Agent(agent_config(), SPEC, np.random.SeedSequence(14))
    b = Agent(agent_config(), SPEC, np.random.SeedSequence(14))
    grad = rng.normal(size=a.policy.num_params)
    sa, sb = stacked_adam(a.policy), stacked_adam(b.policy)
    local_update(PolicyStack([a.policy]), sa, grad[None], 1e-3)
    local_update(PolicyStack([b.policy]), sb, grad[None], 1e-3)
    assert np.array_equal(a.policy.get_params(), b.policy.get_params())
    assert np.array_equal(sa.m, sb.m)


def bandit_round(policy, adam, arm_rewards, rng, lr):
    state = np.zeros(4)
    action = policy.sample_action(state, rng)
    grad = arm_rewards[action] * policy.log_prob_grad(state, action)
    local_update(PolicyStack([policy]), adam, grad[None], lr)
    return action


def test_bandit_reinforce_prefers_the_rewarding_arm():
    net = MlpNetwork([LayerSpec(4, 2, "identity")])
    policy = CategoricalPolicy(net)
    rng = np.random.default_rng(15)
    adam = stacked_adam(policy)
    rewards = [1.0, 0.0]
    for _ in range(500):
        bandit_round(policy, adam, rewards, rng, lr=0.05)
    probs = action_distribution(policy, np.zeros(4))
    assert probs[0] > 0.9


def test_bandit_gradient_estimate_is_unbiased():
    # analytic d J / d logit_j for J = sum_a pi_a r_a is pi_j (r_j - J);
    # with zero inputs only the bias entries (the logits) carry gradient
    net = MlpNetwork([LayerSpec(4, 2, "identity")])
    policy = CategoricalPolicy(net)
    rng = np.random.default_rng(16)
    rewards = np.array([1.0, 0.4])
    probs = action_distribution(policy, np.zeros(4))
    j = float(probs @ rewards)
    analytic = probs * (rewards - j)
    samples = np.zeros((10_000, 2))
    state = np.zeros(4)
    for i in range(samples.shape[0]):
        action = policy.sample_action(state, rng)
        samples[i] = rewards[action] * policy.log_prob_grad(state, action)[-2:]
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    assert np.all(np.abs(samples.mean(axis=0) - analytic) < 3.0 * se)


def test_round_stats_returns_nonnegative():
    cohort = Cohort(make_agents([agent_config(agent_id=f"a{i}") for i in range(2)], SPEC, seed=20))
    for _ in range(5):
        for episode_return, _, grad_norm in raise_failures(train_round([cohort])[0]):
            assert episode_return >= 1.0
            assert grad_norm >= 0.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        agent_config(learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        agent_config(episodes_per_round=0)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            agent_config(learning_rate=lr)


def test_generate_public_states_deterministic_and_bounded():
    a = generate_public_states(SPEC, warmup_rounds=3, rollouts=4, n=64, seed=77)
    b = generate_public_states(SPEC, warmup_rounds=3, rollouts=4, n=64, seed=77)
    assert np.array_equal(a.states, b.states)
    assert a.size == 64
    assert np.all(np.abs(a.states[:, 0]) <= X_THRESHOLD)
    assert np.all(np.abs(a.states[:, 2]) <= THETA_THRESHOLD)


def test_generate_public_states_zero_warmup_and_replacement():
    small = generate_public_states(SPEC, warmup_rounds=0, rollouts=1, n=2000, seed=3)
    assert small.size == 2000  # fewer visited states than n -> with replacement
    with pytest.raises(ConfigurationError):
        generate_public_states(SPEC, warmup_rounds=0, rollouts=1, n=0, seed=3)


def test_generate_public_states_differs_across_seeds():
    a = generate_public_states(SPEC, warmup_rounds=0, rollouts=3, n=32, seed=1)
    b = generate_public_states(SPEC, warmup_rounds=0, rollouts=3, n=32, seed=2)
    assert not np.array_equal(a.states, b.states)
