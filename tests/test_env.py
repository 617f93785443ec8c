"""Cart-pole dynamics, returns, and the state-set file format."""

import numpy as np
import pytest

from fedhpd.env import (
    EnvSpec,
    PublicStateSet,
    THETA_THRESHOLD,
    discounted_return,
    load_state_set,
    reset,
    save_state_set,
    step,
)
from fedhpd.errors import ArtifactIOError, ConfigurationError
from fedhpd.nn_core import LayerSpec, glorot_init
from fedhpd.policy import CategoricalPolicy, PolicyStack
from fedhpd.reinforce import rollout
from oracles import is_terminal

DISCRETE = EnvSpec("cartpole-discrete")
CONTINUOUS = EnvSpec("cartpole-continuous")


def test_reset_is_reproducible_and_bounded():
    a = reset(DISCRETE, np.random.default_rng(123))
    b = reset(DISCRETE, np.random.default_rng(123))
    assert np.array_equal(a, b)
    draws = np.array([reset(DISCRETE, np.random.default_rng(i)) for i in range(200)])
    assert np.all(np.abs(draws) <= 0.05)


def test_reset_mean_is_centered():
    rng = np.random.default_rng(7)
    draws = np.array([reset(DISCRETE, rng) for _ in range(10_000)])
    assert np.all(np.abs(draws.mean(axis=0)) < 0.002)


def test_upright_equilibrium_is_stationary():
    state = np.zeros(4)
    next_state, reward, done = step(CONTINUOUS, state, np.array([0.0]))
    assert np.array_equal(next_state, np.zeros(4))
    assert reward == 1.0
    assert not done


def test_single_step_from_rest_matches_hand_computation():
    # independent re-derivation of one +10 N tick from the equations of motion
    force, g, m_c, m_p, l, dt = 10.0, 9.8, 1.0, 0.1, 0.5, 0.02
    total = m_c + m_p
    temp = force / total
    theta_acc = (g * 0.0 - 1.0 * temp) / (l * (4.0 / 3.0 - m_p / total))
    x_acc = temp - m_p * l * theta_acc / total
    x_dot = dt * x_acc
    x = dt * x_dot
    theta_dot = dt * theta_acc
    theta = dt * theta_dot

    next_state, reward, done = step(DISCRETE, np.zeros(4), 1)
    np.testing.assert_allclose(next_state, [x, x_dot, theta, theta_dot], rtol=1e-14)
    assert reward == 1.0 and not done


def test_step_is_deterministic():
    state = np.array([0.01, -0.3, 0.05, 0.2])
    a = step(DISCRETE, state, 0)[0]
    b = step(DISCRETE, state, 0)[0]
    assert np.array_equal(a, b)


def test_angle_threshold_terminates():
    state = np.array([0.0, 0.0, THETA_THRESHOLD * 0.999, 3.0])
    next_state, reward, done = step(DISCRETE, state, 1)
    assert done
    assert reward == 1.0  # incoming state was still alive
    # stepping again from a terminal state pays nothing
    _, reward2, _ = step(DISCRETE, next_state, 1)
    assert reward2 == 0.0


def test_continuous_force_is_clamped():
    big = step(CONTINUOUS, np.zeros(4), np.array([1000.0]))[0]
    capped = step(CONTINUOUS, np.zeros(4), np.array([10.0]))[0]
    assert np.array_equal(big, capped)


def test_discrete_rejects_bad_action():
    with pytest.raises(ConfigurationError):
        step(DISCRETE, np.zeros(4), 2)


def test_discounted_return_values():
    assert discounted_return(np.array([3.0, 7.0, 9.0]), 0.0) == 3.0
    assert discounted_return(np.array([1.0, 1.0, 1.0]), 0.5) == 1.75
    for length in (1, 17, 400):
        got = discounted_return(np.ones(length), 0.99)
        geometric = (1.0 - 0.99**length) / 0.01
        assert abs(got - geometric) < 1e-9


def test_discounted_return_equals_the_step_by_step_sum():
    rng = np.random.default_rng(17)
    for gamma in (0.5, 0.95, 0.99, 0.999):
        for length in range(1, 501):
            rewards = rng.uniform(-1.0, 2.0, size=length)
            total, weight = 0.0, 1.0
            for reward in rewards.tolist():
                total += weight * reward
                weight *= gamma
            assert discounted_return(rewards, gamma) == total


def test_trajectory_contiguity_guard():
    # every recorded state is the dynamics applied to the one before it, and
    # the episode stops exactly at termination or at the horizon
    policy = CategoricalPolicy(glorot_init(
        [LayerSpec(4, 8, "tanh"), LayerSpec(8, 2, "identity")], np.random.default_rng(1)))
    for spec in (DISCRETE, EnvSpec("cartpole-discrete", max_steps=7)):
        for seed in range(5):
            episode, = rollout([PolicyStack([policy])], spec, [np.random.default_rng(seed)])
            states, actions, rewards = episode.states, episode.actions, episode.rewards
            assert len(states) == len(actions) == len(rewards) >= 1
            for t in range(len(states)):
                nxt, reward, done = step(spec, states[t], int(actions[t]))
                assert reward == rewards[t]
                if t + 1 < len(states):
                    assert np.array_equal(nxt, states[t + 1]) and not done
                else:
                    assert done or len(states) == spec.max_steps


def test_return_under_gamma_one_equals_length():
    rewards = np.ones(23)
    assert discounted_return(rewards, 1.0 - 1e-300) == pytest.approx(23.0)
    assert float(rewards.sum()) == 23.0


def test_state_set_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    original = PublicStateSet(rng.normal(size=(50, 4)))
    path = tmp_path / "states.txt"
    save_state_set(original, path)
    loaded = load_state_set(path)
    assert np.array_equal(loaded.states, original.states)
    # a second write of the loaded set produces identical bytes
    path2 = tmp_path / "states2.txt"
    save_state_set(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_state_set_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n1,2,3,4\n")
    with pytest.raises(ArtifactIOError):
        load_state_set(path)


@pytest.mark.parametrize("row", ["1,2,x,4", "1,2,3", "1,,3,4"])
def test_state_set_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "bad.txt"
    path.write_text(f"# fedhpd-states v1 dim=4 n=2\n0,0,0,0\n{row}\n")
    with pytest.raises(ArtifactIOError, match="not a valid state set"):
        load_state_set(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_set_rejects_non_finite_rows(tmp_path, bad):
    rows = np.zeros((3, 4))
    rows[2, 1] = bad
    with pytest.raises(ConfigurationError, match="row 2 is not finite"):
        PublicStateSet(rows)
    path = tmp_path / "states.txt"
    path.write_text(f"# fedhpd-states v1 dim=4 n=2\n0,0,0,0\n0,{bad},0,0\n")
    with pytest.raises(ArtifactIOError, match="row 1 is not finite"):
        load_state_set(path)


def test_state_set_shape_validation():
    with pytest.raises(ConfigurationError):
        PublicStateSet(np.zeros((3, 5)))
    with pytest.raises(ConfigurationError):
        PublicStateSet(np.zeros((0, 4)))


def test_is_terminal_thresholds():
    assert not is_terminal(np.array([2.39, 0, 0, 0]))
    assert is_terminal(np.array([2.41, 0, 0, 0]))
    assert is_terminal(np.array([0, 0, THETA_THRESHOLD + 1e-6, 0]))
