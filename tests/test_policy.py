"""Policy heads, KL divergences, and their analytic gradients."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhpd.env import EnvSpec
from fedhpd.errors import ArtifactIOError, ConfigurationError, NumericError
from fedhpd.nn_core import LayerSpec, MlpNetwork, glorot_init
from fedhpd.policy import (
    CategoricalPolicy,
    DistributionBatch,
    GaussianPolicy,
    _draw_categorical,
    load_policy,
    make_policy,
    softmax,
)
from oracles import (
    FixedUniform,
    action_distribution,
    draw_action,
    kl_categorical,
    kl_gaussian,
)


def make_categorical(hidden=(6,), actions=2, in_dim=4, seed=0, activation="tanh"):
    rng = np.random.default_rng(seed)
    layers = []
    prev = in_dim
    for width in hidden:
        layers.append(LayerSpec(prev, width, activation))
        prev = width
    layers.append(LayerSpec(prev, actions, "identity"))
    return CategoricalPolicy(glorot_init(layers, rng)), rng


def make_gaussian(hidden=(6,), a_dim=1, in_dim=4, seed=0, activation="tanh"):
    rng = np.random.default_rng(seed)
    layers = []
    prev = in_dim
    for width in hidden:
        layers.append(LayerSpec(prev, width, activation))
        prev = width
    layers.append(LayerSpec(prev, a_dim, "identity"))
    policy = GaussianPolicy(glorot_init(layers, rng))
    return policy, rng


def categorical_log_prob(policy, state, action):
    return math.log(action_distribution(policy, state)[action])


def gaussian_log_prob(policy, state, action):
    mu, var = action_distribution(policy, state)
    return float(
        np.sum(-((action - mu) ** 2) / (2 * var) - 0.5 * np.log(2 * math.pi * var))
    )


def fd_grad(f, params, h=1e-5):
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2 * h)
    return grad


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-8)


# ---------------------------------------------------------------- distributions


def test_zero_params_give_uniform_probs():
    policy, _ = make_categorical(actions=3)
    policy.set_params(np.zeros(policy.num_params))
    probs = action_distribution(policy, np.array([0.3, -1.0, 2.0, 0.0]))
    np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-15)


def test_softmax_of_known_logits():
    net = MlpNetwork([LayerSpec(1, 2, "identity")])
    net.set_params(np.array([0.0, 0.0, math.log(3.0), 0.0]))
    policy = CategoricalPolicy(net)
    probs = action_distribution(policy, np.array([0.0]))
    np.testing.assert_allclose(probs, [0.75, 0.25], atol=1e-15)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_gaussian_unit_variance_at_zero_log_std():
    policy, _ = make_gaussian(a_dim=2)
    _, var = action_distribution(policy, np.zeros(4))
    np.testing.assert_array_equal(var, [1.0, 1.0])


def test_log_std_clamped_on_set_params():
    policy, _ = make_gaussian()
    params = policy.get_params()
    params[-1] = -20.0
    policy.set_params(params)
    assert policy.log_std[0] == -5.0
    params[-1] = 10.0
    policy.set_params(params)
    assert policy.log_std[0] == 2.0


# --------------------------------------------------------------------- sampling


def test_extreme_logits_sample_deterministically():
    net = MlpNetwork([LayerSpec(1, 2, "identity")])
    net.set_params(np.array([0.0, 0.0, 60.0, -60.0]))
    policy = CategoricalPolicy(net)
    rng = np.random.default_rng(1)
    assert all(policy.sample_action(np.zeros(1), rng) == 0 for _ in range(200))


def logit_policy(logits, weight_scale=0.0, seed=0):
    """A one-layer categorical policy whose logits at state 0 are `logits`."""
    logits = np.asarray(logits, dtype=np.float64)
    net = MlpNetwork([LayerSpec(4, logits.size, "identity")])
    policy = CategoricalPolicy(net)
    weights = np.random.default_rng(seed).normal(scale=weight_scale, size=4 * logits.size)
    policy.params[:] = np.concatenate([weights, logits])  # unchecked: may be non-finite
    return policy


def assert_draws_match_reference(policy, states, seed):
    fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for i, state in enumerate(states):
        if i % 2:
            state = tuple(state.tolist())  # as `rollout` passes a state
        got, want = policy.sample_action(state, fast), draw_action(policy, state, reference)
        assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype
        assert fast.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("actions", range(2, 10))
def test_categorical_sample_action_matches_an_independent_reference(actions):
    rng = np.random.default_rng(actions)
    states = rng.normal(size=(40, 4))
    for scale in (1e-3, 1e-1, 1.0, 10.0, 1e2, 1e3):
        logits = rng.normal(scale=scale, size=actions)
        assert_draws_match_reference(logit_policy(logits, scale, seed=actions), states, actions)
    ties = [np.full(actions, 0.7), np.repeat([2.0, -1.0], [actions - 1, 1]),
            np.repeat([-3.0, 5.0], [1, actions - 1]), np.arange(actions) % 2 * 1e3]
    for logits in ties:
        assert_draws_match_reference(logit_policy(logits), states[:8], actions)
    assert_draws_match_reference(make_categorical((8, 5), actions, seed=actions)[0], states, 1)


@pytest.mark.parametrize("actions", range(2, 10))
def test_categorical_sample_action_probabilities_are_softmax_bits(actions):
    # a uniform at each cumulative edge of softmax's probabilities, and one
    # ulp below it, picks different actions: any ulp off in a probability
    # moves an edge and changes a draw
    rng = np.random.default_rng(100 + actions)
    for scale in (1e-3, 1.0, 1e3):
        logits = rng.normal(scale=scale, size=actions)
        policy = logit_policy(logits)
        probs = softmax(logits).tolist()
        edges, edge = [], 0.0
        for p in probs[:-1]:
            edge += p
            edges.append(edge)
        for u in [*edges, *np.nextafter(edges, -np.inf).tolist()]:
            want = _draw_categorical(probs, FixedUniform(u))
            assert policy.sample_action(np.zeros(4), FixedUniform(u)) == want


@pytest.mark.parametrize("logits", [[-np.inf, 1.0], [np.nan, 0.0], [np.inf, np.inf]])
def test_non_finite_logits_raise_before_any_draw(logits):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(NumericError, match="non-finite policy logits"):
        logit_policy(logits).sample_action(np.zeros(4), rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("a_dim", [1, 2])
def test_gaussian_sample_action_matches_an_independent_reference(a_dim):
    rng = np.random.default_rng(a_dim)
    states = rng.normal(size=(40, 4))
    policy, _ = make_gaussian(hidden=(8, 5), a_dim=a_dim, seed=a_dim)
    for log_std in (-5.0, -1.3, 0.0, 0.4, 2.0):
        params = policy.get_params()
        params[-a_dim:] = log_std + np.arange(a_dim) * 0.1
        policy.set_params(params)
        assert_draws_match_reference(policy, states, a_dim)


def test_gaussian_clamp_floor_concentrates_samples():
    policy, _ = make_gaussian()
    params = policy.get_params()
    params[-1] = -50.0  # clamps to -5, sigma = e^-5 ~ 6.7e-3
    policy.set_params(params)
    rng = np.random.default_rng(2)
    state = np.zeros(4)
    mu, _ = action_distribution(policy, state)
    draws = np.array([policy.sample_action(state, rng)[0] for _ in range(500)])
    assert np.max(np.abs(draws - mu[0])) < 6.7e-3 * 6.0


def test_sampling_frequencies_match_probabilities():
    net = MlpNetwork([LayerSpec(1, 2, "identity")])
    net.set_params(np.array([0.0, 0.0, math.log(3.0), 0.0]))
    policy = CategoricalPolicy(net)
    rng = np.random.default_rng(3)
    state = np.zeros(1)
    draws = np.array([policy.sample_action(state, rng) for _ in range(100_000)])
    freq0 = np.mean(draws == 0)
    assert abs(freq0 - 0.75) < 0.01


# ------------------------------------------------------------- log-prob gradient


def test_categorical_uniform_seed_symmetry():
    net = MlpNetwork([LayerSpec(1, 2, "identity")])  # zero params -> uniform
    policy = CategoricalPolicy(net)
    grad = policy.log_prob_grad(np.array([0.0]), 0)
    # with zero input only the bias entries carry the output seed
    np.testing.assert_allclose(grad[2:], [0.5, -0.5], atol=1e-15)


def test_gaussian_at_mean_gradients():
    policy, _ = make_gaussian(a_dim=2)
    state = np.array([0.1, -0.2, 0.3, 0.0])
    mu, _ = action_distribution(policy, state)
    grad = policy.log_prob_grad(state, mu)
    np.testing.assert_allclose(grad[: policy.net.num_params], 0.0, atol=1e-15)
    np.testing.assert_allclose(grad[policy.net.num_params :], [-1.0, -1.0], atol=1e-15)


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_log_prob_grad_matches_finite_differences(kind):
    worst = 0.0
    for case in range(30):
        if kind == "categorical":
            policy, rng = make_categorical(hidden=(5, 4), actions=3, seed=100 + case)
            state = rng.normal(size=4)
            action = int(rng.integers(0, 3))
            f = lambda p: (policy.set_params(p), categorical_log_prob(policy, state, action))[1]
        else:
            policy, rng = make_gaussian(hidden=(5,), a_dim=2, seed=200 + case)
            params = policy.get_params()
            params[-2:] = rng.uniform(-1.0, 0.5, size=2)
            policy.set_params(params)
            state = rng.normal(size=4)
            action = rng.normal(size=2)
            f = lambda p: (policy.set_params(p), gaussian_log_prob(policy, state, action))[1]
        params = policy.get_params()
        analytic = policy.log_prob_grad(state, action)
        numeric = fd_grad(f, params)
        policy.set_params(params)
        worst = max(worst, rel_err(analytic, numeric))
    assert worst < 1e-4


# ------------------------------------------------------------------ batch extract


def test_extract_batch_rows_match_single_state_calls():
    policy, rng = make_categorical(hidden=(7,), actions=3, seed=5)
    states = rng.normal(size=(6, 4))
    batch = policy.extract_batch(states)
    assert batch.n_states == 6
    for i in range(6):
        np.testing.assert_allclose(
            batch.probs[i], action_distribution(policy, states[i]), rtol=1e-13
        )
    again = policy.extract_batch(states)
    assert np.array_equal(batch.probs, again.probs)


def test_zero_param_batch_is_uniform():
    policy, rng = make_categorical(actions=4)
    policy.set_params(np.zeros(policy.num_params))
    batch = policy.extract_batch(rng.normal(size=(5, 4)))
    np.testing.assert_allclose(batch.probs, 0.25, atol=1e-15)


def test_gaussian_extract_batch_shape_and_variance():
    policy, rng = make_gaussian(a_dim=2, seed=9)
    params = policy.get_params()
    params[-2:] = [0.5, -0.5]
    policy.set_params(params)
    batch = policy.extract_batch(rng.normal(size=(4, 4)))
    assert batch.mean.shape == (4, 2)
    expected = np.tile(np.exp([1.0, -1.0]), (4, 1))
    np.testing.assert_allclose(batch.var, expected, rtol=1e-15)


# --------------------------------------------------------------------- KL values


def test_kl_categorical_known_values():
    assert kl_categorical([0.2, 0.8], [0.2, 0.8]) == 0.0
    # direct summation oracle
    direct = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    got = kl_categorical([0.5, 0.5], [0.9, 0.1])
    assert abs(got - direct) < 1e-15
    assert abs(got - math.log(5.0 / 3.0)) < 1e-12
    assert abs(kl_categorical([1.0, 0.0], [0.5, 0.5]) - math.log(2.0)) < 1e-12


def test_kl_gaussian_known_values():
    assert kl_gaussian(0.0, 1.0, 0.0, 1.0) == 0.0
    assert abs(kl_gaussian(0.0, 1.0, 1.0, 1.0) - 0.5) < 1e-12


def test_kl_gaussian_matches_monte_carlo():
    mu1, var1, mu2, var2 = 0.3, 0.8, -0.5, 1.7
    rng = np.random.default_rng(42)
    a = mu1 + math.sqrt(var1) * rng.standard_normal(1_000_000)
    log_p1 = -((a - mu1) ** 2) / (2 * var1) - 0.5 * np.log(2 * np.pi * var1)
    log_p2 = -((a - mu2) ** 2) / (2 * var2) - 0.5 * np.log(2 * np.pi * var2)
    mc = float(np.mean(log_p1 - log_p2))
    assert abs(kl_gaussian(mu1, var1, mu2, var2) - mc) < 5e-3


def test_kl_gaussian_rejects_bad_variance():
    with pytest.raises(ConfigurationError):
        kl_gaussian(0.0, -1.0, 0.0, 1.0)


def test_kl_categorical_rejects_length_mismatch():
    with pytest.raises(ConfigurationError):
        kl_categorical([0.5, 0.5], [1.0, 0.0, 0.0])


@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_kl_categorical_nonnegative(raw_p, raw_q):
    size = min(len(raw_p), len(raw_q))
    p = np.array(raw_p[:size]) / np.sum(raw_p[:size])
    q = np.array(raw_q[:size]) / np.sum(raw_q[:size])
    assert kl_categorical(p, q) >= 0.0


@given(
    st.floats(-5.0, 5.0), st.floats(0.05, 10.0),
    st.floats(-5.0, 5.0), st.floats(0.05, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_kl_gaussian_nonnegative(mu1, var1, mu2, var2):
    assert kl_gaussian(mu1, var1, mu2, var2) >= 0.0


# ----------------------------------------------------------------- KL batch loss


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_self_consensus_is_exact_fixed_point(kind):
    if kind == "categorical":
        policy, rng = make_categorical(hidden=(6,), actions=3, seed=31)
    else:
        policy, rng = make_gaussian(hidden=(6,), a_dim=2, seed=32)
        params = policy.get_params()
        params[-2:] = [0.2, -0.3]
        policy.set_params(params)
    states = rng.normal(size=(8, 4))
    consensus = policy.extract_batch(states)
    loss, grad = policy.kl_batch_loss(states, consensus)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(policy.num_params))


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_kl_batch_grad_matches_finite_differences(kind):
    worst = 0.0
    for case in range(25):
        if kind == "categorical":
            policy, rng = make_categorical(hidden=(5,), actions=3, seed=300 + case)
            other, _ = make_categorical(hidden=(4,), actions=3, seed=900 + case)
        else:
            policy, rng = make_gaussian(hidden=(5,), a_dim=2, seed=400 + case)
            params = policy.get_params()
            params[-2:] = rng.uniform(-1.0, 0.5, size=2)
            policy.set_params(params)
            other, _ = make_gaussian(hidden=(4,), a_dim=2, seed=800 + case)
        states = rng.normal(size=(5, 4))
        consensus = other.extract_batch(states)
        params = policy.get_params()
        _, analytic = policy.kl_batch_loss(states, consensus)

        def f(p):
            policy.set_params(p)
            return policy.kl_batch_loss(states, consensus)[0]

        numeric = fd_grad(f, params)
        policy.set_params(params)
        worst = max(worst, rel_err(analytic, numeric))
    assert worst < 1e-4


def test_kl_batch_loss_mean_reduction():
    policy, rng = make_categorical(hidden=(5,), actions=2, seed=55)
    other, _ = make_categorical(hidden=(5,), actions=2, seed=56)
    state = rng.normal(size=4)
    single = np.array([state])
    double = np.array([state, state])
    loss1, _ = policy.kl_batch_loss(single, other.extract_batch(single))
    loss2, _ = policy.kl_batch_loss(double, other.extract_batch(double))
    assert abs(loss1 - loss2) < 1e-15


def test_kl_batch_loss_rejects_kind_mismatch():
    cat, rng = make_categorical()
    gauss, _ = make_gaussian(a_dim=2)
    states = rng.normal(size=(3, 4))
    with pytest.raises(ConfigurationError):
        cat.kl_batch_loss(states, gauss.extract_batch(states))


def test_kl_batch_loss_nonnegative_on_random_pairs():
    for case in range(40):
        policy, rng = make_categorical(hidden=(4,), actions=3, seed=1200 + case)
        other, _ = make_categorical(hidden=(6,), actions=3, seed=1300 + case)
        states = rng.normal(size=(4, 4))
        loss, _ = policy.kl_batch_loss(states, other.extract_batch(states))
        assert loss >= 0.0
    for case in range(40):
        policy, rng = make_gaussian(hidden=(4,), a_dim=2, seed=1400 + case)
        other, _ = make_gaussian(hidden=(6,), a_dim=2, seed=1500 + case)
        for p in (policy, other):
            params = p.get_params()
            params[-2:] = rng.uniform(-1.0, 0.5, size=2)
            p.set_params(params)
        states = rng.normal(size=(4, 4))
        loss, _ = policy.kl_batch_loss(states, other.extract_batch(states))
        assert loss >= 0.0


# ------------------------------------------------------------- smoothness checks


def test_softmax_jacobian_identity():
    rng = np.random.default_rng(77)
    h = 1e-6
    for _ in range(100):
        logits = rng.normal(scale=2.0, size=4)
        probs = softmax(logits)
        for i in range(4):
            for j in range(4):
                up = logits.copy()
                up[j] += h
                down = logits.copy()
                down[j] -= h
                numeric = (softmax(up)[i] - softmax(down)[i]) / (2 * h)
                analytic = probs[i] * ((1.0 if i == j else 0.0) - probs[j])
                assert abs(numeric - analytic) < 1e-8


def test_gaussian_score_identities():
    policy, rng = make_gaussian(hidden=(5,), a_dim=1, seed=88)
    h = 1e-6
    for _ in range(20):
        state = rng.normal(size=4)
        action = rng.normal(size=1)
        mu, var = action_distribution(policy, state)
        # d log pi / d mu at fixed sigma
        analytic_mu = (action - mu) / var
        f = lambda m: float(
            -((action[0] - m) ** 2) / (2 * var[0]) - 0.5 * math.log(2 * math.pi * var[0])
        )
        numeric_mu = (f(mu[0] + h) - f(mu[0] - h)) / (2 * h)
        assert abs(analytic_mu[0] - numeric_mu) < 1e-6
        # d log pi / d log_std at fixed mu
        analytic_ls = (action - mu) ** 2 / var - 1.0
        g = lambda ls: float(
            -((action[0] - mu[0]) ** 2) / (2 * math.exp(2 * ls))
            - 0.5 * math.log(2 * math.pi * math.exp(2 * ls))
        )
        ls0 = policy.log_std[0]
        numeric_ls = (g(ls0 + h) - g(ls0 - h)) / (2 * h)
        assert abs(analytic_ls[0] - numeric_ls) < 1e-6


# ------------------------------------------------------------------- wire format


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_distribution_batch_wire_roundtrip(kind):
    rng = np.random.default_rng(99)
    if kind == "categorical":
        raw = rng.random((7, 3))
        batch = DistributionBatch("categorical", probs=raw / raw.sum(axis=1, keepdims=True))
    else:
        batch = DistributionBatch(
            "gaussian", mean=rng.normal(size=(7, 2)), var=rng.uniform(0.5, 2.0, (7, 2))
        )
    restored = DistributionBatch.from_bytes(batch.to_bytes())
    assert restored.kind == batch.kind
    if kind == "categorical":
        assert np.array_equal(restored.probs, batch.probs)
    else:
        assert np.array_equal(restored.mean, batch.mean)
        assert np.array_equal(restored.var, batch.var)


def test_distribution_batch_validation():
    with pytest.raises(ConfigurationError):
        DistributionBatch("categorical", probs=np.array([[0.7, 0.7]]))
    with pytest.raises(ConfigurationError):
        DistributionBatch("gaussian", mean=np.zeros((2, 1)), var=np.zeros((2, 1)))


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_every_truncated_batch_is_an_artifact_error(kind):
    if kind == "categorical":
        batch = DistributionBatch("categorical", probs=np.full((3, 2), 0.5))
    else:
        batch = DistributionBatch("gaussian", mean=np.zeros((3, 1)), var=np.ones((3, 1)))
    blob = batch.to_bytes()
    for end in range(len(blob)):
        with pytest.raises(ArtifactIOError):
            DistributionBatch.from_bytes(blob[:end])


def test_empty_batch_blob_is_an_artifact_error():
    # no states, or a Gaussian batch with no action dimensions
    for tag, n, dim in ((0, 0, 2), (1, 0, 1), (1, 3, 0)):
        with pytest.raises(ArtifactIOError):
            DistributionBatch.from_bytes(struct.pack("<BII", tag, n, dim))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distribution_batch_rejects_non_finite_rows(bad):
    probs = np.full((3, 2), 0.5)
    probs[1] = bad
    with pytest.raises(ConfigurationError, match="non-finite probability in batch row 1"):
        DistributionBatch("categorical", probs=probs)
    blob = DistributionBatch("gaussian", mean=np.zeros((3, 1)), var=np.ones((3, 1))).to_bytes()
    for offset, what in ((9 + 8 * 2, "mean"), (9 + 8 * 5, "variance")):
        poisoned = blob[:offset] + np.array([bad]).tobytes() + blob[offset + 8:]
        with pytest.raises(ArtifactIOError, match=f"non-finite {what} in batch row 2"):
            DistributionBatch.from_bytes(poisoned)


@pytest.mark.parametrize("env_kind,other", [
    ("cartpole-discrete", "cartpole-continuous"),
    ("cartpole-continuous", "cartpole-discrete"),
])
def test_load_policy_round_trips_each_head(tmp_path, env_kind, other):
    spec = EnvSpec(env_kind)
    rng = np.random.default_rng(41)
    layers = [LayerSpec(4, 5, "tanh"), LayerSpec(5, spec.action_count, "identity")]
    policy = make_policy(spec, glorot_init(layers, rng))
    assert isinstance(policy, CategoricalPolicy if spec.discrete else GaussianPolicy)
    policy.set_params(rng.normal(size=policy.num_params))  # log-std away from 0
    path = tmp_path / "policy.fhpd"
    path.write_bytes(policy.snapshot())
    restored = load_policy(path, spec)
    assert restored.kind == policy.kind
    assert np.array_equal(restored.get_params(), policy.get_params())
    with pytest.raises(ConfigurationError):
        load_policy(path, EnvSpec(other))
    with pytest.raises(ConfigurationError, match="output dim"):
        make_policy(EnvSpec(other), policy.net)


def test_load_policy_rejects_a_gaussian_snapshot_without_its_tail(tmp_path):
    spec = EnvSpec("cartpole-continuous")
    policy = make_policy(spec, glorot_init([LayerSpec(4, 1, "identity")],
                                           np.random.default_rng(43)))
    path = tmp_path / "cut.fhpd"
    path.write_bytes(policy.snapshot()[:-8])
    with pytest.raises(ConfigurationError, match="log-std tail has 0 entries"):
        load_policy(path, spec)
