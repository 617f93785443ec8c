"""Variance identity, angle condition, lockstep trajectory samples, sample sizing,
smoothness probes."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from fedhpd import diagnostics
from fedhpd import env as envmod
from fedhpd.diagnostics import (
    SmoothnessProbe,
    _grad_log_prob_max,
    chebyshev_samples,
    gradient_variance,
    lipschitz_probe,
    sample_trajectory_gradients,
    variance_report_from_samples,
)
from fedhpd.env import EnvSpec, reset, step
from fedhpd.errors import ConfigurationError, NumericError
from fedhpd.nn_core import ACTIVATIONS, LayerSpec, MlpNetwork, glorot_init
from fedhpd.policy import CategoricalPolicy, DistributionBatch, GaussianPolicy, PolicyStack
from fedhpd.public_states import generate_public_states
from fedhpd.reinforce import (
    AgentConfig,
    Episode,
    build_policy,
    policy_gradient,
    raise_failures,
    rollout,
)
from oracles import assert_same_bits, grad_log_prob_max

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
            policy, SPEC, policy.kl_batch_loss(states, consensus)[1], n_samples=64,
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
        policy, SPEC, policy.kl_batch_loss(states, consensus)[1], n_samples=32,
        rng=np.random.default_rng(8), gamma=0.99, reward_to_go=False,
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
        samples.append(policy_gradient(PolicyStack([policy]), [[episode]], 0.99, False)[0])
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
    grad_kl = policy.kl_batch_loss(states, other.extract_batch(states))[1]
    report = gradient_variance(
        policy, SPEC, grad_kl, n_samples=32, rng=rng,
        gamma=0.99, reward_to_go=False,
    )
    bound = math.sqrt(report.var_j_trace * report.var_kl_trace)
    assert abs(report.cov_trace) <= bound + 1e-9


def test_report_rejects_degenerate_inputs():
    with pytest.raises(ConfigurationError):
        variance_report_from_samples(np.zeros((1, 3)), np.zeros(3))
    with pytest.raises(ConfigurationError):
        variance_report_from_samples(np.zeros((4, 3)), np.zeros(2))
    for n_samples in (-1, 0, 1):
        with pytest.raises(ConfigurationError, match="at least 2 samples"):
            sample_trajectory_gradients(
                make_categorical(1), SPEC, n_samples, np.random.default_rng(0), 0.99, False
            )


# ------------------------------------------------------- trajectory samples


def sample_policy(spec, seed):
    config = AgentConfig("a", [(16, "relu"), (8, "tanh")], 1e-3)
    return build_policy(config, spec, np.random.default_rng(seed))


def child_generator(seed, n_samples, j):
    """Sample j's generator: child j of `SeedSequence(seed)`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(n_samples)[j]))


def solo_sample(policy, spec, rng, gamma, reward_to_go):
    """One trajectory gradient with its episode alone: a stack of one,
    `rollout` and `policy_gradient`."""
    stack = PolicyStack([policy])
    episodes = raise_failures(rollout([stack], spec, [rng]))
    return policy_gradient(stack, [episodes], gamma, reward_to_go)[0]


@pytest.mark.parametrize("env_kind", ["cartpole-discrete", "cartpole-continuous"])
@pytest.mark.parametrize("reward_to_go", [False, True])
def test_lockstep_samples_equal_solo_episodes_on_child_streams(env_kind, reward_to_go):
    # 37 samples: one full lockstep block of 32 and a partly filled one of 5
    spec = EnvSpec(env_kind, max_steps=120)
    policy = sample_policy(spec, seed=4)
    params = policy.params
    values = policy.get_params()
    samples = sample_trajectory_gradients(policy, spec, 37, np.random.default_rng(31), 0.97,
                                          reward_to_go)
    assert samples.shape == (37, policy.num_params)
    for j in range(37):
        want = solo_sample(policy, spec, child_generator(31, 37, j), 0.97, reward_to_go)
        assert np.array_equal(samples[j], want), j
    assert policy.params is params and np.array_equal(params, values)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("env_kind,message", [
    ("cartpole-discrete", "non-finite policy logits"),
    ("cartpole-continuous", "non-finite policy mean"),
])
def test_non_finite_samples_raise_the_heads_error(env_kind, message):
    spec = EnvSpec(env_kind, max_steps=40)
    policy = sample_policy(spec, seed=5)
    policy.set_params(np.full(policy.num_params, 1e308))  # every output overflows
    with pytest.raises(NumericError, match=message):
        sample_trajectory_gradients(policy, spec, 37, np.random.default_rng(0), 0.99, False)


def test_the_first_failing_sample_raises_its_error(monkeypatch):
    # samples 3, 20 and 34 fail at their first step; sample 3's error is
    # raised, as when the samples ran one after another
    spec = EnvSpec("cartpole-discrete", max_steps=60)
    failing = {tuple(reset(spec, child_generator(9, 37, j)).tolist()): j for j in (34, 20, 3)}
    original = envmod.step

    def step(spec, state, action):
        if tuple(state) in failing:
            raise NumericError(f"injected failure of sample {failing[tuple(state)]}")
        return original(spec, state, action)

    monkeypatch.setattr(envmod, "step", step)
    with pytest.raises(NumericError, match="^injected failure of sample 3$"):
        sample_trajectory_gradients(sample_policy(spec, seed=6), spec, 37,
                                    np.random.default_rng(9), 0.99, False)


# ----------------------------------------------------------------- sample sizing


def test_chebyshev_sample_counts():
    assert chebyshev_samples(0.0, 0.1, 0.1) == 0
    assert chebyshev_samples(1.0, 0.1, 0.1) == 1000
    assert chebyshev_samples(2.0, 0.1, 0.1) == 2000
    for bad in ((1.0, 0.0, 0.1), (1.0, 0.1, 0.0), (-1.0, 0.1, 0.1)):
        with pytest.raises(ConfigurationError):
            chebyshev_samples(*bad)
    for variance in (math.inf, math.nan):
        with pytest.raises(NumericError, match="non-finite gradient variance"):
            chebyshev_samples(variance, 0.1, 0.1)


@pytest.mark.parametrize("epsilon,delta", [(1e-160, 0.05), (0.1, 1e-320), (1e-300, 0.05)])
def test_chebyshev_count_too_large_for_a_float_is_a_configuration_error(epsilon, delta):
    # the count overflows, or delta * epsilon^2 underflows to 0
    with pytest.raises(ConfigurationError, match="too large for a float"):
        chebyshev_samples(1.0, epsilon, delta)
    assert chebyshev_samples(0.0, epsilon, delta) == 0


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


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
@pytest.mark.parametrize("radius", [1e200, 1e308])
def test_lipschitz_probe_rejects_an_overflowing_displacement(kind, radius):
    # the displaced policy's outputs overflow; its KL gradient would be NaN,
    # which `max` skips, so the estimate would read 0 without this error
    states = sweep_states(6, seed=18)

    def factory(rng):
        return sweep_policy(kind, "relu", seed=int(rng.integers(1 << 30)))

    reference = factory(np.random.default_rng(19))
    consensus = reference.extract_batch(states)
    with pytest.raises(NumericError, match=reference.nonfinite):
        lipschitz_probe(factory, states, consensus, n_pairs=1, radius=radius,
                        rng=np.random.default_rng(21))


@pytest.mark.parametrize("kind,activation,radius,what", [
    ("categorical", "tanh", 2e154, "displacement norm (inf)"),  # its square overflows
    ("gaussian", "tanh", 5e154, "displacement norm (inf)"),
    ("gaussian", "relu", 1e80, "ratio (nan)"),  # which `max` would skip
    ("categorical", "relu", 1e80, "G (inf)"),  # g . g overflows
])
def test_lipschitz_probe_rejects_a_non_finite_bound(kind, activation, radius, what):
    # the displaced outputs stay finite, so no head error fires; unchecked,
    # the row would read L = 0 or G = inf
    states = sweep_states(6, seed=18)

    def factory(rng):
        return sweep_policy(kind, activation, seed=int(rng.integers(1 << 30)))

    consensus = factory(np.random.default_rng(19)).extract_batch(states)
    with pytest.raises(NumericError, match=re.escape(f"probe radius {radius!r}: ") + ".*" + re.escape(what)):
        lipschitz_probe(factory, states, consensus, n_pairs=1, radius=radius,
                        rng=np.random.default_rng(21))


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


# ------------------------------------------------------- stacked score sweep


def sweep_policy(kind, activation, seed):
    """Two hidden layers of `activation`; three actions or a 2-D Gaussian,
    so the rows' (state, action) order matters."""
    rng = np.random.default_rng(seed)
    out = 3 if kind == "categorical" else 2
    layers = [LayerSpec(4, 7, activation), LayerSpec(7, 5, activation),
              LayerSpec(5, out, "identity")]
    net = glorot_init(layers, rng)
    if kind == "categorical":
        return CategoricalPolicy(net)
    return GaussianPolicy(net, rng.normal(scale=0.5, size=out))


def sweep_states(n, seed):
    return np.random.default_rng(seed).normal(scale=0.8, size=(n, 4))


# 1 to 127 states fit in one chunk of the sweep (128 states), 129 spans two
# and 257 three
SWEEP_CASES = pytest.mark.parametrize("n_states", [1, 31, 65, 127, 129, 257])


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@SWEEP_CASES
def test_stacked_sweep_matches_the_per_state_oracle(kind, activation, n_states):
    policy = sweep_policy(kind, activation, seed=n_states)
    states = sweep_states(n_states, seed=n_states + 1)
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    g = _grad_log_prob_max(policy, states, rng)
    assert g > 0.0
    assert g == grad_log_prob_max(policy, states, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def fixed_gradient_rows(monkeypatch, policy, states, grads, screen=None):
    """Make the head's gradient rows `grads`, [(state, action) rows, P], and
    their screen `screen` (default: the rows' own squared norms). Returns the
    list of rows `log_prob_grad` is asked for, in the order asked."""
    count = grads.shape[0] // states.shape[0]
    if screen is None:
        with np.errstate(invalid="ignore"):
            screen = (grads * grads).sum(axis=1)
    asked = []

    def rows_of(rows, actions):
        index = [int(np.flatnonzero((states == row).all(axis=1))[0]) for row in rows]
        return count * np.array(index, dtype=int) + actions

    def score_square_norms(actions, forward):
        return screen[rows_of(forward[1][0][0][:, 0], actions)]

    def log_prob_grad(state, action):
        [row] = rows_of(state[None], action)
        asked.append(int(row))
        return grads[row]

    monkeypatch.setattr(policy, "score_square_norms", score_square_norms)
    monkeypatch.setattr(policy, "log_prob_grad", log_prob_grad)
    return asked


def test_stacked_sweep_skips_nan_norms_as_max_does(monkeypatch):
    # a NaN norm leaves G unchanged, as `max(best, norm)` does, in the first
    # row or later; a NaN screen reaches the confirm step, with the top row
    policy = sweep_policy("categorical", "tanh", seed=2)
    states = sweep_states(2, seed=3)
    rows = [[np.nan, 0.0, 1.0], [1.0, 2.0, 2.0], [np.nan] * 3, [0.0, 4.0, 0.0], [1.0] * 3]
    grads = np.zeros((6, policy.num_params))
    grads[:, :3] = rows + [[2.0, np.nan, 0.0]]
    asked = fixed_gradient_rows(monkeypatch, policy, states, grads)
    want = 0.0
    for grad in grads:
        want = max(want, float(np.linalg.norm(grad)))
    assert _grad_log_prob_max(policy, states, None) == want == 4.0
    assert asked == [0, 2, 3, 5]


@pytest.mark.parametrize("scale", [1e-220, 1e220, np.inf, np.nan])
def test_a_screen_top_out_of_range_confirms_every_row(monkeypatch, scale):
    # the screen ranks the rows wrongly, by a margin no rounding makes; a top
    # screened norm (the root of `scale * 6`) that is not finite or lies
    # outside [1e-100, 1e100] must not be trusted, so every row is confirmed
    # and G is the largest exact norm
    policy = sweep_policy("categorical", "tanh", seed=2)
    states = sweep_states(2, seed=3)
    grads = np.zeros((6, policy.num_params))
    grads[:, 0] = [1.0, 2.0, 5.0, 3.0, 4.0, 1.0]
    screen = scale * np.array([6.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    asked = fixed_gradient_rows(monkeypatch, policy, states, grads, screen)
    assert _grad_log_prob_max(policy, states, None) == 5.0
    assert asked == list(range(6))


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
def test_sweep_matches_the_oracle_at_parameter_scales_with_tied_states(kind, activation,
                                                                       scale):
    # 257 states over three chunks, each distinct state three times: a
    # categorical head's largest norm is tied across and within chunks
    policy = sweep_policy(kind, activation, seed=3)
    policy.set_params(policy.get_params() * scale)
    states = np.tile(sweep_states(86, seed=4), (3, 1))[:257]
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    g = _grad_log_prob_max(policy, states, rng)
    assert g > 0.0
    assert g == grad_log_prob_max(policy, states, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    if kind == "categorical":
        norms = [np.linalg.norm(policy.log_prob_grad(s, a)) for s in states for a in range(3)]
        assert norms.count(g) >= 2


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_sweep_where_the_screen_overflows_matches_the_oracle(activation):
    # a fifth of the states carry 1e155, so their ||x||^2 overflows, and the
    # layer-2 weights (the 7 x 5 after layer 1's 35 parameters) are scaled
    # by 1e-160. tanh saturates on those states,
    # so dz = 0 and their screens are inf * 0 = NaN, while their exact norms
    # are finite and one of them is G; relu's screens and norms there are inf
    policy = sweep_policy("categorical", activation, seed=0)
    params = policy.get_params()
    params[35:70] *= 1e-160
    policy.set_params(params)
    states = sweep_states(130, seed=7)
    states[::5, 0] = 1e155
    with np.errstate(over="ignore", invalid="ignore"):
        rows, actions, forward = policy.probe_pairs(states[:128], None)
        screen = policy.score_square_norms(actions, forward)
        g = _grad_log_prob_max(policy, states, None)
        assert g == grad_log_prob_max(policy, states, None)
    if activation == "tanh":
        assert np.isnan(screen.reshape(-1, 3)[::5]).all() and np.isfinite(g)
        assert g > np.sqrt(np.fmax.reduce(screen))
    else:
        assert np.isinf(screen.reshape(-1, 3)[::5]).all() and g == np.inf


def test_sweep_confirms_rows_the_screen_ranks_below_a_near_tie():
    # 128 states a few ulps apart: the screened and exact norms round apart,
    # and the screen can rank near-tied rows opposite to their exact norms
    # (it does for this net under numpy 2.4 with OpenBLAS), so the confirm
    # step must take rows just below the top as well
    rng = np.random.default_rng(16)
    layers = [LayerSpec(4, 64, "relu"), LayerSpec(64, 64, "relu"), LayerSpec(64, 3, "identity")]
    policy = CategoricalPolicy(glorot_init(layers, rng))
    states = rng.normal(size=4) * (1 + rng.integers(-40, 40, size=(128, 4)) * 2.0**-52)
    assert _grad_log_prob_max(policy, states, None) == grad_log_prob_max(policy, states, None)


def test_sweep_skips_the_rows_of_non_finite_states_as_the_oracle_does():
    # NaN and inf states give NaN screens and norms while the other rows'
    # top stays in range: those rows are confirmed and skipped
    policy = sweep_policy("categorical", "relu", seed=8)
    states = sweep_states(140, seed=9)
    states[[3, 50, 131], 0] = [np.nan, np.inf, -np.inf]
    with np.errstate(over="ignore", invalid="ignore"):
        g = _grad_log_prob_max(policy, states, None)
        assert g == grad_log_prob_max(policy, states, None) > 0.0


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_score_square_norms_are_the_squared_norms_of_score_grads(kind, activation):
    policy = sweep_policy(kind, activation, seed=10)
    rows, actions, forward = policy.probe_pairs(sweep_states(40, seed=11),
                                                np.random.default_rng(12))
    grads = np.array([policy.log_prob_grad(row, action) for row, action in zip(rows, actions)])
    squares = policy.score_square_norms(actions, forward)
    assert squares.shape == (rows.shape[0],)
    assert np.allclose(squares, (grads * grads).sum(axis=1), rtol=1e-13, atol=0.0)


def test_sweep_of_a_wide_network_stays_small():
    # 4-500-500-2 (254,002 parameters) over 512 states: every row's gradient
    # at once would be a [256, 254002] block per 128-state chunk. Scaled by
    # 1e60 the top screened norm is above 1e100, and by 1e-60 every row ties
    # at 1/sqrt(2), so each chunk confirms every row
    rng = np.random.default_rng(13)
    layers = [LayerSpec(4, 500, "relu"), LayerSpec(500, 500, "relu"),
              LayerSpec(500, 2, "identity")]
    policy = CategoricalPolicy(glorot_init(layers, rng))
    params = policy.get_params()
    states = sweep_states(512, seed=14)
    for scale in (1.0, 1e60, 1e-60):
        policy.set_params(params * scale)
        tracemalloc.start()
        try:
            g = _grad_log_prob_max(policy, states, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g > 0.0, scale
        assert peak < 32 * 2**20, (scale, peak)


def assert_forward_of_rows(policy, rows, forward):
    # `forward` is the rows' own single-row pass, cache included, so
    # `score_square_norms` can take it as its `forward` argument
    outputs, cache = policy.net.forward(rows[:, None, :])
    assert_same_bits(forward[0], outputs)
    assert len(forward[1]) == len(cache)
    for pair, want in zip(forward[1], cache):
        assert_same_bits(pair[0], want[0])
        assert_same_bits(pair[1], want[1])


@SWEEP_CASES
def test_probe_pairs_cover_every_action_or_two_sample_action_draws(n_states):
    states = sweep_states(n_states, seed=8)
    categorical = sweep_policy("categorical", "relu", seed=9)
    rows, actions, forward = categorical.probe_pairs(states, None)
    assert np.array_equal(rows, np.repeat(states, 3, axis=0))
    assert actions.tolist() == [0, 1, 2] * n_states
    assert_forward_of_rows(categorical, rows, forward)

    gaussian = sweep_policy("gaussian", "tanh", seed=10)
    rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
    rows, actions, forward = gaussian.probe_pairs(states, rng)
    expected = [gaussian.sample_action(s, oracle_rng) for s in states for _ in range(2)]
    assert np.array_equal(rows, np.repeat(states, 2, axis=0))
    assert np.array_equal(actions, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert_forward_of_rows(gaussian, rows, forward)


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_lipschitz_probe_is_unchanged_by_the_stacked_sweep(kind, monkeypatch):
    states = sweep_states(40, seed=12)

    def factory(rng):
        return sweep_policy(kind, "relu", seed=int(rng.integers(1 << 30)))

    consensus = factory(np.random.default_rng(13)).extract_batch(states)
    rng, oracle_rng = np.random.default_rng(14), np.random.default_rng(14)
    probe = lipschitz_probe(factory, states, consensus, n_pairs=3, radius=0.05, rng=rng)
    monkeypatch.setattr(diagnostics, "_grad_log_prob_max", grad_log_prob_max)
    oracle = lipschitz_probe(factory, states, consensus, n_pairs=3, radius=0.05,
                             rng=oracle_rng)
    assert probe == oracle
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
