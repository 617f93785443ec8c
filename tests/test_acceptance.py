"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the measurement lines.
The desk-scale reward comparisons (criteria 7 and 8) are measured exactly as
stated; see the repository notes for the analysis of their margins.
"""

import math
import time

import numpy as np
import pytest

from fedhpd.diagnostics import (
    lipschitz_probe,
    sample_trajectory_gradients,
    variance_report_from_samples,
)
from fedhpd.env import EnvSpec
from fedhpd.experiment import load_experiment_config, train_experiment
from fedhpd.federation import FedRunConfig, distillation_round, distillation_rounds, run
from fedhpd.nn_core import LayerSpec, glorot_init
from fedhpd.policy import (
    CategoricalPolicy,
    GaussianPolicy,
    softmax,
)
from fedhpd.presets import preset_agents
from fedhpd.public_states import generate_public_states
from fedhpd.reinforce import Agent, Cohort, make_agents, raise_failures, train_round
from oracles import action_distribution, kl_categorical, kl_gaussian, train_independent

SEEDS = (20, 25, 30)


def report(name: str, passed: bool, detail: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


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


def pooled_std(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt((a.var(ddof=1) + b.var(ddof=1)) / 2.0))


def make_policy(kind, seed, hidden=(6,)):
    rng = np.random.default_rng(seed)
    layers = []
    prev = 4
    for width in hidden:
        layers.append(LayerSpec(prev, width, "tanh"))
        prev = width
    out = 2 if kind == "categorical" else 1
    layers.append(LayerSpec(prev, out, "identity"))
    net = glorot_init(layers, rng)
    if kind == "categorical":
        return CategoricalPolicy(net), rng
    policy = GaussianPolicy(net)
    params = policy.get_params()
    params[-1] = rng.uniform(-1.0, 0.5)
    policy.set_params(params)
    return policy, rng


def final_window_system_means(env_kind, preset, interval, states, rounds=600,
                              seeds=SEEDS, window=100):
    values = []
    config = FedRunConfig(env_kind=env_kind, rounds=rounds, agent_configs=preset_agents(preset))
    for result in raise_failures(run(config, [(interval, seed) for seed in seeds], states)):
        values.append(float(result.system_returns()[-window:].mean()))
    return np.array(values)


@pytest.fixture(scope="module")
def cartpole_states():
    return generate_public_states(
        EnvSpec("cartpole-discrete"), warmup_rounds=200, rollouts=20, n=512, seed=7
    )


@pytest.fixture(scope="module")
def grid_results(cartpole_states):
    start = time.perf_counter()
    out = {}
    for interval in (None, 5, 10, 20):
        out[interval] = final_window_system_means(
            "cartpole-discrete", "cartpole-4", interval, cartpole_states
        )
    return out, time.perf_counter() - start


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst_logprob = 0.0
    worst_kl = 0.0
    for kind in ("categorical", "gaussian"):
        for case in range(100):
            policy, rng = make_policy(kind, seed=10_000 + case)
            state = rng.normal(size=4)
            if kind == "categorical":
                action = int(rng.integers(0, 2))

                def logp(p):
                    policy.set_params(p)
                    return math.log(action_distribution(policy, state)[action])
            else:
                action = rng.normal(size=1)

                def logp(p):
                    policy.set_params(p)
                    mu, var = action_distribution(policy, state)
                    return float(np.sum(
                        -((action - mu) ** 2) / (2 * var)
                        - 0.5 * np.log(2 * math.pi * var)
                    ))

            params = policy.get_params()
            analytic = policy.log_prob_grad(state, action)
            numeric = fd_grad(logp, params)
            policy.set_params(params)
            worst_logprob = max(worst_logprob, rel_err(analytic, numeric))

        for case in range(100):
            policy, rng = make_policy(kind, seed=20_000 + case)
            other, _ = make_policy(kind, seed=30_000 + case)
            states = rng.normal(size=(4, 4))
            consensus = other.extract_batch(states)
            params = policy.get_params()
            _, analytic = policy.kl_batch_loss(states, consensus)

            def loss(p):
                policy.set_params(p)
                return policy.kl_batch_loss(states, consensus)[0]

            numeric = fd_grad(loss, params)
            policy.set_params(params)
            worst_kl = max(worst_kl, rel_err(analytic, numeric))
    elapsed = time.perf_counter() - start
    ok = worst_logprob < 1e-4 and worst_kl < 1e-4 and elapsed < 30.0
    assert report(
        "criterion 1 gradient correctness",
        ok,
        f"max rel err: log-prob {worst_logprob:.2e}, kl {worst_kl:.2e}, "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_kl_oracles():
    start = time.perf_counter()
    cat_err = abs(kl_categorical([0.5, 0.5], [0.9, 0.1]) - math.log(5.0 / 3.0))
    gauss_err = abs(kl_gaussian(0.0, 1.0, 1.0, 1.0) - 0.5)
    rng = np.random.default_rng(2024)
    a = rng.standard_normal(1_000_000)  # N(0,1) samples
    mc = float(np.mean(((a - 1.0) ** 2 - a**2) / 2.0))  # log p1 - log p2
    mc_err = abs(kl_gaussian(0.0, 1.0, 1.0, 1.0) - mc)
    elapsed = time.perf_counter() - start
    ok = cat_err < 1e-12 and gauss_err < 1e-12 and mc_err < 5e-3 and elapsed < 60.0
    assert report(
        "criterion 2 KL oracles",
        ok,
        f"categorical err {cat_err:.2e}, gaussian err {gauss_err:.2e}, "
        f"MC err {mc_err:.2e}, runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_softmax_jacobian_identity():
    rng = np.random.default_rng(3)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        logits = rng.normal(scale=2.0, size=5)
        probs = softmax(logits)
        for i in range(5):
            for j in range(5):
                up = logits.copy()
                up[j] += h
                down = logits.copy()
                down[j] -= h
                numeric = (softmax(up)[i] - softmax(down)[i]) / (2 * h)
                analytic = probs[i] * ((1.0 if i == j else 0.0) - probs[j])
                worst = max(worst, abs(numeric - analytic))
    ok = worst < 1e-8
    assert report("criterion 3 softmax jacobian", ok, f"max deviation {worst:.2e} (< 1e-8)")


def test_criterion_4_variance_identity():
    start = time.perf_counter()
    spec = EnvSpec("cartpole-discrete")
    worst = 0.0
    for case in range(20):
        policy, rng = make_policy("categorical", seed=40_000 + case)
        other, _ = make_policy("categorical", seed=50_000 + case)
        states = rng.normal(scale=0.5, size=(8, 4))
        consensus = other.extract_batch(states)
        samples = sample_trajectory_gradients(
            policy, spec, 256, np.random.default_rng(60_000 + case), 0.99, False
        )
        _, grad_kl = policy.kl_batch_loss(states, consensus)
        reportv = variance_report_from_samples(samples, grad_kl)
        worst = max(worst, reportv.identity_residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 300.0
    assert report(
        "criterion 4 variance identity",
        ok,
        f"max relative residual {worst:.2e} (< 1e-9) over 20x256 samples, "
        f"runtime {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_5_fixed_points(cartpole_states):
    states = cartpole_states
    spec = EnvSpec("cartpole-discrete")

    def run_fixed_point(agents, rounds=6, interval=2):
        losses = []
        unchanged = True
        fire = set(distillation_rounds(rounds, interval))
        cohorts = [Cohort([agent]) for agent in agents]  # each agent trains alone
        for i in range(rounds):
            for cohort in cohorts:
                raise_failures(train_round([cohort])[0])
            if i in fire:
                before = [a.policy.get_params() for a in agents]
                record = distillation_round(agents, states)
                losses.extend(record.kl_losses)
                unchanged = unchanged and all(
                    np.array_equal(a.policy.get_params(), p)
                    for a, p in zip(agents, before)
                )
        return losses, unchanged

    single = make_agents(preset_agents("cartpole-4")[:1], spec, seed=20)
    losses_1, unchanged_1 = run_fixed_point(single)

    base = preset_agents("cartpole-4")[0]
    identical = [
        Agent(base, spec, np.random.SeedSequence([21, 0])) for _ in range(4)
    ]
    losses_k, unchanged_k = run_fixed_point(identical)

    ok = (
        all(l == 0.0 for l in losses_1) and unchanged_1
        and all(l == 0.0 for l in losses_k) and unchanged_k
    )
    assert report(
        "criterion 5 fixed points",
        ok,
        f"single-agent losses {sorted(set(losses_1))}, identical-4 losses "
        f"{sorted(set(losses_k))}, parameters bit-unchanged: "
        f"{unchanged_1 and unchanged_k}",
    )


def test_criterion_6_scheduler_and_nofed_equivalence(cartpole_states):
    schedule_ok = (
        distillation_rounds(10, 5) == [4, 9]
        and distillation_rounds(12, 4) == [3, 7, 11]
        and distillation_rounds(6, None) == []
    )

    configs = preset_agents("cartpole-4")
    fed_config = FedRunConfig(env_kind="cartpole-discrete", rounds=12, agent_configs=configs)
    fed, = run(fed_config, [(None, 20)], None, trace_params=True)
    agents = make_agents(configs, EnvSpec("cartpole-discrete"), seed=20)
    alone = train_independent(agents, rounds=12, trace_params=True)
    equal = all(
        np.array_equal(x, y)
        for pa, pb in zip(fed.param_traces, alone["param_traces"])
        for x, y in zip(pa, pb)
    )

    never, = run(fed_config, [(99, 20)], cartpole_states, trace_params=True)
    equal_big = all(
        np.array_equal(x, y)
        for pa, pb in zip(never.param_traces, fed.param_traces)
        for x, y in zip(pa, pb)
    ) and never.consensus_records == {}

    ok = schedule_ok and equal and equal_big
    assert report(
        "criterion 6 scheduler and NoFed equivalence",
        ok,
        f"schedule {schedule_ok}, standalone trace match {equal}, "
        f"d>T trace match {equal_big}",
    )


def test_criterion_7_directional_reproduction(grid_results):
    results, elapsed = grid_results
    nofed, d5, d10, d20 = results[None], results[5], results[10], results[20]

    direction = d5.mean() > nofed.mean()
    margin = d5.mean() - nofed.mean()
    sigma = pooled_std(d5, nofed)
    margin_ok = margin > sigma
    trend_ok = (
        d5.mean() >= d10.mean() - pooled_std(d5, d10)
        and d10.mean() >= d20.mean() - pooled_std(d10, d20)
    )
    ok = direction and margin_ok and trend_ok and elapsed < 600.0
    assert report(
        "criterion 7 directional reproduction",
        ok,
        f"final-100 means NoFed {nofed.mean():.1f} d5 {d5.mean():.1f} "
        f"d10 {d10.mean():.1f} d20 {d20.mean():.1f}; direction {direction}, "
        f"margin {margin:.1f} vs pooled std {sigma:.1f} ({margin_ok}), "
        f"trend within 1 pooled std {trend_ok}, runtime {elapsed:.0f}s (< 10 min)",
    )


def test_criterion_8_gaussian_path_smoke():
    start = time.perf_counter()
    spec = EnvSpec("cartpole-continuous")
    states = generate_public_states(spec, warmup_rounds=200, rollouts=20, n=512, seed=7)
    nofed = final_window_system_means("cartpole-continuous", "pendulum-4", None, states)
    d10 = final_window_system_means("cartpole-continuous", "pendulum-4", 10, states)
    elapsed = time.perf_counter() - start
    ok = d10.mean() >= nofed.mean() and elapsed < 900.0
    assert report(
        "criterion 8 gaussian path smoke",
        ok,
        f"final-100 means d10 {d10.mean():.2f} vs NoFed {nofed.mean():.2f}, "
        f"runtime {elapsed:.0f}s (< 15 min)",
    )


def test_criterion_9_state_set_insensitivity():
    spec = EnvSpec("cartpole-discrete")
    set_a = generate_public_states(spec, warmup_rounds=200, rollouts=20, n=512, seed=100)
    set_b = generate_public_states(spec, warmup_rounds=200, rollouts=20, n=512, seed=200)
    rows_a = set(map(tuple, set_a.states))
    rows_b = set(map(tuple, set_b.states))
    disjoint = not (rows_a & rows_b)
    means_a = final_window_system_means("cartpole-discrete", "cartpole-4", 5, set_a)
    means_b = final_window_system_means("cartpole-discrete", "cartpole-4", 5, set_b)
    diff = abs(means_a.mean() - means_b.mean())
    sigma = pooled_std(means_a, means_b)
    ok = disjoint and diff < sigma
    assert report(
        "criterion 9 state-set insensitivity",
        ok,
        f"disjoint {disjoint}, |mean A - mean B| = {diff:.2f} "
        f"vs pooled std {sigma:.2f}",
    )


def test_criterion_10_determinism(tmp_path):
    config_text = (
        'env.kind = "cartpole-discrete"\n'
        "run.rounds = 60\n"
        "run.seeds = 20, 25\n"
        "fed.d = 5\n"
        'agents.preset = "cartpole-4"\n'
        "states.size = 64\n"
        "states.warmup_rounds = 10\n"
        "states.rollouts = 4\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config_text)

    def digest(workers, name):
        config = load_experiment_config(cfg_path, [f"run.workers = {workers}"])
        out = tmp_path / name
        train_experiment(config, out)
        return b"".join(
            (out / f).read_bytes()
            for f in sorted(p.name for p in out.glob("*.csv"))
        )

    first = digest(1, "w1a")
    second = digest(1, "w1b")
    third = digest(4, "w4")
    ok = first == second == third
    assert report(
        "criterion 10 determinism",
        ok,
        f"byte-identical CSVs across repeats and worker counts 1/4: {ok}",
    )


def test_criterion_11_lipschitz_probe_bound(cartpole_states):
    states = cartpole_states.states[:128]
    reference, _ = make_policy("categorical", seed=9000)
    consensus = reference.extract_batch(states)
    layers = [LayerSpec(4, 8, "tanh"), LayerSpec(8, 2, "identity")]

    def factory(rng):
        return CategoricalPolicy(glorot_init(layers, rng))

    probe = lipschitz_probe(
        factory, states, consensus, n_pairs=200, radius=0.05,
        rng=np.random.default_rng(9001),
    )
    ok = probe.lipschitz_estimate <= probe.theory_bound
    assert report(
        "criterion 11 lipschitz probe",
        ok,
        f"empirical ratio {probe.lipschitz_estimate:.3f} <= bound "
        f"{probe.theory_bound:.3f} (G = {probe.grad_log_prob_bound:.3f}) "
        f"over 200 pairs",
    )
