"""The benchmark's tracer must find every function it wraps.

`bench/tracing.py` patches the fedhpd functions listed in its `TARGETS` by
name; a rename in the package would otherwise surface only as an
`AttributeError` in `bench/run.py --trace 1`, not as a failing test. The
`diagnose` workload also expects the single-state score spans to record
calls, which only the smoothness probe's Hessian probes make, and every
workload expects `sample_action`, single-state forward and `env.step` spans,
which only the one-episode rollouts (state generation and a lockstep tail)
make.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from fedhpd import diagnostics, federation, public_states, reinforce
from fedhpd.env import EnvSpec
from fedhpd.nn_core import LayerSpec, glorot_init
from fedhpd.policy import CategoricalPolicy, GaussianPolicy

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench_module("tracing")


@pytest.mark.parametrize("module_name,attr,span", load_tracing().TARGETS)
def test_trace_target_resolves(module_name, attr, span):
    owner = importlib.import_module(f"fedhpd.{module_name}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"{span}: fedhpd.{module_name} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_trace_targets_install_and_restore():
    tracing = load_tracing()
    package = importlib.import_module("fedhpd")
    before = {name: getattr(package, name) for name in dir(package)}
    with tracing.Tracer().installed():
        pass
    assert {name: getattr(package, name) for name in dir(package)} == before


def test_lipschitz_probe_records_single_state_score_spans():
    # on either head the G sweep's confirmed rows and the Hessian probes are
    # single-state log_prob_grad calls, which record these spans of the
    # diagnose workload's expected_spans
    spans = ("policy.log_prob_grad", "nn_core.backward.single")
    assert set(spans) <= set(load_bench_module("workloads").WORKLOADS["diagnose"].expected_spans)
    states = np.random.default_rng(0).normal(scale=0.5, size=(40, 4))
    for head, out in ((CategoricalPolicy, 2), (GaussianPolicy, 1)):
        layers = [LayerSpec(4, 5, "relu"), LayerSpec(5, out, "identity")]

        def factory(rng):
            return head(glorot_init(layers, rng))

        consensus = factory(np.random.default_rng(1)).extract_batch(states)
        with load_tracing().Tracer().installed() as tracer:
            diagnostics.lipschitz_probe(factory, states, consensus, n_pairs=1, radius=0.05,
                                        rng=np.random.default_rng(2))
        assert tracer.count("diagnostics.lipschitz_probe") == 1
        assert all(tracer.count(span) > 0 for span in spans), \
            (head.kind, {span: tracer.count(span) for span in spans})


# spans that only one-episode rollouts record: `generate-states`, a lockstep
# group's last running episode, and the last running episode of each block
# of diagnose's trajectory samples
SAMPLE_SPANS = ("policy.sample_action", "nn_core.forward.single", "env.step")


@pytest.mark.parametrize("env_kind", ["cartpole-discrete", "cartpole-continuous"])
def test_one_episode_rollouts_record_sample_and_step_spans(env_kind):
    spec = EnvSpec(env_kind, max_steps=60)
    config = reinforce.AgentConfig("a", [(8, "tanh")], 1e-3)
    cells = [reinforce.make_agents([config], spec, seed)[0] for seed in (3, 4)]
    with load_tracing().Tracer().installed() as tracer:
        public_states.generate_public_states(spec, warmup_rounds=2, rollouts=1, n=8, seed=0)
        generated = {span: tracer.count(span) for span in SAMPLE_SPANS}
        reinforce.train_round([reinforce.Cohort(cells)], spec, 1, 0.99, False)  # 2 cells: the tail runs alone
    assert all(generated.values()), generated
    assert all(tracer.count(span) > generated[span] for span in SAMPLE_SPANS)


@pytest.mark.parametrize("env_kind", ["cartpole-discrete", "cartpole-continuous"])
def test_one_collect_span_covers_every_slot_of_a_round(env_kind):
    # every lineup slot's episodes run in one lockstep rollout per round, so
    # every training env.step lies directly under that round's collect span
    config = federation.FedRunConfig(EnvSpec(env_kind, 60), 4, [
        reinforce.AgentConfig("a", [(8, "tanh")], 1e-3),
        reinforce.AgentConfig("b", [(6, "relu"), (6, "relu")], 1e-3)])
    tracing = load_tracing()
    with tracing.Tracer().installed() as tracer:
        federation.run(config, [(None, 3), (None, 4), (None, 5)], None)
    table = tracer.table()
    names = np.array(tracer.names)
    steps = table[names[table[:, 0]] == "env.step"]
    assert tracer.count("reinforce.collect_trajectories") == config.rounds
    assert steps.size and set(names[table[steps[:, 1], 0]]) == {"reinforce.collect_trajectories"}
    assert tracer.count("policy.sample_action") > 0  # the round's last episode runs alone


@pytest.mark.parametrize("env_kind", ["cartpole-discrete", "cartpole-continuous"])
def test_trajectory_samples_record_sample_and_step_spans(env_kind):
    # diagnose's job, set-up aside, records these spans through its samples'
    # lockstep tails alone
    spec = EnvSpec(env_kind, max_steps=60)
    policy = reinforce.make_agents([reinforce.AgentConfig("a", [(8, "tanh")], 1e-3)],
                                   spec, 3)[0].policy
    with load_tracing().Tracer().installed() as tracer:
        diagnostics.sample_trajectory_gradients(policy, spec, 37, np.random.default_rng(0),
                                                0.99, False)
    assert tracer.count("diagnostics.sample_trajectory_gradients") == 1
    assert all(tracer.count(span) > 0 for span in SAMPLE_SPANS), \
        {span: tracer.count(span) for span in SAMPLE_SPANS}
