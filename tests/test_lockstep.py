"""Lockstep rollouts, the stacked learner and grid groups: every policy and
every cell gets exactly the numbers it would have on its own, and a failure
stays with its owner."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import fedhpd.env as envmod
import fedhpd.federation as federation
from fedhpd.cli import main
from fedhpd.env import EnvSpec
from fedhpd.errors import ConfigurationError, NumericError
from fedhpd.federation import FedRunConfig, distillation_round, run
from fedhpd.nn_core import LayerSpec, glorot_init
from fedhpd.policy import PolicyStack, _draw_categorical, draw_categorical_rows, make_policy
from fedhpd.public_states import generate_public_states
from fedhpd.reinforce import Agent, AgentConfig, Cohort, Episode, collect_trajectories, rollout
from oracles import (FixedUniform, adam_ascent, episode_gradient, play_episode, run_stats,
                     train_independent)

HEADS = [("categorical", "cartpole-discrete"), ("gaussian", "cartpole-continuous")]


def make_agent(spec, seed):
    config = AgentConfig("a", [(16, "relu"), (8, "tanh")], 1e-3)
    return Agent(config, spec, np.random.SeedSequence([seed, 3]))


def assert_same_episode(a, b):
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)
    assert a.actions.dtype == b.actions.dtype


def count_env_steps(monkeypatch) -> list:
    calls = []
    original = envmod.step

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(envmod, "step", counted)
    return calls


@pytest.mark.parametrize("head,env_kind,horizon", [
    ("categorical", "cartpole-discrete", 18), ("gaussian", "cartpole-continuous", 40)])
def test_lockstep_rollout_matches_single_policy_runs(head, env_kind, horizon, monkeypatch):
    # a short horizon makes some episodes terminate and some hit max_steps
    spec = EnvSpec(env_kind, max_steps=horizon)
    policies = [make_agent(spec, seed).policy for seed in range(8)]
    assert policies[0].kind == head
    alone_rngs = [np.random.default_rng(100 + i) for i in range(8)]
    alone = [rollout([PolicyStack([p])], spec, [rng])[0] for p, rng in zip(policies, alone_rngs)]

    calls = count_env_steps(monkeypatch)
    rngs = [np.random.default_rng(100 + i) for i in range(8)]
    together = rollout([PolicyStack(policies)], spec, rngs)

    lengths = [len(e.rewards) for e in together]
    assert spec.max_steps in lengths and min(lengths) < spec.max_steps
    assert len(set(lengths)) > 2
    for a, b in zip(together, alone):
        assert_same_episode(a, b)
    for rng, alone_rng in zip(rngs, alone_rngs):
        assert rng.bit_generator.state == alone_rng.bit_generator.state
    assert len(calls) == sum(lengths)


def test_a_stack_needs_one_layer_stack():
    spec = EnvSpec("cartpole-discrete", max_steps=40)
    rng = np.random.default_rng(0)

    def policy(width, activation):
        layers = [LayerSpec(4, width, activation), LayerSpec(width, 2, "identity")]
        return make_policy(spec, glorot_init(layers, rng))

    for other in (policy(8, "tanh"), policy(6, "relu")):
        with pytest.raises(ConfigurationError, match="one head and layer stack"):
            PolicyStack([policy(8, "relu"), other])


def test_a_cohort_is_one_lineup_slot():
    spec = EnvSpec("cartpole-discrete", max_steps=40)
    config = AgentConfig("a", [(8, "relu")], 1e-3)

    def agent(config, spec=spec):
        return Agent(config, spec, np.random.SeedSequence([1, 2]))

    assert collect_trajectories(
        [Cohort([agent(config), agent(replace(config, agent_id="b"))])], spec, 1)
    other = agent(replace(config, agent_id="b", learning_rate=2e-3))
    with pytest.raises(ConfigurationError, match="cohort agents a and b differ in lineup entry"):
        Cohort([agent(config), other])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_vector_draw_equals_the_scalar_inverse_cdf(k):
    rng = np.random.default_rng(k)
    probs = rng.dirichlet(np.ones(k), size=24)
    for row, zero in zip(probs[::3], itertools.cycle(range(k))):
        row[zero] = 0.0  # includes a zero first probability: p0 = 0 is an edge at 0
        row /= row.sum()
    rows, uniforms = [], []
    for row in probs:
        edges, edge = [], 0.0
        for p in row[:-1].tolist():  # the running sums `_draw_categorical` forms
            edge += p
            edges.append(edge)
        for u in [rng.random(), 0.0, *edges, *np.nextafter(edges, -np.inf)]:
            if 0.0 <= u < 1.0:
                rows.append(row)
                uniforms.append(u)
    rows, uniforms = np.array(rows), np.array(uniforms)
    want = [_draw_categorical(row.tolist(), FixedUniform(u))
            for row, u in zip(rows, uniforms.tolist())]
    assert draw_categorical_rows(rows, uniforms).tolist() == want
    assert set(want) == set(range(k))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("horizon,tail", [(25, False), (40, True)])
def test_lockstep_rewinds_each_generator_to_its_single_policy_state(horizon, tail, monkeypatch):
    # categorical draws are taken ahead of time; every generator must still
    # end as its own episode leaves it: with a buffered uint32, after an
    # env.step that raises, after non-finite logits, at the horizon in
    # lockstep and as the last running row
    check_rewinds("cartpole-discrete", "non-finite policy logits", horizon, tail, monkeypatch)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("horizon,tail", [(30, False), (50, True)])
def test_gaussian_lockstep_rewinds_each_generator_to_its_single_policy_state(
        horizon, tail, monkeypatch):
    # the same cases for normals drawn ahead of time, whose sampler takes a
    # varying number of raw draws, and a non-finite mean row
    check_rewinds("cartpole-continuous", "non-finite policy mean", horizon, tail, monkeypatch)


def check_rewinds(env_kind, message, horizon, tail, monkeypatch):
    spec = EnvSpec(env_kind, max_steps=horizon)
    policies = [make_agent(spec, seed).policy for seed in range(8)]
    blow_up(policies[5])
    buffered = (0, 2, 3, 5, 6)

    def generators():
        rngs = [np.random.default_rng(300 + i) for i in range(8)]
        for i in buffered:
            rngs[i].integers(0, 10, dtype=np.uint32)  # keeps half a 64-bit draw
        return rngs

    probe, = rollout([PolicyStack([policies[3]])], spec, [generators()[3]])
    assert len(probe.rewards) > 5
    target = tuple(probe.states[4].tolist())
    original = envmod.step

    def step(spec, state, action):
        if tuple(state) == target:  # row 3's fifth step
            raise NumericError("injected env failure")
        return original(spec, state, action)

    monkeypatch.setattr(envmod, "step", step)
    alone_rngs = generators()
    alone = [rollout([PolicyStack([p])], spec, [rng])[0] for p, rng in zip(policies, alone_rngs)]
    rngs = generators()
    assert all(rngs[i].bit_generator.state["has_uint32"] == 1 for i in buffered)
    together = rollout([PolicyStack(policies)], spec, rngs)

    for rng, alone_rng in zip(rngs, alone_rngs):
        assert rng.bit_generator.state == alone_rng.bit_generator.state
    for failed in (together[3], alone[3]):
        assert isinstance(failed, NumericError) and str(failed) == "injected env failure"
    for failed in (together[5], alone[5]):
        assert isinstance(failed, NumericError) and str(failed) == message
    ran = [i for i in range(8) if i not in (3, 5)]
    for i in ran:
        assert_same_episode(together[i], alone[i])
    lengths = sorted(len(together[i].rewards) for i in ran)
    assert lengths[-1] == spec.max_steps and lengths[0] < spec.max_steps
    assert (lengths[-2] < lengths[-1]) == tail  # the longest ran its last steps alone


# one lineup slot each: different depths, widths and activations
SLOT_LAYERS = [[(16, "relu"), (8, "tanh")], [(6, "tanh")], [(12, "relu"), (5, "relu")]]


def slot_stacks(spec, sizes):
    stacks = []
    for s, (hidden, size) in enumerate(zip(SLOT_LAYERS, sizes)):
        config = AgentConfig(f"a{s}", hidden, 1e-3)
        stacks.append(PolicyStack([Agent(config, spec, np.random.SeedSequence([seed, s])).policy
                                   for seed in range(size)]))
    return stacks


def push_one_way(policy):
    """An output bias that pushes the cart one way at every step, so the
    pole falls within a few steps."""
    policy.params[policy.net.num_params - policy.net.output_dim:policy.net.num_params] = (
        [-50.0, 50.0] if policy.kind == "categorical" else [50.0])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("head,env_kind", HEADS)
@pytest.mark.parametrize("horizon", [12, 200])
def test_rollout_over_slot_stacks_matches_per_stack_rollouts(head, env_kind, horizon,
                                                             monkeypatch):
    # slot 1's episodes all end first and slot 0 holds a non-finite row; a
    # row of slot 2 fails in env.step; at horizon 12 several rows reach it in
    # lockstep, and at 200 Gaussian episodes run past a block of pre-drawn steps
    spec = EnvSpec(env_kind, max_steps=horizon)
    stacks = slot_stacks(spec, (3, 2, 4))
    assert stacks[0].head.kind == head
    for policy in stacks[1].policies:
        push_one_way(policy)
    blow_up(stacks[0].policies[1])
    buffered = (0, 3, 6)

    def generators():
        rngs = [np.random.default_rng(500 + i) for i in range(9)]
        for i in buffered:
            rngs[i].integers(0, 10, dtype=np.uint32)  # keeps half a 64-bit draw
        return rngs

    probe = rollout([stacks[2]], spec, generators()[5:])[1]
    target = tuple(probe.states[3].tolist())
    original = envmod.step

    def step(spec, state, action):
        if tuple(state) == target:  # row 6's fourth step
            raise NumericError("injected env failure")
        return original(spec, state, action)

    monkeypatch.setattr(envmod, "step", step)
    alone_rngs = generators()
    alone = [episode for stack, start, end in zip(stacks, (0, 3, 5), (3, 5, 9))
             for episode in rollout([stack], spec, alone_rngs[start:end])]
    rngs = generators()
    together = rollout(stacks, spec, rngs)

    for rng, alone_rng in zip(rngs, alone_rngs):
        assert rng.bit_generator.state == alone_rng.bit_generator.state
    assert str(together[1]) == str(alone[1]) == "non-finite policy " + (
        "logits" if head == "categorical" else "mean")
    assert str(together[6]) == str(alone[6]) == "injected env failure"
    ran = [i for i in range(9) if i not in (1, 6)]
    for i in ran:
        assert_same_episode(together[i], alone[i])
    lengths = {i: len(together[i].rewards) for i in ran}
    assert max(lengths[3], lengths[4]) < min(lengths[i] for i in ran if i > 4)
    if horizon == 12:
        assert sum(length == horizon for length in lengths.values()) >= 2
    elif head == "gaussian":
        assert max(lengths.values()) > 32


def test_lockstep_stacks_share_one_head():
    stacks = [slot_stacks(EnvSpec(kind, max_steps=10), (2,))[0]
              for kind in ("cartpole-discrete", "cartpole-continuous")]
    with pytest.raises(ConfigurationError, match="share one policy head"):
        rollout(stacks, EnvSpec("cartpole-discrete", max_steps=10),
                [np.random.default_rng(i) for i in range(4)])


@pytest.mark.parametrize("head,env_kind", HEADS)
def test_lockstep_collection_matches_sequential_episodes(head, env_kind):
    spec = EnvSpec(env_kind, max_steps=30)
    agents = [make_agent(spec, seed) for seed in range(5)]
    replicas = [make_agent(spec, seed) for seed in range(5)]
    collected, = collect_trajectories([Cohort(agents)], spec, 2)
    for episodes, agent, replica in zip(collected, agents, replicas):
        assert len(episodes) == 2
        for episode in episodes:
            assert_same_episode(episode, play_episode(replica.policy, spec, replica.rng))
        assert agent.rng.bit_generator.state == replica.rng.bit_generator.state


# episode lengths per cell; 500 is the default env's max_steps
LEARNER_LENGTHS = {
    "one-step": [1, 1, 1],
    "mixed": [1, 7, 30, 3, 60, 2],
    "max-steps": [500, 1, 257, 500],
    "single": [17],
}


def learner_pair(spec, n):
    """n agents of one lineup slot, and independent replicas of them."""
    config = AgentConfig("a", [(16, "relu"), (8, "tanh")], 1e-2)
    return tuple([Agent(config, spec, np.random.SeedSequence([seed, 4])) for seed in range(n)]
                 for _ in range(2))


def synthetic_episode(rng, spec, length, reward=1.0):
    states = rng.normal(size=(length, envmod.STATE_DIM)) * 0.1
    if spec.discrete:
        actions = rng.integers(0, spec.action_count, size=length)
    else:
        actions = rng.normal(size=(length, spec.action_count))
    return Episode(states, actions, np.full(length, reward))


def assert_learner_matches_per_cell(cohort, replicas, episodes, gamma=0.99, reward_to_go=False):
    """One stacked `Agent.local_round` equals, bit for bit, each replica's own
    gradient (one network pass per episode) and one-vector Adam step."""
    outcomes = Agent.local_round(cohort, episodes, gamma, reward_to_go)
    for agent, replica, rows, outcome in zip(cohort.agents, replicas, episodes, outcomes):
        grad = episode_gradient(replica.policy, rows, gamma, reward_to_go)
        try:
            adam_ascent(replica.policy, replica.adam, grad, replica.config.learning_rate)
        except NumericError as exc:
            assert isinstance(outcome, NumericError) and str(outcome) == str(exc)
            continue
        assert outcome[2] == float(np.linalg.norm(grad))
        assert outcome[:2] == (float(np.mean([e.rewards.sum() for e in rows])),
                               float(np.mean([envmod.discounted_return(e.rewards, gamma)
                                              for e in rows])))
        assert np.array_equal(agent.policy.get_params(), replica.policy.get_params())
        assert np.array_equal(agent.adam.m, replica.adam.m)
        assert np.array_equal(agent.adam.v, replica.adam.v)
        assert agent.adam.step_count == replica.adam.step_count
    return outcomes


@pytest.mark.parametrize("head,env_kind", HEADS)
@pytest.mark.parametrize("case", sorted(LEARNER_LENGTHS))
@pytest.mark.parametrize("knobs", [{}, {"episodes_per_round": 2, "reward_to_go": True}])
def test_stacked_learner_matches_per_cell_steps(head, env_kind, case, knobs):
    spec = EnvSpec(env_kind)
    lengths = LEARNER_LENGTHS[case]
    agents, replicas = learner_pair(spec, len(lengths))
    assert agents[0].policy.kind == head
    cohort = Cohort(agents)
    rng = np.random.default_rng(len(lengths))
    count = knobs.get("episodes_per_round", 1)
    for _ in range(3):  # later rounds start from warm Adam moments
        episodes = [[synthetic_episode(rng, spec, lengths[(i + e) % len(lengths)])
                     for e in range(count)] for i in range(len(lengths))]
        assert_learner_matches_per_cell(cohort, replicas, episodes,
                                        reward_to_go=knobs.get("reward_to_go", False))


@pytest.mark.parametrize("head,env_kind", HEADS)
def test_stacked_learner_after_digestion_with_different_step_counts(head, env_kind):
    spec = EnvSpec(env_kind, max_steps=40)
    states = generate_public_states(spec, warmup_rounds=0, rollouts=2, n=16, seed=3)
    agents, replicas = learner_pair(spec, 4)
    cohort = Cohort(agents)
    rng = np.random.default_rng(5)
    for _ in range(3):
        episodes = [[synthetic_episode(rng, spec, length)] for length in (1, 12, 40, 5)]
        assert_learner_matches_per_cell(cohort, replicas, episodes)
        # cells 0 and 2 digest (as one cell would) into the same stacked rows
        for group in ((agents[0], agents[2]), (replicas[0], replicas[2])):
            distillation_round(list(group), states)
    assert [a.adam.step_count for a in agents] == [6, 3, 6, 3]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("head,env_kind", HEADS)
def test_non_finite_gradient_row_fails_only_its_cell(head, env_kind):
    spec = EnvSpec(env_kind)
    agents, replicas = learner_pair(spec, 4)
    rng = np.random.default_rng(6)
    episodes = [[synthetic_episode(rng, spec, 9, reward=1e308 if i == 1 else 1.0)]
                for i in range(4)]
    outcomes = assert_learner_matches_per_cell(Cohort(agents), replicas, episodes)
    assert str(outcomes[1]) == "non-finite gradient in adam_step"
    assert all(isinstance(outcomes[i], tuple) for i in (0, 2, 3))


def run_config(rounds=6, **knobs):
    lineup = [AgentConfig(f"a{k}", hidden, lr) for k, (hidden, lr) in
              enumerate([([(8, "tanh")], 1e-3), ([(6, "relu"), (6, "relu")], 2e-3)])]
    return FedRunConfig(EnvSpec("cartpole-discrete", 60), rounds, lineup, **knobs)


def nofed(seeds):
    return [(None, seed) for seed in seeds]


@pytest.mark.parametrize("knobs", [{}, {"episodes_per_round": 2, "reward_to_go": True}])
def test_lockstep_run_matches_the_sequential_oracle(knobs):
    config = run_config(**knobs)
    seeds = [3, 4, 5]
    results = run(config, nofed(seeds), None, trace_params=True)
    for seed, result in zip(seeds, results):
        agents = [Agent(c, config.spec, np.random.SeedSequence([seed, k]))
                  for k, c in enumerate(config.agent_configs)]
        alone = train_independent(agents, config, trace_params=True)
        for got, want in zip(result.param_traces, alone["param_traces"]):
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert run_stats(result) == alone["stats"]


def blow_up(policy):
    """Finite parameters whose network output overflows on any state."""
    policy.set_params(np.full(policy.num_params, 1e308))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("head,env_kind,message", [
    ("categorical", "cartpole-discrete", "non-finite policy logits"),
    ("gaussian", "cartpole-continuous", "non-finite policy mean"),
])
def test_non_finite_row_fails_only_its_policy(head, env_kind, message):
    spec = EnvSpec(env_kind, max_steps=40)
    policies = [make_agent(spec, seed).policy for seed in range(4)]
    blow_up(policies[2])
    with pytest.raises(NumericError, match=message):
        policies[2].sample_action(np.zeros(4), np.random.default_rng(0))
    alone = [rollout([PolicyStack([p])], spec, [np.random.default_rng(i)])[0]
             for i, p in enumerate(policies)]
    together = rollout([PolicyStack(policies)], spec,
                       [np.random.default_rng(i) for i in range(4)])
    for i in (0, 1, 3):
        assert_same_episode(together[i], alone[i])
    for failed in (together[2], alone[2]):
        assert isinstance(failed, NumericError) and str(failed) == message


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_cell_fails_alone_in_a_group(monkeypatch):
    clean = run(run_config(), nofed([3, 5]), None, trace_params=True)
    original = federation.make_agents

    def make_agents(agent_configs, spec, seed):
        agents = original(agent_configs, spec, seed)
        if seed == 4:
            blow_up(agents[1].policy)
        return agents

    monkeypatch.setattr(federation, "make_agents", make_agents)
    results = run(run_config(), nofed([3, 4, 5]), None, trace_params=True)
    assert isinstance(results[1], NumericError)
    assert str(results[1]) == "non-finite policy logits"
    for got, want in zip(results[0::2], clean):
        for a, b in zip(got.param_traces, want.param_traces):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert got.final_snapshots == want.final_snapshots


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_run_builds_one_cohort_per_slot_and_again_only_after_a_cell_fails(monkeypatch):
    # a NoFed cell and a d = 2 cell: distillation rounds restack nothing, and
    # the d = 2 cell's failure in round 0 restacks the other cell's slots once
    config = run_config()
    slots = len(config.agent_configs)
    states = generate_public_states(config.spec, warmup_rounds=0, rollouts=2, n=8, seed=3)
    built = []

    class CountedCohort(Cohort):
        def __init__(self, agents):
            built.append(len(agents))
            super().__init__(agents)

    monkeypatch.setattr(federation, "Cohort", CountedCohort)
    assert all(isinstance(r, federation.RunResult)
               for r in run(config, [(None, 3), (2, 4)], states))
    assert built == [2] * slots
    original = federation.make_agents

    def make_agents(agent_configs, spec, seed):
        agents = original(agent_configs, spec, seed)
        if seed == 4:
            blow_up(agents[1].policy)
        return agents

    monkeypatch.setattr(federation, "make_agents", make_agents)
    built.clear()
    clean, failed = run(config, [(None, 3), (2, 4)], states)
    assert isinstance(failed, NumericError) and isinstance(clean, federation.RunResult)
    assert built == [2] * slots + [1] * slots


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_cell_whose_two_slots_fail_in_one_round_reports_the_first(monkeypatch):
    # slot 1 fails in the round's rollout, before slot 0 fails in its learning
    # step: the cell still reports slot 0's error, as slot by slot training would
    clean = run(run_config(), nofed([3, 5]), None, trace_params=True)
    original = federation.make_agents
    local_round = Agent.local_round.__func__

    def make_agents(agent_configs, spec, seed):
        agents = original(agent_configs, spec, seed)
        if seed == 4:
            agents[0].doomed = True
            blow_up(agents[1].policy)
        return agents

    def failing_round(cls, cohort, collected, gamma, reward_to_go):
        outcomes = local_round(cls, cohort, collected, gamma, reward_to_go)
        return [NumericError("injected learner failure") if getattr(agent, "doomed", False)
                else outcome for agent, outcome in zip(cohort.agents, outcomes)]

    monkeypatch.setattr(federation, "make_agents", make_agents)
    monkeypatch.setattr(Agent, "local_round", classmethod(failing_round))
    results = run(run_config(), nofed([3, 4, 5]), None, trace_params=True)
    assert str(results[1]) == "injected learner failure"
    for got, want in zip(results[0::2], clean):
        for a, b in zip(got.param_traces, want.param_traces):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert run_stats(got) == run_stats(want)
        assert got.final_snapshots == want.final_snapshots


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_group_whose_cells_all_fail_reports_each(monkeypatch):
    original = federation.make_agents

    def make_agents(agent_configs, spec, seed):
        agents = original(agent_configs, spec, seed)
        blow_up(agents[seed % 2].policy)
        return agents

    monkeypatch.setattr(federation, "make_agents", make_agents)
    results = run(run_config(), nofed([3, 4]), None)
    assert [str(r) for r in results] == ["non-finite policy logits"] * 2


GRID = """
env.kind = "cartpole-discrete"
run.rounds = 8
run.seeds = 20, 25
agents.spec = "8:tanh@1e-3; 6x6:relu@2e-3"
states.size = 16
states.warmup_rounds = 0
states.rollouts = 2
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_cell_fails_alone_in_a_grid(tmp_path, monkeypatch, workers):
    path = tmp_path / "grid.cfg"
    path.write_text(GRID)
    assert main(["train", "--config", str(path), "--output-dir", str(tmp_path / "clean"),
                 "--set", "fed.d = 3"]) == 0

    original_fires, original_round = federation.fires, federation.distillation_round
    interval = []

    def fires(round_index, d):  # `run` asks this of a cell just before it distils
        interval[:] = [d]
        return original_fires(round_index, d)

    def distillation_round(agents, states):
        # the d = 5 cells fail, whichever worker process runs them
        if interval == [5]:
            raise NumericError("non-finite gradient in adam_step")
        return original_round(agents, states)

    monkeypatch.setattr(federation, "fires", fires)
    monkeypatch.setattr(federation, "distillation_round", distillation_round)
    failing = tmp_path / "failing"
    assert main(["train", "--config", str(path), "--output-dir", str(failing),
                 "--set", "fed.d = 3, 5", "--set", f"run.workers = {workers}"]) == 3
    assert (failing / "failures.txt").read_text() == "".join(
        f"run-fedhpd-d5-seed{seed}.csv: NumericError: non-finite gradient in adam_step\n"
        for seed in (20, 25))
    assert not list(failing.glob("run-fedhpd-d5-*.csv"))
    assert not list(failing.glob("snapshots/fedhpd-d5-*"))
    clean_files = sorted(p.relative_to(tmp_path / "clean")
                         for p in (tmp_path / "clean").rglob("*")
                         if p.is_file() and p.suffix in (".csv", ".fhpd")
                         and p.name != "summary.csv")
    assert clean_files
    for rel in clean_files:
        assert (failing / rel).read_bytes() == (tmp_path / "clean" / rel).read_bytes()
