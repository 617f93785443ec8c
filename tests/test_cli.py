"""Config grammar, sweep execution, CSV schemas, and CLI exit codes."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from fedhpd.cli import DIAGNOSTICS_COLUMNS, main
from fedhpd.diagnostics import SmoothnessProbe, VarianceReport
from fedhpd.env import PublicStateSet, save_state_set
from fedhpd.errors import ConfigurationError
from fedhpd.nn_core import LayerSpec, glorot_init, network_from_bytes
from fedhpd.experiment import (
    _KEY_DEFAULTS,
    METRICS_COLUMNS,
    ExperimentConfig,
    experiment_cells,
    load_experiment_config,
    parse_agent_spec,
    parse_config_text,
    train_experiment,
)
from oracles import save_network

SMALL_CONFIG = """
# desk-top smoke configuration
env.kind = "cartpole-discrete"
run.rounds = 8
run.seeds = 20, 25
run.workers = 1
fed.d = 4
agents.spec = "8:tanh@1e-3; 6x6:tanh@2e-3"
states.size = 16
states.warmup_rounds = 0
states.rollouts = 2
"""


def write_config(tmp_path, text=SMALL_CONFIG):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


# -------------------------------------------------------------------- config IO


def test_parse_config_text_types():
    values = parse_config_text(
        'env.kind = "cartpole-discrete"\n'
        "run.rounds = 12  # inline comment\n"
        "run.gamma = 0.95\n"
        "fed.include_nofed = false\n"
        "run.seeds = 1, 2, 3\n"
    )
    assert values["env.kind"] == "cartpole-discrete"
    assert values["run.rounds"] == 12
    assert values["run.gamma"] == 0.95
    assert values["fed.include_nofed"] is False
    assert values["run.seeds"] == [1, 2, 3]


def test_parse_config_keeps_hash_inside_quotes():
    values = parse_config_text('run.output_dir = "runs/#1"  # trailing comment\n')
    assert values["run.output_dir"] == "runs/#1"


def test_boolean_is_not_a_positive_integer():
    with pytest.raises(ConfigurationError, match="run.workers"):
        load_experiment_config(None, ["run.workers = true"])


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config_text("run.bogus = 3")
    with pytest.raises(ConfigurationError, match="unknown key 'agents.head'"):
        parse_config_text('agents.head = "categorical"')
    with pytest.raises(ConfigurationError, match="key = value"):
        parse_config_text("run.rounds")


def test_validation_names_the_bad_field():
    with pytest.raises(ConfigurationError, match="run.rounds"):
        ExperimentConfig({"run.rounds": 0})
    with pytest.raises(ConfigurationError, match="fed.d"):
        ExperimentConfig({"fed.d": [5, 999], "run.rounds": 10})
    with pytest.raises(ConfigurationError, match="env.kind"):
        ExperimentConfig({"env.kind": "mountain-car"})
    with pytest.raises(ConfigurationError, match="agents.preset"):
        ExperimentConfig({"agents.preset": "pendulum-4"})  # discrete env default
    with pytest.raises(ConfigurationError, match="states.path"):
        ExperimentConfig({"states.source": "file"})


@pytest.mark.parametrize("line", [
    "run.gamma = abc", "run.gamma = 0.5, 0.6", "diag.radius = abc",
    "diag.epsilon = 0.1, 0.2", "diag.delta = inf", "run.output_dir = 5", "states.path = 5",
    "agents.spec = 5", "fed.include_nofed = 1", "states.seed = abc", "diag.seed = -1",
    "run.seeds = -1", pytest.param("diag.radius = 1" + "0" * 400, id="diag.radius-huge-int"),
])
def test_config_values_are_type_checked_by_name(line):
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigurationError, match=re.escape(key)):
        load_experiment_config(None, [line])


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|", readme, flags=re.MULTILINE)
    assert sorted(documented) == sorted(_KEY_DEFAULTS)


def test_agent_spec_grammar():
    agents = parse_agent_spec("64:relu@1e-3; 16x16:relu,tanh@2e-3", 1, False, 0.99)
    assert [a.agent_id for a in agents] == ["agent-1", "agent-2"]
    assert agents[0].hidden == [(64, "relu")]
    assert agents[1].hidden == [(16, "relu"), (16, "tanh")]
    assert agents[1].learning_rate == 2e-3
    with pytest.raises(ConfigurationError):
        parse_agent_spec("16x16:relu,tanh,relu@1e-3", 1, False, 0.99)
    for spec in ("0:relu@1e-3", "8x-2:relu@1e-3", "4:sigmoid@1e-3"):
        with pytest.raises(ConfigurationError, match="agents.spec"):
            load_experiment_config(None, [f'agents.spec = "{spec}"'])


def test_overrides_apply_after_file(tmp_path):
    path = write_config(tmp_path)
    config = load_experiment_config(path, ["run.rounds = 5"])
    assert config["run.rounds"] == 5
    assert config["fed.d"] == [4]


# ------------------------------------------------------------------- train runs


def read_metrics(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    return [line.split(",") for line in lines[1:]]


def test_train_writes_expected_grid(tmp_path):
    config = load_experiment_config(write_config(tmp_path))
    outcome = train_experiment(config, tmp_path / "out")
    names = sorted(p.name for p in outcome["metrics_files"])
    assert names == [
        "run-fedhpd-d4-seed20.csv",
        "run-fedhpd-d4-seed25.csv",
        "run-nofed-seed20.csv",
        "run-nofed-seed25.csv",
    ]
    assert (tmp_path / "out" / "config.resolved").exists()
    assert (tmp_path / "out" / "states.txt").exists()
    assert outcome["summary_file"].exists()
    assert not outcome["failures"]

    rows = read_metrics(tmp_path / "out" / "run-fedhpd-d4-seed20.csv")
    # 8 rounds x (2 agents + 1 system row)
    assert len(rows) == 8 * 3
    system_rows = [r for r in rows if r[5] == "system"]
    fired = [r for r in system_rows if r[11] not in ("", "0")]
    assert [r[4] for r in fired] == ["3", "7"]  # (i+1) % 4 == 0
    agent_rows = [r for r in rows if r[5] != "system"]
    for row in agent_rows:
        assert float(row[6]) >= 1.0  # episode return
        has_kl = row[8] != ""
        assert has_kl == (row[4] in ("3", "7"))


def test_train_is_byte_deterministic_across_worker_counts(tmp_path):
    path = write_config(tmp_path)
    digests = []
    for workers, out in ((1, "a"), (4, "b"), (1, "c")):
        config = load_experiment_config(path, [f"run.workers = {workers}"])
        train_experiment(config, tmp_path / out)
        blob = b"".join(
            (tmp_path / out / name).read_bytes()
            for name in sorted(
                p.name for p in (tmp_path / out).glob("*.csv")
            )
        )
        digests.append(blob)
    assert digests[0] == digests[1] == digests[2]


def test_nofed_only_grid_needs_no_state_file(tmp_path):
    config = load_experiment_config(
        write_config(tmp_path), ["fed.d = 4", "fed.include_nofed = true"]
    )
    # drop the federated cells entirely via include toggle is not possible for
    # fed.d, so check the reverse: nofed-only config works without states
    values = dict(config.values)
    values["fed.d"] = []
    nofed_only = ExperimentConfig(values)
    outcome = train_experiment(nofed_only, tmp_path / "out2")
    assert len(outcome["metrics_files"]) == 2
    assert not (tmp_path / "out2" / "states.txt").exists()


def test_summary_contains_pooled_rows(tmp_path):
    config = load_experiment_config(write_config(tmp_path))
    outcome = train_experiment(config, tmp_path / "out")
    lines = outcome["summary_file"].read_text().splitlines()
    assert lines[0] == "mode,d,seed,final_window_mean,overall_mean"
    pooled = [l for l in lines[1:] if ",pooled," in l]
    assert len(pooled) == 2  # nofed + d=4


# -------------------------------------------------------------------------- CLI


def test_cli_sweep_emits_grid_files(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "sweep-out"
    code = main([
        "sweep", "--config", str(path), "--d", "2,4,8", "--seeds", "20,25",
        "--output-dir", str(out),
    ])
    assert code == 0
    fed_files = sorted(p.name for p in out.glob("run-fedhpd-*.csv"))
    assert len(fed_files) == 3 * 2
    assert len(list(out.glob("run-nofed-*.csv"))) == 2


def test_cli_generate_states_roundtrip_and_seed_sensitivity(tmp_path):
    path = write_config(tmp_path)
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert main(["generate-states", "--config", str(path), "--out", str(out_a),
                 "--output-dir", str(tmp_path)]) == 0
    assert main(["generate-states", "--config", str(path), "--out", str(out_b),
                 "--output-dir", str(tmp_path), "--set", "states.seed = 8"]) == 0
    from fedhpd.env import load_state_set

    a = load_state_set(out_a)
    b = load_state_set(out_b)
    assert a.size == 16
    assert not np.array_equal(a.states, b.states)
    assert out_a.with_suffix(".provenance.json").exists()


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("run.rounds = 0\n")
    assert main(["train", "--config", str(bad_cfg)]) == 2
    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 2
    path = write_config(tmp_path)
    truncated = tmp_path / "truncated.fhpd"
    truncated.write_bytes(b"FHPD\x01")
    snapshot = tmp_path / "net.fhpd"
    save_network(glorot_init([LayerSpec(4, 2, "identity")], np.random.default_rng(0)), snapshot)
    nan_states = tmp_path / "nan.txt"
    nan_states.write_text("# fedhpd-states v1 dim=4 n=2\n0,0,0,0\nnan,0,0,0\n")
    missing = tmp_path / "nope.txt"
    for snap, states in ((tmp_path / "nope.fhpd", missing), (truncated, missing),
                         (snapshot, nan_states)):
        code = main([
            "diagnose", "--config", str(path), "--snapshot", str(snap),
            "--states", str(states), "--output-dir", str(tmp_path),
        ])
        assert code == 4
    nan_snapshot = tmp_path / "nan.fhpd"
    nan_snapshot.write_bytes(snapshot.read_bytes()[:-8] + np.array([np.nan]).tobytes())
    states_file = tmp_path / "states.txt"
    save_state_set(PublicStateSet(np.zeros((3, 4))), states_file)
    assert main(["diagnose", "--config", str(path), "--snapshot", str(nan_snapshot),
                 "--states", str(states_file), "--output-dir", str(tmp_path)]) == 4
    # an output directory below a regular file cannot be created
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    quick_diag = ["--set", "diag.samples = 2", "--set", "diag.repeats = 1",
                  "--set", "diag.pairs = 1"]
    for argv in (["train"], ["generate-states"],
                 ["diagnose", "--snapshot", str(snapshot), "--states", str(states_file),
                  *quick_diag]):
        assert main([*argv, "--config", str(path), "--output-dir", str(blocker / "x")]) == 4
    # a lineup no network can be built from is a config error before any work
    for spec in ('"0:relu@1e-3"', '"4:sigmoid@1e-3"'):
        out = tmp_path / f"spec-{len(spec)}"
        assert main(["train", "--config", str(path), "--output-dir", str(out),
                     "--set", f"agents.spec = {spec}"]) == 2
        assert not (out / "states.txt").exists()
    # a repeated seed or interval would train and write the same cell twice
    for argv in (["train", "--set", "run.seeds = 20, 20"], ["train", "--set", "fed.d = 5, 5"],
                 ["sweep", "--seeds", "20,25,20"], ["sweep", "--d", "5,10,5"]):
        out = tmp_path / f"repeat-{argv[-1].replace(' ', '')}"
        assert main([*argv, "--config", str(path), "--output-dir", str(out)]) == 2
        assert not out.exists()
    # a config file that is not UTF-8 text is a config error, not a traceback
    utf16 = tmp_path / "utf16.cfg"
    utf16.write_bytes("run.rounds = 2\n".encode("utf-16"))
    assert utf16.read_bytes()[:2] == b"\xff\xfe"
    assert main(["train", "--config", str(utf16), "--output-dir", str(tmp_path / "u")]) == 2


@pytest.mark.parametrize("layers,message", [
    ([LayerSpec(3, 2, "identity")], "network input dim 3 does not fit"),
    ([LayerSpec(4, 3, "identity")], "network output dim 3 does not fit"),
])
def test_cli_diagnose_names_a_snapshot_that_does_not_fit(tmp_path, capsys, layers, message):
    snapshot = tmp_path / "misfit.fhpd"
    save_network(glorot_init(layers, np.random.default_rng(0)), snapshot)
    states_file = tmp_path / "states.txt"
    save_state_set(PublicStateSet(np.zeros((3, 4))), states_file)
    capsys.readouterr()
    assert main(["diagnose", "--config", str(write_config(tmp_path)), "--snapshot",
                 str(snapshot), "--states", str(states_file),
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"snapshot {snapshot}: {message}" in err


def quick_diagnose(tmp_path, *overrides, activation="relu"):
    """A diagnose run of a small snapshot (one hidden layer of `activation`)
    on six states; its argv."""
    rng = np.random.default_rng(0)
    snapshot = tmp_path / f"{activation}.fhpd"
    save_network(glorot_init([LayerSpec(4, 8, activation), LayerSpec(8, 2, "identity")], rng),
                 snapshot)
    states_file = tmp_path / "states.txt"
    save_state_set(PublicStateSet(rng.normal(scale=0.1, size=(6, 4))), states_file)
    settings = ["diag.samples = 4", "diag.repeats = 1", "diag.pairs = 1", *overrides]
    return ["diagnose", "--config", str(write_config(tmp_path)), "--snapshot", str(snapshot),
            "--states", str(states_file), "--output-dir", str(tmp_path / "diag"),
            *(arg for setting in settings for arg in ("--set", setting))]


@pytest.mark.parametrize("setting", [
    "diag.epsilon = 1e-160", "diag.delta = 1e-320", "diag.epsilon = 1e-300"])
def test_cli_diagnose_sample_count_beyond_floats_is_a_config_error(tmp_path, capsys, setting):
    # Var / (delta * epsilon^2) overflows, or its divisor underflows to 0
    assert main(quick_diagnose(tmp_path, setting)) == 2
    err = capsys.readouterr().err
    assert "configuration error: diag.epsilon = " in err and "diag.delta = " in err
    assert "too large for a float" in err
    assert not (tmp_path / "diag" / "diagnostics.csv").exists()


def test_cli_diagnose_underflowing_chebyshev_divisor_fails_before_any_work(tmp_path, capsys):
    # delta * epsilon^2 underflows to 0 whatever the variance: the config is
    # rejected before the snapshot is read, so a missing one is not an I/O error
    argv = quick_diagnose(tmp_path, "diag.epsilon = 1e-300")
    argv[argv.index("--snapshot") + 1] = str(tmp_path / "missing.fhpd")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: diag.epsilon = 1e-300, diag.delta = ")
    assert "too large for a float" in err


def test_cli_diagnose_single_sample_fails_before_any_work(tmp_path, capsys):
    # a variance needs two samples: the key is named before the snapshot is read
    argv = quick_diagnose(tmp_path, "diag.samples = 1")
    argv[argv.index("--snapshot") + 1] = str(tmp_path / "missing.fhpd")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: diag.samples: ")


@pytest.mark.parametrize("radius", ["1e200", "1e308"])
def test_cli_diagnose_overflowing_probe_radius_is_a_numeric_error(tmp_path, capsys, radius):
    # the displaced policy's logits overflow; unchecked, its NaN KL gradient
    # would be skipped by `max` and the run would report an estimate of 0
    code = main(quick_diagnose(tmp_path, f"diag.radius = {radius}"))
    assert code == 3
    assert capsys.readouterr().err == "numeric error: non-finite policy logits\n"
    assert not (tmp_path / "diag" / "diagnostics.csv").exists()


@pytest.mark.parametrize("radius", ["2e154", "5e154"])
def test_cli_diagnose_overflowing_displacement_norm_is_a_numeric_error(tmp_path, capsys, radius):
    # tanh keeps the displaced logits finite, but the displacement norm
    # overflows; unchecked, the row would read lipschitz_estimate = 0
    code = main(quick_diagnose(tmp_path, f"diag.radius = {radius}", activation="tanh"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: probe radius {float(radius)!r}: ")
    assert "displacement norm (inf)" in err and err.count("\n") == 1
    assert not (tmp_path / "diag" / "diagnostics.csv").exists()


def test_diagnostics_columns_are_the_report_and_probe_fields():
    # each row is written by column name, so a renamed field would leave a blank
    names = ["probe", "round_index", "identity_residual", "chebyshev_n_j", "chebyshev_n_jprime"]
    for report in (VarianceReport, SmoothnessProbe):
        names += [field.name for field in dataclasses.fields(report)]
    assert sorted(DIAGNOSTICS_COLUMNS) == sorted(names)


def test_cli_diagnose_uses_configured_gamma(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "train-out"
    assert main(["train", "--config", str(path), "--output-dir", str(out)]) == 0
    snapshot = next(iter(sorted((out / "snapshots").glob("*.fhpd"))))
    variance_rows = {}
    for gamma in ("0.99", "0.5"):
        diag_out = tmp_path / f"diag-{gamma}"
        assert main([
            "diagnose", "--config", str(path), "--snapshot", str(snapshot),
            "--states", str(out / "states.txt"), "--output-dir", str(diag_out),
            "--set", "diag.samples = 8", "--set", "diag.repeats = 2",
            "--set", "diag.pairs = 1", "--set", f"run.gamma = {gamma}",
        ]) == 0
        lines = (diag_out / "diagnostics.csv").read_text().splitlines()
        variance_rows[gamma] = [line for line in lines if line.startswith("variance")]
    assert len(variance_rows["0.5"]) == 2
    for low, default in zip(variance_rows["0.5"], variance_rows["0.99"]):
        assert low != default


# the smoothness row of `test_cli_diagnose_self_consensus`: the probe has its
# own stream, so this row holds whatever the variance rows draw
SMOOTHNESS_ROW = (
    "smoothness,,,,,,,,,,,,,,,,,3,0.050000000000000003,0.23068852823997213,"
    "2.7837037281163663,1.1026425090059822,7.4969238468908008"
)


def test_cli_diagnose_self_consensus(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "train-out"
    assert main(["train", "--config", str(path), "--output-dir", str(out)]) == 0
    snapshot = next(iter(sorted((out / "snapshots").glob("*.fhpd"))))
    diagnose = ["diagnose", "--config", str(path), "--snapshot", str(snapshot),
                "--states", str(out / "states.txt"), "--set", "diag.pairs = 3"]
    code = main([*diagnose, "--output-dir", str(out),
                 "--set", "diag.samples = 8", "--set", "diag.repeats = 2"])
    assert code == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == ",".join(DIAGNOSTICS_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["variance-0", "variance-1", "smoothness"]
    col = {name: i for i, name in enumerate(DIAGNOSTICS_COLUMNS)}
    for row in rows[:2]:
        # self-consensus: the distillation gradient vanishes identically
        assert row[col["var_jprime_direct"]] == row[col["var_j_trace"]]
        assert float(row[col["identity_residual"]]) < 1e-9
        assert row[col["var_kl_trace"]] == "0"
    smooth = rows[2]
    assert float(smooth[col["lipschitz_estimate"]]) >= 0.0
    assert float(smooth[col["theory_bound"]]) > 0.0
    assert lines[3] == SMOOTHNESS_ROW
    for samples, repeats in (("3", "1"), ("40", "3")):
        other = tmp_path / f"diag-{samples}-{repeats}"
        assert main([*diagnose, "--output-dir", str(other), "--set",
                     f"diag.samples = {samples}", "--set", f"diag.repeats = {repeats}"]) == 0
        assert (other / "diagnostics.csv").read_text().splitlines()[-1] == SMOOTHNESS_ROW


def test_experiment_cells_enumeration():
    config = ExperimentConfig({
        "run.rounds": 10, "run.seeds": [1, 2], "fed.d": [5],
        "agents.spec": "4:tanh@1e-3",
    })
    cells = experiment_cells(config)
    assert [(c.mode, c.interval, c.seed) for c in cells] == [
        ("nofed", None, 1), ("nofed", None, 2),
        ("fedhpd", 5, 1), ("fedhpd", 5, 2),
    ]


def test_default_config_values():
    config = ExperimentConfig({})
    assert config["states.size"] == 512
    assert config["run.seeds"] == [20, 25, 30, 35, 40]
    assert config["run.gamma"] == 0.99
    assert config["fed.d"] == [5, 10, 20]


def test_consensus_dump_option(tmp_path):
    config = load_experiment_config(
        write_config(tmp_path), ["run.dump_consensus = true"]
    )
    train_experiment(config, tmp_path / "out")
    from fedhpd.policy import DistributionBatch

    dumps = sorted((tmp_path / "out" / "consensus").glob("*.bin"))
    # d=4, T=8 -> rounds 3 and 7, for each of two seeds
    assert len(dumps) == 4
    batch = DistributionBatch.from_bytes(dumps[0].read_bytes())
    assert batch.kind == "categorical" and batch.n_states == 16


def test_spec_lineup_on_continuous_env_trains_gaussian_agents(tmp_path, capsys):
    # no head key: the continuous env alone makes every agent Gaussian
    path = write_config(tmp_path, SMALL_CONFIG.replace(
        'env.kind = "cartpole-discrete"', 'env.kind = "cartpole-continuous"'))
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--output-dir", str(out),
                 "--set", "run.rounds = 4", "--set", "run.seeds = 20"]) == 0
    snapshots = sorted((out / "snapshots").glob("*.fhpd"))
    assert len(snapshots) == 4
    for snapshot in snapshots:
        net, tail = network_from_bytes(snapshot.read_bytes())
        assert net.output_dim == 1 and tail.size == 1
    # a snapshot cut by its log-std tail is rejected by name
    cut = tmp_path / "cut.fhpd"
    cut.write_bytes(snapshots[0].read_bytes()[:-8])
    capsys.readouterr()
    assert main(["diagnose", "--config", str(path), "--snapshot", str(cut),
                 "--states", str(out / "states.txt"), "--output-dir", str(tmp_path)]) == 2
    assert "log-std tail has 0 entries" in capsys.readouterr().err
