"""Config grammar, sweep execution, CSV schemas, and CLI exit codes."""

import csv
import dataclasses
import hashlib
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from fedhpd import cli, experiment
from fedhpd.cli import DIAGNOSTICS_COLUMNS, main
from fedhpd.diagnostics import SmoothnessProbe, VarianceReport
from fedhpd.env import PublicStateSet, save_state_set
from fedhpd.errors import ConfigurationError
from fedhpd.nn_core import LayerSpec, glorot_init, network_from_bytes
from fedhpd.experiment import (
    _KEYS,
    MAX_WIDTH,
    METRICS_COLUMNS,
    SIZE_KEYS,
    SUMMARY_COLUMNS,
    ExperimentConfig,
    csv_text,
    experiment_cells,
    load_experiment_config,
    parse_agent_spec,
    parse_config_text,
    train_experiment,
)
from fedhpd.policy import DistributionBatch
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


def test_a_key_repeated_in_one_file_is_a_config_error_naming_both_lines(tmp_path, capsys):
    text = "fed.d = 5\nrun.rounds = 5\n# a comment\nrun.rounds = 7\n"
    with pytest.raises(ConfigurationError,
                       match="config lines 2 and 4: run.rounds is set twice"):
        parse_config_text(text)
    assert main(["train", "--config", str(write_config(tmp_path, text))]) == 2
    assert "run.rounds" in capsys.readouterr().err
    # one override per key still replaces the file's value, and a later one an earlier one
    config = load_experiment_config(write_config(tmp_path, "fed.d = 5\nrun.rounds = 5\n"),
                                    ["run.rounds = 6", "run.rounds = 7"])
    assert config["run.rounds"] == 7


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


def readme_cells(default, least, greatest):
    """The default and range cells of a key's README row."""
    kind = type(default[0] if isinstance(default, list) else default)
    if kind is bool:
        shown = "true" if default else "false"
    else:
        shown = ", ".join(map(str, default)) if isinstance(default, list) else str(default)
    if least is None:
        span = ""
    elif kind is str:
        span = f"`{least}` or `{greatest}`"
    elif kind is float:
        span = f"({least:g}, {greatest:g})" if greatest < math.inf else f"> {least:g}"
    else:
        span = f"{least} to {greatest:,}" if greatest is not None else f">= {least}"
    return f"`{shown}`" if shown else "", span


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {cells[0].strip("`"): tuple(cells[1:3]) for cells in (
        [cell.strip() for cell in line.split("|")[1:-1]] for line in readme.splitlines()
        if re.match(r"\| `[a-z_]+\.[a-z_]+` \|", line))}
    assert sorted(rows) == sorted(_KEYS)
    for key, cells in rows.items():
        assert cells == readme_cells(*_KEYS[key]), key


@pytest.mark.parametrize("key,ceiling", [
    (key, MAX_WIDTH if key == "agents.spec" else _KEYS[key][2]) for key in SIZE_KEYS])
def test_a_size_above_its_ceiling_is_a_config_error_by_name(tmp_path, capsys, key, ceiling):
    def setting(value):
        return f'agents.spec = "{value}:relu@1e-3"' if key == "agents.spec" else f"{key} = {value}"

    ExperimentConfig(parse_config_text(setting(ceiling)))  # the ceiling itself is accepted
    out = tmp_path / "out"
    assert main(["train", "--output-dir", str(out), "--set", setting(ceiling + 1)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {key}")
    assert not out.exists()


@pytest.mark.parametrize("setting", ["states.size = 4611686018427387904",
                                     "run.rounds = 4611686018427387904",
                                     'agents.spec = "4611686018427387904:relu@1e-3"'])
@pytest.mark.parametrize("command", ["generate-states", "train"])
def test_a_size_of_two_to_the_62_fails_before_any_work(tmp_path, capsys, setting, command):
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path)), "--output-dir", str(out),
                 "--set", setting]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {setting.split()[0]}")
    assert not out.exists()


def test_running_out_of_memory_is_a_config_error_naming_the_sizes(tmp_path, capsys,
                                                                  monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("fedhpd.federation.distillation_round", exhausted)
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path)),
                 "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: out of memory; lower ")
    assert all(key in err for key in SIZE_KEYS)
    assert not (out / "failures.txt").exists() and not list(out.glob("run-*.csv"))


def dying_group(job):
    os._exit(9)  # ends the worker as the kernel's out-of-memory killer would


def test_a_worker_that_dies_is_a_config_error_naming_the_sizes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiment, "run_group", dying_group)
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path)), "--output-dir", str(out),
                 "--set", "run.workers = 2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: a worker process ended abruptly; lower ")
    assert all(key in err for key in SIZE_KEYS) and err.count("\n") == 1
    assert not (out / "failures.txt").exists() and not list(out.glob("run-*.csv"))


def test_agent_spec_grammar():
    agents = parse_agent_spec("64:relu@1e-3; 16x16:relu,tanh@2e-3")
    assert [a.agent_id for a in agents] == ["agent-1", "agent-2"]
    assert agents[0].hidden == [(64, "relu")]
    assert agents[1].hidden == [(16, "relu"), (16, "tanh")]
    assert agents[1].learning_rate == 2e-3
    with pytest.raises(ConfigurationError):
        parse_agent_spec("16x16:relu,tanh,relu@1e-3")
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


def test_a_grid_with_no_cells_is_a_config_error_naming_both_keys():
    with pytest.raises(ConfigurationError, match="fed.d: .*fed.include_nofed"):
        ExperimentConfig({"fed.d": [], "fed.include_nofed": False, "run.rounds": 2})


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


def test_cli_diagnose_of_an_overflowing_snapshot_is_a_numeric_error(tmp_path, capsys):
    # the snapshot's own logits overflow: the package's message, and no numpy
    # warning (an error under this suite's filter) before it
    argv = quick_diagnose(tmp_path)
    snapshot = Path(argv[argv.index("--snapshot") + 1])
    net, _ = network_from_bytes(snapshot.read_bytes())
    net.set_params(net.params * 1e200)
    save_network(net, snapshot)
    assert main(argv) == 3
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


def test_diagnostics_columns_are_the_report_and_probe_fields(tmp_path, monkeypatch):
    # each row is written by column name, so a renamed field would leave a blank
    names = ["probe", "round_index", "identity_residual", "chebyshev_n_j", "chebyshev_n_jprime"]
    for report in (VarianceReport, SmoothnessProbe):
        names += [field.name for field in dataclasses.fields(report)]
    assert sorted(DIAGNOSTICS_COLUMNS) == sorted(names)

    # the same holds for the metrics and summary rows: record every table
    # handed to `csv_text` by a grid whose interval fires, and a diagnose run
    tables = {}

    def recording_csv_text(columns, rows):
        rows = list(rows)
        tables.setdefault(tuple(columns), []).extend(rows)
        return csv_text(columns, rows)

    monkeypatch.setattr(experiment, "csv_text", recording_csv_text)
    monkeypatch.setattr(cli, "csv_text", recording_csv_text)
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--output-dir", str(out)]) == 0
    assert main(["diagnose", "--config", str(path), "--output-dir", str(out),
                 "--snapshot", str(out / "snapshots" / "fedhpd-d4-seed20-agent-1.fhpd"),
                 "--states", str(out / "states.txt"), "--set", "diag.samples = 4",
                 "--set", "diag.repeats = 1", "--set", "diag.pairs = 2"]) == 0
    assert sorted(tables) == sorted(
        tuple(columns) for columns in (METRICS_COLUMNS, SUMMARY_COLUMNS, DIAGNOSTICS_COLUMNS))
    for columns, rows in tables.items():
        # a key outside the columns would never be written ...
        assert {key for row in rows for key in row} <= set(columns)
        # ... and a misspelt key would leave its column blank on every row
        blank = [c for c in columns if all(experiment.fmt(row.get(c)) == "" for row in rows)]
        assert blank == []


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


def test_cli_diagnose_reads_a_dumped_consensus(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "train-out"
    assert main(["train", "--config", str(path), "--output-dir", str(out),
                 "--set", "run.dump_consensus = true"]) == 0
    diagnose = ["diagnose", "--config", str(path), "--states", str(out / "states.txt"),
                "--snapshot", str(out / "snapshots" / "fedhpd-d4-seed20-agent-1.fhpd"),
                "--set", "diag.samples = 4", "--set", "diag.repeats = 2",
                "--set", "diag.pairs = 1"]
    ratios = {}
    for name, consensus in (("self", []),
                            ("dump", ["--consensus", str(out / "consensus" /
                                                         "fedhpd-d4-seed20-round7.bin")])):
        assert main([*diagnose, *consensus, "--output-dir", str(tmp_path / name)]) == 0
        with open(tmp_path / name / "diagnostics.csv", newline="") as fh:
            ratios[name] = [row["grad_norm_ratio"] for row in csv.DictReader(fh)
                            if row["probe"].startswith("variance")]
    # the agent's own batch has a vanishing KL gradient; the consensus its
    # cell broadcast in the last round does not
    assert ratios["self"] == ["0", "0"]
    assert all(float(ratio) > 0.0 for ratio in ratios["dump"]) and len(ratios["dump"]) == 2


@pytest.mark.parametrize("consensus,code,message", [
    (DistributionBatch("gaussian", mean=np.zeros((6, 2)), var=np.ones((6, 2))).to_bytes(),
     2, "a gaussian batch of 6 states x 2 does not fit the categorical snapshot's "
        "2 outputs on 6 states"),
    (DistributionBatch("categorical", probs=np.full((5, 2), 0.5)).to_bytes(),
     2, "a categorical batch of 5 states x 2 does not fit"),
    (DistributionBatch("categorical", probs=np.tile([0.25, 0.25, 0.5], (6, 1))).to_bytes(),
     2, "a categorical batch of 6 states x 3 does not fit"),
    (DistributionBatch("categorical", probs=np.full((6, 2), 0.5)).to_bytes()[:-8],
     4, "batch payload size mismatch"),
], ids=["gaussian", "one-state-short", "three-actions", "truncated"])
def test_cli_diagnose_names_a_consensus_file_that_does_not_fit(tmp_path, capsys, consensus,
                                                               code, message):
    # `quick_diagnose` runs a two-action categorical snapshot on six states
    dump = tmp_path / "consensus.bin"
    dump.write_bytes(consensus)
    assert main([*quick_diagnose(tmp_path), "--consensus", str(dump)]) == code
    err = capsys.readouterr().err
    prefix = {2: "configuration error", 4: "I/O error"}[code]
    assert err.startswith(f"{prefix}: consensus {dump}: ")
    assert message in err
    assert not (tmp_path / "diag" / "diagnostics.csv").exists()


@pytest.mark.parametrize("damage,message", [
    (lambda blob: blob[:-1], "snapshot payload is not a whole number of f64 values"),
    (lambda blob: b"XXXX" + blob[4:], "bad snapshot magic"),
], ids=["truncated", "bad-magic"])
def test_cli_diagnose_names_a_damaged_snapshot(tmp_path, capsys, damage, message):
    argv = quick_diagnose(tmp_path)
    snapshot = Path(argv[argv.index("--snapshot") + 1])
    snapshot.write_bytes(damage(snapshot.read_bytes()))
    assert main(argv) == 4
    assert capsys.readouterr().err == f"I/O error: snapshot {snapshot}: {message}\n"


def test_rerun_removes_the_stale_failures_and_metrics_of_an_earlier_run(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"

    def train(learning_rate):
        return main(["train", "--config", str(path), "--output-dir", str(out),
                     "--set", f'agents.spec = "4:relu@{learning_rate}"',
                     "--set", "run.dump_consensus = true"])

    def cell_files():
        return sorted(p.relative_to(out).as_posix() for pattern in (
            "run-*.csv", "snapshots/*", "consensus/*") for p in out.glob(pattern))

    names = ["run-fedhpd-d4-seed20.csv", "run-fedhpd-d4-seed25.csv",
             "run-nofed-seed20.csv", "run-nofed-seed25.csv"]
    assert train("1e-3") == 0
    assert sorted(p.name for p in out.glob("run-*.csv")) == names
    files = cell_files()
    assert len(files) == 4 + 4 + 4  # metrics, one snapshot per agent, two dumps per seed
    # every cell blows up: none of the first run's metrics CSVs, snapshots or
    # consensus dumps may remain
    assert train("1e300") == 3
    failures = (out / "failures.txt").read_text().splitlines()
    assert sorted(line.split(":")[0] for line in failures) == names
    # the package's own finiteness check names the fault, whatever the
    # warnings filter (here pytest's error::RuntimeWarning)
    assert all(": NumericError: " in line for line in failures)
    assert cell_files() == []
    # a clean run into the same directory leaves no failures behind
    assert train("1e-3") == 0
    assert not (out / "failures.txt").exists()
    assert cell_files() == files


def test_rerun_fails_on_a_stale_failures_file_it_cannot_remove(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    (out / "failures.txt").mkdir(parents=True)  # a directory: unlink fails
    assert main(["train", "--config", str(path), "--output-dir", str(out)]) == 4


@pytest.mark.parametrize("stale", ["snapshots/nofed-seed20-agent-9.fhpd",
                                   "consensus/fedhpd-d4-seed25-round1.bin"])
def test_rerun_fails_on_a_stale_cell_file_it_cannot_remove(tmp_path, stale):
    # a file of a cell this run trains but does not write is an earlier run's
    path = write_config(tmp_path)
    out = tmp_path / "out"
    (out / stale).mkdir(parents=True)  # a directory: unlink fails
    assert main(["train", "--config", str(path), "--output-dir", str(out)]) == 4


PINNED_CONFIG = """
env.kind = "cartpole-discrete"
run.rounds = 6
run.seeds = 20, 25
fed.d = 2
agents.preset = "cartpole-4"
states.size = 16
states.warmup_rounds = 0
states.rollouts = 2
"""

# the round knobs off their defaults, on two workers
PINNED_KNOBS_CONFIG = PINNED_CONFIG + """run.workers = 2
run.episodes_per_round = 2
run.reward_to_go = true
run.gamma = 0.9
"""

# a Gaussian grid whose interval fires, with its consensus broadcasts kept
PINNED_GAUSSIAN_CONFIG = """
env.kind = "cartpole-continuous"
run.rounds = 4
run.seeds = 20
fed.d = 2
run.dump_consensus = true
agents.preset = "pendulum-4"
states.size = 16
states.warmup_rounds = 0
states.rollouts = 2
"""

# sha256 of the CSVs, snapshots and consensus dumps each config trains; the
# cartpole CSVs are as written by the version that still built positional CSV
# rows. A change here is a schema, wire-format or numeric change.
PINNED_SHA256 = {
    "cartpole": (PINNED_CONFIG, {
        "run-fedhpd-d2-seed20.csv":
            "f267d7e13ce3bf8a47589e10097b16f27c448c13a2a0f6714cc774734e9642bb",
        "run-fedhpd-d2-seed25.csv":
            "99f1797c92b07035dd3e135024b410521ef7117974d21b09bec89e9d49ecae76",
        "run-nofed-seed20.csv":
            "efca2002806dba5940f46f1f339da0f6e5de92f5b1c0d00377afe1c4f07e1767",
        "run-nofed-seed25.csv":
            "cfb3373144eb8f4dde969b38fc04cf4b8ad72847ec3028e2352e3affe40d3848",
        "summary.csv":
            "0598f02966978c0df35007cf06d46f768be41994c4a95c777927adcd732e656f",
        "snapshots/fedhpd-d2-seed20-agent-1.fhpd":
            "19eb7bccb8f70b2b44aa23d31eedfa6389ce434ac7ebc4a3f72641d87df3f776",
        "snapshots/fedhpd-d2-seed20-agent-10.fhpd":
            "a8e84214f6c7df94aa60b073daa6cc53f42267378399651fd6b56342043c7ee5",
        "snapshots/fedhpd-d2-seed20-agent-2.fhpd":
            "5f7e06c07afb2e280946d39c2fb3dc8cb1d6c418514041f937af3a04067523e2",
        "snapshots/fedhpd-d2-seed20-agent-6.fhpd":
            "b703e80c4d57d65ac8093037e069cf9a24205535b03a4716f67342fbed135938",
        "snapshots/fedhpd-d2-seed25-agent-1.fhpd":
            "28b21b29208f012cd2d510a2e12294eab9234010666288a29e8045121b7d0840",
        "snapshots/fedhpd-d2-seed25-agent-10.fhpd":
            "44ef7a5a88ca3303c59fdb36c819425e8504bbcf2ca7a77fa2c3d5aa0e64a31d",
        "snapshots/fedhpd-d2-seed25-agent-2.fhpd":
            "72f500124effc2caecef153d762486abfcea50a88e0f76a29f0ce9a7fc0589d3",
        "snapshots/fedhpd-d2-seed25-agent-6.fhpd":
            "ea745e913d710d19b0d08aa0a1f28f5c57f75d754d1387cb77d184be765552c1",
        "snapshots/nofed-seed20-agent-1.fhpd":
            "35d525c5036b43d971ec332d4788fd2e0adac29d048ffd23c12d40b7419c0e94",
        "snapshots/nofed-seed20-agent-10.fhpd":
            "12ef1de773bb89a1af78f3fc650cab068ff96573ca9fc91a1e8348233e4b4b0a",
        "snapshots/nofed-seed20-agent-2.fhpd":
            "56ffd45893c03bc6c7564f173a3b153d5c184714a145c63f7ef12f42127cfe32",
        "snapshots/nofed-seed20-agent-6.fhpd":
            "33c2a624f7b9ac070475a866401244afc33183921b8eb96ef1cf5a7a38cd07b2",
        "snapshots/nofed-seed25-agent-1.fhpd":
            "051ecf09d3f8972e98b51b5fa2522686de5978758dcaf1c425c5d75ff24321d7",
        "snapshots/nofed-seed25-agent-10.fhpd":
            "72d0b83f514c379c0928c588e338304c870bd5ed36143ce2064625a301775944",
        "snapshots/nofed-seed25-agent-2.fhpd":
            "76fdcdd47ff5385782f0bc1d8faed7d13f1a7813e814b8df32800831f62a1153",
        "snapshots/nofed-seed25-agent-6.fhpd":
            "2aba69a2a189dda46aa6444fbe05c9b3c6356e0fa51d5316ead4ae04e800dae2",
    }),
    "pendulum": (PINNED_GAUSSIAN_CONFIG, {
        "run-fedhpd-d2-seed20.csv":
            "f17e2775b7c2ad9987210797cdcaca3c2ddcb9f6d6cdf942ffc2a771d1d65f56",
        "run-nofed-seed20.csv":
            "bb67c17bb21231a9989e2f1d7032cf10ad3f96da380cbe6011ce5dc92f834d40",
        "summary.csv":
            "1aac867c8bdbd0d9681b4851b0538f4a53b690b04716b2a4488c1aec936173af",
        "snapshots/fedhpd-d2-seed20-agent-1.fhpd":
            "6df320f4fbf4ce8d9af24241eab7ca04f8b6453150e8740eba9c04a7e34c9960",
        "snapshots/fedhpd-d2-seed20-agent-10.fhpd":
            "854c3bca8df1dd351ff5318f3f49a72e4482c56a7f3b7b5cae77a8c914b35f7f",
        "snapshots/fedhpd-d2-seed20-agent-2.fhpd":
            "1d7b9294605c2cdbcca2ad7d2e214e7deb6e44a5531cfad0c893e93c580fc455",
        "snapshots/fedhpd-d2-seed20-agent-6.fhpd":
            "21506cb8f7015249abf925b1643fe9c8a9ce5e25ad31b511f12f6b71e218c5d8",
        "snapshots/nofed-seed20-agent-1.fhpd":
            "dbb7d27a26f4ec968ef0a3587c940267479beae305e827ea2bfa45d6326db1c1",
        "snapshots/nofed-seed20-agent-10.fhpd":
            "3b524a5e437d8eb873a24c8943854a920cd75826d5237729d5cc2918f78c3d8f",
        "snapshots/nofed-seed20-agent-2.fhpd":
            "037c02a5f9d15684c65184043ffffc63895e7e235ef76aafb214a8492af27562",
        "snapshots/nofed-seed20-agent-6.fhpd":
            "29d421899d52a7c0c2541a0b7b686e0147261519278dbfa54364edb334a051b0",
        "consensus/fedhpd-d2-seed20-round1.bin":
            "1096e3a9f7d62ff6ff5f25dd7251befa8fc11035d1da8c2f5fd512b9b904585f",
        "consensus/fedhpd-d2-seed20-round3.bin":
            "a4faaa7d68db2d7f4d641f4b6fce519ea3eb99c9e3a66f841bfd57798107bebc",
    }),
    "knobs": (PINNED_KNOBS_CONFIG, {
        "run-fedhpd-d2-seed20.csv":
            "be65ea23c41967fa4cdd4170a9e43b16afda232faf0eaa71336b343f4e42bd86",
        "run-fedhpd-d2-seed25.csv":
            "a246af3c23031d2c91e298956087ea43683d8293488ccfee3c22dc6fb3758c84",
        "run-nofed-seed20.csv":
            "769e85469ba8d029413168a841722fa3bba93048f04856bc5fd918bce258769f",
        "run-nofed-seed25.csv":
            "87a9138f7f873764a4857fb7a63f2123e7826a66a07561324d136f072b66d501",
        "summary.csv":
            "fb3cbf245aff52cd54832a90329859b2121d6dcdf50573465173eb5a3d2b671e",
        "snapshots/fedhpd-d2-seed20-agent-1.fhpd":
            "75f4291ee586801334d073f5d2e89410d547a3eb8abe4e343ed64bb2e0842be1",
        "snapshots/fedhpd-d2-seed20-agent-10.fhpd":
            "7c420af0fb02ec50f4e90c75c0bdb72ee61e64b0a18069f61520c282985fa063",
        "snapshots/fedhpd-d2-seed20-agent-2.fhpd":
            "3f0cd727ed3a3cbf86d2eaffb5ddb55fb6d42238d4337d3b7f6e3fb4bcf96f8b",
        "snapshots/fedhpd-d2-seed20-agent-6.fhpd":
            "4857a05991897942e1abf0015c98271944d385c8e3a38b508da26de082b6468b",
        "snapshots/fedhpd-d2-seed25-agent-1.fhpd":
            "66701505fd87b51576fec7b13469a0da6e7b62312636ea2304268744b6043d12",
        "snapshots/fedhpd-d2-seed25-agent-10.fhpd":
            "ddd37a974e6b19ea8827310af5e7e8e17246455c3c8b8403250a63076e5b25c3",
        "snapshots/fedhpd-d2-seed25-agent-2.fhpd":
            "6bb372bf846128eff08f234e740587f81069bf97304f28ddc8105307dec166c6",
        "snapshots/fedhpd-d2-seed25-agent-6.fhpd":
            "edc7e54acb4bcd95e21196c9310f7908360733f7f1dceba240390715ffcabd6a",
        "snapshots/nofed-seed20-agent-1.fhpd":
            "fb58f59b9caab0738595d51f6adda30e5170b9b03df732c126c0d3cf09e8075d",
        "snapshots/nofed-seed20-agent-10.fhpd":
            "ed6c5a728ae322e650f38bd4ce7b43adeed773418724cf9e92b06aa00d384c36",
        "snapshots/nofed-seed20-agent-2.fhpd":
            "8c46898d66a3fb9b38317d8898f475374741f81b8bc014e98d8e8feec2eafe98",
        "snapshots/nofed-seed20-agent-6.fhpd":
            "864f8b133e8ab54c32eb46e3c80325b44d60f34dc585a3c68ee7519e49cf8b8f",
        "snapshots/nofed-seed25-agent-1.fhpd":
            "52c49ceee448d5aa98aba108fe0418f3da59326eceb105a9d0f639a0c0d38eca",
        "snapshots/nofed-seed25-agent-10.fhpd":
            "8a25d9282c574c79278f428258163339106c7015c8ecf9ab358d9726f42f9a84",
        "snapshots/nofed-seed25-agent-2.fhpd":
            "72190bd8e384b6009e4613a3feeef3df57e2744ad047d7a029fded89b912f76b",
        "snapshots/nofed-seed25-agent-6.fhpd":
            "4dc29a73743d404e121aef0ef1f4343b9f0ebdc8a6e2b3c34a1da56f5267f25c",
    }),
}


@pytest.mark.parametrize("grid", sorted(PINNED_SHA256))
def test_train_outputs_keep_their_pinned_bytes(tmp_path, grid):
    text, pinned = PINNED_SHA256[grid]
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path, text)),
                 "--output-dir", str(out)]) == 0
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for pattern in ("*.csv", "snapshots/*", "consensus/*")
               for p in sorted(out.glob(pattern))}
    assert digests == pinned


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
