"""Experiment configuration, sweep execution, and CSV emission.

Configs are flat text files of dotted keys (diff-friendly, no nesting):

    env.kind = "cartpole-discrete"
    run.rounds = 600
    run.seeds = 20, 25, 30
    fed.d = 5, 10, 20
    agents.preset = "cartpole-4"

Every known key has a default, and its values must have the default's type;
unknown keys and mistyped values are rejected by name before any computation
starts. A training invocation expands into a grid of cells
(mode, interval, seed) - the NoFed baseline plus one federated variant per
interval. `run_cell` turns a finished cell into its summary row and one list
of (relative path, contents): the metrics CSV, the snapshots and any kept
consensus broadcasts, which `train_experiment` writes in one loop. Every CSV
table (metrics, `summary.csv`, `diagnostics.csv`) is a column list and dict
rows, formatted by `csv_text`: a key a row lacks is a blank field, and reals
are printed with 17 significant digits so comparisons reproduce exactly.

The cells of a grid share their lineup, so they train together in lockstep
(`run_group`, `federation.run`): one group at `run.workers = 1`, otherwise the
cells are dealt into `run.workers` groups that run in a process pool. Every
cell's numbers are those it would have alone, and outputs are written by the
parent in a fixed order, so byte-identical results do not depend on the
worker count.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import ENV_KINDS, EnvSpec, PublicStateSet, load_state_set, save_state_set
from .errors import ArtifactIOError, ConfigurationError
from .federation import FedRunConfig, RunResult, run
from .nn_core import ACTIVATIONS
from .presets import PRESET_NAMES, preset_agents, preset_env
from .public_states import generate_public_states
from .reinforce import AgentConfig

# ------------------------------------------------------------------ config keys

_KEY_DEFAULTS = {
    "env.kind": "cartpole-discrete",
    "env.max_steps": 500,
    "run.rounds": 600,
    "run.seeds": [20, 25, 30, 35, 40],
    "run.gamma": 0.99,
    "run.workers": 1,
    "run.output_dir": "runs",
    "run.episodes_per_round": 1,
    "run.reward_to_go": False,
    "run.dump_consensus": False,
    "fed.d": [5, 10, 20],
    "fed.include_nofed": True,
    "agents.preset": "cartpole-4",
    "agents.spec": "",
    "states.source": "generate",
    "states.path": "",
    "states.size": 512,
    "states.warmup_rounds": 200,
    "states.rollouts": 20,
    "states.seed": 7,
    "diag.samples": 64,
    "diag.repeats": 3,
    "diag.pairs": 200,
    "diag.radius": 0.05,
    "diag.epsilon": 0.1,
    "diag.delta": 0.05,
    "diag.seed": 99,
}


# a quoted string (kept whole) or a comment from '#' to the end of the line
_COMMENT = re.compile(r"""("[^"]*"|'[^']*')|#.*""")


def _parse_scalar(raw: str):
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment, commas make lists."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.sub(lambda m: m.group(1) or "", line).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_DEFAULTS:
            raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
        if "," in raw and not (raw.strip().startswith(("'", '"'))):
            values[key] = [_parse_scalar(part) for part in raw.split(",")]
        else:
            values[key] = _parse_scalar(raw)
    return values


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float; a bool or an int too large for a float is not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _as_list(value) -> list:
    return list(value) if isinstance(value, list) else [value]


def parse_agent_spec(spec: str, episodes_per_round: int, reward_to_go: bool,
                     gamma: float) -> list[AgentConfig]:
    """Inline lineup grammar: '64:relu@1e-3; 16x16:relu,tanh@2e-3'."""
    agents = []
    for i, entry in enumerate(part for part in spec.split(";") if part.strip()):
        try:
            arch, lr_text = entry.rsplit("@", 1)
            widths_text, acts_text = arch.split(":")
            widths = [int(w) for w in widths_text.strip().split("x")]
            acts = [a.strip() for a in acts_text.split(",")]
            lr = float(lr_text)
        except ValueError as exc:
            raise ConfigurationError(f"agents.spec entry {entry.strip()!r}: {exc}") from exc
        if len(acts) == 1:
            acts = acts * len(widths)
        if len(acts) != len(widths):
            raise ConfigurationError(
                f"agents.spec entry {entry.strip()!r}: {len(widths)} widths "
                f"but {len(acts)} activations"
            )
        for width, act in zip(widths, acts):
            if width < 1:
                raise ConfigurationError(
                    f"agents.spec entry {entry.strip()!r}: width {width} is not positive")
            if act not in ACTIVATIONS:
                raise ConfigurationError(
                    f"agents.spec entry {entry.strip()!r}: unknown activation {act!r}; "
                    f"choose one of {', '.join(ACTIVATIONS)}")
        agents.append(
            AgentConfig(
                agent_id=f"agent-{i + 1}",
                hidden=list(zip(widths, acts)),
                learning_rate=lr,
                episodes_per_round=episodes_per_round,
                reward_to_go=reward_to_go,
                gamma=gamma,
            )
        )
    if not agents:
        raise ConfigurationError("agents.spec is empty")
    return agents


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(_KEY_DEFAULTS)
        merged.update(self.values)
        self.values = merged
        self._validate()

    def __getitem__(self, key: str):
        return self.values[key]

    def _fail(self, key, message):
        raise ConfigurationError(f"{key}: {message}")

    def _validate(self):
        v = self.values
        for key in v:
            if key not in _KEY_DEFAULTS:
                self._fail(key, "unknown config key")
        for key, default in _KEY_DEFAULTS.items():
            value = v[key]
            if isinstance(default, str) and not isinstance(value, str):
                self._fail(key, "must be a quoted string")
            elif isinstance(default, bool) and not isinstance(value, bool):
                self._fail(key, "must be true or false")
            elif isinstance(default, float) and not _is_real(value):
                self._fail(key, "must be a finite number")
            elif _is_int(default) and not (_is_int(value) and value >= 0):
                self._fail(key, "must be a non-negative integer")
        if v["env.kind"] not in ENV_KINDS:
            self._fail("env.kind", f"must be one of {', '.join(ENV_KINDS)}")
        for key in ("env.max_steps", "run.rounds", "run.workers",
                    "run.episodes_per_round", "states.size", "states.rollouts",
                    "diag.repeats", "diag.pairs"):
            if v[key] < 1:
                self._fail(key, "must be a positive integer")
        if v["diag.samples"] < 2:
            self._fail("diag.samples", "must be at least 2: a variance needs two samples")
        if not (0.0 < float(v["run.gamma"]) < 1.0):
            self._fail("run.gamma", "must lie in (0, 1)")
        seeds = _as_list(v["run.seeds"])
        if not seeds or not all(_is_int(s) and s >= 0 for s in seeds):
            self._fail("run.seeds", "must be one or more non-negative integers")
        v["run.seeds"] = seeds
        ds = _as_list(v["fed.d"])
        if not all(_is_int(d) and d >= 1 for d in ds):
            self._fail("fed.d", "intervals must be integers >= 1")
        for key, values in (("run.seeds", seeds), ("fed.d", ds)):
            repeated = sorted({x for x in values if values.count(x) > 1})
            if repeated:
                self._fail(key, f"duplicate entries {', '.join(map(str, repeated))}; "
                                "each cell would run and write its files more than once")
        if any(d > v["run.rounds"] for d in ds):
            self._fail("fed.d", "intervals beyond run.rounds never fire; drop them "
                                "or use fed.include_nofed")
        v["fed.d"] = ds
        if v["states.source"] not in ("generate", "file"):
            self._fail("states.source", "must be 'generate' or 'file'")
        if v["states.source"] == "file" and not v["states.path"]:
            self._fail("states.path", "required when states.source = 'file'")
        for key in ("diag.radius", "diag.epsilon", "diag.delta"):
            if not float(v[key]) > 0.0:
                self._fail(key, "must be positive")
        epsilon, delta = float(v["diag.epsilon"]), float(v["diag.delta"])
        if delta * epsilon * epsilon == 0.0:  # as `chebyshev_samples` forms it
            raise ConfigurationError(
                f"diag.epsilon = {epsilon!r}, diag.delta = {delta!r}: delta * epsilon^2 "
                "underflows to 0, so the sample count Var / (delta * epsilon^2) is too "
                "large for a float")
        if not v["agents.spec"]:
            if v["agents.preset"] not in PRESET_NAMES:
                self._fail("agents.preset", f"must be one of {', '.join(PRESET_NAMES)}")
            if preset_env(v["agents.preset"]) != v["env.kind"]:
                self._fail("agents.preset", f"is not a lineup for {v['env.kind']}")
        # build once so per-agent validation fires before any run starts
        self.agent_configs()

    def agent_configs(self) -> list[AgentConfig]:
        v = self.values
        if v["agents.spec"]:
            return parse_agent_spec(
                v["agents.spec"], v["run.episodes_per_round"],
                v["run.reward_to_go"], float(v["run.gamma"]),
            )
        return preset_agents(
            v["agents.preset"], v["run.episodes_per_round"],
            v["run.reward_to_go"], float(v["run.gamma"]),
        )

    def resolved_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, list):
                rendered = ", ".join(str(x) for x in value)
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, str):
                rendered = f'"{value}"'
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"


def load_experiment_config(path=None, overrides: list[str] | None = None) -> ExperimentConfig:
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        values.update(parse_config_text(text))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} must look like key=value")
        values.update(parse_config_text(item))
    return ExperimentConfig(values)


# --------------------------------------------------------------------- metrics

METRICS_COLUMNS = [
    "run_id", "seed", "mode", "d", "round", "agent_id",
    "episode_return", "discounted_return", "kl_loss",
    "policy_grad_norm", "kl_grad_norm", "bytes_communicated",
]

SUMMARY_COLUMNS = ["mode", "d", "seed", "final_window_mean", "overall_mean"]

FINAL_WINDOW = 100


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass(frozen=True)
class Cell:
    interval: int | None  # None: the NoFed baseline
    seed: int

    @property
    def mode(self) -> str:
        return "nofed" if self.interval is None else "fedhpd"

    @property
    def run_id(self) -> str:
        return "nofed" if self.interval is None else f"fedhpd-d{self.interval}"

    @property
    def file_name(self) -> str:
        return f"run-{self.run_id}-seed{self.seed}.csv"


def experiment_cells(config: ExperimentConfig) -> list[Cell]:
    intervals = ([None] if config["fed.include_nofed"] else []) + config["fed.d"]
    return [Cell(d, seed) for d in intervals for seed in config["run.seeds"]]


def csv_text(columns: list[str], rows) -> str:
    """A CSV table: the header, then each dict row's `fmt` value per column,
    a key the row lacks being a blank field."""
    lines = [",".join(columns)]
    lines.extend(",".join(fmt(row.get(column)) for column in columns) for row in rows)
    return "\n".join(lines) + "\n"


def metrics_rows(cell: Cell, result: RunResult) -> list[dict]:
    """One row per agent per round plus a system row, by column name."""
    base = {"run_id": cell.run_id, "seed": cell.seed, "mode": cell.mode, "d": cell.interval}
    rows = []
    system_returns = result.system_returns().tolist()
    system_discs = result.discounted_return.mean(axis=1).tolist()
    for i, (returns, discs, norms) in enumerate(zip(
            result.episode_return.tolist(), result.discounted_return.tolist(),
            result.grad_norm.tolist())):
        record = result.consensus_records.get(i)
        for k, agent_id in enumerate(result.agent_ids):
            rows.append({**base, "round": i, "agent_id": agent_id, "episode_return": returns[k],
                         "discounted_return": discs[k], "policy_grad_norm": norms[k],
                         "kl_loss": record.kl_losses[k] if record else None,
                         "kl_grad_norm": record.kl_grad_norms[k] if record else None})
        rows.append({**base, "round": i, "agent_id": "system",
                     "episode_return": system_returns[i], "discounted_return": system_discs[i],
                     "kl_loss": float(np.mean(record.kl_losses)) if record else None,
                     "bytes_communicated": record.bytes_communicated if record else 0})
    return rows


def run_cell(cell: Cell, result: RunResult) -> dict:
    """Format one finished cell: its summary row, and its files in writing order
    as (path in the output directory, contents): metrics CSV, snapshots, kept broadcasts."""
    system = result.system_returns()
    window = min(FINAL_WINDOW, system.size)
    stem = f"{cell.run_id}-seed{cell.seed}"
    return {
        "cell": cell,
        "summary": {"mode": cell.mode, "d": cell.interval, "seed": cell.seed,
                    "final_window_mean": float(system[-window:].mean()),
                    "overall_mean": float(system.mean())},
        "files": [(cell.file_name, csv_text(METRICS_COLUMNS, metrics_rows(cell, result)))]
        + [(f"snapshots/{stem}-{agent_id}.fhpd", blob)
           for agent_id, blob in zip(result.agent_ids, result.final_snapshots)]
        + [(f"consensus/{stem}-round{i}.bin", record.broadcast)
           for i, record in result.consensus_records.items() if record.broadcast is not None],
    }


def _cell_outcome(cell: Cell, result) -> dict:
    """A finished cell's outputs, or its failure; cell failures are recorded,
    not fatal."""
    try:
        if not isinstance(result, Exception):
            return run_cell(cell, result)
    except Exception as exc:
        result = exc
    return {"cell": cell, "error": f"{type(result).__name__}: {result}"}


def run_group(args) -> list[dict]:
    """Train a group of cells in lockstep (`federation.run`); one outcome per
    cell, with a failure recorded against its cell only."""
    config, cells, states = args
    try:
        results = run(
            FedRunConfig(
                env_kind=config["env.kind"],
                rounds=config["run.rounds"],
                agent_configs=config.agent_configs(),
                max_steps=config["env.max_steps"],
            ),
            [(cell.interval, cell.seed) for cell in cells],
            states,
            keep_broadcasts=config["run.dump_consensus"])
    except Exception as exc:  # a failure before the cells part fails them all
        results = [exc] * len(cells)
    outcomes = []
    for c, cell in enumerate(cells):
        outcomes.append(_cell_outcome(cell, results[c]))
        results[c] = None  # a cell's result is large next to its CSV text
    return outcomes


def write_file(path: Path, data: str | bytes | None) -> None:
    """Write one output file, creating its directory, or with `data` None remove
    an earlier run's, now stale; failures are I/O errors."""
    try:
        if data is None:
            path.unlink(missing_ok=True)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data.encode() if isinstance(data, str) else data)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc


def write_states(config: ExperimentConfig, path: Path) -> PublicStateSet:
    """Generate the public state set; save it and its provenance sidecar."""
    states = generate_public_states(
        EnvSpec(config["env.kind"], config["env.max_steps"]),
        warmup_rounds=config["states.warmup_rounds"],
        rollouts=config["states.rollouts"],
        n=config["states.size"],
        seed=config["states.seed"],
    )
    write_file(path.with_suffix(".provenance.json"), json.dumps({
        "seed": config["states.seed"],
        "warmup_rounds": config["states.warmup_rounds"],
        "rollouts": config["states.rollouts"],
        "size": config["states.size"],
        "env_kind": config["env.kind"],
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }, indent=2) + "\n")
    save_state_set(states, path)
    return states


def train_experiment(config: ExperimentConfig, output_dir) -> dict:
    """Run every cell of the grid and write metrics, summary, and config."""
    output_dir = Path(output_dir)
    write_file(output_dir / "config.resolved", config.resolved_text())

    cells = experiment_cells(config)
    states = None
    if any(cell.mode == "fedhpd" for cell in cells):
        if config["states.source"] == "file":
            states = load_state_set(config["states.path"])
        else:
            states = write_states(config, output_dir / "states.txt")

    # cells are dealt round-robin into one lockstep group per worker
    workers = min(config["run.workers"], len(cells))
    jobs = [(config, cells[g::workers], states) for g in range(workers)]
    if workers == 1:
        grouped = [run_group(jobs[0])]
    else:
        # imported here: the pool's modules would add about 15 ms to every process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(run_group, jobs))
    outcomes: list = [None] * len(cells)
    for g, group in enumerate(grouped):
        outcomes[g::workers] = group

    summary_rows = []
    pooled: dict = {}
    failures = []
    written = []
    for outcome in outcomes:
        cell = outcome["cell"]
        if "error" in outcome:
            failures.append(f"{cell.file_name}: {outcome['error']}")
            write_file(output_dir / cell.file_name, None)  # an earlier run's, now stale
            continue
        for name, data in outcome["files"]:
            write_file(output_dir / name, data)
        written.append(output_dir / cell.file_name)
        summary_rows.append(outcome["summary"])
        pooled.setdefault((cell.mode, cell.interval), []).append(outcome["summary"])

    for (mode, d), rows in sorted(pooled.items()):
        summary_rows.append({"mode": mode, "d": d, "seed": "pooled", **{
            key: float(np.mean([row[key] for row in rows]))
            for key in ("final_window_mean", "overall_mean")}})
    summary_path = output_dir / "summary.csv"
    write_file(summary_path, csv_text(SUMMARY_COLUMNS, summary_rows))

    write_file(output_dir / "failures.txt", "\n".join(failures) + "\n" if failures else None)
    return {
        "metrics_files": written,
        "summary_file": summary_path,
        "failures": failures,
    }
